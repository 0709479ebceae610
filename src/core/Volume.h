//===----------------------------------------------------------------------===//
///
/// \file
/// The block-device frontend: a logical-block-address (LBA) volume on
/// top of the inline reduction pipeline. This is the piece a real
/// primary storage system exposes to clients — the paper's pipeline
/// handles the write path; the volume adds what production needs
/// around it:
///
///   * overwrite semantics — rewriting an LBA remaps it and
///     dereferences the old chunk,
///   * TRIM/discard,
///   * per-chunk reference counting (duplicates share one stored
///     chunk), held in a ChunkRefTracker that several volumes can
///     share for a cross-volume dedup domain (core/StoragePool.h),
///   * deferred garbage collection — a dead chunk stays resident (and
///     can be *revived* by a dedup hit) until `collectGarbage()`
///     purges its store block and index entries,
///   * snapshots priced by divergence, and integrity scrubbing,
///   * space accounting (logical vs physical, space amplification).
///
/// Single-writer semantics: volume operations are not internally
/// synchronized (the parallelism lives inside the pipeline stages).
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_VOLUME_H
#define PADRE_CORE_VOLUME_H

#include "core/RefTracker.h"

#include <memory>

namespace padre {

/// Volume geometry.
struct VolumeConfig {
  /// Addressable blocks; block size equals the pipeline chunk size.
  std::uint64_t BlockCount = 1 << 16;
};

/// Space/GC statistics. With a shared tracker (pool member volumes)
/// the chunk/GC counters describe the whole dedup domain.
struct VolumeStats {
  std::uint64_t MappedBlocks = 0;
  std::uint64_t LiveChunks = 0;
  std::uint64_t DeadChunks = 0; ///< awaiting collectGarbage()
  std::uint64_t LogicalBytes = 0;  ///< mapped blocks x block size
  std::uint64_t PhysicalBytes = 0; ///< encoded bytes in the store
  std::uint64_t RevivedChunks = 0; ///< dead chunks rescued by dedup
  std::uint64_t CollectedChunks = 0;
  std::uint64_t Snapshots = 0;
  /// physical/logical; < 1 when reduction wins.
  double spaceAmplification() const {
    return LogicalBytes == 0 ? 0.0
                             : static_cast<double>(PhysicalBytes) /
                                   static_cast<double>(LogicalBytes);
  }
};

/// An LBA volume over a reduction pipeline. The pipeline must outlive
/// the volume and should not be written to directly while volumes
/// manage it.
class Volume {
public:
  /// \p Tracker is the chunk reference domain; pass the same tracker
  /// to several volumes over one pipeline for cross-volume dedup
  /// accounting (or leave null for a private domain).
  Volume(ReductionPipeline &Pipeline, const VolumeConfig &Config,
         std::shared_ptr<ChunkRefTracker> Tracker = nullptr);

  std::size_t blockSize() const { return BlockSize; }
  std::uint64_t blockCount() const { return Config.BlockCount; }

  /// Writes \p Data (a multiple of the block size) at block \p Lba.
  /// Returns false (writing nothing) if the range exceeds the volume.
  /// When \p InfoOut is non-null, the pipeline's per-block outcomes
  /// (location, fingerprint, dedup outcome) are appended — the journal
  /// layer records them as the write's redo intent (src/journal).
  bool writeBlocks(std::uint64_t Lba, ByteSpan Data,
                   std::vector<ChunkWriteInfo> *InfoOut = nullptr);

  /// Writes \p Data bypassing both reduction operations (the §1
  /// background-reduction baseline; see core/BackgroundReducer.h).
  bool writeBlocksRaw(std::uint64_t Lba, ByteSpan Data);

  /// Reads \p Count blocks at \p Lba. Unmapped blocks read as zeros.
  /// Returns nullopt on out-of-range or store corruption.
  std::optional<ByteVector> readBlocks(std::uint64_t Lba,
                                       std::uint64_t Count);

  /// Discards \p Count blocks at \p Lba (TRIM). Returns false only
  /// for invalid ranges.
  bool trim(std::uint64_t Lba, std::uint64_t Count);

  /// Purges dead chunks of the whole reference domain. Returns the
  /// number of chunks collected.
  std::size_t collectGarbage();

  //===--------------------------------------------------------------===//
  // Snapshots — point-in-time clones of the LBA mapping. Dedup makes
  // them nearly free: a snapshot only takes chunk references, so space
  // grows with *divergence* after the snapshot, not with volume size.
  //===--------------------------------------------------------------===//

  using SnapshotId = std::uint64_t;

  /// Captures the current mapping. O(mapped blocks); no data copied.
  SnapshotId createSnapshot();

  /// Drops a snapshot; its exclusively-referenced chunks become dead
  /// (collectable). Returns false for unknown ids.
  bool deleteSnapshot(SnapshotId Id);

  /// Reads \p Count blocks at \p Lba as of snapshot \p Id. Unmapped
  /// blocks read as zeros; nullopt on bad id/range or corruption.
  std::optional<ByteVector> readSnapshotBlocks(SnapshotId Id,
                                               std::uint64_t Lba,
                                               std::uint64_t Count);

  /// Ids of live snapshots, oldest first.
  std::vector<SnapshotId> snapshotIds() const;

  //===--------------------------------------------------------------===//
  // Scrubbing — background integrity verification.
  //===--------------------------------------------------------------===//

  struct ScrubReport {
    std::uint64_t ChunksScanned = 0;
    std::uint64_t CorruptChunks = 0;
    /// Locations whose block failed to decode or whose content no
    /// longer matches its fingerprint.
    std::vector<std::uint64_t> BadLocations;
  };

  /// Reads every tracked chunk back, decodes it, and re-fingerprints
  /// the content (charging the SSD reads and CPU hashing). A dedup
  /// store must scrub: one corrupt shared chunk silently damages every
  /// logical block that references it. Covers the whole reference
  /// domain.
  ScrubReport scrub();

  struct ScrubRepairReport {
    std::uint64_t ChunksScanned = 0;
    std::uint64_t CorruptChunks = 0;
    std::uint64_t RepairedChunks = 0;
    std::uint64_t LostChunks = 0;
    /// Locations that could not be repaired (no fingerprint-verified
    /// copy available, or the repair write failed).
    std::vector<std::uint64_t> LostLocations;
  };

  /// scrub() plus repair: each corrupt/unreadable chunk is rewritten
  /// from a fingerprint-verified cached copy when one exists (see
  /// ReductionPipeline::scrubChunk). Chunks with no trusted repair
  /// source are reported as lost — their data is gone until the caller
  /// restores from a replica or an image.
  ScrubRepairReport scrubAndRepair();

  /// Flushes pipeline buffers (bin-buffer drains).
  void flush() { Pipeline.finish(); }

  /// Current space/GC statistics.
  VolumeStats stats() const;

  /// Reference count of \p Location (0 if unknown/dead).
  std::uint32_t refCount(std::uint64_t Location) const;

  /// The chunk reference domain this volume belongs to.
  const std::shared_ptr<ChunkRefTracker> &tracker() const {
    return Tracker;
  }

  /// Maintenance access to the underlying pipeline (background
  /// reducer, tools). Use with single-writer discipline.
  ReductionPipeline &pipelineForMaintenance() { return Pipeline; }

  /// Sentinel for unwritten/trimmed LBAs in `mapping()`.
  static constexpr std::uint64_t Unmapped = ~0ull;

  /// A persisted chunk reference (persist/VolumeImage.h).
  using ChunkRecord = ChunkRefTracker::Record;

  /// Snapshot of the LBA mapping (persistence support).
  const std::vector<std::uint64_t> &mapping() const { return Mapping; }

  /// Snapshot of the reference table, in unspecified order.
  std::vector<ChunkRecord> chunkRecords() const {
    return Tracker->records();
  }

  /// A persisted snapshot (id + its full mapping).
  using SnapshotTable =
      std::vector<std::pair<SnapshotId, std::vector<std::uint64_t>>>;

  /// Snapshot table snapshot (persistence support), oldest first.
  SnapshotTable snapshotTable() const { return Snapshots; }

  /// The id the next createSnapshot() will assign (persistence
  /// support). Monotonic across deletes, so it cannot be derived from
  /// the live snapshot table.
  SnapshotId nextSnapshotId() const { return NextSnapshotId; }

  /// Replaces the volume's mapping, reference table and snapshots
  /// (restore path). Only valid for volumes with a private tracker —
  /// restoring one member of a shared domain would clobber the
  /// others' references. \p NextId restores the snapshot-id counter; it
  /// is raised to past the highest live snapshot id, so 0 (the
  /// default) derives the counter from the table alone. Returns false
  /// on geometry mismatch, snapshot mappings of the wrong size, or a
  /// shared tracker.
  bool restoreState(std::vector<std::uint64_t> NewMapping,
                    const std::vector<ChunkRecord> &Records,
                    SnapshotTable Snapshots = SnapshotTable(),
                    SnapshotId NextId = 0);

  /// Journal-replay hook (src/journal/Recovery.cpp): re-applies one
  /// recorded LBA remap without re-running the pipeline — references
  /// the chunk at \p Location (fingerprint \p Fp), installs the
  /// mapping, and dereferences the previously mapped chunk; exactly
  /// the per-block tail of writeBlocks. \p FreshChunk marks a chunk
  /// the same record just placed (replayed as a Unique outcome, so it
  /// does not count as a dedup revival). Returns false for an
  /// out-of-range LBA.
  bool applyMappingUpdate(std::uint64_t Lba, std::uint64_t Location,
                          const Fingerprint &Fp, bool FreshChunk = false);

private:
  bool writeBlocksImpl(std::uint64_t Lba, ByteSpan Data, bool Raw,
                       std::vector<ChunkWriteInfo> *InfoOut);
  /// The mapping-apply tail of writeBlocks: one Info per block, in LBA
  /// order; the range must be valid.
  void applyChunkWrites(std::uint64_t Lba,
                        std::span<const ChunkWriteInfo> Infos);

  ReductionPipeline &Pipeline;
  VolumeConfig Config;
  std::size_t BlockSize;
  bool SharedTracker;
  std::shared_ptr<ChunkRefTracker> Tracker;
  /// LBA -> chunk location; Unmapped when unwritten/trimmed.
  std::vector<std::uint64_t> Mapping;
  /// Live snapshots, oldest first.
  SnapshotTable Snapshots;
  SnapshotId NextSnapshotId = 1;
};

} // namespace padre

#endif // PADRE_CORE_VOLUME_H
