//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU-side deduplication index: bin buffer in front of the bin
/// tree, probed and maintained bin-parallel without locks.
///
/// A batch of fingerprints is sorted by bin, the bin space is
/// partitioned across worker threads (each bin is owned by exactly one
/// worker for the batch — the DHT-style trick of §3.1(1)), and each
/// worker runs the paper's CPU lookup order for its bins: bin buffer
/// first (temporal locality), then bin tree, else unique → insert into
/// the bin buffer. A filling buffer drains into a flush event
/// (sequential SSD write + bin-tree merge + GPU-table update are
/// performed by the engine, §3.3).
///
/// Shard map (SERVICE.md): Config.Shards splits the bin space into K
/// contiguous digest-prefix ranges, shard = bin·K/binCount. It is pure
/// stats granularity — hit/insert/eviction counters are kept per shard
/// and occupancy is walked over the shard's bin range — so lookup
/// outcomes, flushes and totals are identical at every shard count.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_DEDUPINDEX_H
#define PADRE_INDEX_DEDUPINDEX_H

#include "index/BinBuffer.h"
#include "index/BinLayout.h"
#include "index/CpuBinStore.h"
#include "util/Bytes.h"
#include "util/ThreadPool.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace padre {

/// Where a lookup was satisfied (or not).
enum class LookupOutcome : std::uint8_t {
  Unique = 0,    ///< not found anywhere; inserted as a new entry
  DupBuffer = 1, ///< found in the bin buffer
  DupTree = 2,   ///< found in the bin tree
  DupGpu = 3,    ///< resolved by the GPU before the CPU path
};

/// Per-fingerprint batch result.
struct LookupResult {
  LookupOutcome Outcome = LookupOutcome::Unique;
  std::uint64_t Location = 0; ///< existing location for duplicates
  /// For DupBuffer: entries scanned newest-first before the hit
  /// (1 = the newest entry). Zero otherwise. Feeds the
  /// padre_bin_buffer_hit_depth metric — small depths confirm the
  /// paper's temporal-locality argument for probing the buffer first.
  std::uint32_t BufferDepth = 0;
};

/// A drained bin-buffer run: destined for a sequential SSD write, a
/// bin-tree merge (already performed), and a GPU bin-table update.
struct FlushEvent {
  std::uint32_t Bin = 0;
  ByteVector Suffixes;
  std::vector<std::uint64_t> Locations;
};

/// Index configuration.
struct DedupIndexConfig {
  /// log2 of the bin count; 16 = the paper's 2-byte prefix.
  unsigned BinBits = 16;
  /// Bin-buffer entries per bin before a flush.
  std::size_t BufferCapacityPerBin = 64;
  /// Bin-tree entries per bin (0 = unbounded); bounds index memory.
  std::size_t MaxEntriesPerBin = 0;
  std::uint64_t Seed = 0x5EED5EED5EEDULL;
  /// Stats shards: contiguous digest-prefix ranges of the bin space
  /// (clamped to [1, binCount]) that shardStats() reports separately.
  /// Outcomes are identical at every shard count.
  unsigned Shards = 1;
};

/// Point-in-time statistics of one index shard. Hit counters are
/// cumulative; occupancy fields are current.
struct IndexShardStats {
  std::uint64_t BufferHits = 0;
  std::uint64_t TreeHits = 0;
  std::uint64_t GpuHits = 0;
  std::uint64_t UniqueInserts = 0;
  std::uint64_t Evictions = 0;
  std::size_t TreeEntries = 0;
  std::size_t MemoryBytes = 0;
  /// First and one-past-last bin id routed to this shard.
  std::uint32_t BinBegin = 0;
  std::uint32_t BinEnd = 0;
};

/// Lock-free-by-partitioning dedup index (bin buffer + bin tree).
class DedupIndex {
public:
  explicit DedupIndex(const DedupIndexConfig &Config = DedupIndexConfig());

  const BinLayout &layout() const { return Layout; }

  /// Processes a batch: for each fingerprint, runs the CPU lookup
  /// order and fills \p Results. Unique fingerprints are inserted with
  /// their \p Locations value. \p KnownDuplicate (same length, may be
  /// empty) marks items the GPU already resolved: they are recorded as
  /// DupGpu and skip the CPU path (the pipeline fills their location).
  /// Buffer drains are merged into the tree immediately and appended
  /// to \p FlushOut (ascending bin order) for the engine's SSD/GPU
  /// follow-up. One batch at a time: the scatter scratch is reused.
  void processBatch(std::span<const Fingerprint> Fingerprints,
                    std::span<const std::uint64_t> Locations,
                    std::span<const std::uint8_t> KnownDuplicate,
                    ThreadPool &Pool, std::span<LookupResult> Results,
                    std::vector<FlushEvent> &FlushOut);

  /// Single-item lookup without insertion (read path / tests).
  std::optional<std::uint64_t> lookup(const Fingerprint &Fp) const;

  /// Removes \p Fp from the buffer or tree (garbage collection of a
  /// dead chunk's entry). Returns true if an entry was removed.
  bool remove(const Fingerprint &Fp);

  /// Single-item insert-if-absent (restore path / tools): runs the
  /// normal lookup order and inserts \p Fp at \p Location when unique.
  /// Drains land in \p FlushOut exactly as in processBatch.
  LookupResult upsert(const Fingerprint &Fp, std::uint64_t Location,
                      std::vector<FlushEvent> &FlushOut);

  /// Drains every non-empty bin buffer into flush events (end-of-run
  /// flush), merging into the tree as in processBatch.
  void flushAll(std::vector<FlushEvent> &FlushOut);

  /// Cumulative per-stage hit counters (sums over shards).
  std::uint64_t bufferHits() const;
  std::uint64_t treeHits() const;
  std::uint64_t gpuHits() const;
  std::uint64_t uniqueInserts() const;
  std::uint64_t evictions() const;

  /// Entries in the tree (buffered entries excluded).
  std::size_t treeEntries() const;

  /// Index memory: tree entry storage plus buffered entries.
  std::size_t memoryBytes() const;

  /// Stats shards (Config.Shards clamped to [1, binCount]).
  unsigned shardCount() const {
    return static_cast<unsigned>(Counters.size());
  }

  /// Counters and occupancy of shard \p Shard's bin range.
  IndexShardStats shardStats(unsigned Shard) const;

private:
  /// Per-shard cumulative counters. Atomic because one shard's bins
  /// may span two workers' slices of a batch.
  struct ShardCounters {
    std::atomic<std::uint64_t> BufferHits{0};
    std::atomic<std::uint64_t> TreeHits{0};
    std::atomic<std::uint64_t> GpuHits{0};
    std::atomic<std::uint64_t> UniqueInserts{0};
    std::atomic<std::uint64_t> Evictions{0};
  };

  /// Counters of the shard owning \p Bin.
  ShardCounters &countersOf(std::uint32_t Bin);

  /// Sums one counter over every shard.
  std::uint64_t
  sum(std::atomic<std::uint64_t> ShardCounters::*Counter) const;

  /// Runs the CPU path for one fingerprint (caller owns its bin).
  LookupResult processOne(std::uint32_t Bin, const Fingerprint &Fp,
                          std::uint64_t Location,
                          std::vector<FlushEvent> &LocalFlush);

  /// Drains \p Bin's buffer, merges the run into the tree and appends
  /// the flush event to \p FlushOut.
  void drainBin(std::uint32_t Bin, std::vector<FlushEvent> &FlushOut);

  BinLayout Layout;
  BinBuffer Buffer;
  CpuBinStore Tree;
  std::vector<ShardCounters> Counters;

  /// processBatch scratch, kept across batches so the steady-state
  /// write path makes no heap calls: batch items sorted by
  /// (bin << 32 | item) and each worker's flush events.
  std::vector<std::uint64_t> SortedItems;
  std::vector<std::vector<FlushEvent>> FlushPerWorker;
};

/// The end-to-end benchmark (perfbench/src/Common.cpp) still names the
/// index by this former interface name.
using FingerprintIndex = DedupIndex;

} // namespace padre

#endif // PADRE_INDEX_DEDUPINDEX_H
