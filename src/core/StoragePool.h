//===----------------------------------------------------------------------===//
///
/// \file
/// The storage pool: several LBA volumes sharing one inline reduction
/// pipeline and one chunk reference domain — the global dedup domain a
/// primary array exposes. Cross-volume duplicates (the VDI
/// golden-image pattern: many clones of one template) are stored once;
/// a chunk is garbage only when *no* volume or snapshot anywhere in
/// the pool references it.
///
/// Single-writer semantics across the pool, like its parts.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_STORAGEPOOL_H
#define PADRE_CORE_STORAGEPOOL_H

#include "core/Volume.h"

namespace padre {

/// Pool-wide statistics.
struct PoolStats {
  std::uint64_t Volumes = 0;
  std::uint64_t MappedBlocks = 0;  ///< across all volumes
  std::uint64_t LogicalBytes = 0;  ///< across all volumes
  std::uint64_t PhysicalBytes = 0; ///< shared store, counted once
  std::uint64_t LiveChunks = 0;
  std::uint64_t DeadChunks = 0;
  /// logical / physical — the pool's headline "reduction" figure;
  /// cross-volume dedup pushes it beyond any single volume's ratio.
  double reductionRatio() const {
    return PhysicalBytes == 0 ? 0.0
                              : static_cast<double>(LogicalBytes) /
                                    static_cast<double>(PhysicalBytes);
  }
};

/// A dedup domain of volumes over one pipeline.
class StoragePool {
public:
  /// The pool owns its pipeline, built for \p Plat / \p Config.
  StoragePool(const Platform &Plat, const PipelineConfig &Config);

  /// Creates a volume of \p Blocks blocks in the shared domain. The
  /// reference stays valid for the pool's lifetime.
  Volume &createVolume(std::uint64_t Blocks);

  /// Volume \p Index, in creation order.
  Volume &volume(std::size_t Index) { return *Volumes[Index]; }

  /// Pool-wide garbage collection (any member volume's collectGarbage
  /// is equivalent; this is the idiomatic entry point).
  std::size_t collectGarbage();

  /// Drains pipeline buffers.
  void flush() { Pipeline.finish(); }

  /// Pool-wide space statistics.
  PoolStats stats() const;

  ReductionPipeline &pipeline() { return Pipeline; }
  const std::shared_ptr<ChunkRefTracker> &tracker() const {
    return Tracker;
  }

private:
  ReductionPipeline Pipeline;
  std::shared_ptr<ChunkRefTracker> Tracker;
  std::vector<std::unique_ptr<Volume>> Volumes;
};

} // namespace padre

#endif // PADRE_CORE_STORAGEPOOL_H
