//===----------------------------------------------------------------------===//
///
/// \file
/// The bin buffer (§3.3): a small per-bin staging area in front of the
/// bin tree. New (unique) hashes land here first; lookups check it
/// before the tree because "recently updated chunks can reside in the
/// bin buffer and chunks are more likely to find duplicates in the bin
/// buffer due to temporal locality". When a bin's buffer fills, it is
/// drained — the pipeline then writes the drained entries sequentially
/// to the SSD, merges them into the bin tree, and updates the GPU bin
/// table.
///
/// No internal locking: the DedupIndex partitions bins across worker
/// threads so each bin is only ever touched by one thread at a time.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_INDEX_BINBUFFER_H
#define PADRE_INDEX_BINBUFFER_H

#include "index/BinLayout.h"
#include "util/Bytes.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace padre {

/// Per-bin staging buffers for freshly inserted index entries.
class BinBuffer {
public:
  /// \p CapacityPerBin entries per bin before a drain is required.
  BinBuffer(const BinLayout &Layout, std::size_t CapacityPerBin);

  /// Looks up \p Suffix (Layout.suffixBytes() bytes) in \p Bin,
  /// scanning newest-first (temporal locality). Returns the entry's
  /// location on hit. When \p DepthOut is non-null it receives the
  /// number of entries scanned (1 = newest entry hit) — the locality
  /// signal behind the padre_bin_buffer_hit_depth metric.
  std::optional<std::uint64_t> lookup(std::uint32_t Bin,
                                      const std::uint8_t *Suffix,
                                      std::size_t *DepthOut = nullptr) const;

  /// Appends an entry to \p Bin. Returns true if the bin is now full
  /// and must be drained before further inserts.
  bool insert(std::uint32_t Bin, const std::uint8_t *Suffix,
              std::uint64_t Location);

  /// Removes the newest entry matching \p Suffix from \p Bin (garbage
  /// collection of a dead chunk's hint). Returns true if found.
  bool remove(std::uint32_t Bin, const std::uint8_t *Suffix);

  /// Moves all of \p Bin's entries out, sorted by suffix, appended to
  /// the flat arrays \p Suffixes / \p Locations. The bin is left empty.
  void drain(std::uint32_t Bin, ByteVector &Suffixes,
             std::vector<std::uint64_t> &Locations);

  /// Number of buffered entries in \p Bin.
  std::size_t size(std::uint32_t Bin) const;

  /// Buffered entries across bins [\p BinBegin, \p BinEnd).
  std::size_t totalEntries(std::uint32_t BinBegin,
                           std::uint32_t BinEnd) const;

  std::size_t capacityPerBin() const { return CapacityPerBin; }

private:
  struct Slot {
    ByteVector Suffixes; ///< flat, SuffixBytes per entry, newest last
    std::vector<std::uint64_t> Locations;
  };

  BinLayout Layout;
  std::size_t CapacityPerBin;
  unsigned SuffixBytes;
  std::vector<Slot> Slots;
};

} // namespace padre

#endif // PADRE_INDEX_BINBUFFER_H
