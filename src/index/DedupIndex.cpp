//===----------------------------------------------------------------------===//
///
/// \file
/// Dedup index implementation.
///
//===----------------------------------------------------------------------===//

#include "index/DedupIndex.h"

#include <algorithm>
#include <cassert>

using namespace padre;

DedupIndex::DedupIndex(const DedupIndexConfig &Config)
    : Layout(Config.BinBits), Buffer(Layout, Config.BufferCapacityPerBin),
      Tree(Layout, Config.MaxEntriesPerBin, Config.Seed) {}

void DedupIndex::drainBin(std::uint32_t Bin,
                          std::vector<FlushEvent> &FlushOut) {
  FlushEvent Event;
  Event.Bin = Bin;
  Buffer.drain(Bin, Event.Suffixes, Event.Locations);
  const std::size_t Evicted = Tree.mergeRun(
      Bin, ByteSpan(Event.Suffixes.data(), Event.Suffixes.size()),
      Event.Locations);
  Counters.Evictions.fetch_add(Evicted, std::memory_order_relaxed);
  FlushOut.push_back(std::move(Event));
}

LookupResult DedupIndex::processOne(std::uint32_t Bin, const Fingerprint &Fp,
                                    std::uint64_t Location,
                                    std::vector<FlushEvent> &LocalFlush) {
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);

  // Paper lookup order (§3.3): bin buffer first — "recently updated
  // chunks can reside in the bin buffer and chunks are more likely to
  // find duplicates in the bin buffer due to temporal locality".
  std::size_t Depth = 0;
  if (auto Hit = Buffer.lookup(Bin, Suffix, &Depth)) {
    Counters.BufferHits.fetch_add(1, std::memory_order_relaxed);
    return LookupResult{LookupOutcome::DupBuffer, *Hit,
                        static_cast<std::uint32_t>(Depth)};
  }
  if (auto Hit = Tree.lookup(Bin, Suffix)) {
    Counters.TreeHits.fetch_add(1, std::memory_order_relaxed);
    return LookupResult{LookupOutcome::DupTree, *Hit, 0};
  }

  // Unique chunk: stage it in the bin buffer; drain on fill.
  Counters.UniqueInserts.fetch_add(1, std::memory_order_relaxed);
  if (Buffer.insert(Bin, Suffix, Location))
    drainBin(Bin, LocalFlush);
  return LookupResult{LookupOutcome::Unique, Location};
}

void DedupIndex::processBatch(std::span<const Fingerprint> Fingerprints,
                              std::span<const std::uint64_t> Locations,
                              std::span<const std::uint8_t> KnownDuplicate,
                              ThreadPool &Pool,
                              std::span<LookupResult> Results,
                              std::vector<FlushEvent> &FlushOut) {
  const std::size_t Count = Fingerprints.size();
  assert(Locations.size() == Count && Results.size() == Count &&
         "Batch arrays disagree");
  assert((KnownDuplicate.empty() || KnownDuplicate.size() == Count) &&
         "KnownDuplicate must be empty or batch-sized");
  if (Count == 0)
    return;

  // Scatter: sort (bin, item) keys so each worker walks a contiguous
  // run of bins, and items within a bin keep stream order.
  SortedItems.resize(Count);
  for (std::size_t I = 0; I < Count; ++I)
    SortedItems[I] =
        static_cast<std::uint64_t>(Layout.binOf(Fingerprints[I])) << 32 | I;
  std::sort(SortedItems.begin(), SortedItems.end());

  // Bin-parallel phase: each slice of the bin space is owned by one
  // worker, so bins (buffer + tree) need no locks.
  if (FlushPerWorker.size() < Pool.size())
    FlushPerWorker.resize(Pool.size());
  Pool.parallelForSlices(
      0, Layout.binCount(),
      [&](std::size_t BinBegin, std::size_t BinEnd, unsigned Worker) {
        std::vector<FlushEvent> &LocalFlush = FlushPerWorker[Worker];
        const std::uint64_t Stop = static_cast<std::uint64_t>(BinEnd) << 32;
        for (auto It = std::lower_bound(
                 SortedItems.begin(), SortedItems.end(),
                 static_cast<std::uint64_t>(BinBegin) << 32);
             It != SortedItems.end() && *It < Stop; ++It) {
          const std::uint32_t Bin = static_cast<std::uint32_t>(*It >> 32);
          const std::uint32_t Item = static_cast<std::uint32_t>(*It);
          if (!KnownDuplicate.empty() && KnownDuplicate[Item]) {
            Counters.GpuHits.fetch_add(1, std::memory_order_relaxed);
            Results[Item].Outcome = LookupOutcome::DupGpu;
            // Location already resolved by the caller from the GPU
            // metadata mirror; leave Results[Item].Location intact.
            continue;
          }
          Results[Item] = processOne(Bin, Fingerprints[Item],
                                     Locations[Item], LocalFlush);
        }
      });

  // Slices are ascending bin ranges, so this is ascending bin order.
  for (std::vector<FlushEvent> &Local : FlushPerWorker) {
    for (FlushEvent &Event : Local)
      FlushOut.push_back(std::move(Event));
    Local.clear();
  }
}

std::optional<std::uint64_t> DedupIndex::lookup(const Fingerprint &Fp) const {
  const std::uint32_t Bin = Layout.binOf(Fp);
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);
  if (auto Hit = Buffer.lookup(Bin, Suffix))
    return Hit;
  return Tree.lookup(Bin, Suffix);
}

LookupResult DedupIndex::upsert(const Fingerprint &Fp,
                                std::uint64_t Location,
                                std::vector<FlushEvent> &FlushOut) {
  return processOne(Layout.binOf(Fp), Fp, Location, FlushOut);
}

bool DedupIndex::remove(const Fingerprint &Fp) {
  const std::uint32_t Bin = Layout.binOf(Fp);
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);
  if (Buffer.remove(Bin, Suffix))
    return true;
  return Tree.remove(Bin, Suffix);
}

void DedupIndex::flushAll(std::vector<FlushEvent> &FlushOut) {
  for (std::uint32_t Bin = 0; Bin < Layout.binCount(); ++Bin)
    if (Buffer.size(Bin) != 0)
      drainBin(Bin, FlushOut);
}

std::uint64_t DedupIndex::bufferHits() const {
  return Counters.BufferHits.load(std::memory_order_relaxed);
}

std::uint64_t DedupIndex::treeHits() const {
  return Counters.TreeHits.load(std::memory_order_relaxed);
}

std::uint64_t DedupIndex::gpuHits() const {
  return Counters.GpuHits.load(std::memory_order_relaxed);
}

std::uint64_t DedupIndex::uniqueInserts() const {
  return Counters.UniqueInserts.load(std::memory_order_relaxed);
}

std::uint64_t DedupIndex::evictions() const {
  return Counters.Evictions.load(std::memory_order_relaxed);
}

std::size_t DedupIndex::treeEntries() const {
  return Tree.totalEntries(0, Layout.binCount());
}

std::size_t DedupIndex::memoryBytes() const {
  return Tree.memoryBytes(0, Layout.binCount()) +
         Buffer.totalEntries(0, Layout.binCount()) * Layout.cpuEntryBytes();
}
