//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-path suite (`ctest -L hotpath`): the engine's CPU hash path
/// and the arena-backed batch scratch are accepted only because these
/// tests hold.
///
///  1. Pinned hash charges — a full pipeline run's recipe, stored
///     blocks, stored bytes and CPU/SSD busy time, plus the dedup
///     stage's summed per-chunk latency, equal constants recorded on
///     the paper platform.
///  2. Allocator poisoning — arena reset + reuse across batches must
///     never leak stale chunk refs into recipes.
///
/// The index's own equivalence checks (a 4-worker pool against a
/// 1-worker pool, pinned counter totals) live in tests/test_index.cpp.
///
//===----------------------------------------------------------------------===//

#include "core/DedupEngine.h"
#include "core/ReductionPipeline.h"
#include "hash/Fnv.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

using namespace padre;

//===----------------------------------------------------------------------===//
// 1. Pinned hash charges: pipeline results and CPU-hash costs
//===----------------------------------------------------------------------===//

namespace {

ByteVector goldenStream() {
  WorkloadConfig Workload;
  Workload.TotalBytes = 1 << 20;
  Workload.DedupRatio = 2.0;
  Workload.CompressRatio = 2.0;
  Workload.Seed = 99;
  return VdbenchStream(Workload).generateAll();
}

PipelineConfig goldenConfig() {
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  return Config;
}

/// FNV-1a over the recipe's (location, size) pairs, in stream order.
std::uint64_t recipeDigest(const StreamRecipe &Recipe) {
  std::uint64_t Hash = FnvOffsetBasis;
  for (std::size_t I = 0; I < Recipe.ChunkLocations.size(); ++I) {
    std::uint8_t Entry[12];
    storeLe64(Entry, Recipe.ChunkLocations[I]);
    storeLe32(Entry + 8, Recipe.ChunkSizes[I]);
    Hash = fnv1a64(ByteSpan(Entry, sizeof(Entry)), Hash);
  }
  return Hash;
}

/// FNV-1a over every distinct stored block, in location order.
std::uint64_t blocksDigest(const ReductionPipeline &Pipeline) {
  std::vector<std::uint64_t> Locations = Pipeline.recipe().ChunkLocations;
  std::sort(Locations.begin(), Locations.end());
  Locations.erase(std::unique(Locations.begin(), Locations.end()),
                  Locations.end());
  std::uint64_t Hash = FnvOffsetBasis;
  for (const std::uint64_t Location : Locations)
    if (const auto Block = Pipeline.store().encodedBlock(Location))
      Hash = fnv1a64(*Block, Hash);
  return Hash;
}

/// Sum of every chunk's modelled dedup-stage latency when the golden
/// stream runs through a bare DedupEngine in pipeline-sized batches.
double dedupLatencySumUs(const ByteVector &Data) {
  const Platform Plat = Platform::paper();
  const PipelineConfig Config = goldenConfig();
  ResourceLedger Ledger;
  ThreadPool Pool(Plat.Model.Cpu.Threads);
  SsdModel Ssd(Plat.Model, Ledger);
  DedupEngine Engine(Plat.Model, Ledger, Pool, Ssd, nullptr, Config.Dedup);
  std::vector<ChunkView> Views;
  for (std::size_t Offset = 0; Offset < Data.size();
       Offset += Config.ChunkSize)
    Views.push_back(ChunkView{
        ByteSpan(Data.data() + Offset,
                 std::min(Config.ChunkSize, Data.size() - Offset)),
        Offset});
  double SumUs = 0.0;
  std::vector<DedupItem> Items;
  for (std::size_t Begin = 0; Begin < Views.size();
       Begin += Config.BatchChunks) {
    const std::size_t Count =
        std::min(Config.BatchChunks, Views.size() - Begin);
    std::vector<std::uint64_t> Locations(Count);
    for (std::size_t I = 0; I < Count; ++I)
      Locations[I] = Begin + I;
    Engine.processBatch(
        std::span<const ChunkView>(Views.data() + Begin, Count), Locations,
        Items);
    for (const DedupItem &Item : Items)
      SumUs += Item.LatencyUs;
  }
  return SumUs;
}

} // namespace

TEST(Goldens, HashChargesPinned) {
  // Every CPU-hashed chunk is fingerprinted once and charged
  // cpuHashUs(size) to its own latency and to the CPU pool. These
  // constants were recorded on the default paper platform; any change
  // to the hash path's digests or charges moves one of them.
  const ByteVector Data = goldenStream();
  ReductionPipeline Pipeline(Platform::paper(), goldenConfig());
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));

  char Buffer[256];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "recipe=%016" PRIx64 " blocks=%016" PRIx64 " stored=%" PRIu64
      " cpu=%a ssd=%a latency=%a",
      recipeDigest(Pipeline.recipe()), blocksDigest(Pipeline),
      Pipeline.report().StoredBytes,
      Pipeline.ledger().busyMicros(Resource::CpuPool),
      Pipeline.ledger().busyMicros(Resource::Ssd), dedupLatencySumUs(Data));
  EXPECT_EQ(std::string(Buffer),
            "recipe=aeefc47ce6935a71 blocks=5e717aa02a0f7eae stored=262559 "
            "cpu=0x1.8b466f9db22d1p+14 ssd=0x1.72aaf1a9fbe77p+12 "
            "latency=0x1.f85e9e1b089aep+11");
}

//===----------------------------------------------------------------------===//
// 2. Arena reuse on the pipeline hot path
//===----------------------------------------------------------------------===//

TEST(ArenaHotpath, RecipeStableAcrossArenaReuse) {
  // Many small writes => many processBatch calls => many arena resets.
  // Recipe entries recorded in earlier batches must be bit-stable (no
  // stale arena-backed refs), and the reassembled stream must verify.
  const ByteVector Data = goldenStream();
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.BatchChunks = 16; // small batches -> frequent resets
  ReductionPipeline Pipeline(Platform::paper(), Config);

  const std::size_t Step = 64 * 1024;
  std::vector<std::uint64_t> AfterFirst;
  for (std::size_t Offset = 0; Offset < Data.size(); Offset += Step) {
    const std::size_t Length = std::min(Step, Data.size() - Offset);
    Pipeline.write(ByteSpan(Data.data() + Offset, Length));
    if (Offset == 0)
      AfterFirst = Pipeline.recipe().ChunkLocations;
    else {
      // The first write's entries are untouched by later batches.
      ASSERT_GE(Pipeline.recipe().ChunkLocations.size(),
                AfterFirst.size());
      for (std::size_t I = 0; I < AfterFirst.size(); ++I)
        ASSERT_EQ(Pipeline.recipe().ChunkLocations[I], AfterFirst[I]);
    }
  }
  Pipeline.finish();
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}
