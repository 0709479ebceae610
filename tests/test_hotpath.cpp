//===----------------------------------------------------------------------===//
///
/// \file
/// The hot-path suite (`ctest -L hotpath`): the batched-hash engine
/// path and the arena-backed batch scratch are accepted only because
/// these tests hold.
///
///  1. Bit-identity goldens — full pipeline runs must produce identical
///     chunk outcomes, recipes, stored bytes and read-back streams at
///     every batched-hash width, with strictly cheaper CPU charges for
///     wider lanes and untouched SSD traffic.
///  2. Allocator poisoning — arena reset + reuse across batches must
///     never leak stale chunk refs into recipes.
///
/// The index's own equivalence checks (shard counts, worker counts,
/// pinned per-shard stats) live in tests/test_index.cpp.
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <vector>

using namespace padre;

//===----------------------------------------------------------------------===//
// 1. Bit-identity goldens: pipeline results across hash widths
//===----------------------------------------------------------------------===//

namespace {

struct GoldenRun {
  PipelineReport Report;
  std::vector<std::uint64_t> Locations;
  ByteVector ReadBack;
  double CpuBusySec = 0.0;
  double SsdBusySec = 0.0;
};

GoldenRun runPipeline(const ByteVector &Data, unsigned HashWidth) {
  Platform Plat = Platform::paper();
  Plat.Model.Cpu.HashBatchWidth = HashWidth;
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  ReductionPipeline Pipeline(Plat, Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();
  GoldenRun Run;
  Run.Report = Pipeline.report();
  Run.Locations = Pipeline.recipe().ChunkLocations;
  Run.CpuBusySec = Pipeline.ledger().busySeconds(Resource::CpuPool);
  Run.SsdBusySec = Pipeline.ledger().busySeconds(Resource::Ssd);
  const auto Stream = Pipeline.readBack();
  if (Stream)
    Run.ReadBack = *Stream;
  return Run;
}

void expectSameFunctionalResults(const GoldenRun &A, const GoldenRun &B) {
  EXPECT_EQ(A.Report.UniqueChunks, B.Report.UniqueChunks);
  EXPECT_EQ(A.Report.DupChunks, B.Report.DupChunks);
  EXPECT_EQ(A.Report.DupFromBuffer, B.Report.DupFromBuffer);
  EXPECT_EQ(A.Report.DupFromTree, B.Report.DupFromTree);
  EXPECT_EQ(A.Report.StoredBytes, B.Report.StoredBytes);
  EXPECT_EQ(A.Locations, B.Locations);
  EXPECT_EQ(A.ReadBack, B.ReadBack);
}

ByteVector goldenStream() {
  WorkloadConfig Workload;
  Workload.TotalBytes = 1 << 20;
  Workload.DedupRatio = 2.0;
  Workload.CompressRatio = 2.0;
  Workload.Seed = 99;
  return VdbenchStream(Workload).generateAll();
}

} // namespace

TEST(Goldens, HashWidthSweepBitIdenticalResults) {
  const ByteVector Data = goldenStream();
  const GoldenRun Baseline =
      runPipeline(Data, /*HashWidth=*/1);
  ASSERT_FALSE(Baseline.ReadBack.empty());
  EXPECT_EQ(Baseline.ReadBack.size(), Data.size());
  for (unsigned Width : {2u, 4u, 8u}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    const GoldenRun Run = runPipeline(Data, Width);
    expectSameFunctionalResults(Baseline, Run);
    // Wider lanes charge strictly less CPU time for the same work —
    // the whole point of the multi-buffer path. SSD traffic is
    // functional and must not move at all.
    EXPECT_LT(Run.CpuBusySec, Baseline.CpuBusySec);
    EXPECT_DOUBLE_EQ(Run.SsdBusySec, Baseline.SsdBusySec);
  }
}

//===----------------------------------------------------------------------===//
// 2. Arena reuse on the pipeline hot path
//===----------------------------------------------------------------------===//

TEST(ArenaHotpath, RecipeStableAcrossArenaReuse) {
  // Many small writes => many processBatch calls => many arena resets.
  // Recipe entries recorded in earlier batches must be bit-stable (no
  // stale arena-backed refs), and the reassembled stream must verify.
  const ByteVector Data = goldenStream();
  Platform Plat = Platform::paper();
  Plat.Model.Cpu.HashBatchWidth = 4;
  PipelineConfig Config;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.Shards = 4;
  Config.BatchChunks = 16; // small batches -> frequent resets
  ReductionPipeline Pipeline(Plat, Config);

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
