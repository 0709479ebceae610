//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-backend splitter property tests (ctest -L backend). The
/// correctness bar for src/backend, the pipeline's only compress path:
/// every PipelineMode's placement, the store-raw loop and device-fault
/// fallback must reproduce constants recorded from the retired
/// single-engine stage (results, stored blocks, ledger charges and the
/// scheduled timeline bit-identical); the Fixed endpoints must equal
/// the mode placements; every interior split point must keep results
/// and recipes bit-identical to the serial oracle; the tuner must be
/// deterministic under replay; charges must not depend on the modelled
/// device count; and fault plans must drain the overlap window with
/// bit-exact CPU-fallback results.
///
//===----------------------------------------------------------------------===//

#include "backend/AutoSplitter.h"
#include "core/ReductionPipeline.h"
#include "fault/FaultInjector.h"
#include "fault/FaultPlan.h"
#include "hash/Fnv.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

using namespace padre;

namespace {

ByteVector makeStream(std::uint64_t Bytes, std::uint64_t Seed = 91) {
  WorkloadConfig Config;
  Config.TotalBytes = Bytes;
  Config.DedupRatio = 2.0;
  Config.CompressRatio = 2.0;
  Config.Seed = Seed;
  return VdbenchStream(Config).generateAll();
}

PipelineConfig modeConfig(PipelineMode Mode) {
  PipelineConfig Config;
  Config.Mode = Mode;
  Config.Dedup.Index.BinBits = 8;
  Config.Dedup.Index.BufferCapacityPerBin = 8;
  Config.PipelineDepth = 4;
  return Config;
}

PipelineConfig backendConfig(backend::SplitMode Split, double Fraction = 1.0,
                             unsigned GpuDevices = 1) {
  PipelineConfig Config = modeConfig(PipelineMode::CpuOnly);
  Config.Backend.Split = Split;
  Config.Backend.Fraction = Fraction;
  Config.Backend.GpuDevices = GpuDevices;
  return Config;
}

/// How a run feeds the pipeline: the first \p RawBytes of the stream go
/// through writeRaw (the store-raw loop), the rest through write; an
/// optional fault plan is attached for the whole run.
struct RunShape {
  std::uint64_t RawBytes = 0;
  const char *FaultSpec = nullptr;
};

/// Everything two runs are diffed on.
struct RunResult {
  StreamRecipe Recipe;
  std::uint64_t StoredBytes = 0;
  /// FNV-1a over every stored block, in ascending location order.
  std::uint64_t BlocksDigest = 0;
  ByteVector ReadBack;
  std::array<double, ResourceCount> BusyUs{};
  std::array<double, ResourceCount> SchedUs{};
  double WallUs = 0.0;
  double MakespanSec = 0.0;
  PipelineReport Report;
  backend::SplitterStats Stats;
};

/// Runs \p Data through one pipeline; \p Obs optionally traces and
/// meters the run (the sinks must outlive the call's use of them).
RunResult runOnce(const PipelineConfig &BaseConfig, const ByteVector &Data,
                  const RunShape &Shape = RunShape(),
                  const obs::ObsSinks &Obs = obs::ObsSinks()) {
  PipelineConfig Config = BaseConfig;
  Config.Trace = Obs.Trace;
  Config.Metrics = Obs.Metrics;
  std::unique_ptr<fault::FaultInjector> Injector;
  if (Shape.FaultSpec) {
    fault::FaultPlan Plan;
    std::string Error;
    EXPECT_TRUE(fault::parseFaultPlan(Shape.FaultSpec, Plan, Error)) << Error;
    Injector = std::make_unique<fault::FaultInjector>(Plan);
    Config.Faults = Injector.get();
  }
  ReductionPipeline Pipeline(Platform::paper(), Config);
  const std::size_t RawBytes =
      static_cast<std::size_t>(std::min<std::uint64_t>(Shape.RawBytes,
                                                        Data.size()));
  if (RawBytes > 0) {
    EXPECT_TRUE(Pipeline.writeRaw(ByteSpan(Data.data(), RawBytes)).ok());
  }
  EXPECT_TRUE(Pipeline
                  .write(ByteSpan(Data.data() + RawBytes,
                                  Data.size() - RawBytes))
                  .ok());
  EXPECT_TRUE(Pipeline.finish().ok());
  RunResult Result;
  Result.Recipe = Pipeline.recipe();
  Result.Report = Pipeline.report();
  Result.StoredBytes = Result.Report.StoredBytes;
  Result.MakespanSec = Result.Report.MakespanSec;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    Result.BusyUs[R] = Pipeline.ledger().busyMicros(static_cast<Resource>(R));
    Result.SchedUs[R] =
        Pipeline.ledger().laneScheduledMicros(static_cast<Resource>(R));
  }
  Result.WallUs = Pipeline.scheduler().wallMicros();
  EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u);
  if (Pipeline.splitter())
    Result.Stats = Pipeline.splitter()->stats();
  std::vector<std::uint64_t> Locations = Result.Recipe.ChunkLocations;
  std::sort(Locations.begin(), Locations.end());
  Locations.erase(std::unique(Locations.begin(), Locations.end()),
                  Locations.end());
  Result.BlocksDigest = FnvOffsetBasis;
  for (const std::uint64_t Location : Locations)
    if (const auto Block = Pipeline.store().encodedBlock(Location))
      Result.BlocksDigest = fnv1a64(*Block, Result.BlocksDigest);
  const auto Restored = Pipeline.readBack();
  EXPECT_TRUE(Restored.has_value());
  if (Restored)
    Result.ReadBack = *Restored;
  return Result;
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

/// The pinned fingerprint of a run: recipe and stored-block digests,
/// stored bytes, every resource's busy and scheduled microseconds and
/// the scheduler wall, doubles in hex-float so equality is bit-exact.
std::string pinnedSummary(const RunResult &Run) {
  char Buffer[128];
  std::snprintf(Buffer, sizeof(Buffer),
                "recipe=%016" PRIx64 " blocks=%016" PRIx64
                " stored=%" PRIu64,
                recipeDigest(Run.Recipe), Run.BlocksDigest, Run.StoredBytes);
  std::string Out = Buffer;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    std::snprintf(Buffer, sizeof(Buffer), " %s=%a/%a",
                  resourceName(static_cast<Resource>(R)), Run.BusyUs[R],
                  Run.SchedUs[R]);
    Out += Buffer;
  }
  std::snprintf(Buffer, sizeof(Buffer), " wall=%a", Run.WallUs);
  return Out + Buffer;
}

/// Results + recipes: the any-split-point bar.
void expectSameResults(const RunResult &Oracle, const RunResult &Candidate) {
  EXPECT_EQ(Oracle.Recipe.ChunkLocations, Candidate.Recipe.ChunkLocations);
  EXPECT_EQ(Oracle.Recipe.ChunkSizes, Candidate.Recipe.ChunkSizes);
  EXPECT_EQ(Oracle.ReadBack, Candidate.ReadBack);
  EXPECT_EQ(Oracle.Report.UniqueChunks, Candidate.Report.UniqueChunks);
  EXPECT_EQ(Oracle.Report.DupChunks, Candidate.Report.DupChunks);
}

/// Full identity: the {0,1} pass-through bar — everything above plus
/// stored bytes and blocks, per-lane busy charges and the scheduled
/// timeline.
void expectBitIdentical(const RunResult &Oracle, const RunResult &Candidate) {
  expectSameResults(Oracle, Candidate);
  EXPECT_EQ(Oracle.StoredBytes, Candidate.StoredBytes);
  EXPECT_EQ(Oracle.BlocksDigest, Candidate.BlocksDigest);
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(Oracle.BusyUs[R], Candidate.BusyUs[R]);
    EXPECT_DOUBLE_EQ(Oracle.SchedUs[R], Candidate.SchedUs[R]);
  }
  EXPECT_DOUBLE_EQ(Oracle.WallUs, Candidate.WallUs);
}

constexpr double Fractions[] = {0.0, 0.25, 0.5, 0.75, 1.0};

/// One point of the compress stage's mode x ingest-path matrix, with
/// its pinnedSummary. The mode placements carry the values the classic
/// single-engine stage produced; the split cases (a non-default
/// \p Backend) carry the values recorded when each device share still
/// ran through a separate backend class.
struct PinnedCase {
  const char *Name;
  PipelineMode Mode;
  bool CompressEnabled;
  RunShape Shape;
  const char *Expected;
  backend::BackendConfig Backend = backend::BackendConfig();
  /// Batches large enough for several sub-batches per device share.
  std::size_t BatchChunks = PipelineConfig().BatchChunks;
};

const PinnedCase PinnedCases[] = {
    {"cpu_only", PipelineMode::CpuOnly, true, {},
     "recipe=ac568e92cc960673 "
     "blocks=c7b0136399d0d7ed "
     "stored=1087565 "
     "cpu=0x1.6e8efd70a3d71p+16/0x1.6e8efd70a3d71p+13 "
     "gpu=0x0p+0/0x0p+0 "
     "pcie=0x0p+0/0x0p+0 "
     "ssd=0x1.f19ebc6a7ef9ep+12/0x1.f19ecccccccd7p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.0af9551eb8521p+14"},
    {"gpu_dedup", PipelineMode::GpuDedup, true, {},
     "recipe=ac568e92cc960673 "
     "blocks=c7b0136399d0d7ed "
     "stored=1087565 "
     "cpu=0x1.59f704189374cp+16/0x1.59f704189374cp+13 "
     "gpu=0x1.0c5849ba5e354p+12/0x1.0c5849ba5e355p+12 "
     "pcie=0x1.0622d0e560419p+10/0x1.0623189374bbdp+10 "
     "ssd=0x1.f19ebc6a7ef9ep+12/0x1.f19ecccccccd7p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.00d4a089a027ep+14"},
    {"gpu_compress", PipelineMode::GpuCompress, true, {},
     "recipe=ac568e92cc960673 "
     "blocks=c40a82b28014f087 "
     "stored=1090516 "
     "cpu=0x1.7be884189374cp+15/0x1.7be884189374cp+12 "
     "gpu=0x1.2967eb851eb85p+12/0x1.2967e90ff9722p+12 "
     "pcie=0x1.a1ffbe76c8b44p+8/0x1.a1ff6c8b43958p+8 "
     "ssd=0x1.f23245a1cac08p+12/0x1.f2325999999a3p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.a7a3d44673831p+13"},
    {"gpu_both", PipelineMode::GpuBoth, true, {},
     "recipe=ac568e92cc960673 "
     "blocks=c40a82b28014f087 "
     "stored=1090516 "
     "cpu=0x1.5df1e8f5c28f6p+15/0x1.5df1e8f5c28f6p+12 "
     "gpu=0x1.402e4dd2f1aap+13/0x1.402e53b8e4b84p+13 "
     "pcie=0x1.4d145a1cac083p+10/0x1.4d148d4fdf3c6p+10 "
     "ssd=0x1.f23245a1cac08p+12/0x1.f2325999999a3p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.05ab00e6afcdp+14"},
    {"write_raw", PipelineMode::GpuCompress, true, {1ull << 20, nullptr},
     "recipe=26203dcce39c883d "
     "blocks=9e4f1b6a5d7765a7 "
     "stored=2071515 "
     "cpu=0x1.729d66e978d5p+15/0x1.729d66e978d5p+12 "
     "gpu=0x1.1372a3d70a3d7p+12/0x1.1372a4a8c1548p+12 "
     "pcie=0x1.82b1eb851eb85p+8/0x1.82b1e353f7ceep+8 "
     "ssd=0x1.550f26e978d5p+13/0x1.550f333333343p+13 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.be639cd35a86dp+13"},
    {"compress_off", PipelineMode::CpuOnly, false, {},
     "recipe=ac568e92cc960673 "
     "blocks=a67d766625368cf6 "
     "stored=2109456 "
     "cpu=0x1.20d183126e979p+15/0x1.20d183126e979p+12 "
     "gpu=0x0p+0/0x0p+0 "
     "pcie=0x0p+0/0x0p+0 "
     "ssd=0x1.5c9aa3d70a3d7p+13/0x1.5c9aaccccccdbp+13 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.80dedd2f1aa0fp+13"},
    {"gpu_compress_faults",
     PipelineMode::GpuCompress,
     true,
     {0, "seed=21;gpu-kernel:ecc:at=1;gpu-dma:dma-corrupt:at=6"},
     "recipe=ac568e92cc960673 "
     "blocks=ddbb88eb8b269dbd "
     "stored=1089186 "
     "cpu=0x1.13a09a5e353f8p+16/0x1.13a09a5e353f8p+13 "
     "gpu=0x1.2967eb851eb85p+12/0x1.2967e90ff9722p+12 "
     "pcie=0x1.800e978d4fdf4p+8/0x1.800e5e353f7cfp+8 "
     "ssd=0x1.f1efc6a7ef9dbp+12/0x1.f1efd999999a4p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.fc2f5dbf4881p+13"},
    {"gpu_both_faults",
     PipelineMode::GpuBoth,
     true,
     {0, "seed=22;gpu-kernel:hang:every=9"},
     "recipe=ac568e92cc960673 "
     "blocks=c40a82b28014f087 "
     "stored=1090516 "
     "cpu=0x1.6575cd4fdf3b6p+15/0x1.6575cd4fdf3b6p+12 "
     "gpu=0x1.37caa6e978d5p+14/0x1.37caa915379f7p+14 "
     "pcie=0x1.3e83020c49ba6p+10/0x1.3e83353f7cee2p+10 "
     "ssd=0x1.f23245a1cac08p+12/0x1.f2325999999a3p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.9c0be16723234p+14"},
    {"fixed_half",
     PipelineMode::CpuOnly,
     true,
     {},
     "recipe=ac568e92cc960673 "
     "blocks=9d15bbf402bd00dd "
     "stored=1089054 "
     "cpu=0x1.15af4147ae148p+16/0x1.15af4147ae148p+13 "
     "gpu=0x1.3792d0e560419p+11/0x1.3792d42c3c9fp+11 "
     "pcie=0x1.b9072b020c49cp+7/0x1.b906e978d4fep+7 "
     "ssd=0x1.f1e92f1a9fbe8p+12/0x1.f1e940000000ap+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.08f29f62b6aedp+14",
     {1, backend::SplitMode::Fixed, 0.5}},
    {"auto_gpu2",
     PipelineMode::CpuOnly,
     true,
     {},
     "recipe=ac568e92cc960673 "
     "blocks=c40a82b28014f087 "
     "stored=1090516 "
     "cpu=0x1.7be879db22d0ep+15/0x1.7be879db22d0ep+12 "
     "gpu=0x1.2647eb851eb85p+12/0x1.2647e90ff971bp+12 "
     "pcie=0x1.9cff7ced91687p+8/0x1.9cff6c8b43958p+8 "
     "ssd=0x1.ee7249ba5e354p+12/0x1.ee725999999a3p+12 "
     "lock=0x0p+0/0x0p+0 "
     "wall=0x1.020ed1758e221p+14",
     {2, backend::SplitMode::Auto},
     2048},
};

/// gtest prints parameters in test listings; the name is stable where
/// the struct's raw bytes (pointers) are not.
void PrintTo(const PinnedCase &Case, std::ostream *Os) { *Os << Case.Name; }

PipelineConfig pinnedConfig(const PinnedCase &Case) {
  PipelineConfig Config = modeConfig(Case.Mode);
  Config.CompressEnabled = Case.CompressEnabled;
  Config.Backend = Case.Backend;
  Config.BatchChunks = Case.BatchChunks;
  return Config;
}

class BackendPinned : public ::testing::TestWithParam<PinnedCase> {};

} // namespace

//===----------------------------------------------------------------------===//
// Pinned constants: every PipelineMode's compress stage, the store-raw
// loop and device-fault fallback, held to the classic stage's values;
// a Fixed and an Auto split held to the backend-class values
//===----------------------------------------------------------------------===//

TEST_P(BackendPinned, MatchesClassicStage) {
  const PinnedCase &Case = GetParam();
  const ByteVector Data = makeStream(4ull << 20);
  const RunResult Run = runOnce(pinnedConfig(Case), Data, Case.Shape);
  EXPECT_EQ(Run.ReadBack, Data);
  EXPECT_EQ(pinnedSummary(Run), Case.Expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, BackendPinned,
                         ::testing::ValuesIn(PinnedCases),
                         [](const ::testing::TestParamInfo<PinnedCase> &Info) {
                           return std::string(Info.param.Name);
                         });

//===----------------------------------------------------------------------===//
// Pass-through endpoints: mode placements vs the Fixed split
//===----------------------------------------------------------------------===//

TEST(BackendPassThrough, FixedEndpointsMatchForcedModes) {
  // The mode placements are the Fixed endpoints: cpu-only is Fixed 0,
  // gpu-compress is Fixed 1.
  const ByteVector Data = makeStream(4ull << 20);
  expectBitIdentical(runOnce(modeConfig(PipelineMode::CpuOnly), Data),
                     runOnce(backendConfig(backend::SplitMode::Fixed, 0.0),
                             Data));
  PipelineConfig Fixed1 = backendConfig(backend::SplitMode::Fixed, 1.0);
  Fixed1.Mode = PipelineMode::GpuCompress;
  expectBitIdentical(runOnce(modeConfig(PipelineMode::GpuCompress), Data),
                     runOnce(Fixed1, Data));
}

//===----------------------------------------------------------------------===//
// Every split point: results and recipes never depend on the cut
//===----------------------------------------------------------------------===//

TEST(BackendSplit, ResultsBitIdenticalAtEveryFraction) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Oracle = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  ASSERT_EQ(Oracle.ReadBack, Data);
  for (const unsigned Devices : {1u, 2u}) {
    for (const double Fraction : Fractions) {
      SCOPED_TRACE("devices " + std::to_string(Devices) + " fraction " +
                   std::to_string(Fraction));
      const RunResult Split = runOnce(
          backendConfig(backend::SplitMode::Fixed, Fraction, Devices), Data);
      expectSameResults(Oracle, Split);
    }
  }
}

TEST(BackendSplit, AutoModeResultsMatchOracle) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Oracle = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  for (const unsigned Devices : {1u, 2u}) {
    SCOPED_TRACE("devices " + std::to_string(Devices));
    const RunResult Auto = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    expectSameResults(Oracle, Auto);
    EXPECT_GT(Auto.Stats.Batches, 0u);
  }
}

TEST(BackendSplit, ChargesScheduleAndWallReconcile) {
  const ByteVector Data = makeStream(8ull << 20);
  const unsigned Threads = Platform::paper().Model.Cpu.Threads;
  for (const double Fraction : Fractions) {
    SCOPED_TRACE("fraction " + std::to_string(Fraction));
    const RunResult Split =
        runOnce(backendConfig(backend::SplitMode::Fixed, Fraction, 1), Data);
    // The sliced replay must stay lossless: scheduled lane totals equal
    // the ledger's charges (CPU normalized by pool width), and the wall
    // can never undercut any lane's occupancy.
    EXPECT_NEAR(Split.SchedUs[static_cast<unsigned>(Resource::CpuPool)],
                Split.BusyUs[static_cast<unsigned>(Resource::CpuPool)] /
                    Threads,
                1.0);
    for (const Resource R : {Resource::Gpu, Resource::Pcie, Resource::Ssd,
                             Resource::IndexLock})
      EXPECT_NEAR(Split.SchedUs[static_cast<unsigned>(R)],
                  Split.BusyUs[static_cast<unsigned>(R)], 1.0)
          << resourceName(R);
    for (unsigned R = 0; R < ResourceCount; ++R)
      EXPECT_GE(Split.WallUs + 1e-6, Split.SchedUs[R]);
  }
}

//===----------------------------------------------------------------------===//
// Modelled device count: charges invariant, makespan scales
//===----------------------------------------------------------------------===//

TEST(BackendMultiGpu, BusyChargesInvariantAcrossDeviceCount) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult One =
      runOnce(backendConfig(backend::SplitMode::Fixed, 1.0, 1), Data);
  const RunResult Two =
      runOnce(backendConfig(backend::SplitMode::Fixed, 1.0, 2), Data);
  expectSameResults(One, Two);
  EXPECT_EQ(One.StoredBytes, Two.StoredBytes);
  // Busy accumulators are shared across mirrored lanes — work charged,
  // not where it ran — so the device count must not change any charge.
  for (unsigned R = 0; R < ResourceCount; ++R) {
    SCOPED_TRACE(resourceName(static_cast<Resource>(R)));
    EXPECT_DOUBLE_EQ(One.BusyUs[R], Two.BusyUs[R]);
  }
}

TEST(BackendMultiGpu, ComputeMakespanScalesWithDevices) {
  // GPU-bound shape: dedup off, big batches — the compute makespan is
  // the device lanes' occupancy, which halves across two devices.
  WorkloadConfig Shape;
  Shape.TotalBytes = 16ull << 20;
  Shape.DedupRatio = 1.0;
  Shape.CompressRatio = 2.0;
  Shape.Seed = 92;
  const ByteVector Data = VdbenchStream(Shape).generateAll();
  PipelineConfig Config = backendConfig(backend::SplitMode::Fixed, 1.0, 1);
  Config.DedupEnabled = false;
  Config.BatchChunks = 2048;
  const RunResult One = runOnce(Config, Data);
  Config.Backend.GpuDevices = 2;
  const RunResult Two = runOnce(Config, Data);
  expectSameResults(One, Two);
  ASSERT_GT(Two.MakespanSec, 0.0);
  EXPECT_GE(One.MakespanSec / Two.MakespanSec, 1.5);
}

TEST(BackendMultiGpu, SliceRecordsFollowPipelining) {
  // Equal 4 KiB chunks, no dedup, 2048-chunk batches: the device share
  // is ceil(fraction x 2048) chunks, i.e. that many 256-chunk
  // sub-batches.
  WorkloadConfig Shape;
  Shape.TotalBytes = 16ull << 20;
  Shape.DedupRatio = 1.0;
  Shape.CompressRatio = 2.0;
  Shape.Seed = 93;
  const ByteVector Data = VdbenchStream(Shape).generateAll();
  const std::size_t SubBatch =
      Platform::paper().Model.Gpu.CompressBatchChunks;
  for (const unsigned Devices : {1u, 2u}) {
    SCOPED_TRACE("devices " + std::to_string(Devices));
    PipelineConfig Config =
        backendConfig(backend::SplitMode::Fixed, 1.0, Devices);
    Config.DedupEnabled = false;
    Config.BatchChunks = 2048;
    // Unpipelined: one record per device.
    EXPECT_EQ(runOnce(Config, Data).Stats.DeviceSlices, Devices);
    // The observable surface OBSERVABILITY.md documents: a Fixed-0.5
    // run, traced and metered, names its device span after the device
    // count and exports both shares and both slice-time histograms.
    Config.Backend.Fraction = 0.5;
    obs::TraceRecorder Trace;
    obs::MetricsRegistry Metrics;
    const RunResult Half = runOnce(Config, Data, RunShape(), {&Trace, &Metrics});
    const std::string DevSpan = Devices == 1 ? "backend:gpu" : "backend:gpu2";
    std::size_t CpuSpans = 0, DevSpans = 0;
    for (const obs::TraceSpan &Span : Trace.spans()) {
      CpuSpans += std::string(Span.Name) == "backend:cpu";
      DevSpans += Span.Name == DevSpan;
    }
    EXPECT_GT(CpuSpans, 0u);
    EXPECT_GT(DevSpans, 0u);
    const obs::Gauge *GpuShare =
        Metrics.findGauge("padre_backend_split_fraction{backend=\"gpu\"}");
    const obs::Gauge *CpuShare =
        Metrics.findGauge("padre_backend_split_fraction{backend=\"cpu\"}");
    ASSERT_NE(GpuShare, nullptr);
    ASSERT_NE(CpuShare, nullptr);
    EXPECT_EQ(GpuShare->value(), Half.Stats.Fraction);
    EXPECT_EQ(CpuShare->value(), 1.0 - Half.Stats.Fraction);
    for (const char *Name : {"padre_backend_batch_us{backend=\"cpu\"}",
                             "padre_backend_batch_us{backend=\"gpu\"}"}) {
      const obs::LogHistogram *Hist = Metrics.findHistogram(Name);
      ASSERT_NE(Hist, nullptr) << Name;
      EXPECT_GT(Hist->count(), 0u) << Name;
    }
    // Pipelined (Auto): one record per sub-batch, whatever the count.
    Config.Backend.Split = backend::SplitMode::Auto;
    Config.Backend.Fraction = 1.0;
    const RunResult Auto = runOnce(Config, Data);
    const auto DevChunks = static_cast<std::size_t>(
        std::ceil(Auto.Stats.Fraction * 2048.0));
    EXPECT_EQ(Auto.Stats.DeviceSlices, (DevChunks + SubBatch - 1) / SubBatch);
  }
}

//===----------------------------------------------------------------------===//
// Tuner: deterministic under replay, observes real rates
//===----------------------------------------------------------------------===//

TEST(BackendTuner, DeterministicUnderReplay) {
  const ByteVector Data = makeStream(8ull << 20);
  for (const unsigned Devices : {1u, 2u}) {
    SCOPED_TRACE("devices " + std::to_string(Devices));
    const RunResult First = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    const RunResult Second = runOnce(
        backendConfig(backend::SplitMode::Auto, 1.0, Devices), Data);
    expectBitIdentical(First, Second);
    EXPECT_DOUBLE_EQ(First.Stats.Fraction, Second.Stats.Fraction);
    EXPECT_DOUBLE_EQ(First.Stats.CpuRateBytesPerUs,
                     Second.Stats.CpuRateBytesPerUs);
    EXPECT_DOUBLE_EQ(First.Stats.GpuRateBytesPerUs,
                     Second.Stats.GpuRateBytesPerUs);
    EXPECT_EQ(First.Stats.Batches, Second.Stats.Batches);
    EXPECT_EQ(First.Stats.CpuChunks, Second.Stats.CpuChunks);
    EXPECT_EQ(First.Stats.GpuChunks, Second.Stats.GpuChunks);
  }
}

TEST(BackendTuner, ObservesRatesAndRoutesWork) {
  const ByteVector Data = makeStream(8ull << 20);
  const RunResult Auto =
      runOnce(backendConfig(backend::SplitMode::Auto, 1.0, 1), Data);
  EXPECT_GT(Auto.Stats.CpuRateBytesPerUs, 0.0);
  EXPECT_GT(Auto.Stats.GpuRateBytesPerUs, 0.0);
  // On the paper platform the GPU compresses literals ~13x faster per
  // byte than a CPU thread; the tuner must discover a device-heavy
  // split, not sit on the seed.
  EXPECT_GT(Auto.Stats.Fraction, 0.5);
  EXPECT_GT(Auto.Stats.GpuChunks, Auto.Stats.CpuChunks);
}

TEST(BackendTuner, WindowClampAndConfigSurvive) {
  const ByteVector Data = makeStream(2ull << 20);
  PipelineConfig Config = backendConfig(backend::SplitMode::Auto);
  Config.Backend.TunerWindow = 0; // clamps to 1 (pure last-batch rate)
  ReductionPipeline Pipeline(Platform::paper(), Config);
  ASSERT_TRUE(Pipeline.write(ByteSpan(Data.data(), Data.size())).ok());
  ASSERT_TRUE(Pipeline.finish().ok());
  ASSERT_NE(Pipeline.splitter(), nullptr);
  EXPECT_EQ(Pipeline.splitter()->config().TunerWindow, 1u);
  EXPECT_EQ(Pipeline.gpuDeviceCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Fault drain: device faults fall back bit-exactly, window empties
//===----------------------------------------------------------------------===//

namespace {

void runBackendFaultDrain(const char *PlanSpec, unsigned Devices) {
  SCOPED_TRACE(std::string(PlanSpec) + " devices " + std::to_string(Devices));
  fault::FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultPlan(PlanSpec, Plan, Error)) << Error;
  const ByteVector Data = makeStream(4ull << 20);
  const RunResult Clean = runOnce(modeConfig(PipelineMode::CpuOnly), Data);
  fault::FaultInjector Injector(Plan);
  PipelineConfig Config =
      backendConfig(backend::SplitMode::Auto, 1.0, Devices);
  Config.Faults = &Injector;
  ReductionPipeline Pipeline(Platform::paper(), Config);
  const fault::Status WriteStatus =
      Pipeline.write(ByteSpan(Data.data(), Data.size()));
  const fault::Status FinishStatus = Pipeline.finish();
  EXPECT_EQ(Pipeline.scheduler().inFlight(), 0u);
  if (!WriteStatus.ok() || !FinishStatus.ok())
    return;
  // Device faults re-compress the slice on the CPU: outcomes, recipes
  // and the decoded stream stay bit-exact to the fault-free oracle.
  EXPECT_EQ(Pipeline.recipe().ChunkLocations, Clean.Recipe.ChunkLocations);
  EXPECT_EQ(Pipeline.recipe().ChunkSizes, Clean.Recipe.ChunkSizes);
  EXPECT_TRUE(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())));
}

} // namespace

TEST(BackendFaultDrain, GpuKernelEcc) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=21;gpu-kernel:ecc:p=0.05", Devices);
}

TEST(BackendFaultDrain, GpuKernelHang) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=22;gpu-kernel:hang:every=9", Devices);
}

TEST(BackendFaultDrain, GpuDmaCorrupt) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=23;gpu-dma:dma-corrupt:p=0.05", Devices);
}

TEST(BackendFaultDrain, SsdWriteError) {
  for (const unsigned Devices : {1u, 2u})
    runBackendFaultDrain("seed=24;ssd-write:error:p=0.02", Devices);
}
