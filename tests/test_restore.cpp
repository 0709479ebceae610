//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the batched restore pipeline (src/restore): CPU and warp
/// GPU decode round trips over framed, unframed and mixed stores, batch
/// dedup and SSD coalescing, the cache front tier and recipe-locality
/// readahead, decode-failure accounting, the Auto probe, the span/report
/// reconciliation contract, and volume-level reads interleaved with
/// TRIM / GC / snapshots / scrub.
///
//===----------------------------------------------------------------------===//

#include "core/TraceRunner.h"
#include "obs/Obs.h"
#include "restore/VolumeReader.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

#include <cassert>

using namespace padre;
using namespace padre::obs;
using namespace padre::restore;

namespace {

constexpr std::size_t BlockSize = 4096;

ByteVector makeStream(std::uint64_t Bytes, double DedupRatio = 2.0,
                      double CompressRatio = 2.0,
                      std::uint64_t Seed = 1234) {
  WorkloadConfig Load;
  Load.BlockSize = BlockSize;
  Load.TotalBytes = Bytes;
  Load.DedupRatio = DedupRatio;
  Load.CompressRatio = CompressRatio;
  Load.Seed = Seed;
  return VdbenchStream(Load).generateAll();
}

/// A written pipeline ready for restore runs. The obs sinks are
/// members declared before the pipeline so they outlive its cached
/// instrument pointers.
struct RestoreFixture : ::testing::Test {
  MetricsRegistry Metrics;
  std::unique_ptr<ReductionPipeline> Pipeline;
  ByteVector Data;

  void write(std::uint64_t Bytes, std::size_t CacheBytes = 0,
             double DedupRatio = 2.0, double CompressRatio = 2.0,
             const Platform &Plat = Platform::paper(),
             unsigned SubBlocks = 1) {
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    Config.ReadCacheBytes = CacheBytes;
    Config.Metrics = &Metrics;
    Config.Compress.SubBlocks = SubBlocks;
    Data = makeStream(Bytes, DedupRatio, CompressRatio);
    Pipeline = std::make_unique<ReductionPipeline>(Plat, Config);
    Pipeline->write(ByteSpan(Data.data(), Data.size()));
    Pipeline->finish();
  }

  /// Writes a v2-framed stream (4 sub-blocks per chunk).
  void writeFramed(std::uint64_t Bytes, std::size_t CacheBytes = 0) {
    write(Bytes, CacheBytes, 2.0, 2.0, Platform::paper(), /*SubBlocks=*/4);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Round trips and batch semantics
//===----------------------------------------------------------------------===//

TEST_F(RestoreFixture, CpuDecodeRoundTrips) {
  write(4 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  const ReadReport Report = Reader.report();
  EXPECT_EQ(Report.ChunksRequested, Data.size() / BlockSize);
  EXPECT_EQ(Report.BytesOut, Data.size());
  EXPECT_GT(Report.CpuBatches, 0u);
  EXPECT_EQ(Report.WarpBatches, 0u);
  EXPECT_EQ(Report.DecodeFailures, 0u);
}

TEST_F(RestoreFixture, GpuDecodeRoundTripsWithSameBytes) {
  // An unframed store on the warp kernel: each chunk is one sub-block.
  write(4 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Config);
  // CPU-only write mode on a GPU platform: the reader brings up its
  // own device rather than degrading to CPU decode.
  EXPECT_EQ(Reader.effectiveMode(), DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  const ReadReport Report = Reader.report();
  EXPECT_GT(Report.WarpBatches, 0u);
  EXPECT_GT(Report.GpuBusySec, 0.0);
  EXPECT_GT(Report.PcieBusySec, 0.0);
}

TEST_F(RestoreFixture, GpuModeDegradesToCpuWithoutDevice) {
  write(1 << 20, 0, 2.0, 2.0, Platform::noGpu());
  ReadConfig Config;
  Config.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Config);
  EXPECT_EQ(Reader.effectiveMode(), DecodeMode::Cpu);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
}

TEST_F(RestoreFixture, DuplicateLocationsFetchOnceServeAll) {
  write(1 << 20);
  const std::uint64_t Loc = Pipeline->recipe().ChunkLocations.front();
  const std::uint64_t Locations[] = {Loc, Loc, Loc, Loc};
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  std::vector<ByteVector> Out;
  ASSERT_TRUE(Reader.readLocations(Locations, Out));
  ASSERT_EQ(Out.size(), 4u);
  EXPECT_EQ(Out[0], Out[3]);
  const ReadReport Report = Reader.report();
  EXPECT_EQ(Report.ChunksRequested, 4u);
  EXPECT_EQ(Report.SsdChunks, 1u); // fetched and decoded once
}

TEST_F(RestoreFixture, AdjacentMissesCoalesceSequentialReads) {
  // Unique stream -> destage wrote locations 0..N-1 adjacently; a
  // full-stream batch must coalesce instead of issuing N random reads.
  write(1 << 20, 0, 1.0);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  const ReadReport Report = Reader.report();
  EXPECT_GT(Report.CoalescedRuns, 0u);
  EXPECT_LT(Report.CoalescedRuns + Report.RandomReads,
            Report.SsdChunks / 4);
}

TEST_F(RestoreFixture, MissingLocationFailsAndCounts) {
  write(1 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const std::uint64_t Locations[] = {~std::uint64_t{1}};
  std::vector<ByteVector> Out;
  EXPECT_FALSE(Reader.readLocations(Locations, Out));
  EXPECT_EQ(Reader.report().DecodeFailures, 1u);
}

//===----------------------------------------------------------------------===//
// Cache front tier and readahead
//===----------------------------------------------------------------------===//

TEST_F(RestoreFixture, WarmPassServesFromCache) {
  write(2 << 20, 8 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  ASSERT_TRUE(Reader.readStream(Pipeline->recipe()).has_value());
  Reader.resetMeasurement();
  const auto Warm = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Warm.has_value());
  EXPECT_EQ(*Warm, Data);
  const ReadReport Report = Reader.report();
  EXPECT_EQ(Report.CacheHits, Report.ChunksRequested);
  EXPECT_EQ(Report.SsdChunks, 0u);
  EXPECT_EQ(Report.SsdBusySec, 0.0);
  // The cache's own instruments saw the traffic (satellite: ChunkCache
  // is visible to the metrics registry).
  const Counter *Hits = Metrics.findCounter("padre_cache_hit_total");
  ASSERT_NE(Hits, nullptr);
  EXPECT_GE(Hits->value(), Report.CacheHits);
}

TEST_F(RestoreFixture, ReadaheadPrefetchesRecipeSuccessors) {
  // Unique stream: locations are contiguous. Reading a prefix with
  // readahead on must pull successors into the cache, so reading the
  // next stretch hits DRAM without new flash traffic.
  write(1 << 20, 8 << 20, 1.0);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  Config.ReadaheadChunks = 16;
  ReadPipeline Reader(*Pipeline, Config);
  const auto &Locations = Pipeline->recipe().ChunkLocations;
  ASSERT_GT(Locations.size(), 64u);
  std::vector<ByteVector> Out;
  ASSERT_TRUE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), 32), Out));
  const ReadReport Cold = Reader.report();
  EXPECT_GT(Cold.ReadaheadChunks, 0u);

  Reader.resetMeasurement();
  ASSERT_TRUE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data() + 32, 16), Out));
  const ReadReport Next = Reader.report();
  EXPECT_EQ(Next.CacheHits, Next.ChunksRequested);
  EXPECT_EQ(Next.SsdChunks, 0u);
}

TEST_F(RestoreFixture, CorruptChunkFailsAndCounts) {
  write(1 << 20);
  const std::uint64_t Loc = Pipeline->recipe().ChunkLocations.front();
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Loc, 20));
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const std::uint64_t One[] = {Loc};
  std::vector<ByteVector> Out;
  EXPECT_FALSE(Reader.readLocations(One, Out));
  EXPECT_EQ(Reader.report().DecodeFailures, 1u);
  const Counter *Fails =
      Metrics.findCounter("padre_read_decode_fail_total");
  ASSERT_NE(Fails, nullptr);
  EXPECT_GE(Fails->value(), 1u);
}

//===----------------------------------------------------------------------===//
// The Auto probe
//===----------------------------------------------------------------------===//

TEST_F(RestoreFixture, ProbeWarpKillsTheLaneCrossover) {
  write(1 << 20);
  // The warp path (persistent kernel, doorbell dispatch) undercuts the
  // CPU pool at a shallow and a deep batch alike — no launch-latency
  // crossover — so Auto resolves to WarpGpu everywhere.
  ReadConfig Shallow;
  Shallow.Mode = DecodeMode::Auto;
  Shallow.BatchDepth = 8;
  ReadPipeline ShallowReader(*Pipeline, Shallow);
  EXPECT_EQ(ShallowReader.effectiveMode(), DecodeMode::WarpGpu);
  const ReadReport ShallowReport = ShallowReader.report();
  EXPECT_LT(ShallowReport.ProbeWarpUs, ShallowReport.ProbeCpuUs);

  ReadConfig Deep = Shallow;
  Deep.BatchDepth = 256;
  ReadPipeline DeepReader(*Pipeline, Deep);
  EXPECT_EQ(DeepReader.effectiveMode(), DecodeMode::WarpGpu);
  const ReadReport DeepReport = DeepReader.report();
  EXPECT_LT(DeepReport.ProbeWarpUs, DeepReport.ProbeCpuUs);
}

TEST_F(RestoreFixture, ProbeReportsSubBlockRatioDelta) {
  write(1 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::Auto;
  ReadPipeline Reader(*Pipeline, Config);
  const ReadReport Report = Reader.report();
  // Framing costs ratio (history reset + header) but never wins it.
  EXPECT_GT(Report.SubBlockRatioDeltaPct, 0.0);
  EXPECT_LT(Report.SubBlockRatioDeltaPct, 15.0);
}

TEST_F(RestoreFixture, ProbeChargesNothing) {
  write(1 << 20);
  const double Before = Pipeline->ledger().busyMicros(Resource::CpuPool);
  ReadConfig Config;
  Config.Mode = DecodeMode::Auto;
  ReadPipeline Reader(*Pipeline, Config);
  EXPECT_EQ(Pipeline->ledger().busyMicros(Resource::CpuPool), Before);
  EXPECT_EQ(Pipeline->ledger().busyMicros(Resource::Gpu), 0.0);
}

//===----------------------------------------------------------------------===//
// Decode v2: the warp-cooperative path over framed streams, and the
// v1 <-> v2 compatibility matrix (either format on either backend).
//===----------------------------------------------------------------------===//

TEST_F(RestoreFixture, WarpDecodeRoundTripsFramedStream) {
  writeFramed(4 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Config);
  EXPECT_EQ(Reader.effectiveMode(), DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  const ReadReport Report = Reader.report();
  EXPECT_GT(Report.WarpBatches, 0u);
  EXPECT_GT(Report.FramedChunks, 0u);
  EXPECT_EQ(Report.Mode, DecodeMode::WarpGpu);
  EXPECT_GT(Report.GpuBusySec, 0.0);
  EXPECT_GT(Report.PcieBusySec, 0.0);
  // Satellite metrics: the warp batch counter and the mode gauge.
  const Counter *Warp =
      Metrics.findCounter("padre_read_batches_total{mode=\"warp\"}");
  ASSERT_NE(Warp, nullptr);
  EXPECT_EQ(Warp->value(), Report.WarpBatches);
  const Gauge *ModeGauge = Metrics.findGauge("padre_read_decode_mode");
  ASSERT_NE(ModeGauge, nullptr);
  EXPECT_EQ(ModeGauge->value(), 2.0);
  for (const char *Name : {"padre_read_probe_us{mode=\"cpu\"}",
                           "padre_read_probe_us{mode=\"warp\"}"}) {
    const Gauge *Probe = Metrics.findGauge(Name);
    ASSERT_NE(Probe, nullptr) << Name;
    EXPECT_GT(Probe->value(), 0.0) << Name;
  }
}

TEST_F(RestoreFixture, FramedStreamDecodesOnCpuBitExact) {
  writeFramed(2 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  const ReadReport Report = Reader.report();
  EXPECT_EQ(Report.WarpBatches, 0u);
  EXPECT_GT(Report.FramedChunks, 0u); // counted on any decode path
}

TEST_F(RestoreFixture, UnframedStreamInWarpModeStaysBitExact) {
  // v1 compatibility: a store written without framing decodes under
  // WarpGpu mode through the warp kernel, one sub-block per chunk.
  write(2 << 20);
  ReadConfig Config;
  Config.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Config);
  EXPECT_EQ(Reader.effectiveMode(), DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);
  const ReadReport Report = Reader.report();
  EXPECT_GT(Report.WarpBatches, 0u);
  EXPECT_EQ(Report.FramedChunks, 0u);
}

TEST_F(RestoreFixture, WarpAndCpuDecodeSameFramedBytes) {
  writeFramed(2 << 20);
  ReadConfig CpuConfig;
  CpuConfig.Mode = DecodeMode::Cpu;
  const auto CpuBytes =
      ReadPipeline(*Pipeline, CpuConfig).readStream(Pipeline->recipe());
  ReadConfig WarpConfig;
  WarpConfig.Mode = DecodeMode::WarpGpu;
  const auto WarpBytes =
      ReadPipeline(*Pipeline, WarpConfig).readStream(Pipeline->recipe());
  ASSERT_TRUE(CpuBytes.has_value());
  ASSERT_TRUE(WarpBytes.has_value());
  EXPECT_EQ(*CpuBytes, *WarpBytes);
  EXPECT_EQ(*CpuBytes, Data);
}

TEST_F(RestoreFixture, MixedFramedUnframedStoreDecodesOnWarp) {
  // A store that genuinely mixes framed and unframed LZ chunks: the
  // backend splitter's Fixed 0.5 split compresses half of every batch
  // on the device engine (BlockMethod::GpuLane) and half on the CPU
  // engine, which frames at SubBlocks=4 (BlockMethod::LzFramed). Under
  // WarpGpu decode both kinds go to the warp kernel; no batch falls
  // back to the CPU pool.
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Metrics = &Metrics;
  Config.Compress.SubBlocks = 4;
  Config.Backend.Split = backend::SplitMode::Fixed;
  Config.Backend.Fraction = 0.5;
  Data = makeStream(4 << 20);
  Pipeline = std::make_unique<ReductionPipeline>(Platform::paper(), Config);
  Pipeline->write(ByteSpan(Data.data(), Data.size()));
  Pipeline->finish();

  ReadConfig Read;
  Read.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Read);
  EXPECT_EQ(Reader.effectiveMode(), DecodeMode::WarpGpu);
  const auto Restored = Reader.readStream(Pipeline->recipe());
  ASSERT_TRUE(Restored.has_value());
  EXPECT_EQ(*Restored, Data);

  const ReadReport Report = Reader.report();
  EXPECT_GT(Report.FramedChunks, 0u);
  EXPECT_LT(Report.FramedChunks, Report.SsdChunks);
  EXPECT_GT(Report.WarpBatches, 0u);
  EXPECT_EQ(Report.CpuBatches, 0u);

  // Bit-exact with a plain CPU decode of the same store.
  ReadConfig CpuRead;
  CpuRead.Mode = DecodeMode::Cpu;
  const auto CpuBytes =
      ReadPipeline(*Pipeline, CpuRead).readStream(Pipeline->recipe());
  ASSERT_TRUE(CpuBytes.has_value());
  EXPECT_EQ(*CpuBytes, *Restored);
}

TEST_F(RestoreFixture, CorruptFramedChunkFailsTypedInWarpMode) {
  writeFramed(1 << 20, /*CacheBytes=*/8 << 20);
  const auto &All = Pipeline->recipe().ChunkLocations;
  ASSERT_GE(All.size(), 8u);
  const std::uint64_t Bad = All[2];
  // Flip a payload byte past the block header: the CRC catches it and
  // the read fails typed — never crashes, never caches garbage.
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Bad, 20));

  ReadConfig Config;
  Config.Mode = DecodeMode::WarpGpu;
  ReadPipeline Reader(*Pipeline, Config);
  const std::vector<std::uint64_t> Locations = {All[0], Bad, All[4]};
  std::vector<ByteVector> Out;
  std::vector<ReadFailure> Failures;
  EXPECT_FALSE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), Locations.size()),
      Out, &Failures));
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_EQ(Failures[0].Location, Bad);
  EXPECT_EQ(Failures[0].Code, fault::ErrorCode::ChunkCorrupt);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_FALSE(Out[0].empty());
  EXPECT_TRUE(Out[1].empty());
  EXPECT_FALSE(Out[2].empty());
  const ChunkCache *Cache = Pipeline->readCache();
  ASSERT_NE(Cache, nullptr);
  EXPECT_FALSE(Cache->contains(Bad));
  EXPECT_TRUE(Cache->contains(All[0]));
  EXPECT_TRUE(Cache->contains(All[4]));
}

//===----------------------------------------------------------------------===//
// Observability reconciliation (the write side's contract, read-side)
//===----------------------------------------------------------------------===//

namespace {

void expectSpansTileReport(DecodeMode Mode) {
  TraceRecorder Trace;
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Trace = &Trace;
  const ByteVector Data = makeStream(2 << 20);
  ReductionPipeline Pipeline(Platform::paper(), Config);
  Pipeline.write(ByteSpan(Data.data(), Data.size()));
  Pipeline.finish();

  ReadConfig ReadCfg;
  ReadCfg.Mode = Mode;
  ReadPipeline Reader(Pipeline, ReadCfg);
  // Only the restore's own window: drop write-phase spans and
  // rebaseline the report.
  Trace.clear();
  Reader.resetMeasurement();
  ASSERT_TRUE(Reader.readStream(Pipeline.recipe()).has_value());
  const ReadReport Report = Reader.report();
  // Stage spans must tile each lane's clock: their totals equal the
  // report's busy deltas to ±1 µs.
  EXPECT_NEAR(Trace.laneTotalUs(Resource::CpuPool, CategoryStage),
              Report.CpuBusySec * 1e6, 1.0);
  EXPECT_NEAR(Trace.laneTotalUs(Resource::Gpu, CategoryStage),
              Report.GpuBusySec * 1e6, 1.0);
  EXPECT_NEAR(Trace.laneTotalUs(Resource::Pcie, CategoryStage),
              Report.PcieBusySec * 1e6, 1.0);
  EXPECT_NEAR(Trace.laneTotalUs(Resource::Ssd, CategoryStage),
              Report.SsdBusySec * 1e6, 1.0);
}

} // namespace

TEST(RestoreObs, CpuSpansTileLaneClocks) {
  expectSpansTileReport(DecodeMode::Cpu);
}

TEST(RestoreObs, GpuSpansTileLaneClocks) {
  expectSpansTileReport(DecodeMode::WarpGpu);
}

//===----------------------------------------------------------------------===//
// Volume-level reads interleaved with TRIM / GC / snapshots / scrub
//===----------------------------------------------------------------------===//

namespace {

struct VolumeRestoreFixture : ::testing::Test {
  std::unique_ptr<ReductionPipeline> Pipeline;
  std::unique_ptr<Volume> Vol;

  void rebuild(std::size_t CacheBytes = 1 << 20) {
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    Config.ReadCacheBytes = CacheBytes;
    Pipeline = std::make_unique<ReductionPipeline>(Platform::paper(),
                                                   Config);
    VolumeConfig VolConfig;
    VolConfig.BlockCount = 256;
    Vol = std::make_unique<Volume>(*Pipeline, VolConfig);
  }

  ByteVector writeOneBlock(std::uint64_t Tag, std::uint64_t Lba) {
    ByteVector Block(BlockSize);
    fillTraceBlock(Tag, MutableByteSpan(Block.data(), Block.size()));
    [[maybe_unused]] const bool Ok =
        Vol->writeBlocks(Lba, ByteSpan(Block.data(), Block.size()));
    assert(Ok);
    return Block;
  }
};

} // namespace

TEST_F(VolumeRestoreFixture, MatchesSerialVolumeReads) {
  rebuild();
  const ByteVector Data = makeStream(64 * BlockSize);
  ASSERT_TRUE(Vol->writeBlocks(8, ByteSpan(Data.data(), Data.size())));
  VolumeReader Reader(*Vol);
  // A range spanning unmapped (zero) blocks on both sides.
  const auto Batched = Reader.readBlocks(0, 128);
  const auto Serial = Vol->readBlocks(0, 128);
  ASSERT_TRUE(Batched.has_value());
  ASSERT_TRUE(Serial.has_value());
  EXPECT_EQ(*Batched, *Serial);
  EXPECT_FALSE(Reader.readBlocks(250, 10).has_value()); // out of range
}

TEST_F(VolumeRestoreFixture, ReadAfterTrimReadsZeros) {
  rebuild();
  writeOneBlock(1, 0);
  writeOneBlock(2, 1);
  ASSERT_TRUE(Vol->trim(0, 1));
  VolumeReader Reader(*Vol);
  const auto Out = Reader.readBlocks(0, 2);
  ASSERT_TRUE(Out.has_value());
  for (std::size_t B = 0; B < BlockSize; ++B)
    ASSERT_EQ((*Out)[B], 0u) << "trimmed block must read zero at " << B;
  // Block 1 is untouched.
  const auto Kept = Vol->readBlocks(1, 1);
  ASSERT_TRUE(Kept.has_value());
  EXPECT_TRUE(std::equal(Kept->begin(), Kept->end(),
                         Out->begin() + BlockSize));
}

TEST_F(VolumeRestoreFixture, TrimGcRewriteNeverResurrectsStaleBytes) {
  rebuild();
  writeOneBlock(3, 0);
  VolumeReader Reader(*Vol);
  ASSERT_TRUE(Reader.readBlocks(0, 1).has_value()); // cache the chunk
  ASSERT_TRUE(Vol->trim(0, 1));
  ASSERT_EQ(Vol->collectGarbage(), 1u);
  const ByteVector Fresh = writeOneBlock(4, 0);
  const auto Out = Reader.readBlocks(0, 1);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(*Out, Fresh);
}

TEST_F(VolumeRestoreFixture, GcRevivedChunksDecodeCorrectly) {
  rebuild();
  const ByteVector Original = writeOneBlock(5, 0);
  ASSERT_TRUE(Vol->trim(0, 1)); // chunk goes dead (deferred GC)
  // Identical content at another LBA revives the dead chunk.
  const ByteVector Revived = writeOneBlock(5, 7);
  EXPECT_EQ(Vol->collectGarbage(), 0u); // nothing left to collect
  VolumeReader Reader(*Vol);
  const auto Out = Reader.readBlocks(7, 1);
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(*Out, Revived);
  EXPECT_EQ(*Out, Original);
}

TEST_F(VolumeRestoreFixture, SnapshotReadsThroughRestorePath) {
  rebuild();
  const ByteVector Old = writeOneBlock(6, 0);
  const Volume::SnapshotId Snap = Vol->createSnapshot();
  const ByteVector New = writeOneBlock(7, 0);
  VolumeReader Reader(*Vol);
  const auto Current = Reader.readBlocks(0, 1);
  const auto AsOfSnap = Reader.readSnapshotBlocks(Snap, 0, 1);
  ASSERT_TRUE(Current.has_value());
  ASSERT_TRUE(AsOfSnap.has_value());
  EXPECT_EQ(*Current, New);
  EXPECT_EQ(*AsOfSnap, Old);
  EXPECT_FALSE(Reader.readSnapshotBlocks(Snap + 99, 0, 1).has_value());
}

TEST_F(VolumeRestoreFixture, ScrubStillBypassesWarmRestoreCache) {
  rebuild();
  writeOneBlock(8, 0);
  VolumeReader Reader(*Vol);
  ASSERT_TRUE(Reader.readBlocks(0, 1).has_value()); // warm the cache
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Vol->mapping()[0], 25));
  // The batched read path warmed the cache, but the scrub must still
  // read flash and see the corruption.
  EXPECT_EQ(Vol->scrub().CorruptChunks, 1u);
  // Satellite audit: the scrub's failed decode dropped the stale
  // cached copy, so the next read reports the corruption instead of
  // serving resurrected clean bytes.
  EXPECT_FALSE(Pipeline->readCache()->contains(Vol->mapping()[0]));
  EXPECT_FALSE(Reader.readBlocks(0, 1).has_value());
  EXPECT_FALSE(Vol->readBlocks(0, 1).has_value());
}

TEST_F(VolumeRestoreFixture, MixedTraceReplaysCleanThroughRestore) {
  rebuild(4 << 20);
  TraceSynthesisConfig Synth;
  Synth.Operations = 2000;
  Synth.VolumeBlocks = 256;
  Synth.Seed = 11;
  const TraceLog Log = TraceLog::synthesize(Synth);
  VolumeReader Reader(*Vol);
  const TraceRunStats Stats = replayTrace(
      *Vol, Log, [&](std::uint64_t Lba, std::uint64_t Count) {
        return Reader.readBlocks(Lba, Count);
      });
  EXPECT_GT(Stats.Reads, 0u);
  EXPECT_EQ(Stats.ReadFailures, 0u);
  EXPECT_EQ(Stats.VerifyFailures, 0u);
}

//===----------------------------------------------------------------------===//
// Error paths: a failed chunk must not take the batch down with it,
// and must never leave its debris in the cache.
//===----------------------------------------------------------------------===//

namespace {

/// A written CPU-only pipeline with an attached fault injector. The
/// plan and injector are members so they outlive the pipeline.
struct FaultedRestoreRig {
  fault::FaultPlan Plan;
  std::optional<fault::FaultInjector> Injector;
  std::unique_ptr<ReductionPipeline> Pipeline;
  ByteVector Data;

  void write(std::uint64_t Bytes, std::size_t CacheBytes = 0) {
    Injector.emplace(Plan);
    PipelineConfig Config;
    Config.Mode = PipelineMode::CpuOnly;
    Config.ReadCacheBytes = CacheBytes;
    Config.Faults = &*Injector;
    Data = makeStream(Bytes, /*DedupRatio=*/1.0);
    Pipeline = std::make_unique<ReductionPipeline>(Platform::paper(), Config);
    ASSERT_TRUE(Pipeline->write(ByteSpan(Data.data(), Data.size())).ok());
    ASSERT_TRUE(Pipeline->finish().ok());
  }
};

} // namespace

TEST(RestoreErrorPath, MidBatchSsdErrorCompletesRemainingFetches) {
  FaultedRestoreRig Rig;
  Rig.Plan.Policy.MaxRetries = 0; // make the hit permanent, not retried
  fault::FaultRule Rule;
  Rule.Site = fault::FaultSite::SsdRead;
  Rule.Kind = fault::FaultKind::LatentSectorError;
  Rule.AtOps = {2}; // the third flash read command of the batch
  Rig.Plan.Rules.push_back(Rule);
  Rig.write(1 << 20);

  // Stride-2 locations defeat coalescing: every chunk is its own flash
  // command, so exactly one chunk sits in the blast radius.
  const auto &All = Rig.Pipeline->recipe().ChunkLocations;
  ASSERT_GE(All.size(), 16u);
  std::vector<std::uint64_t> Locations;
  for (std::size_t I = 0; I < 16; I += 2)
    Locations.push_back(All[I]);

  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Rig.Pipeline, Config);
  std::vector<ByteVector> Out;
  std::vector<ReadFailure> Failures;
  EXPECT_FALSE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), Locations.size()),
      Out, &Failures));

  // One typed failure; every other fetch still completed and delivered.
  ASSERT_EQ(Out.size(), Locations.size());
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_EQ(Failures[0].Code, fault::ErrorCode::SsdReadError);
  std::size_t EmptySlots = 0;
  for (std::size_t I = 0; I < Locations.size(); ++I) {
    if (Out[I].empty()) {
      ++EmptySlots;
      EXPECT_EQ(Locations[I], Failures[0].Location);
      continue;
    }
    // The injected schedule is exhausted, so a direct re-read gives
    // the reference bytes.
    const auto Expect = Rig.Pipeline->readChunk(Locations[I]);
    ASSERT_TRUE(Expect.has_value());
    EXPECT_EQ(Out[I], *Expect) << "slot " << I;
  }
  EXPECT_EQ(EmptySlots, 1u);
  EXPECT_EQ(Reader.report().DecodeFailures, 1u);
}

TEST(RestoreErrorPath, SsdFailedFetchDoesNotPolluteCache) {
  FaultedRestoreRig Rig;
  Rig.Plan.Policy.MaxRetries = 0;
  fault::FaultRule Rule;
  Rule.Site = fault::FaultSite::SsdRead;
  Rule.Kind = fault::FaultKind::LatentSectorError;
  Rule.AtOps = {0}; // first flash read of the batch fails
  Rig.Plan.Rules.push_back(Rule);
  Rig.write(1 << 20, /*CacheBytes=*/8 << 20);

  const auto &All = Rig.Pipeline->recipe().ChunkLocations;
  ASSERT_GE(All.size(), 8u);
  const std::vector<std::uint64_t> Locations = {All[0], All[2], All[4]};
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Rig.Pipeline, Config);
  std::vector<ByteVector> Out;
  std::vector<ReadFailure> Failures;
  EXPECT_FALSE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), Locations.size()),
      Out, &Failures));
  ASSERT_EQ(Failures.size(), 1u);

  // The survivors were cached; the failed chunk was not.
  const ChunkCache *Cache = Rig.Pipeline->readCache();
  ASSERT_NE(Cache, nullptr);
  EXPECT_FALSE(Cache->contains(Failures[0].Location));
  std::size_t Cached = 0;
  for (const std::uint64_t Loc : Locations)
    if (Cache->contains(Loc))
      ++Cached;
  EXPECT_EQ(Cached, Locations.size() - 1);
}

TEST_F(RestoreFixture, CorruptChunkDoesNotPolluteCacheAndIsTyped) {
  write(1 << 20, /*CacheBytes=*/8 << 20, /*DedupRatio=*/1.0);
  const auto &All = Pipeline->recipe().ChunkLocations;
  ASSERT_GE(All.size(), 8u);
  const std::uint64_t Bad = All[2];
  ASSERT_TRUE(Pipeline->corruptChunkForTesting(Bad, 20));

  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  const std::vector<std::uint64_t> Locations = {All[0], Bad, All[4]};
  std::vector<ByteVector> Out;
  std::vector<ReadFailure> Failures;
  EXPECT_FALSE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), Locations.size()),
      Out, &Failures));
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_EQ(Failures[0].Location, Bad);
  EXPECT_EQ(Failures[0].Code, fault::ErrorCode::ChunkCorrupt);
  // Neighbours delivered; the corrupt chunk's slot is empty.
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_FALSE(Out[0].empty());
  EXPECT_TRUE(Out[1].empty());
  EXPECT_FALSE(Out[2].empty());
  // The failed decode never reached the cache; the good ones did.
  const ChunkCache *Cache = Pipeline->readCache();
  ASSERT_NE(Cache, nullptr);
  EXPECT_FALSE(Cache->contains(Bad));
  EXPECT_TRUE(Cache->contains(All[0]));
  EXPECT_TRUE(Cache->contains(All[4]));
}

TEST_F(RestoreFixture, MissingChunkReportsTypedFailure) {
  write(1 << 20);
  const auto &All = Pipeline->recipe().ChunkLocations;
  const std::uint64_t Ghost = ~std::uint64_t{1};
  const std::vector<std::uint64_t> Locations = {All[0], Ghost, All[2]};
  ReadConfig Config;
  Config.Mode = DecodeMode::Cpu;
  ReadPipeline Reader(*Pipeline, Config);
  std::vector<ByteVector> Out;
  std::vector<ReadFailure> Failures;
  EXPECT_FALSE(Reader.readLocations(
      std::span<const std::uint64_t>(Locations.data(), Locations.size()),
      Out, &Failures));
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_EQ(Failures[0].Location, Ghost);
  EXPECT_EQ(Failures[0].Code, fault::ErrorCode::ChunkMissing);
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_FALSE(Out[0].empty());
  EXPECT_TRUE(Out[1].empty());
  EXPECT_FALSE(Out[2].empty());
}
