//===----------------------------------------------------------------------===//
///
/// \file
/// R1 / E11 — batched restore with decode v2 (extension; the paper's
/// pipeline is write-only, but a primary system serves reads). Views:
///
///   1. the decode-mode batch-depth sweep — the CPU pool against the
///      warp kernel, which decodes the framed store one warp per
///      sub-block and the unframed store one warp per chunk. Its
///      persistent-kernel doorbell replaces the per-batch LaunchUs, so
///      it is expected to beat the CPU pool at *every* depth — no
///      launch-latency crossover. The Auto probe must pick the winner;
///   2. the sub-block ratio sweep — what the framed format costs in
///      compression ratio at counts {1,2,4,8};
///   3. a fault-plan replay — warp dispatches dying mid-run must evict
///      the kernel and fall back to the CPU pool bit-exactly;
///   4. the cache-size sweep and a mixed R/W trace replay (full runs
///      only), the deployment shape.
///
/// Emits BENCH_read.json. Exit status is the acceptance gate (E11):
/// every decoded chunk bit-identical to the serial CPU decode across
/// modes, sub-block counts and fault replays; warp-GPU beats the CPU
/// pool at batch depth <= 16; sub-block ratio loss <= 5% on the
/// vdbench workload. `--smoke` runs a reduced stream and depth set
/// with the same gates (the CI decode check).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/TraceRunner.h"
#include "restore/VolumeReader.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace padre;
using namespace padre::bench;
using namespace padre::restore;

namespace {

/// Decode-side makespan (s): the busiest compute lane, SSD excluded.
/// Cold full-stream reads are flash-bound end to end, so the CPU/GPU
/// decode contest only shows on the compute lanes (exactly like the
/// write side, where compression hides behind destage until the SSD
/// is taken out of the picture).
double decodeSec(const ReadReport &Report) {
  const double CpuSec =
      Report.CpuBusySec /
      static_cast<double>(Platform::paper().Model.Cpu.Threads);
  return std::max({CpuSec, Report.GpuBusySec, Report.PcieBusySec});
}

/// One measured restore pass over the whole written stream; returns the
/// report and (via \p Restored) the decoded bytes for bit-identity.
ReadReport restorePass(ReductionPipeline &Pipeline, const ReadConfig &Config,
                       ByteVector *Restored = nullptr) {
  ReadPipeline Reader(Pipeline, Config);
  Reader.resetMeasurement();
  auto Out = Reader.readStream(Pipeline.recipe());
  if (!Out) {
    std::fprintf(stderr, "FATAL: restore pass failed to decode\n");
    std::exit(1);
  }
  if (Restored)
    *Restored = std::move(*Out);
  return Reader.report();
}

/// Writes the standard measured stream into a fresh pipeline.
/// \p SubBlocks > 1 stores v2 framed chunks (decode v2's format).
std::unique_ptr<ReductionPipeline>
writtenPipeline(std::uint64_t CacheBytes, const ByteVector &Data,
                unsigned SubBlocks = 1,
                fault::FaultInjector *Faults = nullptr) {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly; // write side out of the way
  Config.ReadCacheBytes = CacheBytes;
  Config.Compress.SubBlocks = SubBlocks;
  Config.Faults = Faults;
  auto Pipeline =
      std::make_unique<ReductionPipeline>(Platform::paper(), Config);
  Pipeline->write(ByteSpan(Data.data(), Data.size()));
  Pipeline->finish();
  return Pipeline;
}

ByteVector benchStream(bool Smoke) {
  WorkloadConfig Load;
  Load.BlockSize = 4096;
  Load.TotalBytes = Smoke ? (4ull << 20) : (12ull << 20);
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  Load.Seed = 1234;
  return VdbenchStream(Load).generateAll();
}

/// One depth row of the decode sweep.
struct DepthRow {
  std::size_t Depth = 0;
  double CpuKiops = 0.0;
  /// Warp kernel over the unframed store (one sub-block per chunk).
  double UnframedKiops = 0.0;
  /// Warp kernel over the framed store.
  double WarpKiops = 0.0;
  const char *ProbePick = "";
  bool BitIdentical = false;
};

/// One sub-block count row of the ratio sweep.
struct RatioRow {
  unsigned SubBlocks = 0;
  std::uint64_t StoredBytes = 0;
  double DeltaPct = 0.0;
  bool BitIdentical = false;
};

bool writeJson(const char *Path, const std::vector<DepthRow> &Depths,
               const std::vector<RatioRow> &Ratios, double FaultFallbacks,
               bool FaultBitIdentical) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"bench\": \"read\",\n  \"depth_rows\": [\n");
  for (std::size_t I = 0; I < Depths.size(); ++I) {
    const DepthRow &R = Depths[I];
    std::fprintf(File,
                 "    {\"depth\": %zu, \"cpu_kiops\": %.2f, "
                 "\"warp_unframed_kiops\": %.2f, \"warp_kiops\": %.2f, "
                 "\"probe\": \"%s\", \"bit_identical\": %s}%s\n",
                 R.Depth, R.CpuKiops, R.UnframedKiops, R.WarpKiops,
                 R.ProbePick,
                 R.BitIdentical ? "true" : "false",
                 I + 1 < Depths.size() ? "," : "");
  }
  std::fprintf(File, "  ],\n  \"ratio_rows\": [\n");
  for (std::size_t I = 0; I < Ratios.size(); ++I) {
    const RatioRow &R = Ratios[I];
    std::fprintf(File,
                 "    {\"sub_blocks\": %u, \"stored_bytes\": %llu, "
                 "\"ratio_delta_pct\": %.3f, \"bit_identical\": %s}%s\n",
                 R.SubBlocks, static_cast<unsigned long long>(R.StoredBytes),
                 R.DeltaPct, R.BitIdentical ? "true" : "false",
                 I + 1 < Ratios.size() ? "," : "");
  }
  std::fprintf(File,
               "  ],\n  \"fault_replay\": {\"fallbacks\": %.0f, "
               "\"bit_identical\": %s}\n}\n",
               FaultFallbacks, FaultBitIdentical ? "true" : "false");
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("R1/E11", Smoke ? "batched restore, decode v2 (smoke: "
                           "depth + ratio + fault gates)"
                         : "batched restore: warp decode depth sweep, "
                           "sub-block ratio, cache tier, R/W mix");

  const ByteVector Data = benchStream(Smoke);

  //===------------------------------------------------------------===//
  // 1. Decode batch-depth sweep (no cache: decode vs decode). CPU and
  //    warp read the framed store; warp also reads the unframed store
  //    (same logical bytes), where each chunk is one sub-block.
  //===------------------------------------------------------------===//
  std::printf("decode batch-depth sweep (cold reads, no cache, comp 2.0; "
              "decode-limited\nKIOPS = chunks / busiest compute lane — "
              "end-to-end reads are flash-bound):\n");
  std::printf("%8s %12s %12s %12s %10s %8s %6s\n", "depth", "cpu (K)",
              "unframed (K)", "warp (K)", "warp/cpu", "probe", "bits");
  const auto Unframed = writtenPipeline(0, Data, 1);
  const auto Framed = writtenPipeline(0, Data, 4);
  std::vector<DepthRow> Depths;
  const auto DepthSet = Smoke
                            ? std::vector<std::size_t>{8, 16, 256}
                            : std::vector<std::size_t>{8, 16, 32, 64, 96,
                                                       128, 256, 512};
  for (const std::size_t Depth : DepthSet) {
    ReadConfig Config;
    Config.BatchDepth = Depth;
    DepthRow Row;
    Row.Depth = Depth;
    ByteVector CpuBytes, UnframedBytes, WarpBytes;
    Config.Mode = DecodeMode::Cpu;
    const ReadReport Cpu = restorePass(*Framed, Config, &CpuBytes);
    Config.Mode = DecodeMode::WarpGpu;
    const ReadReport UnframedWarp =
        restorePass(*Unframed, Config, &UnframedBytes);
    const ReadReport Warp = restorePass(*Framed, Config, &WarpBytes);
    Config.Mode = DecodeMode::Auto;
    const ReadPipeline Probe(*Framed, Config);
    Row.CpuKiops =
        static_cast<double>(Cpu.ChunksRequested) / decodeSec(Cpu) / 1e3;
    Row.UnframedKiops = static_cast<double>(UnframedWarp.ChunksRequested) /
                        decodeSec(UnframedWarp) / 1e3;
    Row.WarpKiops =
        static_cast<double>(Warp.ChunksRequested) / decodeSec(Warp) / 1e3;
    Row.ProbePick = decodeModeName(Probe.effectiveMode());
    Row.BitIdentical =
        CpuBytes == Data && UnframedBytes == Data && WarpBytes == Data;
    Depths.push_back(Row);
    std::printf("%8zu %12.1f %12.1f %12.1f %10.2f %8s %6s\n", Depth,
                Row.CpuKiops, Row.UnframedKiops, Row.WarpKiops,
                Row.WarpKiops / Row.CpuKiops, Row.ProbePick,
                Row.BitIdentical ? "ok" : "DIFF");
  }
  std::printf("expected shape: cpu flat; warp above cpu at every depth "
              "on both stores\n(doorbell, not launch), so the probe picks "
              "warp throughout. Unframed is at or\nabove framed: one "
              "sub-block per chunk pays one warp setup, and its payload "
              "is\nsmaller.\n");

  //===------------------------------------------------------------===//
  // 2. Sub-block ratio sweep: what the framed format costs. History
  //    resets shorten matches and the header adds 4 + 8N bytes per
  //    chunk, so stored bytes grow with the sub-block count.
  //===------------------------------------------------------------===//
  std::printf("\nsub-block ratio sweep (same stream, framed store at "
              "count N vs unframed):\n");
  std::printf("%12s %14s %12s %6s\n", "sub-blocks", "stored", "delta",
              "bits");
  const std::uint64_t Baseline = Unframed->store().storedBytes();
  std::vector<RatioRow> Ratios;
  for (const unsigned Count : {1u, 2u, 4u, 8u}) {
    const auto Pipe = writtenPipeline(0, Data, Count);
    RatioRow Row;
    Row.SubBlocks = Count;
    Row.StoredBytes = Pipe->store().storedBytes();
    Row.DeltaPct = 100.0 *
                   (static_cast<double>(Row.StoredBytes) -
                    static_cast<double>(Baseline)) /
                   static_cast<double>(Baseline);
    ReadConfig Config;
    Config.Mode = DecodeMode::WarpGpu;
    ByteVector Restored;
    restorePass(*Pipe, Config, &Restored);
    Row.BitIdentical = Restored == Data;
    Ratios.push_back(Row);
    std::printf("%12u %14s %11.2f%% %6s\n", Count,
                formatSize(Row.StoredBytes).c_str(), Row.DeltaPct,
                Row.BitIdentical ? "ok" : "DIFF");
  }
  std::printf("expected shape: delta grows with N (shorter histories, "
              "bigger headers) but\nstays within the 5%% acceptance bar "
              "— the price of warp independence.\n");

  //===------------------------------------------------------------===//
  // 3. Fault-plan replay: warp dispatches die mid-run; the persistent
  //    kernel is evicted and the CPU pool re-decodes bit-exactly.
  //===------------------------------------------------------------===//
  fault::FaultPlan Plan;
  fault::FaultRule Rule;
  Rule.Site = fault::FaultSite::GpuKernel;
  Rule.Kind = fault::FaultKind::GpuEccError;
  Rule.EveryN = 3;
  Plan.Rules.push_back(Rule);
  fault::FaultInjector Injector(Plan);
  // CpuOnly writes never touch the GPU sites, so the injector only
  // fires on the read side's warp dispatches.
  const auto Faulted = writtenPipeline(0, Data, 4, &Injector);
  ReadConfig FaultConfig;
  FaultConfig.Mode = DecodeMode::WarpGpu;
  FaultConfig.BatchDepth = 32;
  ReadPipeline FaultReader(*Faulted, FaultConfig);
  ByteVector FaultBytes;
  double Fallbacks = 0.0;
  bool FaultBitIdentical = false;
  {
    auto Out = FaultReader.readStream(Faulted->recipe());
    if (!Out) {
      std::fprintf(stderr, "FATAL: faulted restore failed to decode\n");
      return 1;
    }
    FaultBitIdentical = *Out == Data;
    Fallbacks = static_cast<double>(FaultReader.gpuDecodeFallbackCount());
  }
  std::printf("\nfault replay (gpu-kernel ECC every 3rd dispatch, warp "
              "mode, depth 32):\n  fallbacks=%.0f  decode %s\n", Fallbacks,
              FaultBitIdentical ? "bit-identical" : "DIVERGED");

  if (!Smoke) {
    //===----------------------------------------------------------===//
    // 4. Cache-size sweep: cold pass fills, warm pass hits.
    //===----------------------------------------------------------===//
    std::printf("\ncache-size sweep (two full-stream passes, cpu decode, "
                "depth 256):\n");
    std::printf("%10s %12s %14s %14s\n", "cache", "warm hits",
                "cold IOPS (K)", "warm IOPS (K)");
    for (std::uint64_t CacheBytes :
         {0ull, 1ull << 20, 4ull << 20, 16ull << 20, 64ull << 20}) {
      const auto Cached = writtenPipeline(CacheBytes, Data);
      ReadConfig Config;
      Config.Mode = DecodeMode::Cpu;
      const ReadReport Cold = restorePass(*Cached, Config);
      const ReadReport Warm = restorePass(*Cached, Config);
      std::printf("%10s %11.0f%% %14.1f %14.1f\n",
                  CacheBytes == 0 ? "off"
                                  : formatSize(CacheBytes).c_str(),
                  Warm.cacheHitRate() * 100.0, Cold.ThroughputIops / 1e3,
                  Warm.ThroughputIops / 1e3);
    }
    std::printf("expected shape: warm hit rate grows with capacity "
                "(dedup concentrates reads\non shared chunks, so hits "
                "exceed capacity/footprint); warm IOPS follows.\n");

    //===----------------------------------------------------------===//
    // 5. Mixed R/W trace through volume + restore engine.
    //===----------------------------------------------------------===//
    std::printf("\nmixed R/W trace replay (restore reads, paper-pipeline "
                "writes, 16 MiB cache):\n");
    std::printf("%12s %10s %10s %12s %12s\n", "read frac", "reads",
                "writes", "cache hits", "runs");
    for (const double ReadFraction : {0.2, 0.5, 0.8}) {
      PipelineConfig Config;
      Config.Mode = PipelineMode::CpuOnly;
      Config.ReadCacheBytes = 16ull << 20;
      ReductionPipeline Mixed(Platform::paper(), Config);
      VolumeConfig VolConfig;
      VolConfig.BlockCount = 4096;
      Volume Vol(Mixed, VolConfig);
      TraceSynthesisConfig Synth;
      Synth.Operations = 4000;
      Synth.VolumeBlocks = VolConfig.BlockCount;
      Synth.WriteFraction = 0.9 - ReadFraction;
      Synth.ReadFraction = ReadFraction;
      Synth.Seed = 7;
      const TraceLog Log = TraceLog::synthesize(Synth);
      VolumeReader Reader(Vol);
      const TraceRunStats Stats = replayTrace(
          Vol, Log, [&](std::uint64_t Lba, std::uint64_t Count) {
            return Reader.readBlocks(Lba, Count);
          });
      if (!Stats.clean()) {
        std::fprintf(stderr, "FATAL: mixed replay verification failed\n");
        return 1;
      }
      const ReadReport Report = Reader.pipeline().report();
      std::printf("%12.1f %10llu %10llu %11.0f%% %12llu\n", ReadFraction,
                  static_cast<unsigned long long>(Stats.Reads),
                  static_cast<unsigned long long>(Stats.Writes),
                  Report.cacheHitRate() * 100.0,
                  static_cast<unsigned long long>(Report.CoalescedRuns));
    }
    std::printf("expected shape: every mix verifies byte-exact; hot-spot "
                "re-reads hit the cache.\n");
  }

  const char *JsonPath = "BENCH_read.json";
  if (!writeJson(JsonPath, Depths, Ratios, Fallbacks, FaultBitIdentical))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s (%zu depth rows, %zu ratio rows)\n", JsonPath,
                Depths.size(), Ratios.size());

  // Gate 1 (E11): bit-identity everywhere — every decode mode at every
  // depth, every sub-block count, and the fault replay must reproduce
  // the original stream exactly.
  for (const DepthRow &R : Depths) {
    if (!R.BitIdentical) {
      std::fprintf(stderr, "FAIL: decode diverged at depth %zu\n", R.Depth);
      return 1;
    }
  }
  for (const RatioRow &R : Ratios) {
    if (!R.BitIdentical) {
      std::fprintf(stderr, "FAIL: decode diverged at sub-blocks=%u\n",
                   R.SubBlocks);
      return 1;
    }
  }
  if (!FaultBitIdentical || Fallbacks == 0.0) {
    std::fprintf(stderr, "FAIL: fault replay %s (fallbacks=%.0f)\n",
                 FaultBitIdentical ? "never exercised the fallback"
                                   : "diverged",
                 Fallbacks);
    return 1;
  }
  std::printf("bit-identity: all modes, depths, sub-block counts and the "
              "fault replay\n");

  // Gate 2 (E11): the headline — warp-GPU decode of the framed store
  // beats the CPU pool at batch depth <= 16, where a per-batch kernel
  // launch would lose. There is no crossover.
  for (const DepthRow &R : Depths) {
    if (R.Depth > 16)
      continue;
    std::printf("depth %zu: warp %.1fK vs cpu %.1fK (unframed %.1fK)\n",
                R.Depth, R.WarpKiops, R.CpuKiops, R.UnframedKiops);
    if (R.WarpKiops <= R.CpuKiops) {
      std::fprintf(stderr,
                   "FAIL: warp decode does not beat the CPU pool at "
                   "depth %zu (E11)\n",
                   R.Depth);
      return 1;
    }
  }

  // Gate 3 (E11): the format tax — sub-block ratio loss <= 5% on the
  // vdbench workload at every supported count.
  for (const RatioRow &R : Ratios) {
    if (R.DeltaPct > 5.0) {
      std::fprintf(stderr,
                   "FAIL: sub-blocks=%u costs %.2f%% ratio, above the "
                   "5%% bar (E11)\n",
                   R.SubBlocks, R.DeltaPct);
      return 1;
    }
  }
  std::printf("PASS: read gates met (warp beats cpu at shallow depth, "
              "ratio tax bounded, decode bit-exact)\n");
  return 0;
}
