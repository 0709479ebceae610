//===----------------------------------------------------------------------===//
///
/// \file
/// `restore`: a store written during set-up (vdbench dedup 2.0 / comp
/// 2.0, cpu-only) read back through restore::ReadPipeline::readLocations
/// as random 64-chunk (256 KiB) recipe runs. ReadConfig keeps its
/// defaults (decode mode Auto); the read cache is on, as `padrectl
/// restore` runs it, but sized well below the store. Decode, CRC
/// verification, fetch coalescing and the cache do the work; hash,
/// index and compress do none.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/TraceRecorder.h"
#include "restore/ReadPipeline.h"
#include "util/Random.h"
#include "workload/VdbenchStream.h"

#include <cstring>
#include <set>

namespace perfbench {

using namespace padre;

namespace {
constexpr std::size_t WriteRequestBytes = 1u << 20;
constexpr std::uint64_t StoreBytes = 64u << 20;
/// Decoded-chunk cache: 8 MiB against 32 MiB of unique data.
constexpr std::size_t CacheBytes = 8u << 20;
constexpr std::size_t RunChunks = 64;
constexpr std::size_t ReadsPerPass = 1024;
} // namespace

PassOutput runRestorePass(const PassContext &Ctx) {
  PassOutput Out;
  const Stamp SetupBegin = Stamp::begin();
  WorkloadConfig Stream;
  Stream.BlockSize = BlockSize;
  Stream.TotalBytes = StoreBytes;
  Stream.DedupRatio = 2.0;
  Stream.CompressRatio = 2.0;
  Stream.Seed = Ctx.Seed;
  const ByteVector Data = VdbenchStream(Stream).generateAll();

  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.ChunkSize = BlockSize;
  Config.ReadCacheBytes = CacheBytes;
  Config.Trace = Ctx.Trace;
  Config.Metrics = Ctx.Metrics;
  ReductionPipeline Pipeline(benchPlatform(), Config);
  for (std::uint64_t Offset = 0; Offset < Data.size();
       Offset += WriteRequestBytes)
    Out.check(
        Pipeline.write(ByteSpan(Data.data() + Offset, WriteRequestBytes))
            .ok(),
        "store write");
  Out.check(Pipeline.finish().ok(), "store finish");
  const PipelineReport WriteReport = Pipeline.report();
  restore::ReadPipeline Reader(Pipeline);
  Reader.resetMeasurement();
  if (Ctx.Trace)
    Ctx.Trace->clear(); // keep only the timed reads' modelled spans
  const std::vector<std::uint64_t> &Locations =
      Pipeline.recipe().ChunkLocations;
  Random Rng(Ctx.Seed * 0x9E3779B97F4A7C15ULL + 0x7E57);
  Out.setup(SetupBegin, Stamp::end());

  std::vector<ByteVector> Chunks;
  std::set<std::uint64_t> Kept;
  for (std::uint64_t RequestId = 0; RequestId < ReadsPerPass; ++RequestId) {
    const std::size_t First = static_cast<std::size_t>(
        Rng.nextBelow(Locations.size() - RunChunks + 1));
    const std::span<const std::uint64_t> Run(Locations.data() + First,
                                             RunChunks);
    Chunks.clear();
    const Stamp Begin = Stamp::begin();
    bool Ok;
    {
      ScopedSpan S(Ctx.Spans, "restore.read", RequestId);
      Ok = Reader.readLocations(Run, Chunks);
    }
    Out.request(OpKind::Read, Begin, Stamp::end(), RunChunks * BlockSize);
    Ok = Ok && Chunks.size() == RunChunks;
    for (std::size_t I = 0; Ok && I < RunChunks; ++I)
      Ok = Chunks[I].size() == BlockSize &&
           std::memcmp(Chunks[I].data(),
                       Data.data() + (First + I) * BlockSize,
                       BlockSize) == 0;
    Out.check(Ok, "read of chunk run at " + std::to_string(First));
    if (Ctx.Traced)
      for (const std::uint64_t Location : Run)
        if (Kept.insert(Location).second)
          Out.Replay.addEncoded(Pipeline, Location);
  }

  const restore::ReadReport Report = Reader.report();
  Out.Det["model_MBps"] = Report.ThroughputMBps;
  Out.Det["model_p99_us"] = Report.LatencyP99Us;
  Out.Det["model_read_p99_us"] = Report.LatencyP99Us;
  Out.Det["reduction_ratio"] = WriteReport.ReductionRatio;
  Out.Det["chunks_requested"] = static_cast<double>(Report.ChunksRequested);
  Out.Det["cache_hits"] = static_cast<double>(Report.CacheHits);
  Out.Det["ssd_chunks"] = static_cast<double>(Report.SsdChunks);
  Out.Det["coalesced_runs"] = static_cast<double>(Report.CoalescedRuns);
  Out.Det["model_makespan_s"] = Report.MakespanSec;
  if (Ctx.Traced) {
    for (std::uint64_t Offset = 0; Offset < Data.size();
         Offset += WriteRequestBytes)
      Out.Replay.addWrite(ByteSpan(Data.data() + Offset, WriteRequestBytes));
    addPipelineCounters(Pipeline, WriteReport, Out.Layer);
    addModelStages(*Ctx.Trace, Out.Layer);
    Out.Layer["restore.cache_hit_frac"] = Report.cacheHitRate();
    Out.Layer["restore.coalesced_runs"] =
        static_cast<double>(Report.CoalescedRuns);
    Out.Layer["restore.decode_batches_cpu"] =
        static_cast<double>(Report.CpuBatches);
    Out.Layer["restore.decode_batches_gpu"] =
        static_cast<double>(Report.GpuBatches);
    Out.Layer["restore.decode_batches_warp"] =
        static_cast<double>(Report.WarpBatches);
    Out.Layer["model.cpu_busy_s"] = Report.CpuBusySec;
    Out.Layer["model.gpu_busy_s"] = Report.GpuBusySec;
    Out.Layer["model.pcie_busy_s"] = Report.PcieBusySec;
    Out.Layer["model.ssd_busy_s"] = Report.SsdBusySec;
  }
  return Out;
}

} // namespace perfbench
