//===----------------------------------------------------------------------===//
///
/// \file
/// `ingest`: the paper's stream — vdbench dedup 2.0 / comp 2.0, 4 KiB
/// fixed chunks — written through ReductionPipeline::write in 1 MiB
/// requests (one full 256-chunk batch each), cpu-only, after a warmup
/// and resetMeasurement(). Hash, index, LZ and CRC do nearly all the
/// host work; the decode path does nothing until the untimed read-back.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/TraceRecorder.h"
#include "workload/VdbenchStream.h"

#include <set>

namespace perfbench {

using namespace padre;

namespace {
constexpr std::size_t RequestBytes = 1u << 20;
constexpr std::uint64_t WarmupBytes = 8u << 20;
constexpr std::uint64_t TimedBytes = 128u << 20;
} // namespace

PassOutput runIngestPass(const PassContext &Ctx) {
  PassOutput Out;
  const Stamp SetupBegin = Stamp::begin();
  WorkloadConfig Stream;
  Stream.BlockSize = BlockSize;
  Stream.TotalBytes = WarmupBytes + TimedBytes;
  Stream.DedupRatio = 2.0;
  Stream.CompressRatio = 2.0;
  Stream.Seed = Ctx.Seed;
  const ByteVector Data = VdbenchStream(Stream).generateAll();

  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.ChunkSize = BlockSize;
  Config.Trace = Ctx.Trace;
  Config.Metrics = Ctx.Metrics;
  ReductionPipeline Pipeline(benchPlatform(), Config);
  Out.check(Pipeline.write(ByteSpan(Data.data(), WarmupBytes)).ok(),
            "warmup write");
  Pipeline.resetMeasurement();
  if (Ctx.Trace)
    Ctx.Trace->clear(); // the lane clocks restarted with the ledger
  const std::size_t BatchesBefore = Pipeline.scheduler().batchesScheduled();
  Out.setup(SetupBegin, Stamp::end());

  std::uint64_t RequestId = 0;
  for (std::uint64_t Offset = WarmupBytes; Offset < Data.size();
       Offset += RequestBytes, ++RequestId) {
    const ByteSpan Request(Data.data() + Offset, RequestBytes);
    if (Ctx.Traced)
      Out.Replay.addWrite(Request);
    const Stamp Begin = Stamp::begin();
    fault::Status St;
    {
      ScopedSpan S(Ctx.Spans, "core.write", RequestId);
      St = Pipeline.write(Request);
    }
    Out.request(OpKind::Write, Begin, Stamp::end(), RequestBytes);
    Out.check(St.ok(), "write request " + std::to_string(RequestId));
  }
  Out.check(Pipeline.finish().ok(), "finish");

  const PipelineReport Report = Pipeline.report();
  Out.Det["model_MBps"] = Report.WallThroughputMBps;
  Out.Det["model_p99_us"] = Report.LatencyP99Us;
  Out.Det["model_write_p99_us"] = Report.LatencyP99Us;
  Out.Det["reduction_ratio"] = Report.ReductionRatio;
  Out.Det["logical_chunks"] = static_cast<double>(Report.LogicalChunks);
  Out.Det["unique_chunks"] = static_cast<double>(Report.UniqueChunks);
  Out.Det["stored_bytes"] = static_cast<double>(Report.StoredBytes);
  Out.Det["raw_fallbacks"] = static_cast<double>(Report.RawFallbacks);
  Out.Det["model_makespan_s"] = Report.MakespanSec;
  Out.Det["model_cpu_busy_s"] = Report.CpuBusySec;
  if (Ctx.Traced) {
    addPipelineCounters(Pipeline, Report, Out.Layer);
    addWriteLanes(Report, Out.Layer);
    addModelStages(*Ctx.Trace, Out.Layer);
    const std::size_t Batches =
        Pipeline.scheduler().batchesScheduled() - BatchesBefore;
    Out.Layer["core.chunks_per_batch"] =
        Batches == 0 ? 0.0
                     : static_cast<double>(Report.LogicalChunks) /
                           static_cast<double>(Batches);
    std::set<std::uint64_t> Seen;
    for (const std::uint64_t Location : Pipeline.recipe().ChunkLocations)
      if (Seen.insert(Location).second)
        Out.Replay.addEncoded(Pipeline, Location);
  }

  // Whole-stream read-back, warmup included (untimed; after the report
  // so its read charges stay out of the modelled figures).
  Out.check(Pipeline.verifyAgainst(ByteSpan(Data.data(), Data.size())),
            "read-back of the whole stream");
  return Out;
}

} // namespace perfbench
