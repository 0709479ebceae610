//===----------------------------------------------------------------------===//
///
/// \file
/// `oltp-mixed`: a SkewedHot scenario trace (70/20/10 writes/reads/
/// trims, runs of 1-16 blocks, dedup-friendly fillTraceBlock content)
/// driven through journal::JournaledVolume over a Volume with group
/// commit, periodic collectGarbage and checkpoint, reads through
/// restore::VolumeReader, gpu-compress mode (the paper's winner) and the
/// page-level FTL. After the timed phase the frontend "crashes" — its
/// objects are dropped with the last group un-committed — and
/// journal::recoverVolume rebuilds a fresh pipeline/volume, which must
/// hold every acknowledged block bit-for-bit and no un-acknowledged one.
///
/// Journal flush policy: the code's own — fflush at each group commit,
/// no fsync.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "journal/JournaledVolume.h"
#include "journal/Recovery.h"
#include "obs/TraceRecorder.h"
#include "restore/VolumeReader.h"
#include "workload/Scenario.h"

#include <cstdio>
#include <deque>
#include <memory>
#include <set>

namespace perfbench {

using namespace padre;

namespace {
constexpr std::uint64_t VolumeBlocks = 4096; // 16 MiB
constexpr std::uint32_t MaxRunBlocks = 16;
constexpr std::uint64_t Operations = 2000;
/// Content tags of the trace; block I of a write with tag T carries
/// fillTraceBlock(T * MaxRunBlocks + I), so equal tags dedup.
constexpr std::uint64_t ContentTags = 1024;
constexpr std::size_t GroupCommitOps = 8;
constexpr std::uint64_t GcEveryOps = 250;
/// Checkpoints write the whole volume image to a file; they are kept
/// rare so that file I/O does not dominate the timed phase.
constexpr std::uint64_t CheckpointEveryOps = 1000;
constexpr std::size_t CacheBytes = 4u << 20;
constexpr std::uint64_t PrefillRequestBlocks = 256;

/// One journaled mutation not yet acknowledged.
struct PendingOp {
  std::uint64_t Seq = 0;
  std::uint64_t Lba = 0;
  std::uint64_t Blocks = 0;
  std::uint64_t FirstContent = NoContent; ///< NoContent = trim
};

void fillRun(std::uint64_t FirstContent, std::uint64_t Blocks,
             ByteVector &Out) {
  Out.resize(Blocks * BlockSize);
  for (std::uint64_t I = 0; I < Blocks; ++I)
    fillTraceBlock(FirstContent + I,
                   MutableByteSpan(Out.data() + I * BlockSize, BlockSize));
}


PipelineConfig oltpPipelineConfig(const PassContext &Ctx) {
  PipelineConfig Config;
  Config.Mode = PipelineMode::GpuCompress;
  Config.ChunkSize = BlockSize;
  Config.ReadCacheBytes = CacheBytes;
  ssd::FtlConfig Ftl;
  // 32 MiB raw flash under the 16 MiB volume: tight enough that the
  // journal, checkpoints and overwrites make the FTL collect.
  Ftl.Blocks = 128;
  Config.Ftl = Ftl;
  Config.Trace = Ctx.Trace;
  Config.Metrics = Ctx.Metrics;
  return Config;
}
} // namespace

PassOutput runOltpMixedPass(const PassContext &Ctx) {
  PassOutput Out;
  const Stamp SetupBegin = Stamp::begin();
  ScenarioConfig Scenario;
  Scenario.Shape = ScenarioShape::SkewedHot;
  Scenario.Operations = Operations;
  Scenario.VolumeBlocks = VolumeBlocks;
  Scenario.MaxRunBlocks = MaxRunBlocks;
  Scenario.WriteFraction = 0.7;
  Scenario.ReadFraction = 0.2;
  Scenario.ContentTags = ContentTags;
  Scenario.Seed = Ctx.Seed;
  const TraceLog Trace = synthesizeScenario(Scenario);
  std::vector<ByteVector> WriteData(Trace.Records.size());
  for (std::size_t I = 0; I < Trace.Records.size(); ++I)
    if (Trace.Records[I].Op == TraceOp::Write)
      fillRun(Trace.Records[I].ContentTag * MaxRunBlocks,
              Trace.Records[I].Blocks, WriteData[I]);

  const std::string JournalPath = Ctx.WorkDir + "/oltp.wal";
  const std::string CheckpointPath = Ctx.WorkDir + "/oltp.ckpt";
  const PipelineConfig Config = oltpPipelineConfig(Ctx);
  auto Pipeline = std::make_unique<ReductionPipeline>(benchPlatform(), Config);
  auto Vol = std::make_unique<Volume>(*Pipeline, VolumeConfig{VolumeBlocks});
  journal::JournaledVolumeConfig JConfig;
  JConfig.JournalPath = JournalPath;
  JConfig.CheckpointPath = CheckpointPath;
  JConfig.GroupCommitOps = GroupCommitOps;
  JConfig.Metrics = Ctx.Metrics;
  auto Jv = std::make_unique<journal::JournaledVolume>(*Vol, *Pipeline,
                                                        JConfig);
  Out.check(Jv->ctorStatus().ok(), "journal create");

  // Pre-population: every block written once (block L carries content
  // L), then a checkpoint so recovery starts from an image.
  std::vector<std::uint64_t> Live(VolumeBlocks, NoContent);
  ByteVector Buffer;
  for (std::uint64_t Lba = 0; Lba < VolumeBlocks;
       Lba += PrefillRequestBlocks) {
    fillRun(Lba, PrefillRequestBlocks, Buffer);
    Out.check(Jv->writeBlocks(Lba, ByteSpan(Buffer.data(), Buffer.size()))
                  .ok(),
              "prefill write");
    for (std::uint64_t I = 0; I < PrefillRequestBlocks; ++I)
      Live[Lba + I] = Lba + I;
  }
  Out.check(Jv->checkpoint().ok(), "prefill checkpoint");
  std::vector<std::uint64_t> Acked = Live;
  auto Reader = std::make_unique<restore::VolumeReader>(*Vol);
  Pipeline->resetMeasurement();
  Reader->pipeline().resetMeasurement();
  if (Ctx.Trace)
    Ctx.Trace->clear();
  const std::size_t BatchesBefore = Pipeline->scheduler().batchesScheduled();
  const std::uint64_t CheckpointsBefore = Jv->checkpointsTaken();
  Out.setup(SetupBegin, Stamp::end());

  std::deque<PendingOp> Pending;
  auto ApplyAcked = [&] {
    while (!Pending.empty() && Pending.front().Seq <= Jv->ackedSeq()) {
      const PendingOp &Op = Pending.front();
      for (std::uint64_t I = 0; I < Op.Blocks; ++I)
        Acked[Op.Lba + I] =
            Op.FirstContent == NoContent ? NoContent : Op.FirstContent + I;
      Pending.pop_front();
    }
  };

  std::uint64_t RequestId = 0;
  for (const TraceRecord &Record : Trace.Records) {
    if (RequestId > 0 && RequestId % GcEveryOps == 0) {
      const Stamp Begin = Stamp::begin();
      bool Ok;
      {
        ScopedSpan S(Ctx.Spans, "core.gc", RequestId);
        Ok = Jv->collectGarbage().ok();
      }
      Out.timed(Begin, Stamp::end(), 0);
      Out.check(Ok, "collectGarbage");
    }
    if (RequestId > 0 && RequestId % CheckpointEveryOps == 0) {
      const Stamp Begin = Stamp::begin();
      bool Ok;
      {
        ScopedSpan S(Ctx.Spans, "persist.checkpoint", RequestId);
        Ok = Jv->checkpoint().ok();
      }
      Out.timed(Begin, Stamp::end(), 0);
      Out.check(Ok, "checkpoint");
    }
    const std::uint64_t Blocks = Record.Blocks;
    switch (Record.Op) {
    case TraceOp::Write: {
      const std::uint64_t First = Record.ContentTag * MaxRunBlocks;
      const ByteSpan Data(WriteData[RequestId].data(),
                          WriteData[RequestId].size());
      if (Ctx.Traced)
        Out.Replay.addWrite(Data, Record.Lba);
      const Stamp Begin = Stamp::begin();
      fault::Expected<std::uint64_t> Seq = std::uint64_t{0};
      {
        ScopedSpan S(Ctx.Spans, "journal.write", RequestId);
        Seq = Jv->writeBlocks(Record.Lba, Data);
      }
      Out.request(OpKind::Write, Begin, Stamp::end(), Data.size());
      Out.check(Seq.ok(), "write " + std::to_string(RequestId));
      if (Seq.ok()) {
        for (std::uint64_t I = 0; I < Blocks; ++I)
          Live[Record.Lba + I] = First + I;
        Pending.push_back({*Seq, Record.Lba, Blocks, First});
      }
      break;
    }
    case TraceOp::Read: {
      const Stamp Begin = Stamp::begin();
      std::optional<ByteVector> Data;
      {
        ScopedSpan S(Ctx.Spans, "restore.read", RequestId);
        Data = Reader->readBlocks(Record.Lba, Blocks);
      }
      Out.request(OpKind::Read, Begin, Stamp::end(), Blocks * BlockSize);
      Out.check(Data && matchesShadow(*Data, Record.Lba, Blocks, Live),
                "read " + std::to_string(RequestId));
      break;
    }
    case TraceOp::Trim: {
      const Stamp Begin = Stamp::begin();
      fault::Expected<std::uint64_t> Seq = std::uint64_t{0};
      {
        ScopedSpan S(Ctx.Spans, "journal.trim", RequestId);
        Seq = Jv->trim(Record.Lba, Blocks);
      }
      Out.request(OpKind::Trim, Begin, Stamp::end(), 0);
      Out.check(Seq.ok(), "trim " + std::to_string(RequestId));
      if (Seq.ok()) {
        for (std::uint64_t I = 0; I < Blocks; ++I)
          Live[Record.Lba + I] = NoContent;
        Pending.push_back({*Seq, Record.Lba, Blocks, NoContent});
      }
      break;
    }
    }
    ApplyAcked();
    ++RequestId;
  }

  const PipelineReport Report = Pipeline->report();
  const restore::ReadReport ReadStats = Reader->pipeline().report();
  const VolumeStats Stats = Vol->stats();
  Out.Det["model_MBps"] = Report.WallThroughputMBps;
  Out.Det["model_p99_us"] = Report.LatencyP99Us;
  Out.Det["model_write_p99_us"] = Report.LatencyP99Us;
  Out.Det["model_read_p99_us"] = ReadStats.LatencyP99Us;
  Out.Det["reduction_ratio"] =
      Stats.PhysicalBytes == 0
          ? 0.0
          : static_cast<double>(Stats.LogicalBytes) /
                static_cast<double>(Stats.PhysicalBytes);
  Out.Det["logical_chunks"] = static_cast<double>(Report.LogicalChunks);
  Out.Det["unique_chunks"] = static_cast<double>(Report.UniqueChunks);
  Out.Det["live_chunks"] = static_cast<double>(Stats.LiveChunks);
  Out.Det["acked_seq"] = static_cast<double>(Jv->ackedSeq());
  Out.Det["unacked_ops_at_crash"] = static_cast<double>(Pending.size());
  Out.Det["model_makespan_s"] = Report.MakespanSec;
  if (Ctx.Traced) {
    addPipelineCounters(*Pipeline, Report, Out.Layer);
    addWriteLanes(Report, Out.Layer);
    const std::size_t Batches =
        Pipeline->scheduler().batchesScheduled() - BatchesBefore;
    Out.Layer["core.chunks_per_batch"] =
        Batches == 0 ? 0.0
                     : static_cast<double>(Report.LogicalChunks) /
                           static_cast<double>(Batches);
    Out.Layer["gpu.fallbacks"] = counterValue(
        Ctx.Metrics, "padre_gpu_fallback_total{family=\"compression\"}");
    Out.Layer["restore.cache_hit_frac"] = ReadStats.cacheHitRate();
    Out.Layer["restore.coalesced_runs"] =
        static_cast<double>(ReadStats.CoalescedRuns);
    Out.Layer["restore.decode_batches_cpu"] =
        static_cast<double>(ReadStats.CpuBatches);
    Out.Layer["restore.decode_batches_gpu"] =
        static_cast<double>(ReadStats.GpuBatches);
    Out.Layer["restore.decode_batches_warp"] =
        static_cast<double>(ReadStats.WarpBatches);
    Out.Layer["journal.commits"] =
        counterValue(Ctx.Metrics, "padre_journal_commits_total");
    const double Records =
        counterValue(Ctx.Metrics, "padre_journal_records_total");
    Out.Layer["journal.bytes_per_op"] =
        Records > 0.0
            ? counterValue(Ctx.Metrics, "padre_journal_bytes_total") / Records
            : 0.0;
    Out.Layer["persist.checkpoints"] =
        static_cast<double>(Jv->checkpointsTaken() - CheckpointsBefore);
    std::set<std::uint64_t> Seen;
    for (const std::uint64_t Location : Vol->mapping())
      if (Location != Volume::Unmapped && Seen.insert(Location).second)
        Out.Replay.addEncoded(*Pipeline, Location);
    Out.Replay.CoreConfig = Config;
    Out.Replay.CoreConfig.Trace = nullptr;
    Out.Replay.CoreConfig.Metrics = nullptr;
    Out.Replay.VolumeBlocks = VolumeBlocks;
  }
  ApplyAcked();

  // Crash: drop the frontend with its last group un-committed, then
  // recover into a fresh pipeline/volume pair.
  Reader.reset();
  Jv.reset();
  Vol.reset();
  Pipeline.reset();
  ReductionPipeline Fresh(benchPlatform(), Config);
  Volume Recovered(Fresh, VolumeConfig{VolumeBlocks});
  const std::uint64_t RecoverBegin = nowNs();
  journal::RecoveryReport Recovery;
  {
    ScopedSpan S(Ctx.Spans, "journal.recover", RequestId);
    Recovery = journal::recoverVolume(JournalPath, CheckpointPath, Fresh,
                                      Recovered, Ctx.Metrics);
  }
  Out.RecoverySec = static_cast<double>(nowNs() - RecoverBegin) * 1e-9;
  Out.check(Recovery.ok(), "recoverVolume");
  Out.Det["replayed_records"] = static_cast<double>(Recovery.ReplayedRecords);
  Out.Det["recovered_last_seq"] = static_cast<double>(Recovery.LastSeq);
  Out.Det["model_recovery_us"] = Recovery.ModelledMicros;
  if (Ctx.Traced) {
    Out.Layer["journal.replayed_records"] =
        static_cast<double>(Recovery.ReplayedRecords);
    addModelStages(*Ctx.Trace, Out.Layer);
  }
  for (std::uint64_t Lba = 0; Lba < VolumeBlocks;
       Lba += PrefillRequestBlocks) {
    const std::optional<ByteVector> Data =
        Recovered.readBlocks(Lba, PrefillRequestBlocks);
    Out.check(Data && matchesShadow(*Data, Lba, PrefillRequestBlocks, Acked),
              "recovered blocks at " + std::to_string(Lba));
  }
  std::remove(JournalPath.c_str());
  std::remove(CheckpointPath.c_str());
  std::remove((CheckpointPath + ".tmp").c_str());
  return Out;
}

} // namespace perfbench
