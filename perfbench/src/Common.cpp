//===----------------------------------------------------------------------===//
///
/// \file
/// Per-pass bookkeeping, order statistics and the readers that turn the
/// program's reports, counters and modelled stage spans into per-layer
/// values.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/DedupEngine.h"
#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"
#include "workload/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <time.h>

namespace perfbench {

using namespace padre;

std::uint64_t cpuNs() {
  timespec T;
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<std::uint64_t>(T.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(T.tv_nsec);
}

Platform benchPlatform() {
  Platform P = Platform::paper();
  P.Model.Cpu.Threads = 4;
  return P;
}

bool matchesShadow(const ByteVector &Data, std::uint64_t Lba,
                   std::uint64_t Blocks,
                   const std::vector<std::uint64_t> &Shadow) {
  if (Data.size() != Blocks * BlockSize)
    return false;
  ByteVector Expected(BlockSize);
  for (std::uint64_t I = 0; I < Blocks; ++I) {
    const std::uint64_t Content = Shadow[Lba + I];
    if (Content == NoContent)
      std::memset(Expected.data(), 0, BlockSize);
    else
      fillTraceBlock(Content, MutableByteSpan(Expected.data(), BlockSize));
    if (std::memcmp(Data.data() + I * BlockSize, Expected.data(),
                    BlockSize) != 0)
      return false;
  }
  return true;
}

void ReplayInput::addWrite(ByteSpan Data, std::uint64_t Lba) {
  if (WriteBytes + Data.size() > MaxWriteBytes)
    return;
  Writes.emplace_back(Data.begin(), Data.end());
  WriteLbas.push_back(Lba);
  WriteBytes += Data.size();
}

void ReplayInput::addEncoded(const ReductionPipeline &Pipeline,
                             std::uint64_t Location) {
  if (Encoded.size() >= MaxEncoded)
    return;
  if (const std::optional<ByteSpan> Block =
          Pipeline.store().encodedBlock(Location))
    Encoded.emplace_back(Block->begin(), Block->end());
}

void PassOutput::request(OpKind Kind, const Stamp &Begin, const Stamp &End,
                         std::uint64_t N) {
  sample(Kind, Begin, End);
  timed(Begin, End, N);
}

void PassOutput::timed(const Stamp &Begin, const Stamp &End,
                       std::uint64_t N) {
  TimedSec += static_cast<double>(End.WallNs - Begin.WallNs) * 1e-9;
  TimedCpuSec += static_cast<double>(End.CpuNs - Begin.CpuNs) * 1e-9;
  Bytes += N;
}

void PassOutput::setup(const Stamp &Begin, const Stamp &End) {
  SetupSec = static_cast<double>(End.WallNs - Begin.WallNs) * 1e-9;
  SetupCpuSec = static_cast<double>(End.CpuNs - Begin.CpuNs) * 1e-9;
}

void PassOutput::sample(OpKind Kind, const Stamp &Begin, const Stamp &End) {
  const double Us = static_cast<double>(End.WallNs - Begin.WallNs) * 1e-3;
  (Kind == OpKind::Write  ? WriteUs
   : Kind == OpKind::Read ? ReadUs
                          : TrimUs)
      .push_back(Us);
  CpuUs.push_back(static_cast<double>(End.CpuNs - Begin.CpuNs) * 1e-3);
}

void PassOutput::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (FailureNotes.size() < 8)
    FailureNotes.push_back(What);
}

void addModelStages(const obs::TraceRecorder &Trace,
                    std::map<std::string, double> &Layer) {
  // Stage names of the program's spans -> per-layer keys. Scheduler
  // ("sched") spans repeat names on the timeline clock and are skipped.
  static const std::pair<const char *, const char *> Stages[] = {
      {"chunk", "chunk"},
      {"dedup", "dedup"},
      {"compress", "compress"},
      {"destage", "destage"},
      {"drain", "drain"},
      {"restore:fetch", "restore_fetch"},
      {"restore:decode", "restore_decode"},
      {"journal:commit", "journal"},
      {"journal:replay", "journal"},
      {"ckpt:write", "ckpt"},
      {"ckpt:load", "ckpt"},
      {"ftl:gc", "ftl_gc"},
  };
  for (const auto &[Name, Key] : Stages)
    Layer[std::string("model.") + Key + "_us"] += 0.0;
  Layer["model.svc_us"] += 0.0;
  for (const obs::TraceSpan &S : Trace.spans()) {
    const std::string_view Category(S.Category);
    const std::string_view Name(S.Name);
    if (Category == obs::CategorySvc) {
      Layer["model.svc_us"] += S.DurUs;
      continue;
    }
    if (Category != obs::CategoryStage && Name != "ftl:gc")
      continue;
    for (const auto &[StageName, Key] : Stages)
      if (Name == StageName)
        Layer[std::string("model.") + Key + "_us"] += S.DurUs;
  }
}

void addWriteLanes(const PipelineReport &Report,
                   std::map<std::string, double> &Layer) {
  static const std::pair<Resource, const char *> Lanes[] = {
      {Resource::CpuPool, "cpu"},
      {Resource::Gpu, "gpu"},
      {Resource::Pcie, "pcie"},
      {Resource::Ssd, "ssd"},
  };
  for (const auto &[Lane, Name] : Lanes) {
    const unsigned R = static_cast<unsigned>(Lane);
    const double Busy = Report.SchedBusySec[R];
    Layer[std::string("model.") + Name + "_busy_s"] = Busy;
    Layer[std::string("model.") + Name + "_hidden_frac"] =
        Busy > 0.0 ? Report.SchedHiddenSec[R] / Busy : 0.0;
  }
}

double counterValue(const obs::MetricsRegistry *Metrics,
                    const std::string &Name) {
  if (!Metrics)
    return 0.0;
  const obs::Counter *C = Metrics->findCounter(Name);
  return C ? static_cast<double>(C->value()) : 0.0;
}

void addPipelineCounters(const ReductionPipeline &Pipeline,
                         const PipelineReport &Report,
                         std::map<std::string, double> &Layer) {
  Layer["compress.ratio"] = Report.CompressRatio;
  Layer["compress.raw_fallback_frac"] =
      Report.UniqueChunks == 0 ? 0.0
                               : static_cast<double>(Report.RawFallbacks) /
                                     static_cast<double>(Report.UniqueChunks);
  Layer["gpu.launches"] = static_cast<double>(Report.KernelLaunches);
  if (const DedupEngine *Engine = Pipeline.dedupEngine()) {
    const FingerprintIndex &Index = Engine->index();
    const double Hits = static_cast<double>(
        Index.bufferHits() + Index.treeHits() + Index.gpuHits());
    const double Lookups = Hits + static_cast<double>(Index.uniqueInserts());
    Layer["index.dup_frac"] = Lookups > 0.0 ? Hits / Lookups : 0.0;
    Layer["index.buffer_hit_frac"] =
        Hits > 0.0 ? static_cast<double>(Index.bufferHits()) / Hits : 0.0;
    Layer["index.evictions"] = static_cast<double>(Index.evictions());
    Layer["index.memory_bytes"] = static_cast<double>(Index.memoryBytes());
  }
  Layer["ssd.nand_per_host"] =
      Report.SsdHostBytes == 0
          ? 0.0
          : static_cast<double>(Report.SsdNandBytes) /
                static_cast<double>(Report.SsdHostBytes);
  Layer["ssd.retries"] = static_cast<double>(Pipeline.ssd().retryCount());
  Layer["ssd.ftl_erases"] =
      Pipeline.ssd().ftl()
          ? static_cast<double>(Pipeline.ssd().ftl()->counters().Erases)
          : 0.0;
}

double percentile(std::vector<double> Values, double Pct) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  // Nearest rank.
  const double Rank = std::ceil(Pct / 100.0 * static_cast<double>(Values.size()));
  const std::size_t Index =
      Rank < 1.0 ? 0 : static_cast<std::size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const std::size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

} // namespace perfbench
