//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench — the end-to-end benchmark driver.
///
///   perfbench --workload ingest|restore|oltp-mixed|tenants|all
///             --seed N --seconds S --trace 0|1
///             [--out-dir DIR] [--work-dir DIR]
///             [--git-rev REV] [--src-digest HEX]
///   perfbench --list-metrics
///
/// A run repeats fixed-size passes of the workload (see Bench.h) until
/// the timed phases add up to --seconds, and at least MinPasses times.
/// Host figures are per-pass statistics medianed over the passes. It
/// prints every end-to-end metric with its
/// unit, clock and sample count, writes a result record (and, traced,
/// the benchmark's host spans) under --out-dir, and ends with one JSON
/// line. --trace 1 follows the untraced passes with traced passes (the
/// program's TraceRecorder and MetricsRegistry attached, benchmark spans
/// recorded) and a layer replay, and reports the per-layer metrics.
///
/// Exit status: 0 when every operation was correct, 1 when any check
/// failed, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/MetricsRegistry.h"
#include "obs/TraceRecorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

/// Tail percentiles are fixed per workload: the highest percentile with
/// at least 10 of one pass's request samples beyond it,
/// PassSamples * (1 - TailPct/100) >= 10. In `tenants` the 8 write
/// samples of a step share one pump(), so there the count is in steps:
/// 256 steps, p96.
const WorkloadSpec Workloads[] = {
    {"ingest", 92.0, 128, runIngestPass},
    {"restore", 99.0, 1024, runRestorePass},
    {"oltp-mixed", 99.5, 2000, runOltpMixedPass},
    {"tenants", 96.0, 2304, runTenantsPass},
};

/// Passes cycle through this many input variants of the run's seed, so
/// one run's host figures cover several inputs rather than repeating one
/// input's slowest requests; the modelled values are the mean over them.
constexpr unsigned InputVariants = 4;
/// A run always makes at least this many untraced passes: every variant
/// runs, and one runs twice for the pass-to-pass repeatability check.
constexpr std::size_t MinPasses = InputVariants + 1;
/// CPU time a hypervisor steals is interference from outside the
/// machine, not work of the program. Even 1-3% of it lifts wall-clock
/// tails; bursts of a few milliseconds on every CPU triple a p99, and
/// stretches of 40-60% steal stretch every wall-clock figure 2-4x. So
/// the host figures on the last line are taken on the calling thread's
/// CPU clock, which leaves stolen time out; the wall-clock ones are
/// only printed and recorded. Host figures use the least-stolen half of the
/// passes, and a run keeps making passes until at least MinPasses of
/// them had at most this share of their wanted CPU time stolen.
constexpr double MaxStealShare = 0.05;
/// Untraced passes stop at this multiple of --seconds of wall time, clean
/// or not; traced passes are not started after TracedStartCapSec. Both
/// keep a run well inside three minutes.
constexpr double UntracedCapFactor = 1.5;
constexpr double TracedStartCapSec = 110.0;

struct MetricDef {
  const char *Name;
  const char *Unit;
  const char *Better;
  const char *Clock;
};

/// The end-to-end metrics: defined on every workload, printed on the
/// last line of an untraced run. Host figures on it are on the CPU
/// clock (see MaxStealShare).
const MetricDef EndToEnd[] = {
    {"host_cpu_MBps", "MB/cpu-s", "higher", "host_cpu"},
    {"host_cpu_p50_us", "us", "lower", "host_cpu"},
    {"host_cpu_tail_us", "us", "lower", "host_cpu"},
    {"model_MBps", "MB/s", "higher", "model"},
    {"model_p99_us", "us", "lower", "model"},
    {"reduction_ratio", "x", "higher", "program"},
    {"setup_s", "s", "lower", "host_cpu"},
    {"peak_rss_MiB", "MiB", "lower", "process"},
};

/// Wall-clock figures, op-type splits and workload-specific figures:
/// printed and recorded where the workload has them, not on the last
/// line.
const MetricDef Detail[] = {
    {"host_MBps", "MB/s", "higher", "host"},
    {"host_p50_us", "us", "lower", "host"},
    {"host_tail_us", "us", "lower", "host"},
    {"setup_wall_s", "s", "lower", "host"},
    {"host_write_p50_us", "us", "lower", "host"},
    {"host_write_tail_us", "us", "lower", "host"},
    {"host_read_p50_us", "us", "lower", "host"},
    {"host_read_tail_us", "us", "lower", "host"},
    {"model_write_p99_us", "us", "lower", "model"},
    {"model_read_p99_us", "us", "lower", "model"},
    {"failed_op_frac", "ratio", "lower", "program"},
    {"recovery_s", "s", "lower", "host"},
};

/// The per-layer metrics of a traced run (0 where a workload does not
/// exercise the layer).
const MetricDef PerLayer[] = {
    {"hash.sha1_host_us_per_MiB", "us/MiB", "lower", "host"},
    {"hash.crc32c_host_us_per_MiB", "us/MiB", "lower", "host"},
    {"chunk.host_us_per_MiB", "us/MiB", "lower", "host"},
    {"compress.lz_host_us_per_MiB", "us/MiB", "lower", "host"},
    {"compress.ratio", "x", "higher", "program"},
    {"compress.raw_fallback_frac", "ratio", "lower", "program"},
    {"gpu.lane_compress_host_us_per_MiB", "us/MiB", "lower", "host"},
    {"gpu.launches", "count", "lower", "program"},
    {"gpu.fallbacks", "count", "lower", "program"},
    {"index.host_us_per_kop", "us/kop", "lower", "host"},
    {"index.dup_frac", "ratio", "higher", "program"},
    {"index.buffer_hit_frac", "ratio", "higher", "program"},
    {"index.evictions", "count", "lower", "program"},
    {"index.memory_bytes", "bytes", "lower", "program"},
    {"restore.decode_host_us_per_MiB", "us/MiB", "lower", "host"},
    {"restore.read_host_us", "us", "lower", "host"},
    {"restore.cache_hit_frac", "ratio", "higher", "program"},
    {"restore.coalesced_runs", "count", "higher", "program"},
    {"restore.decode_batches_cpu", "count", "lower", "program"},
    {"restore.decode_batches_gpu", "count", "lower", "program"},
    {"restore.decode_batches_warp", "count", "lower", "program"},
    {"core.write_host_us", "us", "lower", "host"},
    {"core.gc_host_us", "us", "lower", "host"},
    {"core.chunks_per_batch", "count", "higher", "program"},
    {"journal.write_host_us", "us", "lower", "host"},
    {"journal.commits", "count", "lower", "program"},
    {"journal.bytes_per_op", "bytes", "lower", "program"},
    {"journal.replayed_records", "count", "lower", "program"},
    {"journal.recovery_host_s", "s", "lower", "host"},
    {"persist.checkpoint_host_us", "us", "lower", "host"},
    {"persist.checkpoints", "count", "lower", "program"},
    {"ssd.nand_per_host", "ratio", "lower", "program"},
    {"ssd.ftl_erases", "count", "lower", "program"},
    {"ssd.retries", "count", "lower", "program"},
    {"service.pump_host_us", "us", "lower", "host"},
    {"service.sweep_host_us", "us", "lower", "host"},
    {"service.deferred_frac", "ratio", "lower", "program"},
    {"service.resident_tenants", "count", "higher", "program"},
    {"model.chunk_us", "us", "lower", "model"},
    {"model.dedup_us", "us", "lower", "model"},
    {"model.compress_us", "us", "lower", "model"},
    {"model.destage_us", "us", "lower", "model"},
    {"model.drain_us", "us", "lower", "model"},
    {"model.restore_fetch_us", "us", "lower", "model"},
    {"model.restore_decode_us", "us", "lower", "model"},
    {"model.journal_us", "us", "lower", "model"},
    {"model.ckpt_us", "us", "lower", "model"},
    {"model.svc_us", "us", "lower", "model"},
    {"model.ftl_gc_us", "us", "lower", "model"},
    {"model.cpu_busy_s", "s", "lower", "model"},
    {"model.gpu_busy_s", "s", "lower", "model"},
    {"model.pcie_busy_s", "s", "lower", "model"},
    {"model.ssd_busy_s", "s", "lower", "model"},
    {"model.cpu_hidden_frac", "ratio", "higher", "model"},
    {"model.gpu_hidden_frac", "ratio", "higher", "model"},
    {"model.pcie_hidden_frac", "ratio", "higher", "model"},
    {"model.ssd_hidden_frac", "ratio", "higher", "model"},
    {"trace.host_MBps_untraced", "MB/s", "higher", "host"},
    {"trace.host_MBps_traced", "MB/s", "higher", "host"},
};

/// Benchmark spans whose mean self time is a per-layer host metric.
const std::pair<const char *, const char *> SpanMetrics[] = {
    {"core.write", "core.write_host_us"},
    {"core.gc", "core.gc_host_us"},
    {"restore.read", "restore.read_host_us"},
    {"journal.write", "journal.write_host_us"},
    {"persist.checkpoint", "persist.checkpoint_host_us"},
    {"service.pump", "service.pump_host_us"},
    {"service.sweep", "service.sweep_host_us"},
};

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string OutDir = ".bench_out";
  std::string WorkDir = ".bench_run";
  std::string GitRev = "unknown";
  std::string SrcDigest = "unknown";
};

struct Value {
  double V = 0.0;
  std::string Note; ///< sample count, percentile, pass count
};

struct RunResult {
  const WorkloadSpec *Spec = nullptr;
  std::map<std::string, Value> Metrics; ///< end-to-end + detail
  std::map<std::string, double> Layer;
  std::map<std::string, double> Det;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Notes;
  std::size_t Passes = 0;
  std::size_t TracedPasses = 0;
  double TimedSec = 0.0;
  /// Modelled/program outputs of each input variant.
  std::map<std::string, double> VariantDet[InputVariants];
  /// Per-pass host values behind the medians, for the record.
  std::map<std::string, std::vector<double>> PassValues;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|restore|oltp-mixed|"
               "tenants|all --seed N --seconds S --trace 0|1\n"
               "                 [--out-dir DIR] [--work-dir DIR] "
               "[--git-rev REV] [--src-digest HEX]\n"
               "       perfbench --list-metrics\n");
  return 2;
}

double finite(double V) { return std::isfinite(V) ? V : 0.0; }

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (const char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out;
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", finite(V));
  return Buf;
}

/// Peak resident set (VmHWM) in MiB; resettable through clear_refs.
double peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

void resetPeakRss() {
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

void appendAll(std::vector<double> &To, const std::vector<double> &From) {
  To.insert(To.end(), From.begin(), From.end());
}

std::string pctNote(double Pct, std::size_t N) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "p%g of %zu samples", Pct, N);
  return Buf;
}

void accumulateChecks(RunResult &R, const PassOutput &P) {
  R.Attempted += P.Attempted;
  R.Failed += P.Failed;
  for (const std::string &Note : P.FailureNotes)
    if (R.Notes.size() < 16)
      R.Notes.push_back(Note);
}

/// Compares a pass's modelled/program outputs with the reference pass.
void checkRepeat(RunResult &R, const std::map<std::string, double> &Ref,
                 const std::map<std::string, double> &Det,
                 const char *What) {
  ++R.Attempted;
  if (Det == Ref)
    return;
  ++R.Failed;
  for (const auto &[Key, V] : Ref) {
    const auto It = Det.find(Key);
    if (It == Det.end() || It->second != V) {
      R.Notes.push_back(std::string(What) + ": " + Key + " " + num(V) +
                        " vs " + (It == Det.end() ? "missing" : num(It->second)));
      break;
    }
  }
}

/// Aggregate CPU ticks of the machine (/proc/stat): time the CPUs ran
/// (user, nice, system, irq, softirq) and time a hypervisor stole.
struct CpuTicks {
  std::uint64_t Busy = 0;
  std::uint64_t Steal = 0;
};

CpuTicks cpuTicks() {
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  std::uint64_t V[8] = {}; // user nice system idle iowait irq softirq steal
  Stat >> Cpu;
  for (std::uint64_t &X : V)
    Stat >> X;
  return {V[0] + V[1] + V[2] + V[5] + V[6], V[7]};
}

/// Share of the CPU time wanted between two samples that was stolen.
double stealShare(const CpuTicks &Before, const CpuTicks &After) {
  const double Busy = static_cast<double>(After.Busy - Before.Busy);
  const double Steal = static_cast<double>(After.Steal - Before.Steal);
  return Busy + Steal > 0.0 ? Steal / (Busy + Steal) : 0.0;
}

/// One untraced pass's host figures.
struct PassHost {
  /// Per-pass figures by metric name: throughput, p50, tail and set-up
  /// on both clocks, and recovery_s where the workload recovers.
  std::map<std::string, double> Figures;
  double StealShare = 0.0;
  std::size_t Samples = 0;
  std::vector<double> WriteUs, ReadUs;
};

PassHost hostFigures(const PassOutput &P, double TailPct, double Steal) {
  PassHost H;
  std::vector<double> AllUs = P.WriteUs;
  appendAll(AllUs, P.ReadUs);
  appendAll(AllUs, P.TrimUs);
  auto Rate = [&](double Sec) {
    return Sec > 0.0 ? static_cast<double>(P.Bytes) / Sec / 1e6 : 0.0;
  };
  H.Figures = {
      {"host_cpu_MBps", Rate(P.TimedCpuSec)},
      {"host_cpu_p50_us", percentile(P.CpuUs, 50.0)},
      {"host_cpu_tail_us", percentile(P.CpuUs, TailPct)},
      {"setup_s", P.SetupCpuSec},
      {"host_MBps", Rate(P.TimedSec)},
      {"host_p50_us", percentile(AllUs, 50.0)},
      {"host_tail_us", percentile(AllUs, TailPct)},
      {"setup_wall_s", P.SetupSec},
  };
  if (P.RecoverySec >= 0.0)
    H.Figures["recovery_s"] = P.RecoverySec;
  H.Samples = AllUs.size();
  H.StealShare = Steal;
  H.WriteUs = P.WriteUs;
  H.ReadUs = P.ReadUs;
  return H;
}

/// Input seed of variant \p Variant of the run's \p Seed.
std::uint64_t inputSeed(std::uint64_t Seed, unsigned Variant) {
  return Seed * InputVariants + Variant;
}

RunResult runWorkload(const WorkloadSpec &Spec, const Options &Opts) {
  RunResult R;
  R.Spec = &Spec;
  const std::string WorkDir = Opts.WorkDir + "/" + Spec.Name + "-" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(WorkDir);
  resetPeakRss();
  const std::uint64_t RunBegin = nowNs();
  auto Elapsed = [&] {
    return static_cast<double>(nowNs() - RunBegin) * 1e-9;
  };

  // Gated host figures are per-pass statistics, medianed over the
  // least-stolen passes: interference spoils a pass, not the run.
  std::vector<PassHost> Hosts;
  std::size_t CleanPasses = 0;
  for (;;) {
    const unsigned Variant = R.Passes % InputVariants;
    PassContext Ctx;
    Ctx.Seed = inputSeed(Opts.Seed, Variant);
    Ctx.WorkDir = WorkDir;
    const CpuTicks Before = cpuTicks();
    PassOutput P = Spec.RunPass(Ctx);
    const CpuTicks After = cpuTicks();
    accumulateChecks(R, P);
    if (R.VariantDet[Variant].empty())
      R.VariantDet[Variant] = P.Det;
    else
      checkRepeat(R, R.VariantDet[Variant], P.Det, "untraced passes differ");
    ++R.Passes;
    R.TimedSec += P.TimedSec;
    Hosts.push_back(hostFigures(P, Spec.TailPct, stealShare(Before, After)));
    CleanPasses += Hosts.back().StealShare <= MaxStealShare;
    const bool Enough = R.TimedSec >= Opts.Seconds &&
                        R.Passes >= MinPasses && CleanPasses >= MinPasses;
    if (Enough ||
        (R.Passes >= MinPasses && Elapsed() >= UntracedCapFactor * Opts.Seconds))
      break;
  }
  // Every variant's values, and their mean (summed in variant order, so
  // it repeats exactly too).
  for (const auto &[Key, V] : R.VariantDet[0]) {
    double Sum = 0.0;
    for (unsigned I = 0; I < InputVariants; ++I) {
      const auto It = R.VariantDet[I].find(Key);
      const double X = It == R.VariantDet[I].end() ? 0.0 : It->second;
      Sum += X;
      std::string Name(1, 'v');
      Name += std::to_string(I);
      Name += '.';
      Name += Key;
      R.Det[Name] = X;
    }
    R.Det[Key] = Sum / InputVariants;
  }

  // The least-stolen half of the passes, and at least MinPasses.
  std::stable_sort(Hosts.begin(), Hosts.end(),
                   [](const PassHost &A, const PassHost &B) {
                     return A.StealShare < B.StealShare;
                   });
  const std::size_t Used = std::max(MinPasses, (Hosts.size() + 1) / 2);
  if (CleanPasses < MinPasses)
    R.Notes.push_back("only " + std::to_string(CleanPasses) +
                      " passes ran with at most 5% of CPU time stolen");
  std::map<std::string, std::vector<double>> Series;
  std::vector<double> WriteUs, ReadUs, Steal;
  std::size_t FewestSamples = ~std::size_t{0};
  for (std::size_t I = 0; I < Hosts.size(); ++I) {
    const PassHost &H = Hosts[I];
    Steal.push_back(H.StealShare);
    if (I >= Used)
      continue;
    FewestSamples = std::min(FewestSamples, H.Samples);
    for (const auto &[Name, V] : H.Figures)
      Series[Name].push_back(V);
    appendAll(WriteUs, H.WriteUs);
    appendAll(ReadUs, H.ReadUs);
  }
  if (FewestSamples < Spec.PassSamples)
    R.Notes.push_back("a pass had fewer samples than the workload fixes; "
                      "its tail has fewer than 10 samples beyond it");
  const double PeakRss = peakRssMiB();
  R.PassValues["steal_share"] = Steal;
  const std::string Passes = "median of " + std::to_string(Used) + " of " +
                             std::to_string(R.Passes) + " passes";
  for (const auto &[Name, Values] : Series) {
    R.PassValues[Name] = Values;
    const bool P50 = Name.ends_with("_p50_us");
    std::string Note = Passes;
    if (P50 || Name.ends_with("_tail_us")) {
      char Buf[160];
      std::snprintf(Buf, sizeof(Buf),
                    "median over %zu passes of p%g of each pass's %zu+ "
                    "samples",
                    Used, P50 ? 50.0 : Spec.TailPct, FewestSamples);
      Note = Buf;
    }
    R.Metrics[Name] = {median(Values), Note};
  }
  const std::string Variants =
      "mean over " + std::to_string(InputVariants) + " input variants";
  R.Metrics["model_MBps"] = {R.Det["model_MBps"], Variants};
  R.Metrics["model_p99_us"] = {R.Det["model_p99_us"],
                               "p99 of modelled latency, " + Variants};
  R.Metrics["reduction_ratio"] = {R.Det["reduction_ratio"],
                                  "logical / stored bytes, " + Variants};
  R.Metrics["peak_rss_MiB"] = {PeakRss, "VmHWM over the untraced passes"};
  // The op-type splits pool the run's samples.
  if (!WriteUs.empty()) {
    R.Metrics["host_write_p50_us"] = {percentile(WriteUs, 50.0),
                                      pctNote(50.0, WriteUs.size())};
    R.Metrics["host_write_tail_us"] = {percentile(WriteUs, Spec.TailPct),
                                       pctNote(Spec.TailPct, WriteUs.size())};
  }
  if (!ReadUs.empty()) {
    R.Metrics["host_read_p50_us"] = {percentile(ReadUs, 50.0),
                                     pctNote(50.0, ReadUs.size())};
    R.Metrics["host_read_tail_us"] = {percentile(ReadUs, Spec.TailPct),
                                      pctNote(Spec.TailPct, ReadUs.size())};
  }
  for (const char *Key : {"model_write_p99_us", "model_read_p99_us"})
    if (const auto It = R.Det.find(Key); It != R.Det.end())
      R.Metrics[Key] = {It->second, Variants};

  if (Opts.Trace) {
    SpanRecorder Spans;
    std::vector<double> TracedMBps;
    double TracedSec = 0.0;
    PassOutput Last;
    do {
      padre::obs::TraceRecorder Trace;
      padre::obs::MetricsRegistry Metrics;
      const unsigned Variant = R.TracedPasses % InputVariants;
      PassContext Ctx;
      Ctx.Seed = inputSeed(Opts.Seed, Variant);
      Ctx.Traced = true;
      Ctx.Spans = &Spans;
      Ctx.Trace = &Trace;
      Ctx.Metrics = &Metrics;
      Ctx.WorkDir = WorkDir;
      Last = Spec.RunPass(Ctx);
      accumulateChecks(R, Last);
      checkRepeat(R, R.VariantDet[Variant], Last.Det,
                  "traced pass differs from untraced");
      ++R.TracedPasses;
      TracedSec += Last.TimedSec;
      if (Last.TimedSec > 0.0)
        TracedMBps.push_back(static_cast<double>(Last.Bytes) / Last.TimedSec /
                             1e6);
    } while (TracedSec < Opts.Seconds / 2 && Elapsed() < TracedStartCapSec);

    R.Layer = Last.Layer;
    PassOutput ReplayChecks;
    for (const auto &[Name, V] : replayLayers(Last.Replay, ReplayChecks))
      R.Layer[Name] = V;
    accumulateChecks(R, ReplayChecks);
    const auto Agg = Spans.aggregate();
    for (const auto &[SpanName, Metric] : SpanMetrics)
      if (const auto It = Agg.find(SpanName); It != Agg.end())
        R.Layer[Metric] =
            It->second.SelfUs / static_cast<double>(It->second.Count);
    if (const auto It = Agg.find("journal.recover"); It != Agg.end())
      R.Layer["journal.recovery_host_s"] =
          It->second.TotalUs * 1e-6 / static_cast<double>(It->second.Count);
    R.Layer["trace.host_MBps_untraced"] = R.Metrics["host_MBps"].V;
    R.Layer["trace.host_MBps_traced"] = median(TracedMBps);
    R.Layer["trace.timed_MiB"] =
        static_cast<double>(Last.Bytes) / (1024.0 * 1024.0);
    std::filesystem::create_directories(Opts.OutDir);
    const std::string SpanPath = Opts.OutDir + "/" + Spec.Name + "-s" +
                                 std::to_string(Opts.Seed) + ".spans.jsonl";
    if (!Spans.writeJsonLines(SpanPath))
      R.Notes.push_back("could not write " + SpanPath);
  }
  R.Metrics["failed_op_frac"] = {
      R.Attempted == 0 ? 0.0
                       : static_cast<double>(R.Failed) /
                             static_cast<double>(R.Attempted),
      std::to_string(R.Failed) + " of " + std::to_string(R.Attempted) +
          " ops"};
  std::error_code Ignored;
  std::filesystem::remove_all(WorkDir, Ignored);
  return R;
}

const MetricDef *findDef(const std::string &Name) {
  for (const MetricDef &D : EndToEnd)
    if (Name == D.Name)
      return &D;
  for (const MetricDef &D : Detail)
    if (Name == D.Name)
      return &D;
  return nullptr;
}

void printRun(const RunResult &R, const Options &Opts) {
  std::printf("\n== %s  seed %llu  passes %zu (+%zu traced)  tail p%g  "
              "samples per pass %llu\n",
              R.Spec->Name, static_cast<unsigned long long>(Opts.Seed),
              R.Passes, R.TracedPasses, R.Spec->TailPct,
              static_cast<unsigned long long>(R.Spec->PassSamples));
  std::printf("%-20s %14s %-6s %-8s %s\n", "metric", "value", "unit", "clock",
              "note");
  auto Row = [&](const MetricDef &D) {
    const auto It = R.Metrics.find(D.Name);
    if (It == R.Metrics.end())
      return;
    std::printf("%-20s %14.4f %-6s %-8s %s\n", D.Name, It->second.V, D.Unit,
                D.Clock, It->second.Note.c_str());
  };
  for (const MetricDef &D : EndToEnd)
    Row(D);
  for (const MetricDef &D : Detail)
    Row(D);
  for (const std::string &Note : R.Notes)
    std::printf("  ! %s\n", Note.c_str());
  if (!Opts.Trace)
    return;

  // Host vs modelled cost per layer. Host: replayed entry point, µs per
  // MiB of that layer's input. Model: the stage's modelled busy time
  // (summed over lanes) per MiB of the traced pass's timed bytes.
  auto L = [&](const char *Name) {
    const auto It = R.Layer.find(Name);
    return It == R.Layer.end() ? 0.0 : It->second;
  };
  const double MiB = L("trace.timed_MiB");
  auto PerMiB = [&](const char *Name) { return MiB > 0 ? L(Name) / MiB : 0.0; };
  std::printf("\n| layer | host us/MiB (replay) | model us/MiB (stage) |\n"
              "|---|---:|---:|\n");
  std::printf("| chunk | %.1f | %.1f |\n", L("chunk.host_us_per_MiB"),
              PerMiB("model.chunk_us"));
  std::printf("| hash (sha1) + index | %.1f + %.1f | %.1f |\n",
              L("hash.sha1_host_us_per_MiB"),
              L("index.host_us_per_kop") * 0.256, PerMiB("model.dedup_us"));
  std::printf("| compress (lz / gpu lanes) | %.1f / %.1f | %.1f |\n",
              L("compress.lz_host_us_per_MiB"),
              L("gpu.lane_compress_host_us_per_MiB"),
              PerMiB("model.compress_us"));
  std::printf("| destage | - | %.1f |\n", PerMiB("model.destage_us"));
  std::printf("| restore (crc32c / decode) | %.1f / %.1f | %.1f |\n",
              L("hash.crc32c_host_us_per_MiB"),
              L("restore.decode_host_us_per_MiB"),
              PerMiB("model.restore_decode_us"));
  std::printf("| journal + ckpt | - | %.1f |\n",
              PerMiB("model.journal_us") + PerMiB("model.ckpt_us"));
  std::printf("\ntracing overhead: host_MBps untraced %.2f, traced %.2f\n",
              L("trace.host_MBps_untraced"), L("trace.host_MBps_traced"));
  std::printf("\n%-36s %16s %-7s %s\n", "per-layer metric", "value", "unit",
              "clock");
  for (const MetricDef &D : PerLayer)
    std::printf("%-36s %16.4f %-7s %s\n", D.Name, L(D.Name), D.Unit, D.Clock);
}

void writeMetricsJson(std::FILE *F, const RunResult &R, bool Trace,
                      bool Full) {
  std::fprintf(F, "{");
  bool First = true;
  auto Emit = [&](const MetricDef &D, double V, const std::string &Note) {
    std::fprintf(F, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"", First ? "" : ", ",
                 D.Name, num(V).c_str(), D.Unit);
    if (Full)
      std::fprintf(F, ", \"clock\": \"%s\", \"note\": \"%s\"", D.Clock,
                   jsonEscape(Note).c_str());
    std::fprintf(F, "}");
    First = false;
  };
  if (Trace && !Full) {
    for (const MetricDef &D : PerLayer) {
      const auto It = R.Layer.find(D.Name);
      Emit(D, It == R.Layer.end() ? 0.0 : It->second, "");
    }
  } else {
    for (const auto &[Name, V] : R.Metrics)
      if (const MetricDef *D = findDef(Name))
        if (Full || std::any_of(std::begin(EndToEnd), std::end(EndToEnd),
                                [&](const MetricDef &E) { return Name == E.Name; }))
          Emit(*D, V.V, V.Note);
  }
  std::fprintf(F, "}");
}

bool writeRecord(const RunResult &R, const Options &Opts) {
  std::error_code Ec;
  std::filesystem::create_directories(Opts.OutDir, Ec);
  const std::string Path = Opts.OutDir + "/" + R.Spec->Name + "-s" +
                           std::to_string(Opts.Seed) + "-t" +
                           (Opts.Trace ? "1" : "0") + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  const padre::Platform Plat = benchPlatform();
  std::fprintf(F, "{\n  \"bench\": \"perfbench\",\n  \"workload\": \"%s\",\n",
               R.Spec->Name);
  std::fprintf(F, "  \"seed\": %llu,\n  \"trace\": %d,\n",
               static_cast<unsigned long long>(Opts.Seed), Opts.Trace ? 1 : 0);
  std::fprintf(
      F,
      "  \"provenance\": {\"git_rev\": \"%s\", \"src_digest\": \"%s\", "
      "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": \"%s\", "
      "\"nproc\": %u, \"pool_width\": %u, \"platform\": \"%s\", "
      "\"caller\": \"single-threaded closed loop, one outstanding request\", "
      "\"journal_flush\": \"fflush at each group commit, no fsync\", "
      "\"clocks\": {\"host\": \"std::chrono::steady_clock around benchmark "
      "calls\", \"host_cpu\": \"CLOCK_THREAD_CPUTIME_ID of the calling "
      "thread (stolen time left out) around the same calls\", \"model\": "
      "\"ResourceLedger / report clock\", \"program\": "
      "\"program counters and ratios\", \"process\": \"/proc/self/status "
      "VmHWM\"}, \"tail_pct\": %g, \"pass_samples\": %llu, \"passes\": %zu, "
      "\"traced_passes\": %zu, \"timed_s\": %s},\n",
      jsonEscape(Opts.GitRev).c_str(), jsonEscape(Opts.SrcDigest).c_str(),
      PERFBENCH_BUILD_TYPE, jsonEscape(PERFBENCH_CXX_FLAGS).c_str(),
      PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
      Plat.Model.Cpu.Threads, jsonEscape(Plat.Name).c_str(), R.Spec->TailPct,
      static_cast<unsigned long long>(R.Spec->PassSamples), R.Passes,
      R.TracedPasses, num(R.TimedSec).c_str());
  std::fprintf(F, "  \"passes\": {");
  bool FirstList = true;
  for (const auto &[Name, Values] : R.PassValues) {
    std::fprintf(F, "%s\"%s\": [", FirstList ? "" : ", ", Name.c_str());
    for (std::size_t I = 0; I < Values.size(); ++I)
      std::fprintf(F, "%s%s", I ? ", " : "", num(Values[I]).c_str());
    std::fprintf(F, "]");
    FirstList = false;
  }
  std::fprintf(F, "},\n  \"metrics\": ");
  writeMetricsJson(F, R, false, true);
  std::fprintf(F, ",\n  \"deterministic\": {");
  bool First = true;
  for (const auto &[Name, V] : R.Det) {
    std::fprintf(F, "%s\"%s\": %s", First ? "" : ", ", Name.c_str(),
                 num(V).c_str());
    First = false;
  }
  std::fprintf(F, "},\n  \"per_layer\": {");
  First = true;
  for (const auto &[Name, V] : R.Layer) {
    std::fprintf(F, "%s\"%s\": %s", First ? "" : ", ", Name.c_str(),
                 num(V).c_str());
    First = false;
  }
  std::fprintf(F, "},\n  \"notes\": [");
  for (std::size_t I = 0; I < R.Notes.size(); ++I)
    std::fprintf(F, "%s\"%s\"", I ? ", " : "", jsonEscape(R.Notes[I]).c_str());
  std::fprintf(F, "],\n  \"correct\": %s, \"attempted\": %llu, \"failed\": %llu\n}\n",
               R.Failed == 0 ? "true" : "false",
               static_cast<unsigned long long>(R.Attempted),
               static_cast<unsigned long long>(R.Failed));
  return std::fclose(F) == 0;
}

void listMetrics() {
  auto List = [](const char *Key, const MetricDef *Begin,
                 const MetricDef *End) {
    std::printf("\"%s\": [", Key);
    for (const MetricDef *D = Begin; D != End; ++D)
      std::printf("%s{\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}",
                  D == Begin ? "" : ", ", D->Name, D->Unit, D->Better);
    std::printf("]");
  };
  std::printf("{\"workloads\": [");
  for (std::size_t I = 0; I < std::size(Workloads); ++I)
    std::printf("%s\"%s\"", I ? ", " : "", Workloads[I].Name);
  std::printf("], ");
  List("end_to_end", std::begin(EndToEnd), std::end(EndToEnd));
  std::printf(", ");
  List("per_layer", std::begin(PerLayer), std::end(PerLayer));
  std::printf("}\n");
}

std::optional<Options> parseArgs(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return std::nullopt;
    const std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opts.Workload = Val;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opts.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Arg == "--seconds") {
      Opts.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && Opts.Seconds > 0.0 &&
                    Opts.Seconds <= 60.0;
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        return std::nullopt;
      Opts.Trace = Val == "1";
      HaveTrace = true;
    } else if (Arg == "--out-dir") {
      Opts.OutDir = Val;
    } else if (Arg == "--work-dir") {
      Opts.WorkDir = Val;
    } else if (Arg == "--git-rev") {
      Opts.GitRev = Val;
    } else if (Arg == "--src-digest") {
      Opts.SrcDigest = Val;
    } else {
      return std::nullopt;
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return std::nullopt;
  return Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--list-metrics") == 0) {
    listMetrics();
    return 0;
  }
  const std::optional<Options> Parsed = parseArgs(Argc, Argv);
  if (!Parsed)
    return usage();
  const Options &Opts = *Parsed;
  std::vector<const WorkloadSpec *> Selected;
  for (const WorkloadSpec &W : Workloads)
    if (Opts.Workload == W.Name || Opts.Workload == "all")
      Selected.push_back(&W);
  if (Selected.empty())
    return usage();

  std::printf("perfbench: git %s, src %s, %s build, %u host threads, pool "
              "width %u, journal flush: fflush per group commit (no fsync)\n",
              Opts.GitRev.c_str(), Opts.SrcDigest.substr(0, 12).c_str(),
              PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
              benchPlatform().Model.Cpu.Threads);
  std::vector<RunResult> Results;
  for (const WorkloadSpec *W : Selected) {
    Results.push_back(runWorkload(*W, Opts));
    printRun(Results.back(), Opts);
    if (!writeRecord(Results.back(), Opts))
      std::printf("  ! could not write the result record under %s\n",
                  Opts.OutDir.c_str());
  }

  std::uint64_t Attempted = 0, Failed = 0;
  for (const RunResult &R : Results) {
    Attempted += R.Attempted;
    Failed += R.Failed;
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": ",
              Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed));
  if (Results.size() == 1) {
    writeMetricsJson(stdout, Results.front(), Opts.Trace, false);
  } else {
    std::printf("{");
    for (std::size_t I = 0; I < Results.size(); ++I) {
      std::printf("%s\"%s\": ", I ? ", " : "", Results[I].Spec->Name);
      writeMetricsJson(stdout, Results[I], Opts.Trace, false);
    }
    std::printf("}");
  }
  std::printf("}\n");
  return Failed == 0 ? 0 : 1;
}
