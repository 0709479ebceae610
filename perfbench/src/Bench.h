//===----------------------------------------------------------------------===//
///
/// \file
/// Shared types of the end-to-end benchmark: the per-pass record every
/// workload fills, the benchmark-side span recorder, and the workload
/// table.
///
/// A run repeats *passes*. A pass is one complete, fixed-size episode
/// derived from the seed alone: set-up (input generation, construction,
/// warmup or pre-population), a timed closed-loop phase, then untimed
/// verification. Because a pass never depends on how long anything took,
/// its modelled outputs must repeat bit-for-bit in every pass and every
/// run with the same seed; only host timings vary.
///
/// Three clocks appear in every result and never mix:
///   host_      std::chrono::steady_clock wall time measured here, around
///              the calls the benchmark makes into the program;
///   host_cpu   the CPU time of the calling (client) thread around the
///              same calls: wall time less the time a hypervisor stole,
///              the scheduler gave to others, or the thread waited;
///   model_     the program's own ResourceLedger / report clock.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "core/ReductionPipeline.h"
#include "util/Bytes.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread, in nanoseconds. With paravirtual
/// steal accounting the kernel leaves stolen time out. The pool's
/// workers are left out on purpose: their wake-ups and lock hand-offs
/// grow 10-20% in CPU time while the host is overloaded, the caller's
/// CPU time does not move.
std::uint64_t cpuNs();

/// Wall and process-CPU readings at one point of a pass; a request's
/// samples are the differences of two.
struct Stamp {
  std::uint64_t WallNs = 0;
  std::uint64_t CpuNs = 0;
  /// CPU clock first, then wall clock; end() reads them the other way
  /// round, so the wall interval leaves out the CPU clock's syscalls.
  static Stamp begin() {
    const std::uint64_t Cpu = cpuNs();
    return {nowNs(), Cpu};
  }
  static Stamp end() {
    const std::uint64_t Wall = nowNs();
    return {Wall, cpuNs()};
  }
};

/// The paper's platform model at a 4-core host's width: Cpu.Threads (and
/// so the pipeline's ThreadPool) is 4, the core count the benchmark is
/// sized for; the paper's 8 would oversubscribe 4 cores.
padre::Platform benchPlatform();

/// Block (= chunk) size of every workload: the paper's 4 KiB.
inline constexpr std::size_t BlockSize = 4096;

/// Shadow-copy content id of a block never written or trimmed (reads as
/// zeros). Written blocks carry fillTraceBlock(content id).
inline constexpr std::uint64_t NoContent = ~0ull;

/// True when \p Data holds exactly the \p Blocks blocks at \p Lba that
/// \p Shadow promises.
bool matchesShadow(const padre::ByteVector &Data, std::uint64_t Lba,
                   std::uint64_t Blocks,
                   const std::vector<std::uint64_t> &Shadow);

/// One host-time span the benchmark recorded around its own call.
struct Span {
  const char *Name = "";
  std::uint64_t BeginNs = 0;
  std::uint64_t EndNs = 0;
  std::int32_t Parent = -1; ///< index of the enclosing span, -1 = root
  std::uint64_t Request = 0; ///< request id shared by a request's spans
};

/// In-memory span store. Spans nest by call order (a stack of open
/// spans); they are written out once, when the run ends.
class SpanRecorder {
public:
  std::size_t open(const char *Name, std::uint64_t Request);
  void close(std::size_t Index);

  struct Aggregate {
    std::uint64_t Count = 0;
    double TotalUs = 0.0;
    /// Duration minus the time covered by direct child spans.
    double SelfUs = 0.0;
  };
  /// Per span name: count, total and self host time.
  std::map<std::string, Aggregate> aggregate() const;

  /// Writes every span as JSON lines. Returns false on I/O failure.
  bool writeJsonLines(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<std::size_t> Stack;
};

/// Opens a span on construction and closes it on destruction; does
/// nothing without a recorder.
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *Recorder, const char *Name, std::uint64_t Request)
      : Recorder(Recorder),
        Index(Recorder ? Recorder->open(Name, Request) : 0) {}
  ~ScopedSpan() {
    if (Recorder)
      Recorder->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanRecorder *Recorder;
  std::size_t Index;
};

/// Inputs a traced pass keeps for the layer replay (Replay.cpp).
struct ReplayInput {
  /// Write payloads in issue order (block multiples), capped.
  std::vector<padre::ByteVector> Writes;
  /// Encoded store blocks holding the data the workload touched.
  std::vector<padre::ByteVector> Encoded;
  std::size_t WriteBytes = 0;
  /// Core-layer write replay for workloads whose writes reach the
  /// pipeline through another frontend (journal, service): the LBA of
  /// each kept write and the pipeline/volume shape to replay them into
  /// through Volume::writeBlocks. VolumeBlocks 0 = no such replay.
  std::vector<std::uint64_t> WriteLbas;
  padre::PipelineConfig CoreConfig;
  std::uint64_t VolumeBlocks = 0;

  static constexpr std::size_t MaxWriteBytes = 32u << 20;
  static constexpr std::size_t MaxEncoded = 8192;
  void addWrite(padre::ByteSpan Data, std::uint64_t Lba = 0);
  void addEncoded(const padre::ReductionPipeline &Pipeline,
                  std::uint64_t Location);
};

enum class OpKind { Write, Read, Trim };

struct PassContext {
  /// Input seed of the pass: every input the pass generates derives
  /// from it alone.
  std::uint64_t Seed = 1;
  /// Traced pass: attach the program's TraceRecorder/MetricsRegistry,
  /// record benchmark spans and keep replay inputs.
  bool Traced = false;
  SpanRecorder *Spans = nullptr;
  padre::obs::TraceRecorder *Trace = nullptr;
  padre::obs::MetricsRegistry *Metrics = nullptr;
  /// Directory for files the pass creates (journal, checkpoint).
  std::string WorkDir;
};

/// Everything one pass measured.
struct PassOutput {
  /// Set-up time: wall and calling-thread CPU.
  double SetupSec = 0.0, SetupCpuSec = 0.0;
  /// Sum of the timed request intervals (the closed loop's busy time;
  /// client-side content generation and checking are excluded).
  double TimedSec = 0.0;
  /// Calling-thread CPU time of the same intervals.
  double TimedCpuSec = 0.0;
  /// Logical bytes written + read in the timed phase.
  std::uint64_t Bytes = 0;
  /// Host latency per request call (µs), by op type.
  std::vector<double> WriteUs, ReadUs, TrimUs;
  /// Calling-thread CPU µs per request call, every op type in issue
  /// order.
  std::vector<double> CpuUs;
  /// Host time of journal::recoverVolume (oltp-mixed only).
  double RecoverySec = -1.0;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> FailureNotes;
  /// Program outputs that must repeat exactly: model_*, reduction
  /// ratio and counters.
  std::map<std::string, double> Det;
  /// Per-layer program values (counts, modelled stage totals) of a
  /// traced pass.
  std::map<std::string, double> Layer;
  ReplayInput Replay;

  /// Records one timed request between \p Begin and \p End moving
  /// \p Bytes logical bytes: sample() plus timed().
  void request(OpKind Kind, const Stamp &Begin, const Stamp &End,
               std::uint64_t Bytes);
  /// Adds the interval from \p Begin to \p End, moving \p Bytes, to
  /// the timed phase.
  void timed(const Stamp &Begin, const Stamp &End, std::uint64_t Bytes);
  /// Records the set-up interval.
  void setup(const Stamp &Begin, const Stamp &End);
  /// Adds one request's wall and CPU latency samples. Frontend
  /// maintenance the caller runs between requests (GC, checkpoint,
  /// sweep) goes to timed() only: it counts in the phase wall and in its
  /// own spans, not as latency.
  void sample(OpKind Kind, const Stamp &Begin, const Stamp &End);
  /// Counts one checked operation; a false \p Ok is a failure.
  void check(bool Ok, const std::string &What);
};

/// Adds the modelled per-stage span totals of \p Trace to \p Layer as
/// model.<stage>_us.
void addModelStages(const padre::obs::TraceRecorder &Trace,
                    std::map<std::string, double> &Layer);
/// Adds write-report lane busy/hidden values as model.<lane>_*.
void addWriteLanes(const padre::PipelineReport &Report,
                   std::map<std::string, double> &Layer);
/// Adds the pipeline's index/SSD/GPU counters (layer names).
void addPipelineCounters(const padre::ReductionPipeline &Pipeline,
                         const padre::PipelineReport &Report,
                         std::map<std::string, double> &Layer);
/// Reads a counter of \p Metrics (0 when absent).
double counterValue(const padre::obs::MetricsRegistry *Metrics,
                    const std::string &Name);

struct WorkloadSpec {
  const char *Name;
  /// Tail percentile of host_tail_us, fixed per workload, and the
  /// request samples one pass makes: at least ten lie beyond the tail.
  double TailPct;
  std::uint64_t PassSamples;
  PassOutput (*RunPass)(const PassContext &);
};

PassOutput runIngestPass(const PassContext &Ctx);
PassOutput runRestorePass(const PassContext &Ctx);
PassOutput runOltpMixedPass(const PassContext &Ctx);
PassOutput runTenantsPass(const PassContext &Ctx);

/// Re-drives \p In through one layer's public entry point at a time and
/// returns host µs per MiB (per kop for the index).
std::map<std::string, double> replayLayers(const ReplayInput &In,
                                           PassOutput &Checks);

// Order statistics over host samples.
double percentile(std::vector<double> Values, double Pct);
double median(std::vector<double> Values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
