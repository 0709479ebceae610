//===----------------------------------------------------------------------===//
///
/// \file
/// The HPDR-style auto-tuning splitter: pipelined domain decomposition
/// of each compress batch across the CPU pool and N >= 1 modelled GPUs
/// (DESIGN.md decision 17). Every batch is cut at a chunk boundary into
/// a device share and a CPU share — the domains are independent, so
/// both become ready at dedup-done and replay concurrently through the
/// BatchScheduler overlap window (endStageCompressSliced). The split
/// fraction comes from a tuner that tracks *observed* per-side rates —
/// bytes per modelled microsecond of slice completion, EWMA over recent
/// batches, seeded from static CostModel quotes — and picks the
/// fraction (over a 1/16 grid that always includes the pure-CPU and
/// pure-GPU endpoints, so the tuned split can never predict worse than
/// the best static choice). In Auto mode the device share is
/// additionally pipelined at sub-batch granularity (one slice record
/// per kernel round trip), the splitter's pipeline-depth lever.
///
/// The splitter is the pipeline's only compress stage and drives the
/// CompressEngine's two range paths directly. Its default policy
/// (SplitMode::FollowMode) places the whole batch where the
/// PipelineMode says — the CPU pool in cpu-only and gpu-dedup, the
/// devices in gpu-compress and gpu-both — as one record per device;
/// tests/test_backend.cpp pins those placements' results, recipes,
/// ledger charges and scheduled timeline to constants.
///
/// Devices: device 0 is the pipeline's primary GpuDevice and replays on
/// the Resource::Gpu / Resource::Pcie timeline lanes with the device's
/// own double-buffered staging; devices 1..N-1 are instantiated here
/// with their own staging slots and async queues, replaying on aux
/// timeline lanes (ResourceLedger::addTimelineLane) that mirror
/// Resource::Gpu/Pcie. Busy time stays on the shared per-resource
/// accumulators — charges are bit-identical across device counts; only
/// the scheduled timeline (and the capacity term of makespanSeconds)
/// fans out per device. The device share is dealt HPDR-style
/// round-robin over compression sub-batches: sub-batch i goes to
/// device i mod N.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_AUTOSPLITTER_H
#define PADRE_BACKEND_AUTOSPLITTER_H

#include "backend/BackendConfig.h"
#include "core/BatchScheduler.h"
#include "core/CompressEngine.h"
#include "core/Report.h"
#include "fault/FaultInjector.h"

#include <memory>
#include <span>
#include <vector>

namespace padre {
namespace backend {

/// Tuner/split state surfaced to reports and padrectl's run footer.
struct SplitterStats {
  /// Device byte share chosen for the most recent batch.
  double Fraction = 0.0;
  /// Device-side slice records of the most recent batch (the pipeline
  /// depth actually used).
  unsigned DeviceSlices = 0;
  /// Observed EWMA rates (bytes per modelled µs of slice completion).
  double CpuRateBytesPerUs = 0.0;
  double GpuRateBytesPerUs = 0.0;
  std::uint64_t Batches = 0;
  std::uint64_t CpuChunks = 0;
  std::uint64_t GpuChunks = 0;
};

class AutoSplitter {
public:
  /// Everything the splitter borrows from the pipeline. All references
  /// but Model (copied) must outlive the splitter; \p Primary may be
  /// null only when needsDevice() is false (no device is driven then).
  /// The extra devices inherit \p Primary's mixed-mode flag, \p Obs
  /// and \p Faults.
  struct Setup {
    const CostModel &Model;
    ResourceLedger &Ledger;
    ThreadPool &Pool;
    BatchScheduler &Sched;
    GpuDevice *Primary = nullptr;
    CompressEngineConfig Engine;
    obs::ObsSinks Obs;
    fault::FaultInjector *Faults = nullptr;
    BackendConfig Config;
    PipelineMode Mode = PipelineMode::CpuOnly;
  };

  explicit AutoSplitter(const Setup &S);

  /// True when \p Config can route bytes to a device under \p Mode —
  /// the pipeline builds its primary GPU for it.
  static bool needsDevice(const BackendConfig &Config, PipelineMode Mode);

  /// The compress stage: partitions \p Chunks, executes the slices
  /// functionally (charging the ledger), replays them via
  /// BatchScheduler::endStageCompressSliced, and feeds the observed
  /// slice rates back to the tuner. The caller brackets it with
  /// beginStage(Compress).
  void runCompressStage(std::span<const ChunkView> Chunks,
                        std::vector<CompressedChunk> &Out);

  const SplitterStats &stats() const { return Stats; }
  const BackendConfig &config() const { return Config; }

  /// Devices the splitter drives (0 when CPU-only).
  unsigned deviceCount() const { return static_cast<unsigned>(Units.size()); }

  /// Store-raw fallbacks across both shares (the source of the
  /// pipeline report's fallback counter).
  std::uint64_t rawFallbacks() const { return Engine.rawFallbacks(); }

  /// Rewinds the extra devices' staging slots in lockstep with
  /// BatchScheduler::reset (which covers device 0's).
  void resetTimelineState() {
    for (Unit &U : Units)
      if (U.Owned)
        U.Owned->staging().reset();
  }

private:
  /// One modelled device and its timeline lanes.
  struct Unit {
    GpuDevice *Device = nullptr; ///< Units[0] aliases the primary
    std::unique_ptr<GpuDevice> Owned;
    unsigned GpuLane = 0;
    unsigned PcieLane = 0;
  };

  double chooseFraction(std::uint64_t TotalBytes) const;
  std::size_t cutIndex(std::span<const ChunkView> Chunks, double Fraction,
                       std::uint64_t TotalBytes) const;

  /// Static modelled stage times (µs) to compress \p Chunks chunks
  /// totalling \p Bytes on the CPU pool / the devices at full width —
  /// pessimistic (all-literal) CostModel quotes that only seed the
  /// tuner; observed rates take over after the first batch.
  double cpuQuoteUs(std::uint64_t Bytes, std::size_t Chunks) const;
  double deviceQuoteUs(std::uint64_t Bytes, std::size_t Chunks) const;

  /// Compress Chunks[Begin, End) into Out[Begin, End) functionally,
  /// charging the ledger, and append the share's CompressSlice records
  /// (op chains, CPU attribution, device lanes) to Records for the
  /// scheduler's timeline replay. The CPU share is one record with no
  /// device ops. The device share is one record per sub-batch when
  /// \p Pipelined, so refinement overlaps later kernels, else one per
  /// device — the shape the PipelineMode placements replay. Device
  /// faults are absorbed per sub-batch (CPU re-compression), so results
  /// are bit-exact either way.
  void executeCpu(std::span<const ChunkView> Chunks, std::size_t Begin,
                  std::size_t End, std::vector<CompressedChunk> &Out);
  void executeDevice(std::span<const ChunkView> Chunks, std::size_t Begin,
                     std::size_t End, std::vector<CompressedChunk> &Out,
                     bool Pipelined);

  /// A copy: the pipeline's caller may pass a temporary platform.
  CostModel Model;
  ResourceLedger &Ledger;
  BatchScheduler &Sched;
  obs::TraceRecorder *Trace;
  BackendConfig Config;
  /// The one engine both shares drive, so its store-raw fallback
  /// count covers the batch.
  CompressEngine Engine;
  std::vector<Unit> Units; ///< empty when needsDevice() is false
  /// "backend:gpu" or "backend:gpuN", with static storage duration.
  const char *DevSpanName = nullptr;
  /// Reused slice-record scratch (no steady-state allocation).
  std::vector<BatchScheduler::CompressSlice> Records;
  // Tuner state: EWMA rates in bytes/µs; 0 = not yet seeded.
  double CpuRate = 0.0;
  double GpuRate = 0.0;
  double Alpha = 0.25; ///< 2 / (TunerWindow + 1)
  // The tuner's occupancy view (raw busy µs per pool), advanced at
  // every batch entry by the ledger deltas since the last batch and
  // clamped at ledger rebaselines — a measurement reset never zeroes
  // the learned occupancy gap, so the split does not re-learn from
  // scratch mid-run.
  double CpuSeenUs = 0.0;
  double GpuSeenUs = 0.0;
  double PcieSeenUs = 0.0;
  double LastCpuUs = 0.0;
  double LastGpuUs = 0.0;
  double LastPcieUs = 0.0;
  SplitterStats Stats;
  // Observability (null = disabled), cached at construction.
  obs::Counter *FallbackCounter = nullptr;
  obs::Gauge *SplitCpuGauge = nullptr;
  obs::Gauge *SplitGpuGauge = nullptr;
  obs::LogHistogram *BatchUsCpu = nullptr;
  obs::LogHistogram *BatchUsGpu = nullptr;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_AUTOSPLITTER_H
