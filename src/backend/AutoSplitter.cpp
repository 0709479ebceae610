//===----------------------------------------------------------------------===//
///
/// \file
/// Auto-tuning splitter implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/AutoSplitter.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <string>

using namespace padre;
using namespace padre::backend;

const char *padre::backend::splitModeName(SplitMode Mode) {
  switch (Mode) {
  case SplitMode::FollowMode:
    return "mode";
  case SplitMode::Auto:
    return "auto";
  case SplitMode::Fixed:
    return "fixed";
  }
  assert(false && "Unknown split mode");
  return "?";
}

namespace {

/// Split-fraction candidates: a 1/16 grid. Including both endpoints is
/// what makes the tuned split never predict worse than the best static
/// mode — pure-CPU and pure-GPU are always on the menu.
constexpr int FractionGridSteps = 16;

/// Slice completion times below the ledger's resolution observe
/// nothing (an empty share has no rate).
constexpr double MinElapsedUs = 1e-3;

/// The device share's span name, "backend:gpu" or "backend:gpuN". The
/// trace recorder keeps the pointer, not a copy, and callers export a
/// trace after the pipeline that recorded it is gone, so the names live
/// as long as the program.
const char *deviceSpanName(unsigned Devices) {
  static std::mutex Mutex;
  static std::map<unsigned, std::string> Names; // nodes never move
  const std::lock_guard<std::mutex> Lock(Mutex);
  std::string &Name = Names[Devices];
  if (Name.empty())
    Name = Devices == 1 ? "backend:gpu"
                        : "backend:gpu" + std::to_string(Devices);
  return Name.c_str();
}

} // namespace

bool AutoSplitter::needsDevice(const BackendConfig &Config,
                               PipelineMode Mode) {
  switch (Config.Split) {
  case SplitMode::FollowMode:
    return modeOffloadsCompression(Mode);
  case SplitMode::Auto:
    return true;
  case SplitMode::Fixed:
    return Config.Fraction > 0.0;
  }
  assert(false && "Unknown split mode");
  return false;
}

AutoSplitter::AutoSplitter(const Setup &S)
    : Model(S.Model), Ledger(S.Ledger), Sched(S.Sched), Trace(S.Obs.Trace),
      Config(S.Config), Engine(S.Model, S.Ledger, S.Pool, S.Engine, S.Obs) {
  Config.GpuDevices = std::max(1u, Config.GpuDevices);
  Config.TunerWindow = std::max(1u, Config.TunerWindow);
  Alpha = 2.0 / (static_cast<double>(Config.TunerWindow) + 1.0);
  if (needsDevice(Config, S.Mode)) {
    assert(S.Primary && S.Primary->present() &&
           "Device-capable split modes need the pipeline's GPU");
    Units.resize(Config.GpuDevices);
    for (unsigned K = 0; K < Config.GpuDevices; ++K) {
      Unit &U = Units[K];
      if (K == 0) {
        // Device 0 replays on the resource lanes themselves.
        U.Device = S.Primary;
        U.GpuLane = static_cast<unsigned>(Resource::Gpu);
        U.PcieLane = static_cast<unsigned>(Resource::Pcie);
        continue;
      }
      U.Owned = std::make_unique<GpuDevice>(S.Model, S.Ledger);
      U.Device = U.Owned.get();
      U.Device->setMixedMode(S.Primary->mixedMode());
      U.Device->setObs(S.Obs);
      if (S.Faults)
        U.Device->setFaultInjector(S.Faults);
      // Each extra device gets its own queue lane and its own modelled
      // PCIe link lane (point-to-point links, one per device).
      U.GpuLane = S.Ledger.addTimelineLane(Resource::Gpu);
      U.PcieLane = S.Ledger.addTimelineLane(Resource::Pcie);
    }
    DevSpanName = deviceSpanName(Config.GpuDevices);
    if (S.Obs.Metrics)
      FallbackCounter = &S.Obs.Metrics->counter(
          "padre_gpu_fallback_total{family=\"compression\"}",
          "GPU sub-batches re-compressed on the CPU after a device fault");
  }
  if (S.Obs.Metrics) {
    obs::MetricsRegistry &M = *S.Obs.Metrics;
    SplitCpuGauge = &M.gauge(
        "padre_backend_split_fraction{backend=\"cpu\"}",
        "Byte share of the last batch routed to the backend");
    SplitGpuGauge = &M.gauge(
        "padre_backend_split_fraction{backend=\"gpu\"}",
        "Byte share of the last batch routed to the backend");
    BatchUsCpu = &M.histogram(
        "padre_backend_batch_us{backend=\"cpu\"}",
        "Modelled slice completion time per batch (microseconds)",
        1.0, 2.0, 24);
    BatchUsGpu = &M.histogram(
        "padre_backend_batch_us{backend=\"gpu\"}",
        "Modelled slice completion time per batch (microseconds)",
        1.0, 2.0, 24);
  }
}

double AutoSplitter::chooseFraction(std::uint64_t TotalBytes) const {
  switch (Config.Split) {
  case SplitMode::FollowMode:
    return Units.empty() ? 0.0 : 1.0;
  case SplitMode::Fixed:
    return Units.empty() ? 0.0 : std::clamp(Config.Fraction, 0.0, 1.0);
  case SplitMode::Auto:
    break;
  }
  if (Units.empty())
    return 0.0;
  assert(CpuRate > 0.0 && GpuRate > 0.0 && "Tuner rates not seeded");
  // HPDR-style idle-resource routing: cut where the projected
  // *cumulative* normalized occupancy of the two pools balances, not
  // where this stage's slice latencies do. The CPU pool also carries
  // chunking, dedup and refinement, so its occupancy head start routes
  // compression to the device until the device lanes catch up — over a
  // run the split converges on the cut that minimizes the compute
  // makespan. Deterministic: the ledger's busy totals at batch entry
  // are a pure function of the batches already executed.
  const double Threads =
      static_cast<double>(std::max(1u, Model.Cpu.Threads));
  const double Devices = static_cast<double>(Config.GpuDevices);
  // The splitter's own monotone occupancy view, not the raw ledger:
  // a measurement reset rebaselines the ledger to ~0 mid-run, and
  // re-learning the occupancy gap from scratch would make the first
  // measured batches split against a bottleneck that isn't there.
  const double CpuBusy = CpuSeenUs / Threads;
  const double DevBusy = std::fmax(GpuSeenUs, PcieSeenUs) / Devices;
  const double Bytes = static_cast<double>(TotalBytes);
  // Scan the grid from the device end so ties resolve toward the
  // device — at equal projections the GPU share frees CPU width for
  // the dedup front half. Both endpoints are on the menu, so the tuned
  // split never projects worse than the better static mode.
  double BestFraction = 1.0;
  double BestTime = std::numeric_limits<double>::infinity();
  for (int Step = FractionGridSteps; Step >= 0; --Step) {
    const double F =
        static_cast<double>(Step) / static_cast<double>(FractionGridSteps);
    const double T = std::fmax(CpuBusy + (1.0 - F) * Bytes / CpuRate,
                               DevBusy + F * Bytes / GpuRate);
    if (T < BestTime) {
      BestTime = T;
      BestFraction = F;
    }
  }
  return BestFraction;
}

std::size_t AutoSplitter::cutIndex(std::span<const ChunkView> Chunks,
                                   double Fraction,
                                   std::uint64_t TotalBytes) const {
  if (Fraction <= 0.0)
    return 0;
  if (Fraction >= 1.0)
    return Chunks.size();
  const double TargetBytes = Fraction * static_cast<double>(TotalBytes);
  std::uint64_t Acc = 0;
  std::size_t Cut = 0;
  while (Cut < Chunks.size() &&
         static_cast<double>(Acc) < TargetBytes) {
    Acc += Chunks[Cut].Data.size();
    ++Cut;
  }
  return Cut;
}

double AutoSplitter::cpuQuoteUs(std::uint64_t Bytes,
                                std::size_t Chunks) const {
  // Setup per chunk plus the literal scan rate, at full pool width.
  const double WorkUs =
      static_cast<double>(Chunks) * Model.Cpu.LzSetupUs +
      Model.Cpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(Bytes);
  return WorkUs / static_cast<double>(Model.Cpu.Threads);
}

double AutoSplitter::deviceQuoteUs(std::uint64_t Bytes,
                                   std::size_t Chunks) const {
  // Ideal static partition: each device compresses 1/N of the share on
  // its own link and queue; the shared CPU refinement does not divide.
  // Per device: PCIe round trip + launch + pessimistic lockstep kernel
  // + pool-width CPU refinement, per compression sub-batch.
  const unsigned N = deviceCount();
  Bytes /= N;
  Chunks = (Chunks + N - 1) / N;
  const std::size_t SubBatch =
      std::max<std::size_t>(1, Model.Gpu.CompressBatchChunks);
  const double SubBatches = static_cast<double>(
      (Chunks + SubBatch - 1) / SubBatch);
  // Pessimistic all-literal lockstep kernel: every wavefront is gated
  // by its literal-heaviest lane, so the whole payload scans at the
  // literal rate (plus per-lane setup folded into the per-chunk term).
  const double KernelUs =
      Model.Gpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(Bytes) +
      Model.Gpu.LaneSetupNs * 1e-3 * static_cast<double>(Chunks);
  // One H2D of the payload and one D2H of roughly the payload (the
  // unrefined token streams are not smaller in the worst case), per
  // sub-batch round trip.
  const double PcieUs = 2.0 * (Model.Pcie.PerTransferUs * SubBatches +
                               static_cast<double>(Bytes) /
                                   (Model.Pcie.GigabytesPerSec * 1e3));
  const double LaunchUs = Model.Gpu.LaunchUs * SubBatches;
  // CPU refinement follows the kernels, at full pool width.
  const double RefineUs =
      (static_cast<double>(Chunks) * Model.Cpu.PostSetupUs +
       Model.Cpu.PostPerByteNs * 1e-3 * static_cast<double>(Bytes)) /
      static_cast<double>(Model.Cpu.Threads);
  return PcieUs + LaunchUs + KernelUs + RefineUs;
}

void AutoSplitter::executeCpu(std::span<const ChunkView> Chunks,
                              std::size_t Begin, std::size_t End,
                              std::vector<CompressedChunk> &Out) {
  // Attribution by busy snapshot: the shares run sequentially on the
  // pipeline thread, so the pool delta across this call is exactly this
  // share's charge. The record carries no device ops, so it replays as
  // one pool task ready at dedup-done.
  const double CpuBeforeUs = Ledger.busyMicros(Resource::CpuPool);
  Engine.compressRangeCpu(Chunks, Begin, End, Out);
  BatchScheduler::CompressSlice Slice;
  Slice.CpuUs = Ledger.busyMicros(Resource::CpuPool) - CpuBeforeUs;
  Records.push_back(std::move(Slice));
}

void AutoSplitter::executeDevice(std::span<const ChunkView> Chunks,
                                 std::size_t Begin, std::size_t End,
                                 std::vector<CompressedChunk> &Out,
                                 bool Pipelined) {
  const std::size_t SubBatch =
      std::max<std::size_t>(1, Model.Gpu.CompressBatchChunks);
  const std::size_t SubBatches = (End - Begin + SubBatch - 1) / SubBatch;
  const std::size_t N = Units.size();
  // Record R covers sub-batches R, R + Stride, ... on device R mod N.
  // Pipelined, every sub-batch is its own record — so its refinement
  // replays after *its* kernel round trip instead of after the whole
  // chain, the splitter's pipeline-depth lever. Otherwise each device's
  // round-robin share is one record, executed grouped by device (the
  // per-chunk outputs are disjoint, so execution order is free).
  // Results and charges are the same either way; only the timeline
  // placement differs.
  const std::size_t DevRecords =
      Pipelined ? SubBatches : std::min(N, SubBatches);
  const std::size_t Stride = Pipelined ? SubBatches : N;
  for (std::size_t R = 0; R < DevRecords; ++R) {
    Unit &U = Units[R % N];
    BatchScheduler::CompressSlice Slice;
    Slice.GpuLane = U.GpuLane;
    Slice.PcieLane = U.PcieLane;
    Slice.Staging = &U.Device->staging();
    // Capture the record's async submissions on its own log (the
    // scheduler's stage-level log stays empty; the slice replay is the
    // only consumer). CPU attribution by busy snapshot, as in
    // executeCpu: the refinement pass plus any fault-fallback
    // re-compression.
    const double CpuBeforeUs = Ledger.busyMicros(Resource::CpuPool);
    U.Device->setOpLog(&Slice.Ops);
    for (std::size_t I = R; I < SubBatches; I += Stride) {
      const std::size_t B = Begin + I * SubBatch;
      const std::size_t Fell = Engine.compressRangeGpu(
          *U.Device, Chunks, B, std::min(End, B + SubBatch), Out);
      if (FallbackCounter)
        FallbackCounter->add(Fell);
    }
    U.Device->setOpLog(nullptr);
    Slice.CpuUs = Ledger.busyMicros(Resource::CpuPool) - CpuBeforeUs;
    Records.push_back(std::move(Slice));
  }
}

void AutoSplitter::runCompressStage(std::span<const ChunkView> Chunks,
                                    std::vector<CompressedChunk> &Out) {
  Out.assign(Chunks.size(), CompressedChunk());
  Records.clear();
  if (Chunks.empty()) {
    // Still close the stage bracket: the replay disarms the op logs
    // and advances the batch's compress-done timestamp.
    Sched.endStageCompressSliced(Records);
    return;
  }
  std::uint64_t TotalBytes = 0;
  for (const ChunkView &Chunk : Chunks)
    TotalBytes += Chunk.Data.size();

  // Seed the tuner from the static quotes on first contact; observed
  // rates take over below. Deterministic: quotes are pure functions of
  // the cost model and the batch shape.
  if (CpuRate <= 0.0) {
    const double QuoteUs = cpuQuoteUs(TotalBytes, Chunks.size());
    CpuRate = QuoteUs > 0.0 ? static_cast<double>(TotalBytes) / QuoteUs
                            : 1.0;
  }
  if (GpuRate <= 0.0 && !Units.empty()) {
    const double QuoteUs = deviceQuoteUs(TotalBytes, Chunks.size());
    GpuRate = QuoteUs > 0.0 ? static_cast<double>(TotalBytes) / QuoteUs
                            : 1.0;
  }

  // Advance the occupancy view by the ledger deltas since the last
  // batch (this batch's chunking/dedup charges included). Clamping at
  // zero absorbs ledger rebaselines — resetMeasurement drops the raw
  // busy totals, but the gap the tuner has learned survives.
  const double NowCpuUs = Ledger.busyMicros(Resource::CpuPool);
  const double NowGpuUs = Ledger.busyMicros(Resource::Gpu);
  const double NowPcieUs = Ledger.busyMicros(Resource::Pcie);
  CpuSeenUs += std::fmax(0.0, NowCpuUs - LastCpuUs);
  GpuSeenUs += std::fmax(0.0, NowGpuUs - LastGpuUs);
  PcieSeenUs += std::fmax(0.0, NowPcieUs - LastPcieUs);
  LastCpuUs = NowCpuUs;
  LastGpuUs = NowGpuUs;
  LastPcieUs = NowPcieUs;

  const double Fraction = chooseFraction(TotalBytes);
  const std::size_t Cut = cutIndex(Chunks, Fraction, TotalBytes);
  // Auto pipelines the device share per sub-batch; the mode and fixed
  // placements keep one record per device.
  const bool Pipelined = Config.Split == SplitMode::Auto;

  std::uint64_t DevBytes = 0;
  for (std::size_t I = 0; I < Cut; ++I)
    DevBytes += Chunks[I].Data.size();

  std::size_t DevRecords = 0;
  double DevCostUs = 0.0, CpuCostUs = 0.0;
  if (Cut > 0 && !Units.empty()) {
    const double GpuBeginUs = Ledger.busyMicros(Resource::Gpu);
    const double PcieBeginUs = Ledger.busyMicros(Resource::Pcie);
    executeDevice(Chunks, 0, Cut, Out, Pipelined);
    DevRecords = Records.size();
    // The device share's marginal occupancy: the larger of the GPU and
    // PCIe busy deltas (the pool the slice actually loads most).
    DevCostUs =
        std::fmax(Ledger.busyMicros(Resource::Gpu) - GpuBeginUs,
                  Ledger.busyMicros(Resource::Pcie) - PcieBeginUs);
    if (Trace)
      Trace->record(DevSpanName, obs::CategoryBackend,
                    Resource::Gpu, GpuBeginUs,
                    Ledger.busyMicros(Resource::Gpu) - GpuBeginUs);
  }
  if (Cut < Chunks.size()) {
    const double CpuBeginUs = Ledger.busyMicros(Resource::CpuPool);
    executeCpu(Chunks, Cut, Chunks.size(), Out);
    // The CPU share's marginal occupancy, normalized by the pool width
    // (the splitter balances normalized busy, see chooseFraction).
    CpuCostUs = (Ledger.busyMicros(Resource::CpuPool) - CpuBeginUs) /
                static_cast<double>(std::max(1u, Model.Cpu.Threads));
    if (Trace)
      Trace->record("backend:cpu", obs::CategoryBackend,
                    Resource::CpuPool, CpuBeginUs,
                    Ledger.busyMicros(Resource::CpuPool) - CpuBeginUs);
  }

  Sched.endStageCompressSliced(Records);

  // Observe: rate = share bytes per microsecond of marginal pool
  // occupancy. EWMA over the window. (Elapsed times feed the
  // histograms; the tuner itself balances occupancy, not latency —
  // a slice's round trip waits on PCIe and launch gaps the pool could
  // spend on other batches.)
  double DevElapsedUs = 0.0;
  for (std::size_t I = 0; I < DevRecords; ++I)
    DevElapsedUs = std::fmax(DevElapsedUs, Records[I].ElapsedUs);
  double CpuElapsedUs = 0.0;
  for (std::size_t I = DevRecords; I < Records.size(); ++I)
    CpuElapsedUs = std::fmax(CpuElapsedUs, Records[I].ElapsedUs);
  if (Cut > 0 && DevCostUs > MinElapsedUs) {
    const double Observed = static_cast<double>(DevBytes) / DevCostUs;
    GpuRate = Alpha * Observed + (1.0 - Alpha) * GpuRate;
    if (BatchUsGpu)
      BatchUsGpu->observe(DevElapsedUs);
  }
  if (Cut < Chunks.size() && CpuCostUs > MinElapsedUs) {
    const double Observed =
        static_cast<double>(TotalBytes - DevBytes) / CpuCostUs;
    CpuRate = Alpha * Observed + (1.0 - Alpha) * CpuRate;
    if (BatchUsCpu)
      BatchUsCpu->observe(CpuElapsedUs);
  }

  Stats.Fraction = Fraction;
  Stats.DeviceSlices = static_cast<unsigned>(DevRecords);
  Stats.CpuRateBytesPerUs = CpuRate;
  Stats.GpuRateBytesPerUs = GpuRate;
  ++Stats.Batches;
  Stats.GpuChunks += Cut;
  Stats.CpuChunks += Chunks.size() - Cut;
  if (SplitCpuGauge) {
    SplitCpuGauge->set(1.0 - Fraction);
    SplitGpuGauge->set(Fraction);
  }
}
