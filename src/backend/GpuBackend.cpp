//===----------------------------------------------------------------------===//
///
/// \file
/// GPU backend implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/GpuBackend.h"

#include "fault/FaultInjector.h"

#include <algorithm>
#include <cassert>

using namespace padre;
using namespace padre::backend;

/// The static quote for one device: PCIe round trip + launch +
/// pessimistic lockstep kernel + pool-width CPU refinement, per
/// compression sub-batch.
static double gpuQuoteCompressUs(const CostModel &Model, std::uint64_t Bytes,
                                 std::size_t Chunks) {
  if (Chunks == 0)
    return 0.0;
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

GpuBackend::GpuBackend(const CostModel &Model, ResourceLedger &Ledger,
                       CompressEngine &Engine, GpuDevice &Primary,
                       const obs::ObsSinks &Obs,
                       fault::FaultInjector *Faults, unsigned Devices)
    : Model(Model), Ledger(Ledger), Engine(Engine) {
  assert(Devices >= 1 && "GPU backend needs at least one device");
  assert(Primary.present() && "GPU backend without a modelled GPU");
  Units.resize(Devices);
  for (unsigned K = 0; K < Devices; ++K) {
    Unit &U = Units[K];
    if (K == 0) {
      // Device 0 replays on the resource lanes themselves.
      U.Device = &Primary;
      U.GpuLane = static_cast<unsigned>(Resource::Gpu);
      U.PcieLane = static_cast<unsigned>(Resource::Pcie);
      continue;
    }
    U.Owned = std::make_unique<GpuDevice>(Model, Ledger);
    U.Device = U.Owned.get();
    U.Device->setDeviceIndex(K);
    U.Device->setMixedMode(Primary.mixedMode());
    U.Device->setObs(Obs);
    if (Faults)
      U.Device->setFaultInjector(Faults);
    // Each extra device gets its own queue lane and its own modelled
    // PCIe link lane (point-to-point links, one per device).
    U.GpuLane = Ledger.addTimelineLane(Resource::Gpu);
    U.PcieLane = Ledger.addTimelineLane(Resource::Pcie);
  }
  NameStr = Devices == 1 ? "gpu" : "gpu" + std::to_string(Devices);
  SpanNameStr = "backend:" + NameStr;
  Caps.Name = NameStr.c_str();
  Caps.SpanName = SpanNameStr.c_str();
  Caps.DeviceCount = Devices;
  if (Obs.Metrics)
    FallbackCounter = &Obs.Metrics->counter(
        "padre_gpu_fallback_total{family=\"compression\"}",
        "GPU sub-batches re-compressed on the CPU after a device fault");
}

double GpuBackend::quoteCompressUs(std::uint64_t Bytes,
                                   std::size_t Chunks) const {
  // Ideal static partition: each device compresses 1/N of the slice on
  // its own link and queue; the shared CPU refinement does not divide.
  const unsigned N = deviceCount();
  return gpuQuoteCompressUs(Model, Bytes / N, (Chunks + N - 1) / N);
}

void GpuBackend::executeSlice(
    std::span<const ChunkView> Chunks, std::size_t Begin, std::size_t End,
    std::vector<CompressedChunk> &Out,
    std::vector<BatchScheduler::CompressSlice> &Slices, bool Pipelined) {
  if (Begin >= End)
    return;
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
  const std::size_t Records = Pipelined ? SubBatches : std::min(N, SubBatches);
  const std::size_t Stride = Pipelined ? SubBatches : N;
  for (std::size_t R = 0; R < Records; ++R) {
    Unit &U = Units[R % N];
    BatchScheduler::CompressSlice Slice;
    Slice.GpuLane = U.GpuLane;
    Slice.PcieLane = U.PcieLane;
    Slice.Staging = &U.Device->staging();
    // Capture the record's async submissions on its own log (the
    // scheduler's stage-level log stays empty; the slice replay is the
    // only consumer). CPU attribution by busy snapshot, as in
    // CpuBackend: the refinement pass plus any fault-fallback
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
    Slices.push_back(std::move(Slice));
  }
}

void GpuBackend::resetTimelineState() {
  for (Unit &U : Units)
    if (U.Owned)
      U.Owned->staging().reset();
}
