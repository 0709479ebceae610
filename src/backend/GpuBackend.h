//===----------------------------------------------------------------------===//
///
/// \file
/// The GPU backend over N >= 1 modelled devices. Device 0 is the
/// pipeline's primary GpuDevice and replays on the Resource::Gpu /
/// Resource::Pcie timeline lanes with the device's own double-buffered
/// staging; devices 1..N-1 are instantiated here with their own staging
/// slots and async queues, replaying on aux timeline lanes
/// (ResourceLedger::addTimelineLane) that mirror Resource::Gpu/Pcie.
/// Busy time stays on the shared per-resource accumulators — charges
/// are bit-identical across device counts; only the scheduled timeline
/// (and the capacity term of makespanSeconds) fans out per device.
///
/// Work distribution is HPDR-style static round-robin over compression
/// sub-batches: sub-batch i goes to device i mod N. Pipelined, every
/// sub-batch is its own slice record, so its CPU refinement replays
/// right after its own kernel round trip; otherwise each device's
/// sub-batches form one record, chaining on its own lanes with its own
/// staging.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_GPUBACKEND_H
#define PADRE_BACKEND_GPUBACKEND_H

#include "backend/ReductionBackend.h"

#include <memory>
#include <string>

namespace padre {

namespace fault {
class FaultInjector;
} // namespace fault

namespace backend {

class GpuBackend final : public ReductionBackend {
public:
  /// \p Engine is the splitter's shared engine and \p Primary the
  /// pipeline's device 0; neither is owned and both must outlive the
  /// backend. \p Devices >= 1 is the total device count; the extra
  /// devices are created here against the same model/ledger and
  /// inherit \p Primary's mixed-mode flag, \p Obs and \p Faults.
  GpuBackend(const CostModel &Model, ResourceLedger &Ledger,
             CompressEngine &Engine, GpuDevice &Primary,
             const obs::ObsSinks &Obs, fault::FaultInjector *Faults,
             unsigned Devices);

  const BackendCaps &caps() const override { return Caps; }
  double quoteCompressUs(std::uint64_t Bytes,
                         std::size_t Chunks) const override;
  void executeSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
                    std::size_t End, std::vector<CompressedChunk> &Out,
                    std::vector<BatchScheduler::CompressSlice> &Slices,
                    bool Pipelined) override;

  /// Rewinds the extra devices' staging slots in lockstep with
  /// BatchScheduler::reset (which covers device 0's).
  void resetTimelineState();

  unsigned deviceCount() const {
    return static_cast<unsigned>(Units.size());
  }

private:
  /// One modelled device and its timeline lanes.
  struct Unit {
    GpuDevice *Device = nullptr; ///< Units[0] aliases the primary
    std::unique_ptr<GpuDevice> Owned;
    unsigned GpuLane = 0;
    unsigned PcieLane = 0;
  };

  CostModel Model;
  ResourceLedger &Ledger;
  CompressEngine &Engine;
  std::vector<Unit> Units;
  std::string NameStr;
  std::string SpanNameStr;
  BackendCaps Caps;
  // Observability (null = disabled), cached at construction.
  obs::Counter *FallbackCounter = nullptr;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_GPUBACKEND_H
