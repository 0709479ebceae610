//===----------------------------------------------------------------------===//
///
/// \file
/// The CPU-pool backend: the engine's CPU path (one codec call per
/// chunk across the pool, §3.2(1)) behind ReductionBackend. Its slice
/// record carries no device ops — just the pool time it charged — so
/// a full-batch slice replays as one pool task ready at dedup-done.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_BACKEND_CPUBACKEND_H
#define PADRE_BACKEND_CPUBACKEND_H

#include "backend/ReductionBackend.h"

namespace padre {
namespace backend {

class CpuBackend final : public ReductionBackend {
public:
  /// \p Engine is the splitter's shared engine; must outlive the
  /// backend.
  CpuBackend(const CostModel &Model, ResourceLedger &Ledger,
             CompressEngine &Engine);

  const BackendCaps &caps() const override { return Caps; }
  double quoteCompressUs(std::uint64_t Bytes,
                         std::size_t Chunks) const override;
  void executeSlice(std::span<const ChunkView> Chunks, std::size_t Begin,
                    std::size_t End, std::vector<CompressedChunk> &Out,
                    std::vector<BatchScheduler::CompressSlice> &Slices,
                    bool Pipelined) override;

private:
  CostModel Model;
  ResourceLedger &Ledger;
  CompressEngine &Engine;
  BackendCaps Caps;
};

} // namespace backend
} // namespace padre

#endif // PADRE_BACKEND_CPUBACKEND_H
