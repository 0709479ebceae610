//===----------------------------------------------------------------------===//
///
/// \file
/// CPU backend implementation.
///
//===----------------------------------------------------------------------===//

#include "backend/CpuBackend.h"

using namespace padre;
using namespace padre::backend;

CpuBackend::CpuBackend(const CostModel &Model, ResourceLedger &Ledger,
                       CompressEngine &Engine)
    : Model(Model), Ledger(Ledger), Engine(Engine) {
  Caps.Name = "cpu";
  Caps.SpanName = "backend:cpu";
  Caps.DeviceCount = 0;
}

double CpuBackend::quoteCompressUs(std::uint64_t Bytes,
                                   std::size_t Chunks) const {
  // Pessimistic all-literal quote: setup per chunk plus the literal
  // scan rate, at full pool width.
  const double WorkUs =
      static_cast<double>(Chunks) * Model.Cpu.LzSetupUs +
      Model.Cpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(Bytes);
  return WorkUs / static_cast<double>(Model.Cpu.Threads);
}

void CpuBackend::executeSlice(
    std::span<const ChunkView> Chunks, std::size_t Begin, std::size_t End,
    std::vector<CompressedChunk> &Out,
    std::vector<BatchScheduler::CompressSlice> &Slices, bool) {
  if (Begin >= End)
    return;
  // Attribution by busy snapshot: the splitter runs slices
  // sequentially on the pipeline thread, so the pool delta across this
  // call is exactly this slice's charge.
  const double CpuBeforeUs = Ledger.busyMicros(Resource::CpuPool);
  Engine.compressRangeCpu(Chunks, Begin, End, Out);
  BatchScheduler::CompressSlice Slice;
  Slice.CpuUs = Ledger.busyMicros(Resource::CpuPool) - CpuBeforeUs;
  Slices.push_back(std::move(Slice));
}
