//===----------------------------------------------------------------------===//
///
/// \file
/// Read report rendering.
///
//===----------------------------------------------------------------------===//

#include "restore/ReadReport.h"

#include <cassert>
#include <cstdio>

using namespace padre;
using namespace padre::restore;

const char *padre::restore::decodeModeName(DecodeMode Mode) {
  switch (Mode) {
  case DecodeMode::Cpu:
    return "cpu";
  case DecodeMode::WarpGpu:
    return "warp";
  case DecodeMode::Auto:
    return "auto";
  }
  assert(false && "Unknown decode mode");
  return "?";
}

std::string ReadReport::toString() const {
  char Buffer[1536];
  std::snprintf(
      Buffer, sizeof(Buffer),
      "reads=%llu (%.1f MiB out)  cacheHits=%llu (%.0f%%) "
      "ssdChunks=%llu (%.1f MiB in)\n"
      "fetch: coalescedRuns=%llu randomReads=%llu readahead=%llu "
      "decodeFailures=%llu\n"
      "decode: mode=%s batches cpu=%llu warp=%llu framedChunks=%llu\n"
      "probe: cpu=%.1fus warp=%.1fus  "
      "subBlockRatioDelta=%+.2f%%\n"
      "throughput=%.1fK IOPS (%.1f MB/s)  makespan=%.4fs bottleneck=%s\n"
      "latency (modelled): p50=%.0fus p95=%.0fus p99=%.0fus\n"
      "busy: cpu=%.4fs gpu=%.4fs pcie=%.4fs ssd=%.4fs",
      static_cast<unsigned long long>(ChunksRequested),
      static_cast<double>(BytesOut) / (1 << 20),
      static_cast<unsigned long long>(CacheHits), cacheHitRate() * 100.0,
      static_cast<unsigned long long>(SsdChunks),
      static_cast<double>(EncodedBytesIn) / (1 << 20),
      static_cast<unsigned long long>(CoalescedRuns),
      static_cast<unsigned long long>(RandomReads),
      static_cast<unsigned long long>(ReadaheadChunks),
      static_cast<unsigned long long>(DecodeFailures), decodeModeName(Mode),
      static_cast<unsigned long long>(CpuBatches),
      static_cast<unsigned long long>(WarpBatches),
      static_cast<unsigned long long>(FramedChunks), ProbeCpuUs, ProbeWarpUs, SubBlockRatioDeltaPct, ThroughputIops / 1e3,
      ThroughputMBps, MakespanSec, resourceName(Bottleneck), LatencyP50Us,
      LatencyP95Us, LatencyP99Us, CpuBusySec, GpuBusySec, PcieBusySec,
      SsdBusySec);
  return Buffer;
}
