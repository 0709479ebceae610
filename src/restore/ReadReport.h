//===----------------------------------------------------------------------===//
///
/// \file
/// The restore pipeline's measurement report — the read-path mirror of
/// core/Report.h. Reads are served by the SSD + decode + cache stack,
/// so (unlike the write report, which quotes the SSD separately) the
/// makespan here spans *all* modelled resources: a read that waits on
/// flash is slow no matter how fast the decoders are.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_RESTORE_READREPORT_H
#define PADRE_RESTORE_READREPORT_H

#include "sim/ResourceLedger.h"

#include <cstdint>
#include <string>

namespace padre {
namespace restore {

/// Who decodes a fetched batch. The values are what the
/// padre_read_decode_mode gauge publishes.
enum class DecodeMode {
  Cpu = 0,     ///< chunk-parallel across the CPU pool
  WarpGpu = 2, ///< warp-cooperative kernel over every LZ token payload
  Auto,        ///< probe both paths at construction, pick the faster
};

/// Returns "cpu", "warp" or "auto".
const char *decodeModeName(DecodeMode Mode);

/// Everything a restore run measures since construction or
/// ReadPipeline::resetMeasurement().
struct ReadReport {
  // Workload.
  /// Chunk reads requested by callers (count); cache hits included.
  std::uint64_t ChunksRequested = 0;
  /// Decoded bytes returned to callers (bytes).
  std::uint64_t BytesOut = 0;

  // Tier breakdown.
  /// Requests served from the DRAM chunk cache (count).
  std::uint64_t CacheHits = 0;
  /// Distinct chunks fetched from flash (count); duplicates within a
  /// batch fetch once.
  std::uint64_t SsdChunks = 0;
  /// Encoded bytes read off flash, headers included (bytes).
  std::uint64_t EncodedBytesIn = 0;
  /// Multi-chunk sequential read commands issued — location-adjacent
  /// misses coalesced into one SSD stream (count).
  std::uint64_t CoalescedRuns = 0;
  /// Single-chunk random 4K reads (count).
  std::uint64_t RandomReads = 0;
  /// Chunks fetched and decoded speculatively into the cache by
  /// recipe-locality readahead (count); not part of ChunksRequested.
  std::uint64_t ReadaheadChunks = 0;
  /// Chunks whose block failed to parse or decode (count).
  std::uint64_t DecodeFailures = 0;

  // Decode-mode breakdown.
  /// Always 0: the lane decode kernel it counted is gone. Kept only
  /// because the perfbench drivers still read it.
  std::uint64_t GpuBatches = 0;
  /// Decode batches run on the CPU pool (count).
  std::uint64_t CpuBatches = 0;
  /// Decode sub-batches dispatched to the warp-cooperative kernel
  /// (count).
  std::uint64_t WarpBatches = 0;
  /// v2 framed chunks decoded, on any path (count).
  std::uint64_t FramedChunks = 0;
  /// The mode batches run in (the probe's resolution of Auto; never
  /// Auto itself).
  DecodeMode Mode = DecodeMode::Cpu;

  // The construction-time decode probe: modelled makespans of one
  // synthetic batch at BatchDepth per path (µs; 0 when the path is
  // unavailable), and the framed format's payload growth on the probe
  // chunk — the measured sub-block ratio delta the framing trades for
  // warp parallelism.
  double ProbeCpuUs = 0.0;
  double ProbeWarpUs = 0.0;
  double SubBlockRatioDeltaPct = 0.0;

  // Modelled performance (modelled seconds since the measurement
  // baseline — NOT wall time; see OBSERVABILITY.md).
  /// Busiest resource's normalized busy time over AllResources.
  double MakespanSec = 0.0;
  /// BytesOut / MakespanSec (MB per modelled s).
  double ThroughputMBps = 0.0;
  /// ChunksRequested / MakespanSec (chunk reads per modelled s).
  double ThroughputIops = 0.0;
  /// Resource whose busy time equals MakespanSec.
  Resource Bottleneck = Resource::Ssd;
  /// Per-lane busy-time deltas (modelled s). Each equals the trace's
  /// restore stage-span total on its lane (tests/test_restore.cpp).
  double CpuBusySec = 0.0;
  double GpuBusySec = 0.0;
  double PcieBusySec = 0.0;
  double SsdBusySec = 0.0;

  // Modelled per-read service latency (microseconds).
  double LatencyP50Us = 0.0;
  double LatencyP95Us = 0.0;
  double LatencyP99Us = 0.0;

  /// Cache hits / chunk requests (0 when none).
  double cacheHitRate() const {
    return ChunksRequested == 0
               ? 0.0
               : static_cast<double>(CacheHits) /
                     static_cast<double>(ChunksRequested);
  }

  /// Multi-line human-readable rendering.
  std::string toString() const;
};

} // namespace restore
} // namespace padre

#endif // PADRE_RESTORE_READREPORT_H
