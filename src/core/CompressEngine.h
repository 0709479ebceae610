//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel compression engine (§3.2). Two range entry points, one
/// per execution substrate (src/backend's AutoSplitter calls them):
///
///   * compressRangeCpu — "the compute is parallelized by the CPU by
///     assigning a computing thread that runs the previously studied
///     compression algorithm to each chunk": one QuickLZ-class codec
///     call per chunk across the pool.
///   * compressRangeGpu — the paper's design: chunks are batched to the
///     device, each chunk is compressed by multiple lanes with
///     overlapping history windows, and "the GPU's compression results
///     are not refined in GPU due to performance issues. Therefore, the
///     CPU must refine the results" — the CPU post-processing stage
///     runs on the pool after each kernel.
///
/// Both paths fall back to store-raw when compression does not pay.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_COMPRESSENGINE_H
#define PADRE_CORE_COMPRESSENGINE_H

#include "chunk/Chunker.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/LzCodec.h"
#include "gpu/GpuDevice.h"
#include "obs/Obs.h"
#include "sim/CostModel.h"
#include "sim/ResourceLedger.h"
#include "util/ThreadPool.h"

#include <atomic>
#include <span>
#include <vector>

namespace padre {

/// One compressed chunk ready for destage.
struct CompressedChunk {
  ByteVector Block; ///< encoded block (compress/Block.h)
  CompressStats Stats;
  bool StoredRaw = false;
  /// Modelled service latency of this chunk's compression stage in
  /// microseconds. The GPU path batches chunks per kernel, so every
  /// chunk waits for its whole sub-batch round trip — deeper batching
  /// buys throughput at the price of latency.
  double LatencyUs = 0.0;
};

/// Engine configuration.
struct CompressEngineConfig {
  /// CPU matcher; SingleProbe is the QuickLZ-class default.
  LzCodec::MatcherKind CpuMatcher = LzCodec::MatcherKind::SingleProbe;
  LzOptions CpuOptions;
  GpuLaneConfig Lanes;
  /// Optional Huffman entropy stage over the LZ token stream
  /// (extension): extra CPU cycles for extra ratio. Applied on the CPU
  /// on both paths (on the GPU path it is part of post-processing).
  bool EntropyStage = false;
  /// Sub-blocks per chunk for the v2 framed format (decode v2's
  /// compress-time half, see compress/SubBlockFrame.h). 1 emits the
  /// classic unframed payloads; >1 splits each chunk into that many
  /// independently-decodable sub-blocks (history reset at boundaries)
  /// so the warp-cooperative decoder can expand them in parallel — at
  /// a small measured ratio cost. CPU path only: the GPU-lane write
  /// path keeps its own format, and the entropy stage is skipped for
  /// framed chunks (a Huffman wrap would hide the sub-block
  /// boundaries the frame exists to expose).
  unsigned SubBlocks = 1;
};

/// The compression stage. One range at a time; parallelism inside.
class CompressEngine {
public:
  /// \p Obs sinks are optional; defaults disable instrumentation.
  CompressEngine(const CostModel &Model, ResourceLedger &Ledger,
                 ThreadPool &Pool, const CompressEngineConfig &Config,
                 const obs::ObsSinks &Obs = obs::ObsSinks());

  /// CPU path: compresses Chunks[Begin, End) into Out[Begin, End), one
  /// codec call per chunk across the pool. \p Out must already be
  /// sized to Chunks.size() — the splitter owns the full batch vector
  /// and hands each backend its range.
  void compressRangeCpu(std::span<const ChunkView> Chunks,
                        std::size_t Begin, std::size_t End,
                        std::vector<CompressedChunk> &Out);

  /// GPU path on \p Device: per compression sub-batch, H2D -> lane
  /// kernel -> D2H, then CPU refinement across the pool. Same output
  /// contract as compressRangeCpu. Infallible by construction: a device
  /// fault re-compresses the affected sub-batch on the CPU path
  /// (degraded mode). Returns the number of sub-batches that fell back.
  std::size_t compressRangeGpu(GpuDevice &Device,
                               std::span<const ChunkView> Chunks,
                               std::size_t Begin, std::size_t End,
                               std::vector<CompressedChunk> &Out);

  /// Cumulative store-raw fallbacks.
  std::uint64_t rawFallbacks() const { return RawFallbacks.load(); }

private:
  CostModel Model;
  ResourceLedger &Ledger;
  ThreadPool &Pool;
  CompressEngineConfig Config;
  LzCodec CpuCodec;
  GpuLaneCompressor LaneCompressor;
  /// One sub-batch of unrefined lane outputs, indexed relative to the
  /// sub-batch start and reused across calls (no per-call allocation).
  std::vector<LaneOutputs> DeviceResults;
  std::atomic<std::uint64_t> RawFallbacks{0};
  // Observability (null = disabled), cached at construction.
  obs::Counter *RawFallbackCounter = nullptr;
};

} // namespace padre

#endif // PADRE_CORE_COMPRESSENGINE_H
