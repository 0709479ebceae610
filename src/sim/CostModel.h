//===----------------------------------------------------------------------===//
///
/// \file
/// The calibrated per-operation cost model for the paper's evaluation
/// platform (Intel i7-3770K, AMD Radeon HD 7970, Samsung SSD 830,
/// PaCT'17 §4). Engines execute every operation functionally and charge
/// these costs to the ResourceLedger; benchmark throughput is derived
/// from the ledger (see ResourceLedger.h).
///
/// Calibration: the constants were fitted so that the model reproduces
/// the paper's reported endpoints —
///   * CPU indexing 4.16–5.45x faster than GPU indexing (§3.1(3)),
///   * CPU-only parallel dedup ≈ 209 K IOPS and GPU-assisted ≈ +15%,
///     3x the SSD's ≈ 80 K IOPS (§4(1)),
///   * CPU compression ≈ 50 K IOPS at low ratio, GPU ≈ 100 K (§4(2)),
///   * integrated GPU-for-compression ≈ +89.7% over CPU-only (§4(3)).
/// EXPERIMENTS.md records the fit and per-constant rationale.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_SIM_COSTMODEL_H
#define PADRE_SIM_COSTMODEL_H

#include <cstddef>
#include <cstdint>

namespace padre {

/// CPU-side costs (the i7-3770K's 8 hardware threads).
struct CpuCosts {
  /// Parallel hardware threads in the pool (4 cores x 2-way SMT).
  unsigned Threads = 8;
  /// Fixed storage-request path cost per chunk (request handling,
  /// metadata, buffer management) — charged once per incoming chunk in
  /// every pipeline configuration.
  double RequestOverheadUs = 20.0;
  /// Chunk boundary scan (fixed-size chunking is nearly free; CDC
  /// chunkers multiply this, see chunk/).
  double ChunkingPerByteNs = 0.05;
  /// SHA-1 fingerprinting (≈ 330 MB/s per thread on the paper's CPU).
  double HashPerByteNs = 3.05;
  /// One bin probe in the steady-state pipeline (random bin, cold
  /// caches: buffer scan miss followed by a tree descent with DRAM
  /// misses).
  double IndexProbeUs = 2.8;
  /// A probe satisfied by the bin buffer (§3.3 temporal locality): a
  /// short scan of the recently-touched staging area, no tree descent.
  double IndexProbeBufferUs = 1.0;
  /// One bin probe in a tight microbenchmark loop (hot caches); used by
  /// the §3.1(3) preliminary indexing comparison.
  double IndexProbeHotUs = 0.30;
  /// Index maintenance per unique chunk, amortized: scatter to the bin
  /// bucket, bin-buffer insert, and the buffer->tree flush share.
  double IndexMaintainUs = 3.0;
  /// LZ compression: fixed setup per chunk plus per-byte costs split by
  /// how the byte is covered (literal bytes are scanned and re-hashed;
  /// match-covered bytes are skipped faster). Incompressible data is
  /// all-literals and therefore slowest — this reproduces the paper's
  /// "throughput is high when the compression ratio is high".
  double LzSetupUs = 20.0;
  double LzLiteralPerByteNs = 26.9;
  double LzMatchPerByteNs = 17.8;
  /// Post-processing (refinement) of a GPU-compressed chunk: merging
  /// lane outputs into the canonical stream.
  double PostSetupUs = 14.5;
  double PostPerByteNs = 3.9; ///< per compressed output byte
  /// Post-processing when the GPU result fell back to store-raw.
  double StoreRawPostUs = 5.0;
  /// LZ decompression (read path), per original byte.
  double DecompressPerByteNs = 2.5;
  /// Fixed per-chunk decode-call setup on the batched restore path
  /// (block header parse, CRC check, output allocation). The serial
  /// `readChunk` path folds this into its per-byte charge; the restore
  /// engine models it explicitly so shallow batches pay the true fixed
  /// costs. (See src/restore/ReadPipeline.h.)
  double DecompressSetupUs = 6.0;
  /// Warp-decode pre-parse on the CPU: building a chunk's sub-block
  /// table, either from a v2 frame header (see compress/SubBlockFrame.h;
  /// O(N) in the sub-block count) or as one whole-chunk sub-block for
  /// an unframed payload. Neither walks the token stream. Mirrors
  /// PostSetupUs on the write side — decompression's CPU stage runs
  /// *before* the kernel instead of after it. Charged once per chunk.
  double FramePlanUs = 0.4;
  /// Optional Huffman entropy stage (extension): per token byte
  /// encoded or decoded (two passes + bit packing).
  double HuffmanPerByteNs = 6.0;
  /// Optional verify-on-dedup (extension): byte comparison of an
  /// incoming chunk against the stored copy its digest matched.
  double VerifyPerByteNs = 0.25;
  /// Read-cache hit: copying a decompressed chunk out of DRAM.
  double CacheCopyPerByteNs = 0.15;
};

/// GPU-side costs (the Radeon HD 7970 over PCIe 2.0).
struct GpuCosts {
  /// False on platforms without a GPU (Calibrator then never offloads).
  bool Present = true;
  /// Fixed kernel-launch latency — the "inevitable time at which the
  /// GPU kernel starts" (§3.1(3)) that caps GPU indexing performance.
  double LaunchUs = 50.0;
  /// SHA-1 on the device (per byte, at full occupancy).
  double HashPerByteNs = 0.60;
  /// One probe of a GPU-resident bin (linear-scan lockstep compare) in
  /// the steady-state pipeline.
  double ProbePerEntryUs = 1.2;
  /// Lane-parallel LZ compression, charged per *wavefront*: lanes run
  /// in lockstep, so a chunk's kernel cost is
  ///   lanes x max over lanes (LaneSetupNs + literals x LzLiteral +
  ///                            match bytes x LzMatch)
  /// — divergence between literal-heavy and match-heavy lanes is paid
  /// by every lane in the wavefront (§3.1(2): "GPU threads in the same
  /// workgroup run the same command regardless of branching").
  double LaneSetupNs = 95.0;
  double LzLiteralPerByteNs = 2.05;
  double LzMatchPerByteNs = 1.8;
  /// Multiplier applied to every GPU cost while kernels from both
  /// reduction operations share the device (integration mode GpuBoth):
  /// interleaved small indexing kernels break compression batching and
  /// reduce occupancy.
  double MixedKernelPenalty = 1.30;
  /// Chunks per indexing kernel. Small: inline dedup cannot delay
  /// requests long enough to build large batches, so launch latency is
  /// poorly amortized (this is why GPU indexing loses to CPU indexing).
  unsigned DedupBatchChunks = 8;
  /// Chunks per compression kernel. Compression tolerates deeper
  /// batching because unique chunks are already buffered for destage.
  unsigned CompressBatchChunks = 256;
  /// Chunks per decompression kernel. Reads tolerate deep batching the
  /// same way destage does — the restore engine gathers fetches before
  /// decoding — and the persistent warp kernel keeps shallow batches
  /// cheap (see WarpDoorbellUs).
  unsigned DecompressBatchChunks = 256;
  /// Warp-cooperative LZ decompression (CODAG's reader-warp design; see
  /// compress/GpuWarpDecompressor.h). One warp owns one sub-block — a
  /// v2 frame's header sub-block, or a whole unframed chunk: a reader
  /// sub-warp streams tokens while the decoder lanes expand them, so
  /// control-flow divergence (every literal/match token boundary is a
  /// branch) is paid per *token* on the narrow reader path rather than
  /// per lockstep wavefront. Warps are independent (no cross-warp
  /// lockstep), so a chunk's kernel cost is the *sum* of its
  /// sub-block costs:
  ///   sum over sub-blocks (WarpSubBlockSetupNs + WarpSyncNs
  ///                        + tokens x WarpReaderPerTokenNs
  ///                        + output bytes x WarpDecoderPerByteNs
  ///                        + token switches x WarpDivergencePerTokenNs
  ///                        + overlap matches x WarpOverlapPerMatchNs)
  /// WarpOverlapPerMatchNs prices Gompresso's bit-parallel resolution
  /// of self-overlapping matches (distance < length): the decoder
  /// lanes must serialise the replicated copy in log-steps instead of
  /// one parallel gather.
  double WarpSubBlockSetupNs = 100.0;
  double WarpReaderPerTokenNs = 1.1;
  double WarpDecoderPerByteNs = 0.055;
  double WarpDivergencePerTokenNs = 0.5;
  double WarpOverlapPerMatchNs = 6.0;
  double WarpSyncNs = 120.0;
  /// Work-queue doorbell for the *persistent* warp-decode kernel: the
  /// first warp batch pays LaunchUs to start the kernel; while it stays
  /// resident, subsequent batches only ring the doorbell (one mapped
  /// write + device-side dequeue). This is what keeps the warp kernel
  /// ahead of the CPU pool at batch depth 16 and below — LaunchUs per
  /// batch alone would keep the GPU losing until depth ~25.
  double WarpDoorbellUs = 4.0;
  /// Device memory budget for the GPU bin table, in MiB. Bounds which
  /// fraction of the index is GPU-resident (random replacement).
  double DeviceMemoryMiB = 512.0;
};

/// Host<->device link costs (PCIe 2.0 x16, effective).
struct PcieCosts {
  double GigabytesPerSec = 8.0;
  /// Fixed DMA setup per transfer.
  double PerTransferUs = 2.5;
};

/// SSD costs (Samsung SSD 830 profile). The paper quotes ≈ 80 K IOPS as
/// "the throughput of the SSD" for 4 KiB operations; sequential rates
/// are the device's data-sheet class.
struct SsdCosts {
  double SeqWriteMBps = 320.0;
  double SeqReadMBps = 500.0;
  double RandWrite4KUs = 12.5; ///< ≈ 80 K IOPS
  double RandRead4KUs = 12.5;  ///< ≈ 80 K IOPS
  /// Fixed per-command overhead for sequential streams.
  double SeqCommandUs = 20.0;
  /// Flash-translation-layer write amplification applied to NAND-byte
  /// accounting: sequential streams map almost 1:1; random page writes
  /// trigger garbage-collection copies.
  double SequentialWaf = 1.05;
  double RandomWaf = 1.5;
  /// FTL overhead costs (only charged when the page-level FTL is
  /// enabled; see ssd/Ftl.h): a GC relocation is one page read plus
  /// one page program, and reclaiming a block costs an erase.
  double FtlGcPageReadUs = 10.0;
  double FtlGcPageProgramUs = 12.0;
  double FtlBlockEraseUs = 1800.0;
};

/// The full calibrated platform cost model plus derived-cost helpers.
struct CostModel {
  CpuCosts Cpu;
  GpuCosts Gpu;
  PcieCosts Pcie;
  SsdCosts Ssd;

  /// CPU SHA-1 cost for \p Bytes input bytes, in microseconds.
  double cpuHashUs(std::size_t Bytes) const {
    return Cpu.HashPerByteNs * 1e-3 * static_cast<double>(Bytes);
  }

  /// GPU SHA-1 cost for \p Bytes input bytes (exclusive of launch and
  /// transfer), in microseconds.
  double gpuHashUs(std::size_t Bytes) const {
    return Gpu.HashPerByteNs * 1e-3 * static_cast<double>(Bytes);
  }

  /// CPU LZ cost given the functional outcome of compressing a chunk:
  /// \p LiteralBytes emitted as literals, \p MatchBytes covered by
  /// matches.
  double cpuCompressUs(std::size_t LiteralBytes,
                       std::size_t MatchBytes) const {
    return Cpu.LzSetupUs +
           Cpu.LzLiteralPerByteNs * 1e-3 * static_cast<double>(LiteralBytes) +
           Cpu.LzMatchPerByteNs * 1e-3 * static_cast<double>(MatchBytes);
  }

  /// One GPU lane's LZ cost in microseconds, from its functional
  /// outcome. A chunk's kernel cost is `lanes x max(lane costs)` — the
  /// lockstep rule (see GpuCosts::LaneSetupNs).
  double gpuLaneUs(std::size_t LiteralBytes, std::size_t MatchBytes) const {
    return 1e-3 * (Gpu.LaneSetupNs +
                   Gpu.LzLiteralPerByteNs *
                       static_cast<double>(LiteralBytes) +
                   Gpu.LzMatchPerByteNs * static_cast<double>(MatchBytes));
  }

  /// One sub-block's cost under the warp-cooperative decode kernel, in
  /// microseconds: \p Tokens streamed by the reader sub-warp,
  /// \p OutputBytes expanded by the decoder lanes, \p TokenSwitches
  /// literal/match transitions, \p OverlapMatches self-overlapping
  /// matches (distance < length). A chunk's kernel cost is the sum
  /// over its sub-blocks — warps are independent (see
  /// GpuCosts::WarpSubBlockSetupNs).
  double gpuWarpSubBlockUs(std::size_t Tokens, std::size_t OutputBytes,
                           std::size_t TokenSwitches,
                           std::size_t OverlapMatches) const {
    return 1e-3 *
           (Gpu.WarpSubBlockSetupNs + Gpu.WarpSyncNs +
            Gpu.WarpReaderPerTokenNs * static_cast<double>(Tokens) +
            Gpu.WarpDecoderPerByteNs * static_cast<double>(OutputBytes) +
            Gpu.WarpDivergencePerTokenNs *
                static_cast<double>(TokenSwitches) +
            Gpu.WarpOverlapPerMatchNs * static_cast<double>(OverlapMatches));
  }

  /// CPU post-processing (refinement) cost for a GPU-compressed chunk
  /// whose output payload is \p CompressedBytes; \p StoredRaw selects
  /// the cheap fallback path.
  double cpuPostprocessUs(std::size_t CompressedBytes, bool StoredRaw) const {
    if (StoredRaw)
      return Cpu.StoreRawPostUs;
    return Cpu.PostSetupUs +
           Cpu.PostPerByteNs * 1e-3 * static_cast<double>(CompressedBytes);
  }

  /// PCIe transfer cost for one DMA of \p Bytes, in microseconds.
  double pcieTransferUs(std::size_t Bytes) const {
    return Pcie.PerTransferUs +
           static_cast<double>(Bytes) / (Pcie.GigabytesPerSec * 1e3);
  }

  /// SSD sequential write/read cost for \p Bytes, in microseconds.
  double ssdSeqWriteUs(std::size_t Bytes) const {
    return Ssd.SeqCommandUs +
           static_cast<double>(Bytes) / Ssd.SeqWriteMBps;
  }
  double ssdSeqReadUs(std::size_t Bytes) const {
    return Ssd.SeqCommandUs + static_cast<double>(Bytes) / Ssd.SeqReadMBps;
  }
};

/// Returns true if every constant in \p Model is finite and positive.
bool isValidCostModel(const CostModel &Model);

} // namespace padre

#endif // PADRE_SIM_COSTMODEL_H
