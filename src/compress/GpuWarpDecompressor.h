//===----------------------------------------------------------------------===//
///
/// \file
/// The warp-cooperative decode kernel — the restore path's only GPU
/// decoder, for every payload in the shared LZ token format.
///
/// The design follows CODAG and Gompresso (see PAPERS.md): one warp
/// owns one sub-block, a reader sub-warp streams tokens while the
/// decoder lanes expand them in parallel, and warps proceed
/// independently (no cross-warp lockstep), so literal/match divergence
/// stays inside one warp. A v2 framed payload (compress/SubBlockFrame.h)
/// carries its sub-block boundaries in a small header, so planning is
/// an O(N) header parse; an unframed payload (Lz77, QuickLz, GpuLane)
/// is one sub-block covering the whole chunk — CODAG's one chunk per
/// warp — and needs no parse at all.
///
/// `plan` builds the sub-block table; `runWarps` is the functional
/// kernel body. runWarps fills each sub-block's token/divergence/overlap
/// counts as it decodes — the charge inputs are known only after the
/// functional pass, the same idiom as the write-side kernels — and the
/// restore engine then charges sum over sub-blocks of
/// CostModel::gpuWarpSubBlockUs.
///
/// History reset at sub-block boundaries makes every back-reference
/// intra-sub-block by construction; runWarps enforces that (a distance
/// reaching before the sub-block's own output is a malformed payload,
/// never a data dependency). For a one-sub-block plan that is exactly
/// LzCodec::decompress's distance check. Self-overlapping matches
/// (distance < length) are counted per sub-block: Gompresso resolves
/// them with bit-parallel log-step replication, modelled by
/// GpuCosts::WarpOverlapPerMatchNs.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H
#define PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H

#include "compress/Block.h"
#include "compress/LzCodec.h"
#include "compress/SubBlockFrame.h"

#include <optional>
#include <span>

namespace padre {

/// One warp's share of a chunk decode: the sub-block's extents (from
/// the frame header, or the whole chunk when unframed) plus the
/// functional counts runWarps fills — the inputs to
/// CostModel::gpuWarpSubBlockUs.
struct WarpSubBlock {
  SubBlockSeg Seg;
  /// Tokens the reader sub-warp streams (literal runs + matches).
  std::uint32_t Tokens = 0;
  /// Literal<->match transitions — the (reader-path) divergence driver.
  std::uint32_t TokenSwitches = 0;
  /// Self-overlapping matches (distance < length): Gompresso's
  /// bit-parallel replication case.
  std::uint32_t OverlapMatches = 0;
  /// Byte mix of the sub-block.
  CompressStats Stats;
};

/// The O(N) plan for one chunk. SubBlocks views caller-owned
/// storage (the restore engine hands in arena-backed tables).
struct GpuWarpPlan {
  std::span<WarpSubBlock> SubBlocks;
  std::size_t OriginalSize = 0;
  std::size_t PayloadSize = 0;
};

/// Warp-cooperative decompressor for LZ token payloads (planning +
/// kernel body). Stateless; safe to share between threads.
class GpuWarpDecompressor {
public:
  /// True for the methods whose payload is the shared LZ token stream,
  /// framed or not: Lz77, QuickLz, GpuLane and LzFramed. Raw is a copy
  /// and LzHuff needs the serial entropy stage first.
  static bool accepts(BlockMethod Method);

  /// The CPU pre-parse, charged CostModel::FramePlanUs per chunk: fills
  /// \p Table with the sub-block extents of \p Payload — no token walk
  /// either way. LzFramed validates the frame header against
  /// \p OriginalSize (Table capacity must cover its count); Lz77,
  /// QuickLz and GpuLane get one sub-block spanning the whole payload
  /// and output. Returns nullopt for a method the kernel does not
  /// accept, an oversized chunk or a malformed header;
  /// token-stream damage is caught by runWarps.
  static std::optional<GpuWarpPlan> plan(BlockMethod Method,
                                         ByteSpan Payload,
                                         std::size_t OriginalSize,
                                         std::span<WarpSubBlock> Table);

  /// The kernel body: each warp decodes its sub-block of \p Payload
  /// independently, appending exactly Plan.OriginalSize bytes to
  /// \p Out, and fills the per-sub-block counts in Plan.SubBlocks.
  /// Every back-distance must stay inside the sub-block's own output
  /// (history reset at the boundary); any violation or malformed token
  /// fails with no partial output appended. Functionally identical to
  /// the serial LzCodec::decompress of the same chunk.
  static bool runWarps(ByteSpan Payload, GpuWarpPlan &Plan, ByteVector &Out);
};

} // namespace padre

#endif // PADRE_COMPRESS_GPUWARPDECOMPRESSOR_H
