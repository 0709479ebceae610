//===----------------------------------------------------------------------===//
///
/// \file
/// Layer replay: re-drives a traced pass's recorded inputs through one
/// layer's public entry point at a time, timing each from outside on the
/// host clock. Every replay runs over the whole input, repeated until it
/// has run for at least MinReplayNs, and reports host µs per MiB of
/// input (per 1000 lookups for the index, per call for the core write
/// path). Replays check their own outputs.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "chunk/FixedChunker.h"
#include "compress/ChunkCodec.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/LzCodec.h"
#include "core/Volume.h"
#include "hash/Crc32.h"
#include "hash/Fingerprint.h"
#include "index/DedupIndex.h"

#include <unordered_set>

namespace perfbench {

using namespace padre;

namespace {
constexpr std::uint64_t MinReplayNs = 150'000'000;
constexpr std::size_t IndexBatch = 256;
constexpr double MiB = 1024.0 * 1024.0;

/// Runs \p Body (one full pass over the input) until MinReplayNs have
/// elapsed; returns host ns per pass.
template <typename Fn> double timePasses(Fn &&Body) {
  std::uint64_t Passes = 0;
  const std::uint64_t Begin = nowNs();
  std::uint64_t Elapsed = 0;
  do {
    Body();
    ++Passes;
    Elapsed = nowNs() - Begin;
  } while (Elapsed < MinReplayNs);
  return static_cast<double>(Elapsed) / static_cast<double>(Passes);
}

double usPerMiB(double NsPerPass, std::uint64_t Bytes) {
  return Bytes == 0 ? 0.0
                    : NsPerPass * 1e-3 / (static_cast<double>(Bytes) / MiB);
}
} // namespace

std::map<std::string, double> replayLayers(const ReplayInput &In,
                                           PassOutput &Checks) {
  std::map<std::string, double> Out;

  // chunk: FixedChunker::split over the write payloads.
  const FixedChunker Chunker(BlockSize);
  std::vector<ChunkView> Chunks;
  std::uint64_t WriteBytes = 0;
  for (const ByteVector &W : In.Writes)
    WriteBytes += W.size();
  Out["chunk.host_us_per_MiB"] = usPerMiB(
      timePasses([&] {
        Chunks.clear();
        for (const ByteVector &W : In.Writes)
          Chunker.split(ByteSpan(W.data(), W.size()), 0, Chunks);
      }),
      WriteBytes);
  std::uint64_t ChunkedBytes = 0;
  for (const ChunkView &C : Chunks)
    ChunkedBytes += C.Data.size();
  Checks.check(ChunkedBytes == WriteBytes, "chunk replay covers the input");

  // hash: Sha1::digest per chunk.
  std::vector<Fingerprint> Fps(Chunks.size());
  Out["hash.sha1_host_us_per_MiB"] = usPerMiB(timePasses([&] {
                                                for (std::size_t I = 0;
                                                     I < Chunks.size(); ++I)
                                                  Fps[I] = Fingerprint(
                                                      Sha1::digest(
                                                          Chunks[I].Data));
                                              }),
                                              WriteBytes);

  // The unique chunks of the input, by fingerprint (first occurrence).
  std::vector<ByteSpan> Uniques;
  std::uint64_t UniqueBytes = 0;
  {
    std::unordered_set<Fingerprint, FingerprintHash> Seen;
    for (std::size_t I = 0; I < Chunks.size(); ++I)
      if (Seen.insert(Fps[I]).second) {
        Uniques.push_back(Chunks[I].Data);
        UniqueBytes += Chunks[I].Data.size();
      }
  }

  // index: DedupIndex::processBatch over the fingerprints, pool width 4,
  // with the pipeline's index geometry.
  {
    DedupIndexConfig IndexConfig = PipelineConfig().Dedup.Index;
    ThreadPool Pool(4);
    std::vector<std::uint64_t> Locations(Fps.size());
    for (std::size_t I = 0; I < Locations.size(); ++I)
      Locations[I] = I;
    std::vector<LookupResult> Results(IndexBatch);
    std::vector<FlushEvent> Flushes;
    std::uint64_t Dups = 0;
    const double Ns = timePasses([&] {
      DedupIndex Index(IndexConfig);
      Dups = 0;
      for (std::size_t Begin = 0; Begin < Fps.size(); Begin += IndexBatch) {
        const std::size_t N = std::min(IndexBatch, Fps.size() - Begin);
        Flushes.clear();
        Index.processBatch(
            std::span<const Fingerprint>(Fps.data() + Begin, N),
            std::span<const std::uint64_t>(Locations.data() + Begin, N), {},
            Pool, std::span<LookupResult>(Results.data(), N), Flushes);
        for (std::size_t I = 0; I < N; ++I)
          Dups += Results[I].Outcome != LookupOutcome::Unique;
      }
    });
    Out["index.host_us_per_kop"] =
        Fps.empty() ? 0.0 : Ns * 1e-3 / (static_cast<double>(Fps.size()) / 1e3);
    Checks.check(Dups + Uniques.size() == Fps.size(),
                 "index replay finds every repeated fingerprint");
  }

  // compress: LzCodec::compress + encodeBlock on the unique chunks (the
  // cpu-only engine's matcher and raw fallback).
  {
    const LzCodec Codec(CompressEngineConfig().CpuMatcher);
    std::uint64_t Encoded = 0;
    Out["compress.lz_host_us_per_MiB"] = usPerMiB(
        timePasses([&] {
          Encoded = 0;
          for (const ByteSpan Chunk : Uniques) {
            const CompressResult R = Codec.compress(Chunk);
            const bool Raw = R.Payload.size() >= Chunk.size();
            const ByteVector Block = encodeBlock(
                Raw ? BlockMethod::Raw : BlockMethod::QuickLz,
                static_cast<std::uint32_t>(Chunk.size()),
                Raw ? Chunk : ByteSpan(R.Payload.data(), R.Payload.size()));
            Encoded += Block.size();
          }
        }),
        UniqueBytes);
    Checks.check(Uniques.empty() || Encoded > 0, "compress replay output");
  }

  // gpu: GpuLaneCompressor kernel body + CPU refinement on the uniques.
  {
    const GpuLaneCompressor Lanes(CompressEngineConfig().Lanes);
    bool Ok = true;
    Out["gpu.lane_compress_host_us_per_MiB"] = usPerMiB(
        timePasses([&] {
          for (const ByteSpan Chunk : Uniques) {
            const RefinedChunk R =
                GpuLaneCompressor::refine(Lanes.runLanes(Chunk), Chunk);
            Ok &= !R.Block.empty();
          }
        }),
        UniqueBytes);
    Checks.check(Ok, "gpu lane replay output");
  }

  // crc32c over the stored payloads, then the full decode path
  // (decodeBlock verifies the CRC, decodeChunkPayload expands it).
  {
    std::vector<ByteSpan> Payloads;
    std::uint64_t PayloadBytes = 0, DecodedBytes = 0;
    bool Parsed = true;
    for (const ByteVector &E : In.Encoded)
      if (const std::optional<BlockView> View =
              decodeBlock(ByteSpan(E.data(), E.size()))) {
        Payloads.push_back(View->Payload);
        PayloadBytes += View->Payload.size();
        DecodedBytes += View->OriginalSize;
      } else {
        Parsed = false;
      }
    Checks.check(Parsed, "stored blocks parse");
    Out["hash.crc32c_host_us_per_MiB"] =
        usPerMiB(timePasses([&] {
                   for (const ByteSpan P : Payloads)
                     (void)crc32c(P);
                 }),
                 PayloadBytes);
    ByteVector Decoded;
    bool Ok = true;
    Out["restore.decode_host_us_per_MiB"] = usPerMiB(
        timePasses([&] {
          for (const ByteVector &E : In.Encoded) {
            const std::optional<BlockView> View =
                decodeBlock(ByteSpan(E.data(), E.size()));
            Decoded.clear();
            Ok &= View && decodeChunkPayload(*View, Decoded) &&
                  Decoded.size() == View->OriginalSize;
          }
        }),
        DecodedBytes);
    Checks.check(Ok, "decode replay output");
  }

  // core: the recorded writes replayed through Volume::writeBlocks over a
  // fresh pipeline of the workload's configuration (host µs per call).
  if (In.VolumeBlocks != 0 && !In.Writes.empty()) {
    std::uint64_t Calls = 0, Ns = 0;
    bool Ok = true;
    do {
      ReductionPipeline Pipeline(benchPlatform(), In.CoreConfig);
      Volume Vol(Pipeline, VolumeConfig{In.VolumeBlocks});
      for (std::size_t I = 0; I < In.Writes.size(); ++I) {
        const ByteVector &W = In.Writes[I];
        const std::uint64_t Begin = nowNs();
        Ok &= Vol.writeBlocks(In.WriteLbas[I], ByteSpan(W.data(), W.size()));
        Ns += nowNs() - Begin;
        ++Calls;
      }
    } while (Ns < MinReplayNs);
    Out["core.write_host_us"] =
        static_cast<double>(Ns) * 1e-3 / static_cast<double>(Calls);
    Checks.check(Ok, "core write replay");
  }
  return Out;
}

} // namespace perfbench
