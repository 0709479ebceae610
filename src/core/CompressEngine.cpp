//===----------------------------------------------------------------------===//
///
/// \file
/// Compression engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/CompressEngine.h"

#include "compress/Block.h"
#include "compress/ChunkCodec.h"

#include <algorithm>
#include <cassert>

using namespace padre;

CompressEngine::CompressEngine(const CostModel &Model,
                               ResourceLedger &Ledger, ThreadPool &Pool,
                               const CompressEngineConfig &Config,
                               const obs::ObsSinks &Obs)
    : Model(Model), Ledger(Ledger), Pool(Pool), Config(Config),
      CpuCodec(Config.CpuMatcher, Config.CpuOptions),
      LaneCompressor(Config.Lanes) {
  assert(isValidCostModel(Model) && "Invalid cost model");
  if (Obs.Metrics)
    RawFallbackCounter = &Obs.Metrics->counter(
        "padre_compress_raw_fallback_total",
        "Chunks stored raw because compression did not pay");
}

void CompressEngine::compressRangeCpu(std::span<const ChunkView> Chunks,
                                      std::size_t Begin, std::size_t End,
                                      std::vector<CompressedChunk> &Out) {
  assert(Out.size() == Chunks.size() && "Out must be pre-sized");
  // One codec call per chunk, chunk-parallel across the pool (§3.2(1)).
  Pool.parallelForSlices(
      Begin, End,
      [&](std::size_t SliceBegin, std::size_t SliceEnd, unsigned) {
        double Micros = 0.0;
        std::uint64_t Raw = 0;
        for (std::size_t I = SliceBegin; I < SliceEnd; ++I) {
          const ByteSpan Data = Chunks[I].Data;
          const bool Framed = Config.SubBlocks > 1 && !Data.empty();
          CompressResult Result;
          if (Framed) {
            FramedCompressResult FramedResult =
                CpuCodec.compressFramed(Data, Config.SubBlocks);
            Result.Payload = std::move(FramedResult.Payload);
            Result.Stats = FramedResult.Stats;
          } else {
            Result = CpuCodec.compress(Data);
          }
          const double CompressUs = Model.cpuCompressUs(
              Result.Stats.LiteralBytes, Result.Stats.MatchBytes);
          Micros += CompressUs;
          CompressedChunk &Chunk = Out[I];
          Chunk.LatencyUs = CompressUs;
          Chunk.Stats = Result.Stats;
          if (Result.Payload.size() >= Data.size()) {
            Chunk.StoredRaw = true;
            ++Raw;
            Chunk.Block = encodeBlock(
                BlockMethod::Raw, static_cast<std::uint32_t>(Data.size()),
                Data);
            continue;
          }
          if (Framed) {
            Chunk.Block = encodeBlock(
                BlockMethod::LzFramed,
                static_cast<std::uint32_t>(Data.size()),
                ByteSpan(Result.Payload.data(), Result.Payload.size()));
            continue;
          }
          // Optional entropy stage over the token stream.
          if (Config.EntropyStage) {
            const double HuffUs = Model.Cpu.HuffmanPerByteNs * 1e-3 *
                                  static_cast<double>(Result.Payload.size());
            Micros += HuffUs;
            Chunk.LatencyUs += HuffUs;
            if (auto Entropy = entropyEncodeTokens(ByteSpan(
                    Result.Payload.data(), Result.Payload.size()))) {
              Chunk.Block = encodeBlock(
                  BlockMethod::LzHuff,
                  static_cast<std::uint32_t>(Data.size()),
                  ByteSpan(Entropy->data(), Entropy->size()));
              continue;
            }
          }
          Chunk.Block = encodeBlock(
              Config.CpuMatcher == LzCodec::MatcherKind::HashChain
                  ? BlockMethod::Lz77
                  : BlockMethod::QuickLz,
              static_cast<std::uint32_t>(Data.size()),
              ByteSpan(Result.Payload.data(), Result.Payload.size()));
        }
        Ledger.chargeMicros(Resource::CpuPool, Micros);
        RawFallbacks.fetch_add(Raw, std::memory_order_relaxed);
        if (RawFallbackCounter)
          RawFallbackCounter->add(Raw);
      });
}

std::size_t CompressEngine::compressRangeGpu(
    GpuDevice &Device, std::span<const ChunkView> Chunks,
    std::size_t RangeBegin, std::size_t RangeEnd,
    std::vector<CompressedChunk> &Out) {
  assert(Device.present() && "GPU compression without a modelled GPU");
  assert(Out.size() == Chunks.size() && "Out must be pre-sized");
  const std::size_t SubBatch = Model.Gpu.CompressBatchChunks;
  const std::size_t Scratch = std::min(SubBatch, RangeEnd - RangeBegin);
  if (DeviceResults.size() < Scratch)
    DeviceResults.resize(Scratch);
  std::size_t Fallbacks = 0;

  for (std::size_t Begin = RangeBegin; Begin < RangeEnd; Begin += SubBatch) {
    const std::size_t End = std::min(RangeEnd, Begin + SubBatch);

    // Host -> device: the chunk payloads.
    std::size_t InBytes = 0;
    for (std::size_t I = Begin; I < End; ++I)
      InBytes += Chunks[I].Data.size();
    fault::Status DeviceOk = Device.transferToDevice(InBytes);

    // Run the lane kernels functionally first; their per-lane outcomes
    // determine the kernel's modelled execution time under the SIMT
    // lockstep rule: every chunk costs lanes x its slowest lane
    // (§3.1(2) — branching lanes do not finish early).
    std::size_t OutBytes = 0;
    double ExecMicros = 0.0;
    if (DeviceOk.ok()) {
      for (std::size_t I = Begin; I < End; ++I) {
        LaneOutputs &Lanes = DeviceResults[I - Begin];
        Lanes = LaneCompressor.runLanes(Chunks[I].Data);
        double SlowestLane = 0.0;
        for (const CompressResult &Lane : Lanes.LaneResults)
          SlowestLane = std::max(
              SlowestLane, Model.gpuLaneUs(Lane.Stats.LiteralBytes,
                                           Lane.Stats.MatchBytes));
        ExecMicros +=
            SlowestLane * static_cast<double>(Lanes.LaneResults.size());
      }

      // The lane-parallel kernel over the whole sub-batch ("we design a
      // compression algorithm that computes the chunk compression
      // results at a time", §3.2(2)).
      DeviceOk =
          Device.launchKernel(KernelFamily::Compression, ExecMicros, nullptr);

      // Device -> host: the unrefined per-lane token streams.
      if (DeviceOk.ok()) {
        for (std::size_t I = Begin; I < End; ++I)
          OutBytes += DeviceResults[I - Begin].totalPayloadBytes();
        DeviceOk = Device.transferFromDevice(OutBytes);
      }
    }

    if (!DeviceOk.ok()) {
      // Degraded mode: re-compress this sub-batch on the CPU path.
      // Whatever the device produced is discarded — the output is
      // bit-exact either way, only the modelled cost differs.
      ++Fallbacks;
      compressRangeCpu(Chunks, Begin, End, Out);
      continue;
    }

    // Every chunk in the sub-batch waits for the whole kernel round
    // trip before its CPU refinement can start.
    const double Penalty =
        Device.mixedMode() ? Model.Gpu.MixedKernelPenalty : 1.0;
    const double RoundTripUs = Model.pcieTransferUs(InBytes) +
                               (Model.Gpu.LaunchUs + ExecMicros) * Penalty +
                               Model.pcieTransferUs(OutBytes);

    // CPU post-processing across the pool (§3.2(2)-(3): "the GPU
    // performs compression and the CPU is used for refinement").
    Pool.parallelForSlices(
        Begin, End,
        [&](std::size_t SliceBegin, std::size_t SliceEnd, unsigned) {
          double Micros = 0.0;
          std::uint64_t Raw = 0;
          for (std::size_t I = SliceBegin; I < SliceEnd; ++I) {
            RefinedChunk Refined = GpuLaneCompressor::refine(
                DeviceResults[I - Begin], Chunks[I].Data);
            const double PostUs = Model.cpuPostprocessUs(
                Refined.Block.size() - BlockHeaderSize, Refined.StoredRaw);
            Micros += PostUs;
            Out[I].LatencyUs = RoundTripUs + PostUs;
            if (Refined.StoredRaw)
              ++Raw;
            // Optional entropy stage: part of post-processing here.
            if (Config.EntropyStage && !Refined.StoredRaw) {
              const ByteSpan Tokens(Refined.Block.data() + BlockHeaderSize,
                                    Refined.Block.size() - BlockHeaderSize);
              const double HuffUs =
                  Model.Cpu.HuffmanPerByteNs * 1e-3 *
                  static_cast<double>(Tokens.size());
              Micros += HuffUs;
              Out[I].LatencyUs += HuffUs;
              if (auto Entropy = entropyEncodeTokens(Tokens))
                Refined.Block = encodeBlock(
                    BlockMethod::LzHuff,
                    static_cast<std::uint32_t>(Chunks[I].Data.size()),
                    ByteSpan(Entropy->data(), Entropy->size()));
            }
            Out[I].Block = std::move(Refined.Block);
            Out[I].Stats = Refined.Stats;
            Out[I].StoredRaw = Refined.StoredRaw;
          }
          Ledger.chargeMicros(Resource::CpuPool, Micros);
          RawFallbacks.fetch_add(Raw, std::memory_order_relaxed);
          if (RawFallbackCounter)
            RawFallbackCounter->add(Raw);
        });
  }
  return Fallbacks;
}
