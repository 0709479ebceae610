//===----------------------------------------------------------------------===//
///
/// \file
/// Batched restore pipeline implementation.
///
//===----------------------------------------------------------------------===//

#include "restore/ReadPipeline.h"

#include "compress/ChunkCodec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_map>

using namespace padre;
using namespace padre::restore;

namespace {

/// One decode batch's totals over its chunks: CPU-pool decode µs, and
/// for the device path host planning µs (on the pool), the per-kernel
/// fixed µs (launch or doorbell), kernel execution µs and PCIe bytes in
/// both directions.
struct DecodeTotals {
  double Chunks = 0.0;
  double CpuUs = 0.0;
  double PlanUs = 0.0;
  double KernelFixedUs = 0.0;
  double ExecUs = 0.0;
  double StreamBytes = 0.0;
};

/// Modelled makespans of one batch on each side.
struct DecodeQuote {
  double CpuUs = 0.0;
  double DeviceUs = 0.0;
};

/// Prices \p Batch: the CPU pool runs its decode chunk-parallel; the
/// device path's makespan is the busiest of planning on the pool, the
/// kernels and the DMA (perfect stage overlap, the same first-order
/// model the ledger uses), with one kernel per DecompressBatchChunks.
DecodeQuote quoteDecode(const CostModel &Model, const DecodeTotals &Batch) {
  const double Threads = static_cast<double>(Model.Cpu.Threads);
  const double Kernels =
      std::ceil(Batch.Chunks /
                static_cast<double>(Model.Gpu.DecompressBatchChunks));
  const double GpuBusyUs = Kernels * Batch.KernelFixedUs + Batch.ExecUs;
  const double PcieBusyUs = Kernels * 2.0 * Model.Pcie.PerTransferUs +
                            Batch.StreamBytes /
                                (Model.Pcie.GigabytesPerSec * 1e3);
  return {Batch.CpuUs / Threads,
          std::max(Batch.PlanUs / Threads, std::max(GpuBusyUs, PcieBusyUs))};
}

} // namespace

ReadPipeline::ReadPipeline(ReductionPipeline &Pipeline,
                           const ReadConfig &Config)
    : Pipe(Pipeline), Config(Config), Model(Pipeline.platform().Model) {
  if (this->Config.BatchDepth == 0)
    this->Config.BatchDepth = 1;

  Device = Pipeline.gpuDevice();
  if (!Device && Model.Gpu.Present) {
    // CPU-only *write* mode on a GPU platform: the restore path may
    // still offload, so bring up a device on the shared ledger.
    OwnedDevice = std::make_unique<GpuDevice>(Model, Pipeline.ledger());
    OwnedDevice->setObs(
        obs::ObsSinks{Pipe.config().Trace, Pipe.config().Metrics});
    if (Pipe.config().Faults)
      OwnedDevice->setFaultInjector(Pipe.config().Faults);
    Device = OwnedDevice.get();
  }

  // The probe always runs (cheap cost-model arithmetic): even forced
  // modes report their modelled makespans and the framed ratio delta.
  Probe = probeMode();

  switch (this->Config.Mode) {
  case DecodeMode::Cpu:
    Mode = DecodeMode::Cpu;
    break;
  case DecodeMode::WarpGpu:
    Mode = Device ? DecodeMode::WarpGpu : DecodeMode::Cpu;
    break;
  case DecodeMode::Auto:
    Mode = Probe.Mode;
    break;
  }
  resetMeasurement();

  if (obs::MetricsRegistry *M = Pipe.config().Metrics) {
    ReadLatencyHist = &M->histogram(
        "padre_read_latency_us",
        "Per-read modelled service latency (microseconds)", 1.0, 2.0, 24);
    ReadChunksTotal = &M->counter("padre_read_chunks_total",
                                  "Chunk reads served by the restore path");
    ReadBytesTotal = &M->counter("padre_read_bytes_total",
                                 "Decoded bytes returned to readers");
    SsdChunksTotal = &M->counter("padre_read_ssd_chunks_total",
                                 "Chunks fetched from flash (cache misses)");
    CoalescedRunsTotal =
        &M->counter("padre_read_coalesced_runs_total",
                    "Adjacent-miss runs issued as sequential SSD reads");
    ReadaheadTotal = &M->counter("padre_read_readahead_total",
                                 "Chunks decoded speculatively into the cache");
    DecodeFailTotal =
        &M->counter("padre_read_decode_fail_total",
                    "Chunk reads that failed to decode (corruption)");
    CpuBatchesTotal = &M->counter("padre_read_batches_total{mode=\"cpu\"}",
                                  "Decode batches by executing resource");
    WarpBatchesTotal = &M->counter("padre_read_batches_total{mode=\"warp\"}",
                                   "Decode batches by executing resource");
    DecodeModeGauge =
        &M->gauge("padre_read_decode_mode",
                  "Effective decode mode (0=cpu 2=warp)");
    DecodeModeGauge->set(static_cast<double>(static_cast<unsigned>(Mode)));
    ProbeCpuGauge =
        &M->gauge("padre_read_probe_us{mode=\"cpu\"}",
                  "Construction-probe modelled decode makespan (us)");
    ProbeWarpGauge =
        &M->gauge("padre_read_probe_us{mode=\"warp\"}",
                  "Construction-probe modelled decode makespan (us)");
    ProbeCpuGauge->set(Probe.CpuUs);
    ProbeWarpGauge->set(Probe.WarpUs);
    if (Device)
      GpuFallbackTotal = &M->counter(
          "padre_gpu_fallback_total{family=\"decompression\"}",
          "GPU decode sub-batches re-decoded on the CPU after a device "
          "fault");
  }
}

void ReadPipeline::resetMeasurement() {
  for (unsigned R = 0; R < ResourceCount; ++R)
    BaselineUs[R] = Pipe.ledger().busyMicros(static_cast<Resource>(R));
  ChunksRequested = BytesOut = 0;
  CacheHits = SsdChunks = EncodedBytesIn = 0;
  CoalescedRuns = RandomReads = ReadaheadChunks = 0;
  DecodeFailures = CpuBatches = WarpBatches = FramedChunks = 0;
  LatencyHist = Histogram(20000.0, 2000);
}

bool ReadPipeline::readLocations(std::span<const std::uint64_t> Locations,
                                 std::vector<ByteVector> &Out,
                                 std::vector<ReadFailure> *Failures) {
  // Every batch runs even after a failure: a mid-stream bad chunk must
  // not strand the remaining fetches (the caller may be restoring
  // everything else around a known-lost chunk).
  bool Ok = true;
  for (std::size_t Begin = 0; Begin < Locations.size();
       Begin += Config.BatchDepth) {
    const std::size_t End =
        std::min(Locations.size(), Begin + Config.BatchDepth);
    if (!processBatch(Locations.subspan(Begin, End - Begin), Out, Failures))
      Ok = false;
  }
  return Ok;
}

std::optional<ByteVector>
ReadPipeline::readStream(const StreamRecipe &Recipe) {
  std::vector<ByteVector> Chunks;
  Chunks.reserve(Recipe.ChunkLocations.size());
  if (!readLocations(std::span<const std::uint64_t>(
                         Recipe.ChunkLocations.data(),
                         Recipe.ChunkLocations.size()),
                     Chunks))
    return std::nullopt;
  ByteVector Stream;
  Stream.reserve(Recipe.logicalBytes());
  for (const ByteVector &Chunk : Chunks)
    appendBytes(Stream, ByteSpan(Chunk.data(), Chunk.size()));
  return Stream;
}

void ReadPipeline::noteFailure(std::uint64_t Location) {
  ++DecodeFailures;
  if (DecodeFailTotal)
    DecodeFailTotal->add(1);
  // A corrupt block must not leave a stale good copy behind (the same
  // invariant ReductionPipeline::readChunk enforces).
  if (ChunkCache *Cache = Pipe.readCache())
    Cache->invalidate(Location);
}

bool ReadPipeline::processBatch(std::span<const std::uint64_t> Locations,
                                std::vector<ByteVector> &Out,
                                std::vector<ReadFailure> *Failures) {
  ResourceLedger &Ledger = Pipe.ledger();
  obs::TraceRecorder *Trace = Pipe.config().Trace;
  ChunkCache *Cache = Pipe.readCache();
  const ChunkStore &Store = Pipe.store();

  // The per-request source and latency tables and the warp sub-block
  // tables live in the arena: reset here poisons last batch's
  // allocations and recycles the block. The item table, its location
  // index, the fetch order, each coalesced run and the decode routing
  // vectors still come from the heap on every batch. Allocation stays
  // on this (batch-driving) thread.
  BatchArena.reset();

  const std::size_t Base = Out.size();
  Out.resize(Base + Locations.size());
  ChunksRequested += Locations.size();
  if (ReadChunksTotal)
    ReadChunksTotal->add(Locations.size());

  std::vector<BatchItem> Items;
  Items.reserve(Locations.size());
  std::unordered_map<std::uint64_t, std::size_t> ItemIndex;
  /// Per request: index into Items, or npos for a cache hit.
  constexpr std::size_t CacheHit = ~static_cast<std::size_t>(0);
  std::span<std::size_t> Source =
      BatchArena.allocateFilled<std::size_t>(Locations.size(), CacheHit);
  std::span<double> LatencyUs =
      BatchArena.allocateFilled<double>(Locations.size(), 0.0);

  //===------------------------------------------------------------===//
  // Stage 1: fetch — cache front tier, then coalesced SSD reads.
  //===------------------------------------------------------------===//
  {
    const obs::StageSpan Stage(Trace, Ledger, "restore:fetch");

    for (std::size_t I = 0; I < Locations.size(); ++I) {
      const std::uint64_t Loc = Locations[I];
      if (Cache) {
        if (auto Hit = Cache->get(Loc)) {
          const double CopyUs = Model.Cpu.CacheCopyPerByteNs * 1e-3 *
                                static_cast<double>(Hit->size());
          Ledger.chargeMicros(Resource::CpuPool, CopyUs);
          LatencyUs[I] = CopyUs;
          Out[Base + I] = std::move(*Hit);
          ++CacheHits;
          continue;
        }
      }
      const auto [It, Inserted] = ItemIndex.try_emplace(Loc, Items.size());
      if (Inserted) {
        BatchItem Item;
        Item.Location = Loc;
        Items.push_back(std::move(Item));
      }
      Source[I] = It->second;
    }

    // Resolve encoded blocks; a location absent from the store is a
    // failed read (the recipe/mapping references a chunk GC dropped or
    // that never destaged). The miss is recorded and the rest of the
    // batch proceeds — one lost chunk must not strand its neighbours.
    for (BatchItem &Item : Items) {
      const auto Block = Store.encodedBlock(Item.Location);
      if (!Block) {
        Item.Failed = true;
        Item.Error = fault::ErrorCode::ChunkMissing;
        continue;
      }
      Item.Encoded = *Block;
    }

    // Coalescing: destage writes a batch's unique chunks at adjacent
    // locations, so sorted misses form sequential runs on flash.
    // Missing chunks issue no flash traffic.
    std::vector<std::size_t> Order;
    Order.reserve(Items.size());
    for (std::size_t I = 0; I < Items.size(); ++I)
      if (!Items[I].Failed)
        Order.push_back(I);
    std::sort(Order.begin(), Order.end(),
              [&](std::size_t A, std::size_t B) {
                return Items[A].Location < Items[B].Location;
              });

    const std::size_t MissCount = Order.size();
    SsdChunks += MissCount;
    if (SsdChunksTotal)
      SsdChunksTotal->add(MissCount);

    std::size_t RunBegin = 0;
    while (RunBegin < Order.size()) {
      std::size_t RunEnd = RunBegin + 1;
      while (RunEnd < Order.size() &&
             Items[Order[RunEnd]].Location ==
                 Items[Order[RunEnd - 1]].Location + 1)
        ++RunEnd;
      std::vector<std::size_t> Run(Order.begin() + RunBegin,
                                   Order.begin() + RunEnd);
      RunBegin = RunEnd;

      // Readahead: extend the run with the next store-resident
      // locations (recipe locality: the stream's following chunks)
      // that are neither cached nor already in this batch. They ride
      // the same sequential read and decode into the cache only.
      if (Cache && Config.ReadaheadChunks > 0) {
        std::uint64_t Next = Items[Run.back()].Location + 1;
        for (std::size_t A = 0; A < Config.ReadaheadChunks; ++A, ++Next) {
          if (ItemIndex.count(Next) || Cache->contains(Next))
            break;
          const auto Block = Store.encodedBlock(Next);
          if (!Block)
            break;
          BatchItem Item;
          Item.Location = Next;
          Item.Encoded = *Block;
          Item.Readahead = true;
          ItemIndex.emplace(Next, Items.size());
          Run.push_back(Items.size());
          Items.push_back(std::move(Item));
          ++ReadaheadChunks;
          if (ReadaheadTotal)
            ReadaheadTotal->add(1);
        }
      }

      // Charge the run: one sequential stream, or a random 4K read
      // for a singleton. A flash command that exhausts its retry
      // budget fails every chunk riding it — the other runs still
      // complete (independent commands).
      std::uint64_t RunBytes = 0;
      for (std::size_t Idx : Run)
        RunBytes += Items[Idx].Encoded.size();
      EncodedBytesIn += RunBytes;
      double ShareUs;
      fault::Status IoStatus;
      if (Run.size() > 1) {
        IoStatus = Pipe.ssd().readSequential(RunBytes);
        ++CoalescedRuns;
        if (CoalescedRunsTotal)
          CoalescedRunsTotal->add(1);
        ShareUs = Model.ssdSeqReadUs(RunBytes) /
                  static_cast<double>(Run.size());
      } else {
        IoStatus = Pipe.ssd().readRandom4K(1);
        ++RandomReads;
        ShareUs = Model.Ssd.RandRead4KUs;
      }
      for (std::size_t Idx : Run) {
        Items[Idx].FetchShareUs = ShareUs;
        if (!IoStatus.ok()) {
          Items[Idx].Failed = true;
          Items[Idx].Error = fault::ErrorCode::SsdReadError;
        }
      }
    }
  }

  //===------------------------------------------------------------===//
  // Stage 2: decode — parse headers, then CPU pool or warp kernel.
  // Fetch-failed items skip the stage; decode failures are per-item.
  //===------------------------------------------------------------===//
  {
    const obs::StageSpan Stage(Trace, Ledger, "restore:decode");

    std::vector<BatchItem *> CpuItems, WarpItems;
    for (BatchItem &Item : Items) {
      if (Item.Failed)
        continue;
      const auto View = decodeBlock(Item.Encoded);
      if (!View) {
        Item.Failed = true;
        Item.Error = fault::ErrorCode::ChunkCorrupt;
        continue;
      }
      Item.Method = View->Method;
      Item.OriginalSize = View->OriginalSize;
      Item.Payload = View->Payload;
      if (Item.Method == BlockMethod::LzFramed)
        ++FramedChunks;
      if (Mode == DecodeMode::WarpGpu &&
          GpuWarpDecompressor::accepts(Item.Method))
        WarpItems.push_back(&Item);
      else
        CpuItems.push_back(&Item);
    }

    if (!CpuItems.empty())
      decodeCpu(CpuItems);
    if (!WarpItems.empty())
      decodeWarp(WarpItems);

    // Fill the cache: every successfully decoded chunk, readahead
    // included — the cache as front tier is the whole point of
    // fetching ahead. Failed items must NOT pollute the cache: an
    // empty/garbage buffer under a live location would satisfy later
    // reads with wrong data.
    if (Cache)
      for (BatchItem &Item : Items)
        if (!Item.Failed)
          Cache->put(Item.Location, Item.Decoded);
  }

  // Failure accounting: count + invalidate per failed item; only
  // *requested* (non-readahead) failures surface to the caller — a
  // speculative readahead miss is not the reader's problem.
  bool Ok = true;
  for (const BatchItem &Item : Items) {
    if (!Item.Failed)
      continue;
    noteFailure(Item.Location);
    if (!Item.Readahead) {
      Ok = false;
      if (Failures)
        Failures->push_back(ReadFailure{Item.Location, Item.Error});
    }
  }

  // Deliver and account. No ledger charges below — the stage spans
  // above already tile every lane. Failed requests deliver an empty
  // buffer (their slot stays default-constructed).
  for (std::size_t I = 0; I < Locations.size(); ++I) {
    if (Source[I] != CacheHit) {
      const BatchItem &Item = Items[Source[I]];
      LatencyUs[I] = Item.FetchShareUs + Item.DecodeUs;
      if (!Item.Failed)
        Out[Base + I] = Item.Decoded;
    }
    BytesOut += Out[Base + I].size();
    LatencyHist.add(LatencyUs[I]);
    if (ReadLatencyHist)
      ReadLatencyHist->observe(LatencyUs[I]);
  }
  if (ReadBytesTotal) {
    std::uint64_t Delivered = 0;
    for (std::size_t I = 0; I < Locations.size(); ++I)
      Delivered += Out[Base + I].size();
    ReadBytesTotal->add(Delivered);
  }
  return Ok;
}

void ReadPipeline::decodeCpu(const std::vector<BatchItem *> &Items) {
  ++CpuBatches;
  if (CpuBatchesTotal)
    CpuBatchesTotal->add(1);
  // Chunk-parallel across the pool, the read-side mirror of
  // CompressEngine::compressRangeCpu: each slice decodes its chunks
  // functionally and charges its accumulated modelled time once.
  Pipe.pool().parallelForSlices(
      0, Items.size(), [&](std::size_t Begin, std::size_t End, unsigned) {
        double Micros = 0.0;
        for (std::size_t I = Begin; I < End; ++I) {
          BatchItem &Item = *Items[I];
          double Us = Model.Cpu.DecompressSetupUs;
          switch (Item.Method) {
          case BlockMethod::Raw:
            // No token decode — a DRAM copy out of the block.
            Us += Model.Cpu.CacheCopyPerByteNs * 1e-3 *
                  static_cast<double>(Item.OriginalSize);
            break;
          case BlockMethod::LzHuff:
            // Serial entropy stage over the payload, then the LZ pass.
            Us += (Model.Cpu.HuffmanPerByteNs * 1e-3 *
                   static_cast<double>(Item.Payload.size())) +
                  (Model.Cpu.DecompressPerByteNs * 1e-3 *
                   static_cast<double>(Item.OriginalSize));
            break;
          default:
            Us += Model.Cpu.DecompressPerByteNs * 1e-3 *
                  static_cast<double>(Item.OriginalSize);
            break;
          }
          Micros += Us;
          Item.DecodeUs += Us;
          const BlockView View{Item.Method, Item.OriginalSize,
                               Item.Payload};
          Item.Decoded.clear();
          Item.Decoded.reserve(Item.OriginalSize);
          if (!decodeChunkPayload(View, Item.Decoded)) {
            Item.Failed = true;
            Item.Error = fault::ErrorCode::DecodeError;
          }
        }
        Pipe.ledger().chargeMicros(Resource::CpuPool, Micros);
      });
}

void ReadPipeline::decodeWarp(const std::vector<BatchItem *> &Items) {
  assert(Device && "Warp decode without device");
  const std::size_t SubBatch = Model.Gpu.DecompressBatchChunks;

  for (std::size_t Begin = 0; Begin < Items.size(); Begin += SubBatch) {
    const std::size_t End = std::min(Items.size(), Begin + SubBatch);
    ++WarpBatches;
    if (WarpBatchesTotal)
      WarpBatchesTotal->add(1);

    // Planning never walks tokens: an O(sub-blocks) frame-header parse,
    // or one whole-chunk sub-block when unframed, at FramePlanUs per
    // chunk. Cheap enough to run serially on the batch thread — which
    // is also what the arena's single-owner contract wants (sub-block
    // tables are arena-backed).
    double PlanMicros = 0.0;
    for (std::size_t I = Begin; I < End; ++I) {
      BatchItem &Item = *Items[I];
      PlanMicros += Model.Cpu.FramePlanUs;
      Item.DecodeUs += Model.Cpu.FramePlanUs;
      const std::size_t TableSize =
          Item.Method == BlockMethod::LzFramed ? MaxSubBlocks : 1;
      Item.WarpPlan = GpuWarpDecompressor::plan(
          Item.Method, Item.Payload, Item.OriginalSize,
          BatchArena.allocateSpan<WarpSubBlock>(TableSize));
      if (!Item.WarpPlan) {
        Item.Failed = true;
        Item.Error = fault::ErrorCode::DecodeError;
      }
    }
    Pipe.ledger().chargeMicros(Resource::CpuPool, PlanMicros);

    // Functional kernel body first: the charge inputs (per-sub-block
    // token/divergence/overlap counts) exist only after the decode —
    // the same idiom as the write-side kernels. A chunk whose token
    // stream is damaged fails here, is dropped from the plan (it is
    // malformed on any backend — no CPU retry), and issues no device
    // traffic.
    double ExecMicros = 0.0;
    std::size_t InBytes = 0, OutBytes = 0, Planned = 0;
    for (std::size_t I = Begin; I < End; ++I) {
      BatchItem &Item = *Items[I];
      if (!Item.WarpPlan)
        continue;
      Item.Decoded.clear();
      Item.Decoded.reserve(Item.OriginalSize);
      if (!GpuWarpDecompressor::runWarps(Item.Payload, *Item.WarpPlan,
                                         Item.Decoded)) {
        Item.Failed = true;
        Item.Error = fault::ErrorCode::DecodeError;
        Item.WarpPlan.reset();
        continue;
      }
      for (const WarpSubBlock &Sub : Item.WarpPlan->SubBlocks)
        ExecMicros +=
            Model.gpuWarpSubBlockUs(Sub.Tokens, Sub.Seg.OutputBytes,
                                    Sub.TokenSwitches, Sub.OverlapMatches);
      InBytes += Item.Payload.size();
      OutBytes += Item.OriginalSize;
      ++Planned;
    }
    if (Planned == 0)
      continue; // whole sub-batch malformed: no device traffic

    // Persistent-kernel economics: the first sub-batch pays the full
    // LaunchUs; once resident, later sub-batches only ring the
    // work-queue doorbell. Any device fault evicts the kernel.
    const bool Resident = WarpKernelResident;
    const double FixedUs =
        Resident ? Model.Gpu.WarpDoorbellUs : Model.Gpu.LaunchUs;

    fault::Status DeviceOk = Device->transferToDevice(InBytes);
    if (DeviceOk.ok())
      DeviceOk = Resident
                     ? Device->dispatchResident(KernelFamily::Decompression,
                                                Model.Gpu.WarpDoorbellUs,
                                                ExecMicros, nullptr)
                     : Device->launchKernel(KernelFamily::Decompression,
                                            ExecMicros, nullptr);
    if (DeviceOk.ok())
      DeviceOk = Device->transferFromDevice(OutBytes);

    // A fault evicts the kernel: the next warp sub-batch relaunches.
    WarpKernelResident = DeviceOk.ok();
    if (!DeviceOk.ok()) {
      // Degraded mode: re-decode the sub-batch's planned chunks on the
      // CPU path. The body's functional results stand in for data the
      // fault made untrustworthy (including DMA-corrupt output), so
      // they are discarded: the CPU decode is authoritative and the
      // delivered bytes are bit-exact either way; only the modelled
      // cost differs.
      ++GpuDecodeFallbacks;
      if (GpuFallbackTotal)
        GpuFallbackTotal->add(1);
      std::vector<BatchItem *> Retry;
      Retry.reserve(Planned);
      for (std::size_t I = Begin; I < End; ++I) {
        BatchItem &Item = *Items[I];
        if (!Item.WarpPlan)
          continue;
        Item.Failed = false;
        Item.Error = fault::ErrorCode::Ok;
        Item.Decoded.clear();
        Retry.push_back(&Item);
      }
      decodeCpu(Retry);
      continue;
    }

    // Every chunk in the sub-batch waits for the whole round trip —
    // PCIe in, the kernel (launch or doorbell plus execution) under
    // the mixed-mode penalty, PCIe out — the same latency semantics as
    // the write side's GPU batches.
    const double Penalty =
        Device->mixedMode() ? Model.Gpu.MixedKernelPenalty : 1.0;
    const double RoundTripUs = Model.pcieTransferUs(InBytes) +
                               (FixedUs + ExecMicros) * Penalty +
                               Model.pcieTransferUs(OutBytes);
    for (std::size_t I = Begin; I < End; ++I)
      if (Items[I]->WarpPlan)
        Items[I]->DecodeUs += RoundTripUs;
  }
}

ReadPipeline::ProbeResult ReadPipeline::probeMode() const {
  ProbeResult Result;

  // Synthetic ~2:1-compressible chunk: alternate a repeating motif
  // with pseudo-random noise so the token stream mixes matches and
  // literals (the divergence-relevant shape), then price both decode
  // paths at BatchDepth. Everything here is arithmetic on the cost
  // model — nothing is charged to the ledger.
  const std::size_t ChunkSize =
      std::min(Pipe.config().ChunkSize, LzCodec::MaxInputSize);
  ByteVector Chunk(ChunkSize);
  std::uint32_t State = 0x9e3779b9u;
  for (std::size_t I = 0; I < ChunkSize; ++I) {
    if ((I / 64) % 2 == 0) {
      Chunk[I] = static_cast<std::uint8_t>(I % 64);
    } else {
      State = State * 1664525u + 1013904223u;
      Chunk[I] = static_cast<std::uint8_t>(State >> 24);
    }
  }
  const LzCodec Codec(LzCodec::MatcherKind::SingleProbe);
  const CompressResult Probe =
      Codec.compress(ByteSpan(Chunk.data(), Chunk.size()));

  const double Depth = static_cast<double>(Config.BatchDepth);
  const double PayloadBytes = static_cast<double>(Probe.Payload.size());

  // CPU pool: chunk-parallel, bottlenecked by the pool itself.
  DecodeTotals Batch;
  Batch.Chunks = Depth;
  Batch.CpuUs = Depth * (Model.Cpu.DecompressSetupUs +
                         Model.Cpu.DecompressPerByteNs * 1e-3 *
                             static_cast<double>(ChunkSize));
  Result.CpuUs = quoteDecode(Model, Batch).CpuUs;

  // The framed format's measured ratio cost on the probe chunk (the
  // history reset + header overhead the two-level scheme trades for
  // warp parallelism), at the default write-side sub-block count.
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Chunk.data(), Chunk.size()), 4);
  if (!Probe.Payload.empty())
    Result.RatioDeltaPct =
        100.0 *
        (static_cast<double>(Framed.Payload.size()) - PayloadBytes) /
        PayloadBytes;

  if (!Device || Probe.Payload.size() >= Chunk.size())
    return Result; // no device / store-raw data never reaches a kernel

  // Warp-GPU path over the framed probe: O(sub-blocks) planning,
  // per-warp (not lockstep) execution, and steady-state persistent
  // dispatch — each sub-batch pays the doorbell, not LaunchUs (the
  // one-time launch amortizes to nothing over a stream of batches).
  WarpSubBlock Table[MaxSubBlocks];
  auto WarpPlan = GpuWarpDecompressor::plan(
      BlockMethod::LzFramed,
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()), ChunkSize,
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  if (WarpPlan) {
    ByteVector Scratch;
    if (GpuWarpDecompressor::runWarps(
            ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
            *WarpPlan, Scratch)) {
      double ChunkExecUs = 0.0;
      for (const WarpSubBlock &Sub : WarpPlan->SubBlocks)
        ChunkExecUs +=
            Model.gpuWarpSubBlockUs(Sub.Tokens, Sub.Seg.OutputBytes,
                                    Sub.TokenSwitches, Sub.OverlapMatches);
      Batch.PlanUs = Depth * Model.Cpu.FramePlanUs;
      Batch.KernelFixedUs = Model.Gpu.WarpDoorbellUs;
      Batch.ExecUs = Depth * ChunkExecUs;
      Batch.StreamBytes =
          Depth * (static_cast<double>(Framed.Payload.size()) +
                   static_cast<double>(ChunkSize));
      Result.WarpUs = quoteDecode(Model, Batch).DeviceUs;
    }
  }

  // Auto resolves to the cheaper modelled path (0 = unavailable).
  Result.Mode = Result.WarpUs > 0.0 && Result.WarpUs < Result.CpuUs
                    ? DecodeMode::WarpGpu
                    : DecodeMode::Cpu;
  return Result;
}

ReadReport ReadPipeline::report() const {
  ReadReport Report;
  Report.ChunksRequested = ChunksRequested;
  Report.BytesOut = BytesOut;
  Report.CacheHits = CacheHits;
  Report.SsdChunks = SsdChunks;
  Report.EncodedBytesIn = EncodedBytesIn;
  Report.CoalescedRuns = CoalescedRuns;
  Report.RandomReads = RandomReads;
  Report.ReadaheadChunks = ReadaheadChunks;
  Report.DecodeFailures = DecodeFailures;
  Report.CpuBatches = CpuBatches;
  Report.WarpBatches = WarpBatches;
  Report.FramedChunks = FramedChunks;
  Report.Mode = Mode;
  Report.ProbeCpuUs = Probe.CpuUs;
  Report.ProbeWarpUs = Probe.WarpUs;
  Report.SubBlockRatioDeltaPct = Probe.RatioDeltaPct;

  // Busy-time deltas against the measurement baseline. The makespan is
  // computed over the deltas (the shared ledger cannot subtract a
  // baseline itself) and spans ALL resources — reads wait on flash.
  const ResourceLedger &Ledger = Pipe.ledger();
  const double Threads = static_cast<double>(Model.Cpu.Threads);
  double MaxNormUs = 0.0;
  Report.Bottleneck = Resource::CpuPool;
  for (unsigned R = 0; R < ResourceCount; ++R) {
    const Resource Lane = static_cast<Resource>(R);
    const double DeltaUs = Ledger.busyMicros(Lane) - BaselineUs[R];
    const double NormUs =
        Lane == Resource::CpuPool ? DeltaUs / Threads : DeltaUs;
    if (NormUs > MaxNormUs) {
      MaxNormUs = NormUs;
      Report.Bottleneck = Lane;
    }
    switch (Lane) {
    case Resource::CpuPool:
      Report.CpuBusySec = DeltaUs * 1e-6;
      break;
    case Resource::Gpu:
      Report.GpuBusySec = DeltaUs * 1e-6;
      break;
    case Resource::Pcie:
      Report.PcieBusySec = DeltaUs * 1e-6;
      break;
    case Resource::Ssd:
      Report.SsdBusySec = DeltaUs * 1e-6;
      break;
    case Resource::IndexLock:
      break;
    }
  }
  Report.MakespanSec = MaxNormUs * 1e-6;
  if (Report.MakespanSec > 0.0) {
    Report.ThroughputMBps =
        static_cast<double>(BytesOut) / Report.MakespanSec / 1e6;
    Report.ThroughputIops =
        static_cast<double>(ChunksRequested) / Report.MakespanSec;
  }
  Report.LatencyP50Us = LatencyHist.percentile(50.0);
  Report.LatencyP95Us = LatencyHist.percentile(95.0);
  Report.LatencyP99Us = LatencyHist.percentile(99.0);
  return Report;
}
