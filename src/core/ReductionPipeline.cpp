//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction pipeline implementation.
///
//===----------------------------------------------------------------------===//

#include "core/ReductionPipeline.h"

#include "backend/AutoSplitter.h"
#include "compress/Block.h"

#include <cassert>

using namespace padre;

ReductionPipeline::~ReductionPipeline() = default;

ReductionPipeline::ReductionPipeline(const Platform &Platform,
                                     const PipelineConfig &Config)
    : Plat(Platform), Config(Config), Pool(Platform.Model.Cpu.Threads),
      Ssd(Platform.Model, Ledger) {
  assert(isValidCostModel(Platform.Model) && "Invalid cost model");

  switch (Config.Chunking) {
  case ChunkingMode::Fixed:
    StreamChunker = std::make_unique<FixedChunker>(Config.ChunkSize);
    break;
  case ChunkingMode::Rabin: {
    RabinConfig Cdc;
    Cdc.AvgSize = Config.ChunkSize;
    Cdc.MinSize = Config.ChunkSize / 2;
    Cdc.MaxSize = std::min<std::size_t>(Config.ChunkSize * 4, 65536);
    StreamChunker = std::make_unique<RabinChunker>(Cdc);
    break;
  }
  case ChunkingMode::FastCdc: {
    FastCdcConfig Cdc;
    Cdc.AvgSize = Config.ChunkSize;
    Cdc.MinSize = Config.ChunkSize / 2;
    Cdc.MaxSize = std::min<std::size_t>(Config.ChunkSize * 4, 65536);
    StreamChunker = std::make_unique<FastCdcChunker>(Cdc);
    break;
  }
  }

  // The compress splitter may route to the device even when the mode
  // leaves compression on the CPU (Auto or a Fixed device share).
  const bool WantsGpu =
      modeOffloadsDedup(Config.Mode) || modeOffloadsCompression(Config.Mode) ||
      (Config.CompressEnabled &&
       backend::AutoSplitter::needsDevice(Config.Backend, Config.Mode));
  assert((!WantsGpu || Platform.Model.Gpu.Present) &&
         "GPU mode selected on a GPU-less platform");
  if (Platform.Model.Gpu.Present && WantsGpu) {
    Device = std::make_unique<GpuDevice>(Platform.Model, Ledger);
    Device->setMixedMode(Config.Mode == PipelineMode::GpuBoth);
  }

  if (Config.Ftl)
    Ssd.enableFtl(*Config.Ftl);

  const obs::ObsSinks Obs{Config.Trace, Config.Metrics};
  Ssd.setObs(Obs);
  if (Device)
    Device->setObs(Obs);
  if (Config.Faults) {
    Ssd.setFaultInjector(Config.Faults);
    if (Device)
      Device->setFaultInjector(Config.Faults);
    Config.Faults->setObs(Config.Metrics);
  }

  DedupEngineConfig DedupConfig = Config.Dedup;
  DedupConfig.GpuOffload = modeOffloadsDedup(Config.Mode);
  if (Config.DedupEnabled)
    Dedup = std::make_unique<DedupEngine>(Platform.Model, Ledger, Pool,
                                          Ssd, Device.get(), DedupConfig,
                                          Obs);

  if (Config.ReadCacheBytes != 0) {
    Cache = std::make_unique<ChunkCache>(Config.ReadCacheBytes);
    Cache->setObs(Config.Metrics);
  }

  Sched = std::make_unique<BatchScheduler>(
      Ledger, Platform.Model.Cpu.Threads,
      std::max<std::size_t>(1, Config.PipelineDepth), Device.get(), Ssd,
      Config.Trace);

  if (Config.CompressEnabled) {
    backend::AutoSplitter::Setup Setup{Platform.Model, Ledger,
                                       Pool,           *Sched,
                                       Device.get(),   Config.Compress,
                                       Obs,            Config.Faults,
                                       Config.Backend, Config.Mode};
    Splitter = std::make_unique<backend::AutoSplitter>(Setup);
  }

  if (Config.Metrics) {
    obs::MetricsRegistry &M = *Config.Metrics;
    ChunkLatencyHist = &M.histogram(
        "padre_chunk_latency_us",
        "Per-chunk modelled service latency (microseconds)",
        1.0, 2.0, 24);
    BatchChunksHist = &M.histogram(
        "padre_batch_chunks", "Chunks per pipeline batch (occupancy)",
        1.0, 2.0, 16);
    ChunksTotal = &M.counter("padre_chunks_total",
                             "Logical chunks ingested by the pipeline");
    LogicalBytesTotal =
        &M.counter("padre_logical_bytes_total", "Logical bytes ingested");
    UniqueTotal = &M.counter("padre_unique_chunks_total",
                             "Chunks found unique (stored)");
    DupBufferTotal = &M.counter("padre_dup_chunks_total{tier=\"buffer\"}",
                                "Duplicate chunks by resolving tier");
    DupTreeTotal = &M.counter("padre_dup_chunks_total{tier=\"tree\"}",
                              "Duplicate chunks by resolving tier");
    DupGpuTotal = &M.counter("padre_dup_chunks_total{tier=\"gpu\"}",
                             "Duplicate chunks by resolving tier");
    StoredBytesTotal = &M.counter("padre_stored_bytes_total",
                                  "Bytes destaged after reduction");
    VerifyMismatchTotal =
        &M.counter("padre_verify_mismatch_total",
                   "Digest matches demoted to unique by verify-on-dedup");
    DecodeFailTotal =
        &M.counter("padre_read_decode_fail_total",
                   "Chunk reads that failed to decode (corruption)");
    ScrubRepairedTotal =
        &M.counter("padre_scrub_repair_total{outcome=\"repaired\"}",
                   "Scrubbed chunks repaired from a verified copy");
    ScrubLostTotal =
        &M.counter("padre_scrub_repair_total{outcome=\"lost\"}",
                   "Scrubbed chunks with no trusted repair source");
  }
}

fault::Status ReductionPipeline::write(ByteSpan Stream,
                                       std::vector<ChunkWriteInfo> *InfoOut) {
  std::vector<ChunkView> Chunks;
  StreamChunker->split(Stream, LogicalBytes, Chunks);
  fault::Status First;
  for (std::size_t Begin = 0; Begin < Chunks.size();
       Begin += Config.BatchChunks) {
    const std::size_t End =
        std::min(Chunks.size(), Begin + Config.BatchChunks);
    const fault::Status St =
        processBatch(std::span<const ChunkView>(Chunks.data() + Begin,
                                                End - Begin),
                     InfoOut, /*Raw=*/false);
    if (!St.ok() && First.ok())
      First = St;
  }
  return First;
}

fault::Status
ReductionPipeline::writeRaw(ByteSpan Stream,
                            std::vector<ChunkWriteInfo> *InfoOut) {
  std::vector<ChunkView> Chunks;
  StreamChunker->split(Stream, LogicalBytes, Chunks);
  fault::Status First;
  for (std::size_t Begin = 0; Begin < Chunks.size();
       Begin += Config.BatchChunks) {
    const std::size_t End =
        std::min(Chunks.size(), Begin + Config.BatchChunks);
    const fault::Status St =
        processBatch(std::span<const ChunkView>(Chunks.data() + Begin,
                                                End - Begin),
                     InfoOut, /*Raw=*/true);
    if (!St.ok() && First.ok())
      First = St;
  }
  return First;
}

fault::Status
ReductionPipeline::processBatch(std::span<const ChunkView> Chunks,
                                std::vector<ChunkWriteInfo> *InfoOut,
                                bool Raw) {
  const std::size_t Count = Chunks.size();
  if (BatchChunksHist)
    BatchChunksHist->observe(static_cast<double>(Count));
  // Report-counter snapshots: the batch deltas feed the metric
  // counters at the end of the function.
  const std::uint64_t PrevUnique = UniqueChunks;
  const std::uint64_t PrevDupBuffer = DupFromBuffer;
  const std::uint64_t PrevDupTree = DupFromTree;
  const std::uint64_t PrevDupGpu = DupFromGpu;
  const std::uint64_t PrevMismatches = VerifyMismatches;
  const std::uint64_t PrevStored = StoredBytes;
  const std::uint64_t PrevLogicalBytes = LogicalBytes;

  // Admit the batch into the scheduler's in-flight window. Stages
  // still execute serially on the host (bit-exact results at every
  // depth); the brackets capture what each stage charges and replay it
  // onto the dependency-aware timeline.
  Sched->beginBatch();
  Sched->beginStage(BatchScheduler::Stage::Dedup);

  // Request-path fixed costs and endurance intent.
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "chunk");
    double OverheadMicros = 0.0;
    std::uint64_t BatchBytes = 0;
    // CDC scans every byte through a rolling hash; fixed chunking is a
    // pointer computation (the 40x factor is the gear-hash cost).
    const double ChunkingPerByteNs =
        Config.Chunking == ChunkingMode::Fixed
            ? Plat.Model.Cpu.ChunkingPerByteNs
            : Plat.Model.Cpu.ChunkingPerByteNs * 40.0;
    for (const ChunkView &Chunk : Chunks) {
      OverheadMicros += Plat.Model.Cpu.RequestOverheadUs +
                        ChunkingPerByteNs * 1e-3 *
                            static_cast<double>(Chunk.Data.size());
      BatchBytes += Chunk.Data.size();
    }
    Ledger.chargeMicros(Resource::CpuPool, OverheadMicros);
    if (!InternalWrites)
      Ssd.noteHostWrite(BatchBytes);
  }

  // Stage 1: deduplication (Fig. 1 upper half). Batch-scoped scratch
  // lives in the arena — reclaimed (and poisoned) wholesale here, so a
  // steady-state batch makes no heap calls for these arrays.
  BatchArena.reset();
  std::span<std::uint64_t> NewLocations =
      BatchArena.allocateSpan<std::uint64_t>(Count);
  for (std::size_t I = 0; I < Count; ++I)
    NewLocations[I] = NextLocation + I;

  std::vector<DedupItem> Items;
  fault::Status BatchStatus;
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "dedup");
    if (Dedup && !Raw) {
      BatchStatus = Dedup->processBatch(Chunks, NewLocations, Items);
    } else {
      // Dedup disabled (compression-only benchmarks) or a raw pass-
      // through write: every chunk is treated as unique. Raw writes
      // still fingerprint (the background reducer needs the digests).
      Items.resize(Count);
      for (std::size_t I = 0; I < Count; ++I) {
        Items[I].Outcome = LookupOutcome::Unique;
        Items[I].Location = NewLocations[I];
        if (Raw) {
          Items[I].Fp = Fingerprint::ofData(Chunks[I].Data);
          Ledger.chargeMicros(Resource::CpuPool,
                              Plat.Model.cpuHashUs(Chunks[I].Data.size()));
          Items[I].LatencyUs =
              Plat.Model.cpuHashUs(Chunks[I].Data.size());
        }
      }
    }
  }
  NextLocation += Count;

  // Verify-on-dedup: byte-compare every digest match before sharing
  // the chunk; a mismatch (collision or latent corruption) is demoted
  // to unique. A duplicate of a chunk from *this* batch compares
  // against the in-flight source (it has not been destaged yet, so
  // only a memcmp is charged); older chunks are read back from the
  // store.
  if (Config.VerifyDuplicates) {
    const obs::StageSpan Stage(Config.Trace, Ledger, "verify");
    const std::uint64_t BatchBase = NextLocation - Count;
    for (std::size_t I = 0; I < Count; ++I) {
      if (Items[I].Outcome == LookupOutcome::Unique)
        continue;
      bool Matches;
      if (Items[I].Location >= BatchBase) {
        const std::size_t Source =
            static_cast<std::size_t>(Items[I].Location - BatchBase);
        assert(Source < I && "Duplicate precedes its source");
        Ledger.chargeMicros(Resource::CpuPool,
                            Plat.Model.Cpu.VerifyPerByteNs * 1e-3 *
                                static_cast<double>(Chunks[I].Data.size()));
        Matches = Chunks[Source].Data.size() == Chunks[I].Data.size() &&
                  std::equal(Chunks[Source].Data.begin(),
                             Chunks[Source].Data.end(),
                             Chunks[I].Data.begin());
      } else {
        Ssd.readRandom4K(1);
        // Decompression is only charged when the stored block actually
        // is compressed — a raw-stored block (incompressible data, or
        // compression disabled) costs just the byte compare.
        double PerByteNs = Plat.Model.Cpu.VerifyPerByteNs;
        if (const auto Encoded = Store.encodedBlock(Items[I].Location);
            Encoded && Encoded->size() > 2 &&
            static_cast<BlockMethod>((*Encoded)[2]) != BlockMethod::Raw)
          PerByteNs += Plat.Model.Cpu.DecompressPerByteNs;
        Ledger.chargeMicros(Resource::CpuPool,
                            PerByteNs * 1e-3 *
                                static_cast<double>(Chunks[I].Data.size()));
        const auto Stored = Store.readChunk(Items[I].Location);
        Matches = Stored && Stored->size() == Chunks[I].Data.size() &&
                  std::equal(Stored->begin(), Stored->end(),
                             Chunks[I].Data.begin());
      }
      if (Matches)
        continue;
      ++VerifyMismatches;
      Items[I].Outcome = LookupOutcome::Unique;
      Items[I].Location = NewLocations[I];
    }
  }

  Sched->endStage(BatchScheduler::Stage::Dedup);

  // Partition into unique chunks (to compress + destage) and
  // duplicates (recipe-only). Capacity Count covers the all-unique
  // worst case; UniqueCount tracks the live prefix.
  std::span<ChunkView> UniqueViewsStorage =
      BatchArena.allocateSpan<ChunkView>(Count);
  std::span<std::size_t> UniqueIndices =
      BatchArena.allocateSpan<std::size_t>(Count);
  std::size_t UniqueCount = 0;
  for (std::size_t I = 0; I < Count; ++I) {
    Recipe.ChunkLocations.push_back(Items[I].Location);
    Recipe.ChunkSizes.push_back(
        static_cast<std::uint32_t>(Chunks[I].Data.size()));
    if (InfoOut)
      InfoOut->push_back(ChunkWriteInfo{
          Items[I].Location, Items[I].Fp, Items[I].Outcome,
          static_cast<std::uint32_t>(Chunks[I].Data.size())});
    ++LogicalChunks;
    LogicalBytes += Chunks[I].Data.size();
    switch (Items[I].Outcome) {
    case LookupOutcome::Unique:
      ++UniqueChunks;
      UniqueBytes += Chunks[I].Data.size();
      UniqueViewsStorage[UniqueCount] = Chunks[I];
      UniqueIndices[UniqueCount] = I;
      ++UniqueCount;
      break;
    case LookupOutcome::DupBuffer:
      ++DupChunks;
      ++DupFromBuffer;
      break;
    case LookupOutcome::DupTree:
      ++DupChunks;
      ++DupFromTree;
      break;
    case LookupOutcome::DupGpu:
      ++DupChunks;
      ++DupFromGpu;
      break;
    }
  }

  const std::span<const ChunkView> UniqueViews =
      UniqueViewsStorage.first(UniqueCount);

  // Stage 2: compression of unique chunks (Fig. 1 lower half). The
  // splitter partitions the batch across the backends and replays its
  // own per-slice timeline; raw writes (and CompressEnabled = false)
  // store every chunk raw and close the stage with no slices.
  std::vector<CompressedChunk> Compressed;
  Sched->beginStage(BatchScheduler::Stage::Compress);
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "compress");
    if (Splitter && !Raw) {
      Splitter->runCompressStage(UniqueViews, Compressed);
    } else {
      Compressed.resize(UniqueViews.size());
      for (std::size_t I = 0; I < UniqueViews.size(); ++I) {
        const ByteSpan Data = UniqueViews[I].Data;
        Compressed[I].StoredRaw = true;
        Compressed[I].Block = encodeBlock(
            BlockMethod::Raw, static_cast<std::uint32_t>(Data.size()),
            Data);
      }
      Sched->endStageCompressSliced({});
    }
  }

  // Stage 3: destage — one coalesced sequential write per batch. With
  // the FTL enabled the same stream also carries the per-chunk extent
  // layout so the device can track each chunk's pages.
  std::uint64_t DestageBytes = 0;
  std::vector<SsdModel::ChunkExtent> DestageExtents;
  if (Ssd.ftlEnabled())
    DestageExtents.reserve(UniqueViews.size());
  Sched->beginStage(BatchScheduler::Stage::Destage);
  {
    const obs::StageSpan Stage(Config.Trace, Ledger, "destage");
    for (std::size_t I = 0; I < UniqueViews.size(); ++I) {
      const std::uint64_t Location = Items[UniqueIndices[I]].Location;
      DestageBytes += Compressed[I].Block.size();
      StoredBytes += Compressed[I].Block.size();
      if (Ssd.ftlEnabled())
        DestageExtents.push_back({Location, Compressed[I].Block.size()});
      // Injected payload corruption: flip one bit in the encoded block
      // on its way to the store. The block's CRC no longer matches, so
      // the read path (or scrub) reports ChunkCorrupt.
      if (Config.Faults) {
        if (const auto Fault =
                Config.Faults->sample(fault::FaultSite::Destage)) {
          ByteVector &Block = Compressed[I].Block;
          if (Block.size() > BlockHeaderSize) {
            const std::size_t Offset =
                BlockHeaderSize +
                static_cast<std::size_t>(
                    Fault->RandomBits % (Block.size() - BlockHeaderSize));
            Block[Offset] ^= static_cast<std::uint8_t>(
                1u << ((Fault->RandomBits >> 32) & 7u));
          }
        }
      }
      Store.put(Location, std::move(Compressed[I].Block));
    }
    const fault::Status DestageStatus =
        Ssd.ftlEnabled()
            ? Ssd.writeDestage(DestageExtents, DestageBytes)
            : Ssd.writeSequential(DestageBytes);
    if (!DestageStatus.ok() && BatchStatus.ok())
      BatchStatus = DestageStatus;
  }
  Sched->endStage(BatchScheduler::Stage::Destage);
  Sched->endBatch();

  // Per-chunk modelled service latency: request path + dedup stage +
  // (uniques) compression stage + an equal share of the coalesced
  // destage write.
  const double DestageShareUs =
      UniqueViews.empty()
          ? 0.0
          : Plat.Model.ssdSeqWriteUs(DestageBytes) /
                static_cast<double>(UniqueViews.size());
  std::span<double> CompressLatency =
      BatchArena.allocateFilled<double>(Count, 0.0);
  for (std::size_t I = 0; I < UniqueViews.size(); ++I)
    CompressLatency[UniqueIndices[I]] =
        Compressed[I].LatencyUs + DestageShareUs;
  for (std::size_t I = 0; I < Count; ++I) {
    const double RequestUs =
        Plat.Model.Cpu.RequestOverheadUs +
        Plat.Model.Cpu.ChunkingPerByteNs * 1e-3 *
            static_cast<double>(Chunks[I].Data.size());
    const double TotalUs =
        RequestUs + Items[I].LatencyUs + CompressLatency[I];
    LatencyHist.add(TotalUs);
    if (ChunkLatencyHist)
      ChunkLatencyHist->observe(TotalUs);
  }

  if (ChunksTotal) {
    ChunksTotal->add(Count);
    LogicalBytesTotal->add(LogicalBytes - PrevLogicalBytes);
    UniqueTotal->add(UniqueChunks - PrevUnique);
    DupBufferTotal->add(DupFromBuffer - PrevDupBuffer);
    DupTreeTotal->add(DupFromTree - PrevDupTree);
    DupGpuTotal->add(DupFromGpu - PrevDupGpu);
    StoredBytesTotal->add(StoredBytes - PrevStored);
    VerifyMismatchTotal->add(VerifyMismatches - PrevMismatches);
  }
  return BatchStatus;
}

fault::Status ReductionPipeline::finish() {
  const obs::StageSpan Stage(Config.Trace, Ledger, "drain");
  if (!Dedup)
    return {};
  // The end-of-run bin-buffer flush drains after every queued destage
  // on the timeline, so the window empties cleanly even when the last
  // batches ended in typed errors.
  Sched->beginStage(BatchScheduler::Stage::Drain);
  const fault::Status St = Dedup->finish();
  Sched->endStage(BatchScheduler::Stage::Drain);
  return St;
}

fault::Status ReductionPipeline::journalWrite(std::uint64_t Bytes,
                                              const char *SpanName) {
  const obs::StageSpan Stage(Config.Trace, Ledger, SpanName);
  // Outside any stage bracket the op log is disarmed, so the charge
  // reaches the timeline only through noteCommit — which pins it after
  // the covered batch's destage (write-ahead ordering).
  const double BeforeUs = Ledger.busyMicros(Resource::Ssd);
  const fault::Status St = Ssd.writeSequential(Bytes);
  Sched->noteCommit(Ledger.busyMicros(Resource::Ssd) - BeforeUs, SpanName);
  return St;
}

std::optional<ByteVector> ReductionPipeline::readBack() {
  const obs::StageSpan Stage(Config.Trace, Ledger, "read");
  // Charge the read path: one random SSD read per referenced chunk and
  // CPU decompression per logical byte.
  Ssd.readRandom4K(Recipe.ChunkLocations.size());
  Ledger.chargeMicros(Resource::CpuPool,
                      Plat.Model.Cpu.DecompressPerByteNs * 1e-3 *
                          static_cast<double>(Recipe.logicalBytes()));
  return Store.readStream(Recipe);
}

std::optional<ByteVector>
ReductionPipeline::readChunk(std::uint64_t Location, bool BypassCache) {
  auto Result = readChunkEx(Location, BypassCache);
  if (!Result.ok())
    return std::nullopt;
  return std::move(Result.value());
}

fault::Expected<ByteVector>
ReductionPipeline::readChunkEx(std::uint64_t Location, bool BypassCache) {
  const obs::StageSpan Stage(Config.Trace, Ledger, "read");
  if (Cache && !BypassCache) {
    if (auto Hit = Cache->get(Location)) {
      Ledger.chargeMicros(Resource::CpuPool,
                          Plat.Model.Cpu.CacheCopyPerByteNs * 1e-3 *
                              static_cast<double>(Hit->size()));
      return std::move(*Hit);
    }
  }
  const fault::Status IoStatus = Ssd.readRandom4K(1);
  if (!IoStatus.ok())
    return IoStatus;
  const auto Chunk = Store.readChunk(Location);
  if (!Chunk) {
    // Corrupt (or missing) payload: drop any stale cached copy — a
    // later cached read must not mask corruption the flash path
    // reports, regardless of whether *this* read bypassed the cache
    // (scrub does, and scrub is exactly when corruption surfaces).
    if (Cache)
      Cache->invalidate(Location);
    if (DecodeFailTotal)
      DecodeFailTotal->add(1);
    return fault::Status::error(Store.contains(Location)
                                    ? fault::ErrorCode::ChunkCorrupt
                                    : fault::ErrorCode::ChunkMissing,
                                Location);
  }
  Ledger.chargeMicros(Resource::CpuPool,
                      Plat.Model.Cpu.DecompressPerByteNs * 1e-3 *
                          static_cast<double>(Chunk->size()));
  if (Cache && !BypassCache)
    Cache->put(Location, *Chunk);
  return *Chunk;
}

ScrubOutcome ReductionPipeline::scrubChunk(std::uint64_t Location,
                                           const Fingerprint &Fp) {
  // Snapshot any cached decoded copy *before* the flash read: a
  // corrupt flash read invalidates cached copies, and the snapshot is
  // the only repair source this pipeline has.
  std::optional<ByteVector> Candidate;
  if (Cache)
    Candidate = Cache->get(Location);

  auto Read = readChunkEx(Location, /*BypassCache=*/true);
  if (Read.ok()) {
    Ledger.chargeMicros(Resource::CpuPool,
                        Plat.Model.cpuHashUs(Read->size()));
    if (Fingerprint::ofData(ByteSpan(Read->data(), Read->size())) == Fp)
      return ScrubOutcome::Healthy;
    // A block that decodes but hashes wrong is corruption the CRC
    // missed (or a collision-shared chunk); fall through to repair.
    if (Cache)
      Cache->invalidate(Location);
  }

  // Verify the candidate against the tracker's fingerprint before
  // trusting it — an unverified copy could launder corruption back in.
  if (Candidate) {
    Ledger.chargeMicros(Resource::CpuPool,
                        Plat.Model.cpuHashUs(Candidate->size()));
    if (Fingerprint::ofData(
            ByteSpan(Candidate->data(), Candidate->size())) == Fp) {
      // Re-encode conservatively as a raw block and rewrite in place.
      // The rewrite is an in-place page update, not part of a destage
      // stream, so it is charged as a random write.
      Ledger.chargeMicros(Resource::CpuPool,
                          Plat.Model.Cpu.CacheCopyPerByteNs * 1e-3 *
                              static_cast<double>(Candidate->size()));
      if (Ssd.rewriteChunk(Location,
                           BlockHeaderSize + Candidate->size())
              .ok()) {
        ByteVector Block = encodeBlock(
            BlockMethod::Raw,
            static_cast<std::uint32_t>(Candidate->size()),
            ByteSpan(Candidate->data(), Candidate->size()));
        Store.erase(Location);
        Store.put(Location, std::move(Block));
        if (Cache)
          Cache->put(Location, *Candidate);
        if (ScrubRepairedTotal)
          ScrubRepairedTotal->add(1);
        return ScrubOutcome::Repaired;
      }
    }
  }
  if (ScrubLostTotal)
    ScrubLostTotal->add(1);
  return ScrubOutcome::Lost;
}

bool ReductionPipeline::dropIndexEntry(const Fingerprint &Fp) {
  if (!Dedup)
    return false;
  return Dedup->dropEntry(Fp);
}

std::uint64_t ReductionPipeline::eraseChunk(std::uint64_t Location) {
  if (Cache)
    Cache->invalidate(Location);
  Ssd.invalidateChunk(Location);
  return Store.erase(Location);
}

bool ReductionPipeline::restoreChunk(std::uint64_t Location,
                                     ByteVector Block,
                                     const Fingerprint &Fp) {
  if (Store.contains(Location))
    return false;
  // Recovery re-programs the chunk's flash pages; register the extent
  // so later GC/TRIM invalidation finds it.
  if (Ssd.ftlEnabled())
    (void)Ssd.rewriteChunk(Location, Block.size());
  StoredBytes += Block.size();
  Store.put(Location, std::move(Block));
  NextLocation = std::max(NextLocation, Location + 1);
  if (Dedup)
    Dedup->restoreEntry(Fp, Location);
  return true;
}

bool ReductionPipeline::verifyAgainst(ByteSpan Original) {
  const auto Stream = readBack();
  if (!Stream || Stream->size() != Original.size())
    return false;
  return std::equal(Stream->begin(), Stream->end(), Original.begin());
}

void ReductionPipeline::resetMeasurement() {
  Ledger.reset();
  // The timeline restarts alongside the busy clocks: the measured
  // phase's schedule must not inherit the warmup's queue positions.
  Sched->reset();
  // Extra backend devices keep their own staging pipelines; their
  // in-flight slots must drain with the warmup too.
  if (Splitter)
    Splitter->resetTimelineState();
  // The lane clocks restart at zero; recorded spans would otherwise
  // overlap the post-warmup ones at the same positions.
  if (Config.Trace)
    Config.Trace->clear();
  LogicalBytes = LogicalChunks = 0;
  UniqueChunks = UniqueBytes = 0;
  DupChunks = DupFromBuffer = DupFromTree = DupFromGpu = 0;
  VerifyMismatches = 0;
  StoredBytes = 0;
  RawFallbackBase = Splitter ? Splitter->rawFallbacks() : 0;
  LatencyHist = Histogram(20000.0, 2000);
}

PipelineReport ReductionPipeline::report() const {
  PipelineReport Report;
  Report.LogicalBytes = LogicalBytes;
  Report.LogicalChunks = LogicalChunks;
  Report.UniqueChunks = UniqueChunks;
  Report.DupChunks = DupChunks;
  Report.DupFromBuffer = DupFromBuffer;
  Report.DupFromTree = DupFromTree;
  Report.DupFromGpu = DupFromGpu;
  Report.VerifyMismatches = VerifyMismatches;
  Report.DedupRatio =
      UniqueBytes == 0 ? 1.0
                       : static_cast<double>(LogicalBytes) /
                             static_cast<double>(UniqueBytes);
  Report.StoredBytes = StoredBytes;
  Report.RawFallbacks =
      (Splitter ? Splitter->rawFallbacks() : 0) - RawFallbackBase;
  Report.CompressRatio =
      StoredBytes == 0 ? 1.0
                       : static_cast<double>(UniqueBytes) /
                             static_cast<double>(StoredBytes);
  Report.ReductionRatio =
      StoredBytes == 0 ? 1.0
                       : static_cast<double>(LogicalBytes) /
                             static_cast<double>(StoredBytes);

  const unsigned Threads = Plat.Model.Cpu.Threads;
  const unsigned GpuDevices = gpuDeviceCount();
  Report.MakespanSec =
      Ledger.makespanSeconds(Threads, ComputeResources, GpuDevices);
  if (Report.MakespanSec > 0.0) {
    Report.ThroughputIops =
        static_cast<double>(LogicalChunks) / Report.MakespanSec;
    Report.ThroughputMBps = static_cast<double>(LogicalBytes) /
                            Report.MakespanSec / 1e6;
  }
  Report.Bottleneck =
      Ledger.bottleneck(Threads, ComputeResources, GpuDevices);
  Report.CpuBusySec = Ledger.busySeconds(Resource::CpuPool);
  Report.GpuBusySec = Ledger.busySeconds(Resource::Gpu);
  Report.PcieBusySec = Ledger.busySeconds(Resource::Pcie);
  Report.SsdBusySec = Ledger.busySeconds(Resource::Ssd);
  Report.KernelLaunches = Ledger.kernelLaunches();
  Report.OffloadFraction = Dedup ? Dedup->offloadFraction() : 0.0;
  Report.LatencyP50Us = LatencyHist.percentile(50.0);
  Report.LatencyP95Us = LatencyHist.percentile(95.0);
  Report.LatencyP99Us = LatencyHist.percentile(99.0);
  Report.SsdHostBytes = Ssd.hostBytesWritten();
  Report.SsdNandBytes = Ssd.nandBytesWritten();

  Report.PipelineDepth = static_cast<unsigned>(Sched->depth());
  Report.WallSec = Ledger.timelineWallMicros() * 1e-6;
  if (Report.WallSec > 0.0) {
    Report.WallThroughputIops =
        static_cast<double>(LogicalChunks) / Report.WallSec;
    Report.WallThroughputMBps =
        static_cast<double>(LogicalBytes) / Report.WallSec / 1e6;
  }
  const ScheduleOverlap Overlap = Sched->overlap();
  for (unsigned R = 0; R < ResourceCount; ++R) {
    Report.SchedBusySec[R] = Overlap.BusySec[R];
    Report.SchedHiddenSec[R] = Overlap.HiddenSec[R];
  }
  return Report;
}

unsigned ReductionPipeline::gpuDeviceCount() const {
  return Splitter ? std::max(1u, Splitter->deviceCount()) : 1;
}
