//===----------------------------------------------------------------------===//
///
/// \file
/// Dedup engine implementation.
///
//===----------------------------------------------------------------------===//

#include "core/DedupEngine.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace padre;

DedupEngine::DedupEngine(const CostModel &Model, ResourceLedger &Ledger,
                         ThreadPool &Pool, SsdModel &Ssd, GpuDevice *Device,
                         const DedupEngineConfig &Config,
                         const obs::ObsSinks &Obs)
    : Model(Model), Ledger(Ledger), Pool(Pool), Ssd(Ssd), Device(Device),
      Config(Config), Index(Config.Index),
      HashWidth(std::clamp(Model.Cpu.HashBatchWidth, 1u, Sha1Batch::MaxWidth)),
      Offload(Config.GpuOffload ? Config.OffloadInitial : 0.0) {
  assert(isValidCostModel(Model) && "Invalid cost model");
  if (Config.GpuOffload) {
    assert(Device && Device->present() &&
           "GPU offload requested without a GPU");
    GpuTable = std::make_unique<GpuBinTable>(*Device, Index.layout(),
                                             Config.GpuSlotsPerBin,
                                             Config.Index.Seed ^ 0x6B75);
  }
  if (Obs.Metrics) {
    HitDepthHist = &Obs.Metrics->histogram(
        "padre_bin_buffer_hit_depth",
        "Entries scanned newest-first before a bin-buffer hit",
        1.0, 2.0, 12);
    BinFlushes = &Obs.Metrics->counter(
        "padre_bin_flushes_total",
        "Bin-buffer drains (sequential SSD log writes)");
    HashWidthGauge = &Obs.Metrics->gauge(
        "padre_hash_batch_width",
        "Multi-buffer SHA-1 lanes per batched hash call (1 = serial)");
    HashWidthGauge->set(static_cast<double>(HashWidth));
    if (Config.GpuOffload) {
      OffloadGauge = &Obs.Metrics->gauge(
          "padre_dedup_offload_fraction",
          "Adaptive fraction of each batch co-processed by the GPU");
      OffloadGauge->set(Offload);
      GpuFallbacks = &Obs.Metrics->counter(
          "padre_gpu_fallback_total{family=\"indexing\"}",
          "GPU sub-batches re-run on the CPU path after a device fault");
    }
  }
}

fault::Status DedupEngine::processBatch(
    std::span<const ChunkView> Chunks,
    std::span<const std::uint64_t> NewLocations,
    std::vector<DedupItem> &Items) {
  const std::size_t Count = Chunks.size();
  assert(NewLocations.size() == Count && "Batch arrays disagree");
  Items.assign(Count, DedupItem());
  if (Count == 0)
    return {};

  // All per-batch scratch comes from the arena: one reset reclaims the
  // previous batch's spans (poisoned), then every array below is a
  // pointer bump — zero heap traffic on the steady-state hot path.
  BatchArena.reset();

  // Select the GPU co-processing subset by error-diffusion so any
  // fraction spreads evenly through the batch.
  std::span<std::uint32_t> SelectedStorage =
      BatchArena.allocateSpan<std::uint32_t>(Count);
  std::size_t SelectedCount = 0;
  std::span<std::uint8_t> IsSelected =
      BatchArena.allocateFilled<std::uint8_t>(Count, 0);
  if (GpuTable && Offload > 0.0) {
    double Error = 0.0;
    for (std::size_t I = 0; I < Count; ++I) {
      Error += Offload;
      if (Error >= 1.0) {
        Error -= 1.0;
        SelectedStorage[SelectedCount++] = static_cast<std::uint32_t>(I);
        IsSelected[I] = 1;
      }
    }
  }
  const std::span<const std::uint32_t> Selected =
      SelectedStorage.first(SelectedCount);

  std::span<Fingerprint> Fingerprints =
      BatchArena.allocateFilled<Fingerprint>(Count, Fingerprint());
  std::span<std::uint8_t> KnownDuplicate =
      BatchArena.allocateFilled<std::uint8_t>(Count, 0);
  std::span<std::uint64_t> ResolvedLocations =
      BatchArena.allocateFilled<std::uint64_t>(Count, 0);
  std::span<double> LatencyUs =
      BatchArena.allocateFilled<double>(Count, 0.0);

  // GPU phase first: it produces fingerprints for the selected chunks
  // and resolves some duplicates before the CPU path runs (Fig. 1:
  // "GPU indexing is performed if the GPU is available, and CPU
  // indexing is performed if duplicate hashes are not found").
  if (!Selected.empty())
    offloadToGpu(Chunks, Selected, IsSelected, Fingerprints,
                 KnownDuplicate, ResolvedLocations, LatencyUs);

  // CPU hashing for everything the GPU did not take — chunk-parallel
  // across slices, multi-buffer within each slice: lanes fill with
  // consecutive unselected chunks and hash as one interleaved group
  // (Sha1Batch). Every lane in a group waits for the group's longest
  // chunk — the SIMD lockstep the cost model charges via
  // cpuHashBatchUs. At width 1 the group is a single chunk and both
  // the digests and the charged costs are bit-identical to the old
  // serial loop.
  const unsigned Width = HashWidth;
  Pool.parallelForSlices(
      0, Count,
      [&](std::size_t Begin, std::size_t End, unsigned) {
        double Micros = 0.0;
        std::array<std::uint32_t, Sha1Batch::MaxWidth> LaneItem;
        std::array<ByteSpan, Sha1Batch::MaxWidth> LaneData;
        std::array<Sha1::Digest, Sha1Batch::MaxWidth> LaneDigest;
        unsigned Lanes = 0;
        const auto FlushGroup = [&] {
          if (Lanes == 0)
            return;
          Sha1Batch::digestGroup(
              std::span<const ByteSpan>(LaneData.data(), Lanes),
              std::span<Sha1::Digest>(LaneDigest.data(), Lanes));
          std::size_t MaxBytes = 0;
          for (unsigned L = 0; L < Lanes; ++L)
            MaxBytes = std::max(MaxBytes, LaneData[L].size());
          const double GroupUs = Model.cpuHashBatchUs(MaxBytes, Lanes);
          for (unsigned L = 0; L < Lanes; ++L) {
            Fingerprints[LaneItem[L]] = Fingerprint(LaneDigest[L]);
            LatencyUs[LaneItem[L]] += GroupUs;
          }
          Micros += GroupUs;
          Lanes = 0;
        };
        for (std::size_t I = Begin; I < End; ++I) {
          if (IsSelected[I])
            continue;
          LaneItem[Lanes] = static_cast<std::uint32_t>(I);
          LaneData[Lanes] = Chunks[I].Data;
          if (++Lanes == Width)
            FlushGroup();
        }
        FlushGroup();
        Ledger.chargeMicros(Resource::CpuPool, Micros);
      });

  // CPU bin-parallel indexing.
  std::span<LookupResult> Results =
      BatchArena.allocateFilled<LookupResult>(Count, LookupResult());
  std::vector<FlushEvent> Flushes;
  Index.processBatch(Fingerprints, NewLocations, KnownDuplicate, Pool,
                     Results, Flushes);

  // Charge the CPU index costs from the functional outcome: buffer
  // hits are cheap (temporal locality, §3.3), everything else pays a
  // full buffer-miss + tree-probe path; uniques add maintenance.
  std::size_t BufferHits = 0;
  std::size_t FullProbes = 0;
  std::size_t Uniques = 0;
  for (std::size_t I = 0; I < Count; ++I) {
    if (KnownDuplicate[I])
      continue;
    if (Results[I].Outcome == LookupOutcome::DupBuffer)
      ++BufferHits;
    else
      ++FullProbes;
    if (Results[I].Outcome == LookupOutcome::Unique)
      ++Uniques;
  }
  const double IndexMicros =
      static_cast<double>(BufferHits) * Model.Cpu.IndexProbeBufferUs +
      static_cast<double>(FullProbes) * Model.Cpu.IndexProbeUs +
      static_cast<double>(Uniques) * Model.Cpu.IndexMaintainUs;
  Ledger.chargeMicros(Resource::CpuPool, IndexMicros);
  if (Config.SerialIndexing)
    Ledger.chargeMicros(Resource::IndexLock, IndexMicros);

  const fault::Status FlushStatus = handleFlushes(Flushes);

  for (std::size_t I = 0; I < Count; ++I) {
    if (HitDepthHist && Results[I].Outcome == LookupOutcome::DupBuffer)
      HitDepthHist->observe(static_cast<double>(Results[I].BufferDepth));
    Items[I].Fp = Fingerprints[I];
    Items[I].Outcome = Results[I].Outcome;
    Items[I].Location = Results[I].Outcome == LookupOutcome::DupGpu
                            ? ResolvedLocations[I]
                            : Results[I].Location;
    if (!KnownDuplicate[I])
      LatencyUs[I] +=
          Results[I].Outcome == LookupOutcome::DupBuffer
              ? Model.Cpu.IndexProbeBufferUs
              : Model.Cpu.IndexProbeUs;
    if (Results[I].Outcome == LookupOutcome::Unique)
      LatencyUs[I] += Model.Cpu.IndexMaintainUs;
    Items[I].LatencyUs = LatencyUs[I];
  }

  if (GpuTable)
    adaptOffload();
  return FlushStatus;
}

void DedupEngine::offloadToGpu(
    std::span<const ChunkView> Chunks,
    std::span<const std::uint32_t> Selected,
    std::span<std::uint8_t> IsSelected,
    std::span<Fingerprint> Fingerprints,
    std::span<std::uint8_t> KnownDuplicate,
    std::span<std::uint64_t> ResolvedLocations,
    std::span<double> LatencyUs) {
  assert(Device && GpuTable && "GPU offload without device state");
  const std::size_t SubBatch = Model.Gpu.DedupBatchChunks;

  for (std::size_t Begin = 0; Begin < Selected.size(); Begin += SubBatch) {
    const std::size_t End = std::min(Selected.size(), Begin + SubBatch);

    // One DMA per sub-batch: the chunk payloads go to the device.
    std::size_t Bytes = 0;
    double ExecMicros = 0.0;
    for (std::size_t I = Begin; I < End; ++I) {
      const std::size_t Size = Chunks[Selected[I]].Data.size();
      Bytes += Size;
      ExecMicros += Model.gpuHashUs(Size) + Model.Gpu.ProbePerEntryUs;
    }
    fault::Status DeviceOk = Device->transferToDevice(Bytes);

    // The kernel: SHA-1 per chunk, then a linear-scan probe of the
    // GPU-resident bin. Results are (slot, hit) pairs; location
    // metadata is resolved host-side afterwards.
    if (DeviceOk.ok())
      DeviceOk = Device->launchKernel(KernelFamily::Indexing, ExecMicros, [&] {
        for (std::size_t I = Begin; I < End; ++I) {
          const std::uint32_t Item = Selected[I];
          Fingerprints[Item] = Fingerprint::ofData(Chunks[Item].Data);
          const std::uint32_t Bin =
              Index.layout().binOf(Fingerprints[Item]);
          if (!GpuTable->coversBin(Bin))
            continue;
          const GpuProbeResult Probe = GpuTable->probe(Fingerprints[Item]);
          if (Probe.Hit) {
            KnownDuplicate[Item] = 1;
            ResolvedLocations[Item] =
                GpuTable->resolveLocation(Probe.SlotIndex);
          }
        }
      });

    // Digest + (slot, hit) pair back to the host.
    const std::size_t ResultBytes =
        (End - Begin) * (Fingerprint::Size + sizeof(std::uint32_t));
    if (DeviceOk.ok())
      DeviceOk = Device->transferFromDevice(ResultBytes);

    if (!DeviceOk.ok()) {
      // Degraded mode: hand the sub-batch back to the CPU hash+index
      // path. Any results the device produced are discarded (a DMA
      // that corrupted in flight cannot be trusted).
      for (std::size_t I = Begin; I < End; ++I) {
        const std::uint32_t Item = Selected[I];
        IsSelected[Item] = 0;
        KnownDuplicate[Item] = 0;
        ResolvedLocations[Item] = 0;
      }
      ++GpuFallbackCount;
      if (GpuFallbacks)
        GpuFallbacks->add(1);
      continue;
    }

    // Every chunk in the sub-batch waits for the whole round trip:
    // DMA in, launch, lockstep execution, DMA out.
    const double Penalty =
        Device->mixedMode() ? Model.Gpu.MixedKernelPenalty : 1.0;
    const double RoundTripUs = Model.pcieTransferUs(Bytes) +
                               (Model.Gpu.LaunchUs + ExecMicros) * Penalty +
                               Model.pcieTransferUs(ResultBytes);
    for (std::size_t I = Begin; I < End; ++I)
      LatencyUs[Selected[I]] += RoundTripUs;
  }
}

fault::Status DedupEngine::handleFlushes(std::vector<FlushEvent> &Flushes) {
  fault::Status First;
  if (BinFlushes)
    BinFlushes->add(Flushes.size());
  for (FlushEvent &Event : Flushes) {
    // "When the buffer is full, the hash is immediately flushed from
    // the buffer to the storage. This creates the appropriate
    // sequential writes for the SSD." (§3.3)
    const std::size_t LogBytes =
        Event.Locations.size() * Index.layout().cpuEntryBytes();
    const fault::Status LogStatus = Ssd.writeSequential(LogBytes);
    if (!LogStatus.ok() && First.ok())
      First = LogStatus;

    // "And then, GPU bin in GPU memory are updated accordingly."
    if (GpuTable && GpuTable->coversBin(Event.Bin)) {
      if (Device->transferToDevice(Event.Suffixes.size()).ok()) {
        GpuTable->applyFlush(Event.Bin,
                             ByteSpan(Event.Suffixes.data(),
                                      Event.Suffixes.size()),
                             Event.Locations);
      } else {
        // The GPU table just misses these entries; probes fall through
        // to the CPU index.
        ++GpuFallbackCount;
        if (GpuFallbacks)
          GpuFallbacks->add(1);
      }
    }
  }
  Flushes.clear();
  return First;
}

void DedupEngine::adaptOffload() {
  // "We decide to use GPU only when CPU utilization is full and there
  // is still some work to do for indexing" (§3.1(3)) — in ledger
  // terms: push offload up while the normalized CPU busy-time grows
  // faster than the GPU's, back off otherwise.
  const double CpuBusy = Ledger.busySeconds(Resource::CpuPool) /
                         static_cast<double>(Model.Cpu.Threads);
  const double GpuBusy = Ledger.busySeconds(Resource::Gpu);
  const double CpuDelta = CpuBusy - LastCpuBusy;
  const double GpuDelta = GpuBusy - LastGpuBusy;
  LastCpuBusy = CpuBusy;
  LastGpuBusy = GpuBusy;

  // Proportional step toward balance: the relative CPU/GPU imbalance
  // scales the adjustment, so the fraction converges tightly instead
  // of oscillating around the equilibrium.
  const double Total = CpuDelta + GpuDelta;
  if (Total > 0.0) {
    const double Imbalance = (CpuDelta - GpuDelta) / Total;
    const double Step =
        std::min(Config.OffloadStep * 4.0, std::abs(Imbalance) * 0.5);
    Offload *= Imbalance > 0.0 ? 1.0 + Step : 1.0 - Step;
  }
  Offload = std::min(Config.OffloadCeiling,
                     std::max(Config.OffloadFloor, Offload));
  if (OffloadGauge)
    OffloadGauge->set(Offload);
}

fault::Status DedupEngine::finish() {
  std::vector<FlushEvent> Flushes;
  Index.flushAll(Flushes);
  return handleFlushes(Flushes);
}

fault::Status DedupEngine::restoreEntry(const Fingerprint &Fp,
                                        std::uint64_t Location) {
  Ledger.chargeMicros(Resource::CpuPool, Model.Cpu.IndexMaintainUs);
  std::vector<FlushEvent> Flushes;
  (void)Index.upsert(Fp, Location, Flushes);
  return handleFlushes(Flushes);
}

bool DedupEngine::dropEntry(const Fingerprint &Fp) {
  Ledger.chargeMicros(Resource::CpuPool, Model.Cpu.IndexMaintainUs);
  bool Removed = Index.remove(Fp);
  if (GpuTable)
    Removed |= GpuTable->invalidate(Fp);
  return Removed;
}
