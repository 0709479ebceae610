//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel deduplication engine (§3.1): fingerprinting plus
/// bin-based indexing across the multi-core CPU, with the GPU as an
/// indexing co-processor.
///
/// CPU path per batch: parallel SHA-1 over the chunks ("there is no
/// data dependency between chunks … in the hashing phase"), then the
/// lock-free bin-parallel probe/insert of index/DedupIndex.h. Bin
/// drains become sequential SSD writes and GPU bin-table updates
/// (§3.3).
///
/// GPU co-processing (§3.1(3) "use GPU only when CPU utilization is
/// full and there is still some work to do for indexing"): an adaptive
/// controller offloads a fraction of each batch — those chunks are
/// DMA'd to the device in small latency-bounded sub-batches, hashed and
/// probed against the GPU bin table there, and only GPU *misses* fall
/// through to the CPU index path. The fraction seeks the CPU/GPU busy
/// balance, exactly the "offload only past CPU saturation" rule
/// expressed in ledger terms.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_CORE_DEDUPENGINE_H
#define PADRE_CORE_DEDUPENGINE_H

#include "chunk/Chunker.h"
#include "fault/Status.h"
#include "gpu/GpuDevice.h"
#include "hash/Sha1Batch.h"
#include "index/DedupIndex.h"
#include "index/GpuBinTable.h"
#include "obs/Obs.h"
#include "sim/CostModel.h"
#include "sim/ResourceLedger.h"
#include "ssd/SsdModel.h"
#include "util/Arena.h"
#include "util/ThreadPool.h"

#include <memory>
#include <span>
#include <vector>

namespace padre {

/// Per-chunk outcome of a dedup batch.
struct DedupItem {
  Fingerprint Fp;
  LookupOutcome Outcome = LookupOutcome::Unique;
  /// Stored location: the original's for duplicates, the fresh one for
  /// uniques.
  std::uint64_t Location = 0;
  /// Modelled service latency of this chunk's dedup stage in
  /// microseconds: hashing (or the full GPU sub-batch round trip it
  /// had to wait for), probing, and index maintenance.
  double LatencyUs = 0.0;
};

/// Engine configuration.
struct DedupEngineConfig {
  DedupIndexConfig Index;
  /// Enables GPU co-processing of hashing+indexing.
  bool GpuOffload = false;
  /// Adaptive offload fraction bounds.
  double OffloadFloor = 0.15;
  double OffloadCeiling = 1.0;
  double OffloadInitial = 0.35;
  double OffloadStep = 0.05;
  /// GPU bin-table slots per bin.
  std::size_t GpuSlotsPerBin = 128;
  /// Baseline policy (bench_baselines): index probes/maintenance pass
  /// through one global lock (P-Dedupe-style multicore dedup, §5 —
  /// hashing is parallel but indexing is not). The index work is
  /// charged to the CPU *and* to the capacity-one IndexLock resource.
  bool SerialIndexing = false;
};

/// The deduplication stage. Not thread-safe across calls; the pipeline
/// drives one batch at a time (the parallelism is inside the batch).
class DedupEngine {
public:
  /// \p Device may be null (or absent) when GpuOffload is false.
  /// \p Obs sinks are optional; defaults disable instrumentation.
  DedupEngine(const CostModel &Model, ResourceLedger &Ledger,
              ThreadPool &Pool, SsdModel &Ssd, GpuDevice *Device,
              const DedupEngineConfig &Config,
              const obs::ObsSinks &Obs = obs::ObsSinks());

  /// Deduplicates a batch. \p NewLocations[i] is the location chunk i
  /// will occupy if unique. Results land in \p Items (resized).
  /// GPU faults never fail the batch — a faulted sub-batch falls back
  /// to the CPU hash+index path — so a non-ok status only reports a
  /// bin-log SSD write that outlived its retry budget (the in-memory
  /// index stays consistent; the log entries are lost).
  fault::Status processBatch(std::span<const ChunkView> Chunks,
                             std::span<const std::uint64_t> NewLocations,
                             std::vector<DedupItem> &Items);

  /// End-of-stream: drains every bin buffer (SSD log write + GPU
  /// update included).
  fault::Status finish();

  /// Garbage collection: drops \p Fp from the CPU index and, if
  /// resident, the GPU bin table. Returns true if any entry existed.
  bool dropEntry(const Fingerprint &Fp);

  /// Restore path: inserts \p Fp -> \p Location if absent, applying
  /// any resulting bin drains (SSD log + GPU table update) as usual.
  fault::Status restoreEntry(const Fingerprint &Fp, std::uint64_t Location);

  /// GPU sub-batches re-run on the CPU path after a device fault.
  std::uint64_t gpuFallbackCount() const { return GpuFallbackCount; }

  /// Current adaptive offload fraction.
  double offloadFraction() const { return Offload; }

  const DedupIndex &index() const { return Index; }
  const GpuBinTable *gpuTable() const { return GpuTable.get(); }

private:
  /// Runs the GPU hash+probe kernels over the selected chunk indices;
  /// fills KnownDuplicate/Locations for hits. A device fault in a
  /// sub-batch clears its chunks' IsSelected flags so the CPU path
  /// picks them up (degraded-mode fallback).
  void offloadToGpu(std::span<const ChunkView> Chunks,
                    std::span<const std::uint32_t> Selected,
                    std::span<std::uint8_t> IsSelected,
                    std::span<Fingerprint> Fingerprints,
                    std::span<std::uint8_t> KnownDuplicate,
                    std::span<std::uint64_t> ResolvedLocations,
                    std::span<double> LatencyUs);

  /// Applies flush events: sequential SSD log write + GPU bin update.
  /// Returns the first log-write failure; a faulted GPU-table DMA only
  /// skips that table update (subsequent GPU probes miss and fall
  /// through to the CPU index — correct, slower).
  fault::Status handleFlushes(std::vector<FlushEvent> &Flushes);

  /// Nudges the offload fraction toward CPU/GPU busy balance.
  void adaptOffload();

  CostModel Model;
  ResourceLedger &Ledger;
  ThreadPool &Pool;
  SsdModel &Ssd;
  GpuDevice *Device;
  DedupEngineConfig Config;
  DedupIndex Index;
  std::unique_ptr<GpuBinTable> GpuTable;
  /// Per-batch scratch (fingerprints, GPU selection, lookup results,
  /// latency accumulators) lives here instead of the heap; reset at the
  /// top of every processBatch. Single-owner: only the batch-driving
  /// thread allocates (parallel slices read/write the spans in place).
  Arena BatchArena;
  /// Multi-buffer SHA-1 lanes per batched hash call, from
  /// Model.Cpu.HashBatchWidth clamped to [1, Sha1Batch::MaxWidth].
  /// Width 1 reproduces the serial hash path bit-for-bit (same digests,
  /// same per-chunk cost accumulation order).
  unsigned HashWidth = 1;
  double Offload;
  // Ledger snapshot at the last adaptation step.
  double LastCpuBusy = 0.0;
  double LastGpuBusy = 0.0;
  std::uint64_t GpuFallbackCount = 0;
  // Observability instruments (null = disabled), cached at construction.
  obs::LogHistogram *HitDepthHist = nullptr;
  obs::Gauge *OffloadGauge = nullptr;
  obs::Counter *BinFlushes = nullptr;
  obs::Counter *GpuFallbacks = nullptr;
  obs::Gauge *HashWidthGauge = nullptr;
};

} // namespace padre

#endif // PADRE_CORE_DEDUPENGINE_H
