//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-tenant volume service implementation.
///
//===----------------------------------------------------------------------===//

#include "service/VolumeService.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace padre;

VolumeService::VolumeService(const Platform &Plat,
                             const ServiceConfig &Config)
    : Config(Config), Pipeline(Plat, Config.Pipeline),
      Tracker(std::make_shared<ChunkRefTracker>()) {
  obs::MetricsRegistry *Metrics = Config.Pipeline.Metrics;
  if (!Metrics)
    return;
  LocalityHist = &Metrics->histogram(
      "padre_svc_locality_score",
      "Per-tenant locality score (EWMA of inline duplicate fractions)",
      1.0 / 1024.0, 2.0, 11);
}

VolumeService::TenantId
VolumeService::addTenant(const std::string &Name,
                         const TenantConfig &TenantCfg) {
  TenantState T;
  T.Name = Name;
  T.Config = TenantCfg;
  VolumeConfig VolCfg;
  VolCfg.BlockCount = TenantCfg.Blocks;
  T.Vol = std::make_unique<Volume>(Pipeline, VolCfg, Tracker);
  if (obs::MetricsRegistry *Metrics = Config.Pipeline.Metrics) {
    const std::string Label = "{tenant=\"" + Name + "\"}";
    T.AdmittedCtr = &Metrics->counter(
        "padre_svc_admitted_bytes_total" + Label,
        "Bytes dispatched through the inline reduction path");
    T.DeferredCtr = &Metrics->counter(
        "padre_svc_deferred_bytes_total" + Label,
        "Bytes dispatched raw for deferred (post-process) dedup");
    T.RejectedCtr = &Metrics->counter(
        "padre_svc_rejected_bytes_total" + Label,
        "Bytes refused at admission by the tenant quota");
  }
  Tenants.push_back(std::move(T));
  return static_cast<TenantId>(Tenants.size() - 1);
}

std::size_t VolumeService::entryBytes() const {
  if (const DedupEngine *Engine = Pipeline.dedupEngine())
    return Engine->index().layout().cpuEntryBytes();
  return Fingerprint::Size + sizeof(std::uint64_t);
}

bool VolumeService::submitWrite(TenantId Tenant, std::uint64_t Lba,
                                ByteSpan Data) {
  assert(Tenant < Tenants.size() && "Unknown tenant");
  TenantState &T = Tenants[Tenant];
  const std::size_t BlockSize = Pipeline.config().ChunkSize;
  if (Data.empty() || Data.size() % BlockSize != 0)
    return false;
  const std::uint64_t Blocks = Data.size() / BlockSize;
  if (Lba + Blocks > T.Config.Blocks || Lba + Blocks < Lba)
    return false;
  // Quota admission: every byte this tenant has ever had accepted
  // (queued, inline or deferred) counts against the logical quota.
  if (T.Config.QuotaBytes != 0) {
    const std::uint64_t Accepted =
        T.QueuedBytes + T.AdmittedBytes + T.DeferredBytes;
    if (Accepted + Data.size() > T.Config.QuotaBytes) {
      T.RejectedBytes += Data.size();
      if (T.RejectedCtr)
        T.RejectedCtr->add(Data.size());
      return false;
    }
  }
  PendingWrite W;
  W.Lba = Lba;
  W.Data.assign(Data.begin(), Data.end());
  T.QueuedBytes += Data.size();
  T.Queue.push_back(std::move(W));
  return true;
}

void VolumeService::noteInlineRun(TenantState &T,
                                  std::span<const ChunkWriteInfo> Info) {
  if (Info.empty())
    return;
  std::size_t Dups = 0;
  for (const ChunkWriteInfo &I : Info) {
    if (I.Outcome == LookupOutcome::Unique) {
      if (Config.IndexMemoryBudget != 0)
        T.TrackedFps.push_back(I.Fp);
    } else {
      ++Dups;
    }
  }
  T.PeakTrackedFps = std::max(T.PeakTrackedFps, T.TrackedFps.size());
  const double Fraction =
      static_cast<double>(Dups) / static_cast<double>(Info.size());
  T.Locality = Config.LocalityAlpha * Fraction +
               (1.0 - Config.LocalityAlpha) * T.Locality;
  if (LocalityHist)
    LocalityHist->observe(T.Locality);
}

void VolumeService::dispatchOne(TenantState &T, PendingWrite &W) {
  ++DispatchSeq;
  const ByteSpan Data(W.Data.data(), W.Data.size());
  const bool Probe =
      !T.Resident && Config.ProbePeriodRounds != 0 &&
      Round - T.LastInlineRound >= Config.ProbePeriodRounds;
  if (T.Resident || Probe) {
    T.LastInlineRound = Round;
    const obs::StageSpan Span(Pipeline.config().Trace, Pipeline.ledger(),
                              "svc:dispatch", obs::CategorySvc);
    std::vector<ChunkWriteInfo> Info;
    if (T.Vol->writeBlocks(W.Lba, Data, &Info)) {
      T.AdmittedBytes += W.Data.size();
      if (T.AdmittedCtr)
        T.AdmittedCtr->add(W.Data.size());
      noteInlineRun(T, Info);
    }
  } else {
    const obs::StageSpan Span(Pipeline.config().Trace, Pipeline.ledger(),
                              "svc:defer", obs::CategorySvc);
    if (T.Vol->writeBlocksRaw(W.Lba, Data)) {
      T.DeferredBytes += W.Data.size();
      if (T.DeferredCtr)
        T.DeferredCtr->add(W.Data.size());
      T.NeedsSweep = true;
    }
  }
  T.LastDispatchSeq = DispatchSeq;
}

bool VolumeService::pump() {
  ++Round;
  bool Any = false;
  const std::uint64_t BlockSize = Pipeline.config().ChunkSize;
  for (TenantState &T : Tenants) {
    if (T.Queue.empty()) {
      T.CreditBytes = 0; // no banking while idle (classic DRR)
      continue;
    }
    T.CreditBytes +=
        T.Config.Weight * Config.DispatchRunBlocks * BlockSize;
    while (!T.Queue.empty() &&
           T.Queue.front().Data.size() <= T.CreditBytes) {
      PendingWrite W = std::move(T.Queue.front());
      T.Queue.pop_front();
      T.QueuedBytes -= W.Data.size();
      T.CreditBytes -= W.Data.size();
      dispatchOne(T, W);
      Any = true;
    }
  }
  if (Any)
    rescoreResidency();
  return Any;
}

void VolumeService::drain() {
  while (pump())
    ;
}

void VolumeService::demote(TenantState &T) {
  for (const Fingerprint &Fp : T.TrackedFps)
    Pipeline.dropIndexEntry(Fp);
  T.TrackedFps.clear();
  T.Resident = false;
}

void VolumeService::rescoreResidency() {
  // No budget (or a lone tenant) means no cache tier: everything stays
  // resident and the service remains a bit-identical pass-through.
  if (Config.IndexMemoryBudget == 0 || Tenants.size() <= 1)
    return;
  std::vector<std::size_t> Order(Tenants.size());
  std::iota(Order.begin(), Order.end(), 0);
  if (Config.Policy == CachePolicy::Prioritized) {
    std::stable_sort(Order.begin(), Order.end(),
                     [&](std::size_t A, std::size_t B) {
                       return Tenants[A].Locality > Tenants[B].Locality;
                     });
  } else {
    std::stable_sort(Order.begin(), Order.end(),
                     [&](std::size_t A, std::size_t B) {
                       return Tenants[A].LastDispatchSeq >
                              Tenants[B].LastDispatchSeq;
                     });
  }
  std::size_t Remaining = Config.IndexMemoryBudget;
  bool First = true;
  for (std::size_t Id : Order) {
    TenantState &T = Tenants[Id];
    const std::size_t Footprint =
        std::max(T.PeakTrackedFps, T.TrackedFps.size()) * entryBytes();
    // The best-ranked tenant is always admitted — an empty resident
    // set would make the budget a pure post-process system.
    const bool Admit = First || Footprint <= Remaining;
    First = false;
    Remaining -= std::min(Footprint, Remaining);
    if (Admit) {
      T.Resident = true;
    } else if (T.Resident || !T.TrackedFps.empty()) {
      // Demotion frees the tenant's index entries (including any a
      // probe run inserted while it was already non-resident).
      demote(T);
    }
  }
}

ServiceSweepStats VolumeService::sweepDeferred() {
  ServiceSweepStats Stats;
  for (TenantState &T : Tenants) {
    if (!T.NeedsSweep)
      continue;
    const obs::StageSpan Span(Pipeline.config().Trace, Pipeline.ledger(),
                              "svc:sweep", obs::CategorySvc);
    std::vector<ChunkWriteInfo> Info;
    const BackgroundReduceStats SweepStats =
        backgroundReduce(*T.Vol, Config.SweepRunBlocks, &Info);
    T.NeedsSweep = false;
    ++Stats.TenantsSwept;
    Stats.BlocksProcessed += SweepStats.BlocksProcessed;
    Stats.ChunksCollected += SweepStats.ChunksCollected;
    if (Config.IndexMemoryBudget == 0)
      continue;
    if (T.Resident) {
      // A resident tenant keeps what the sweep inserted, on budget.
      noteInlineRun(T, Info);
      continue;
    }
    // Post-process entries of a non-resident tenant are transient: the
    // sweep needed them to find duplicates within the run, but the
    // inline budget does not cover them. Each Unique rewrite inserted
    // its fingerprint; the sweep's own GC pass may have dropped it
    // already (the dead raw original shares the fingerprint), so the
    // drop below is a no-op in that case — either way the entry is no
    // longer resident once this loop finishes.
    for (const ChunkWriteInfo &I : Info) {
      if (I.Outcome != LookupOutcome::Unique)
        continue;
      Pipeline.dropIndexEntry(I.Fp);
      ++Stats.EntriesExpired;
    }
  }
  return Stats;
}

void VolumeService::finish() {
  drain();
  Pipeline.finish();
}

std::optional<ByteVector> VolumeService::readBlocks(TenantId Tenant,
                                                    std::uint64_t Lba,
                                                    std::uint64_t Count) {
  assert(Tenant < Tenants.size() && "Unknown tenant");
  return Tenants[Tenant].Vol->readBlocks(Lba, Count);
}

TenantStats VolumeService::tenantStats(TenantId Tenant) const {
  assert(Tenant < Tenants.size() && "Unknown tenant");
  const TenantState &T = Tenants[Tenant];
  TenantStats Stats;
  Stats.Name = T.Name;
  Stats.QueuedBytes = T.QueuedBytes;
  Stats.AdmittedBytes = T.AdmittedBytes;
  Stats.DeferredBytes = T.DeferredBytes;
  Stats.RejectedBytes = T.RejectedBytes;
  Stats.LocalityScore = T.Locality;
  Stats.Resident = T.Resident;
  Stats.TrackedEntries = T.TrackedFps.size();
  return Stats;
}
