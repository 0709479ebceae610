//===----------------------------------------------------------------------===//
///
/// \file
/// `tenants`: VolumeService with 8 tenants — half writing from one
/// shared dedup-friendly content pool, half writing unique content —
/// under an IndexMemoryBudget below their combined fingerprint
/// footprint, so the index working set exceeds the program's index
/// cache. Each step submits one request per tenant, then pump(); one
/// read is interleaved per step and sweepDeferred() runs every 32
/// steps. Service defaults otherwise (plain index, per-run dispatch).
/// It drives DRR dispatch, HPDedup demotion and the background reducer.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/TraceRecorder.h"
#include "service/VolumeService.h"
#include "util/Random.h"
#include "workload/Trace.h"

#include <set>

namespace perfbench {

using namespace padre;

namespace {
constexpr unsigned TenantCount = 8;
constexpr std::uint64_t TenantBlocks = 4096;
constexpr std::uint64_t Steps = 256;
constexpr std::uint64_t MaxRunBlocks = 16;
constexpr std::uint64_t SweepEverySteps = 32;
/// Content ids of the dedup-friendly tenants' shared pool.
constexpr std::uint64_t FriendlyContentIds = 2048;
/// First content id of the unique tenants (disjoint from the pool).
constexpr std::uint64_t UniqueContentBase = 1ull << 40;
/// Below the ~10k fingerprints the tenants insert per pass.
constexpr std::size_t IndexBudgetBytes = 128u << 10;
constexpr std::uint64_t VerifyRunBlocks = 256;

bool isFriendly(unsigned Tenant) { return Tenant % 2 == 0; }

/// One tenant request of one step, generated in set-up.
struct WritePlan {
  std::uint64_t Lba = 0;
  std::uint64_t Blocks = 0;
  std::uint64_t FirstContent = 0; ///< block ids follow contentOf()
  ByteSpan Data; ///< view into the pass's one content buffer
};

/// One step: a write per tenant, then a read of an earlier write's range.
struct StepPlan {
  WritePlan Writes[TenantCount];
  unsigned ReadTenant = 0;
  std::uint64_t ReadLba = 0;
  std::uint64_t ReadBlocks = 0;
};

/// Content id of block \p I of a tenant's run starting at \p First:
/// friendly tenants wrap around the shared pool.
std::uint64_t contentOf(unsigned Tenant, std::uint64_t First,
                        std::uint64_t I) {
  return isFriendly(Tenant) ? (First + I) % FriendlyContentIds : First + I;
}

} // namespace

PassOutput runTenantsPass(const PassContext &Ctx) {
  PassOutput Out;
  const Stamp SetupBegin = Stamp::begin();
  ServiceConfig Config;
  Config.Pipeline.ChunkSize = BlockSize;
  Config.Pipeline.Trace = Ctx.Trace;
  Config.Pipeline.Metrics = Ctx.Metrics;
  Config.IndexMemoryBudget = IndexBudgetBytes;
  VolumeService Service(benchPlatform(), Config);
  TenantConfig Tenant;
  Tenant.Blocks = TenantBlocks;
  std::vector<VolumeService::TenantId> Ids;
  for (unsigned T = 0; T < TenantCount; ++T) {
    std::string Name(1, 't');
    Name += std::to_string(T);
    Ids.push_back(Service.addTenant(Name, Tenant));
  }
  std::vector<std::vector<std::uint64_t>> Shadow(
      TenantCount, std::vector<std::uint64_t>(TenantBlocks, NoContent));
  Random Rng(Ctx.Seed * 0x9E3779B97F4A7C15ULL + 0x7E4A);
  std::uint64_t NextUnique = UniqueContentBase;
  std::vector<StepPlan> Plan(Steps);
  std::uint64_t TotalBlocks = 0;
  for (std::uint64_t Step = 0; Step < Steps; ++Step) {
    StepPlan &SP = Plan[Step];
    for (unsigned T = 0; T < TenantCount; ++T) {
      WritePlan &W = SP.Writes[T];
      W.Blocks = 1 + Rng.nextBelow(MaxRunBlocks);
      W.Lba = Rng.nextBelow(TenantBlocks - W.Blocks + 1);
      W.FirstContent = isFriendly(T) ? Rng.nextBelow(FriendlyContentIds)
                                     : NextUnique;
      if (!isFriendly(T))
        NextUnique += W.Blocks;
      TotalBlocks += W.Blocks;
    }
    SP.ReadTenant = static_cast<unsigned>(Rng.nextBelow(TenantCount));
    const WritePlan &Earlier =
        Plan[Rng.nextBelow(Step + 1)].Writes[SP.ReadTenant];
    SP.ReadLba = Earlier.Lba;
    SP.ReadBlocks = Earlier.Blocks;
  }
  // One buffer for all write content: a fresh, equally sized allocation
  // every pass keeps set-up time from depending on allocator reuse.
  ByteVector Content(TotalBlocks * BlockSize);
  std::size_t Offset = 0;
  for (StepPlan &SP : Plan)
    for (unsigned T = 0; T < TenantCount; ++T) {
      WritePlan &W = SP.Writes[T];
      W.Data = ByteSpan(Content.data() + Offset, W.Blocks * BlockSize);
      for (std::uint64_t I = 0; I < W.Blocks; ++I)
        fillTraceBlock(contentOf(T, W.FirstContent, I),
                       MutableByteSpan(Content.data() + Offset + I * BlockSize,
                                       BlockSize));
      Offset += W.Blocks * BlockSize;
    }
  const std::size_t BatchesBefore =
      Service.pipeline().scheduler().batchesScheduled();
  Out.setup(SetupBegin, Stamp::end());

  for (std::uint64_t Step = 0; Step < Steps; ++Step) {
    const StepPlan &SP = Plan[Step];
    if (Step > 0 && Step % SweepEverySteps == 0) {
      const Stamp Begin = Stamp::begin();
      {
        ScopedSpan S(Ctx.Spans, "service.sweep", Step);
        Service.sweepDeferred();
      }
      Out.timed(Begin, Stamp::end(), 0);
    }
    std::uint64_t StepBytes = 0;
    for (unsigned T = 0; T < TenantCount; ++T) {
      StepBytes += SP.Writes[T].Data.size();
      if (Ctx.Traced)
        Out.Replay.addWrite(
            ByteSpan(SP.Writes[T].Data.data(), SP.Writes[T].Data.size()),
            T * TenantBlocks + SP.Writes[T].Lba);
    }

    Stamp Submit[TenantCount];
    const Stamp StepBegin = Stamp::begin();
    bool Accepted = true;
    for (unsigned T = 0; T < TenantCount; ++T) {
      Submit[T] = Stamp::begin();
      Accepted &= Service.submitWrite(
          Ids[T], SP.Writes[T].Lba,
          ByteSpan(SP.Writes[T].Data.data(), SP.Writes[T].Data.size()));
    }
    {
      ScopedSpan S(Ctx.Spans, "service.pump", Step);
      // Each tenant's credit per round exceeds one request, so one
      // round dispatches the step; the loop only guards that.
      for (unsigned Round = 0; Round < 16 && Service.pump(); ++Round) {
        bool Queued = false;
        for (unsigned T = 0; T < TenantCount; ++T)
          Queued |= Service.tenantStats(Ids[T]).QueuedBytes != 0;
        if (!Queued)
          break;
      }
    }
    const Stamp StepEnd = Stamp::end();
    for (unsigned T = 0; T < TenantCount; ++T)
      Out.sample(OpKind::Write, Submit[T], StepEnd);
    Out.timed(StepBegin, StepEnd, StepBytes);
    Out.check(Accepted, "submits of step " + std::to_string(Step));
    for (unsigned T = 0; T < TenantCount; ++T) {
      const WritePlan &W = SP.Writes[T];
      for (std::uint64_t I = 0; I < W.Blocks; ++I)
        Shadow[T][W.Lba + I] = contentOf(T, W.FirstContent, I);
    }

    const Stamp ReadBegin = Stamp::begin();
    std::optional<ByteVector> Data;
    {
      ScopedSpan S(Ctx.Spans, "restore.read", Step);
      Data = Service.readBlocks(Ids[SP.ReadTenant], SP.ReadLba, SP.ReadBlocks);
    }
    Out.request(OpKind::Read, ReadBegin, Stamp::end(),
                SP.ReadBlocks * BlockSize);
    Out.check(Data && matchesShadow(*Data, SP.ReadLba, SP.ReadBlocks,
                                    Shadow[SP.ReadTenant]),
              "read of step " + std::to_string(Step));
  }

  const PipelineReport Report = Service.pipeline().report();
  std::uint64_t Admitted = 0, Deferred = 0, Resident = 0;
  for (const VolumeService::TenantId Id : Ids) {
    const TenantStats Stats = Service.tenantStats(Id);
    Admitted += Stats.AdmittedBytes;
    Deferred += Stats.DeferredBytes;
    Resident += Stats.Resident;
  }
  Service.finish();
  std::uint64_t Logical = 0;
  for (const VolumeService::TenantId Id : Ids)
    Logical += Service.tenantVolume(Id).stats().LogicalBytes;
  const std::uint64_t Physical = Service.pipeline().store().storedBytes();
  Out.Det["model_MBps"] = Report.WallThroughputMBps;
  Out.Det["model_p99_us"] = Report.LatencyP99Us;
  Out.Det["model_write_p99_us"] = Report.LatencyP99Us;
  Out.Det["reduction_ratio"] =
      Physical == 0 ? 0.0
                    : static_cast<double>(Logical) /
                          static_cast<double>(Physical);
  Out.Det["admitted_bytes"] = static_cast<double>(Admitted);
  Out.Det["deferred_bytes"] = static_cast<double>(Deferred);
  Out.Det["resident_tenants"] = static_cast<double>(Resident);
  Out.Det["rounds"] = static_cast<double>(Service.rounds());
  Out.Det["unique_chunks"] = static_cast<double>(Report.UniqueChunks);
  Out.Det["model_makespan_s"] = Report.MakespanSec;
  if (Ctx.Traced) {
    addPipelineCounters(Service.pipeline(), Report, Out.Layer);
    addWriteLanes(Report, Out.Layer);
    addModelStages(*Ctx.Trace, Out.Layer);
    const std::size_t Batches =
        Service.pipeline().scheduler().batchesScheduled() - BatchesBefore;
    Out.Layer["core.chunks_per_batch"] =
        Batches == 0 ? 0.0
                     : static_cast<double>(Report.LogicalChunks) /
                           static_cast<double>(Batches);
    Out.Layer["service.deferred_frac"] =
        Admitted + Deferred == 0
            ? 0.0
            : static_cast<double>(Deferred) /
                  static_cast<double>(Admitted + Deferred);
    Out.Layer["service.resident_tenants"] = static_cast<double>(Resident);
    std::set<std::uint64_t> Seen;
    for (const VolumeService::TenantId Id : Ids)
      for (const std::uint64_t Location : Service.tenantVolume(Id).mapping())
        if (Location != Volume::Unmapped && Seen.insert(Location).second)
          Out.Replay.addEncoded(Service.pipeline(), Location);
    Out.Replay.CoreConfig = Config.Pipeline;
    Out.Replay.CoreConfig.Trace = nullptr;
    Out.Replay.CoreConfig.Metrics = nullptr;
    Out.Replay.VolumeBlocks = TenantCount * TenantBlocks;
  }

  for (unsigned T = 0; T < TenantCount; ++T)
    for (std::uint64_t Lba = 0; Lba < TenantBlocks; Lba += VerifyRunBlocks) {
      const std::optional<ByteVector> Data =
          Service.readBlocks(Ids[T], Lba, VerifyRunBlocks);
      Out.check(Data && matchesShadow(*Data, Lba, VerifyRunBlocks, Shadow[T]),
                "final read of tenant " + std::to_string(T));
    }
  return Out;
}

} // namespace perfbench
