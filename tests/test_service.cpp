//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the multi-tenant volume service (src/service): quota
/// admission, weighted-fair dispatch, cross-tenant dedup bit-safety,
/// single-tenant pass-through parity with the direct Volume path, the prioritized cache tier's deferral
/// lifecycle, and fault-plan drains through the dispatch layer.
///
//===----------------------------------------------------------------------===//

#include "fault/FaultInjector.h"
#include "service/VolumeService.h"
#include "workload/Trace.h"
#include "workload/VdbenchStream.h"

#include <gtest/gtest.h>

using namespace padre;

namespace {

constexpr std::size_t BlockSize = 4096;

PipelineConfig basePipeline() {
  PipelineConfig Config;
  Config.Mode = PipelineMode::CpuOnly;
  Config.Dedup.Index.BinBits = 8;
  return Config;
}

ServiceConfig baseService() {
  ServiceConfig Config;
  Config.Pipeline = basePipeline();
  return Config;
}

/// Deterministic block content per tag.
ByteVector blockOf(std::uint64_t Tag) {
  ByteVector Data(BlockSize);
  fillTraceBlock(Tag, MutableByteSpan(Data.data(), Data.size()));
  return Data;
}

/// `Count` consecutive tagged blocks as one buffer.
ByteVector runOf(std::uint64_t BaseTag, std::uint64_t Count) {
  ByteVector Run;
  for (std::uint64_t I = 0; I < Count; ++I)
    appendBytes(Run, ByteSpan(blockOf(BaseTag + I).data(), BlockSize));
  return Run;
}

/// Per-lane modelled busy times of a pipeline, in microseconds.
std::vector<double> laneBusy(ReductionPipeline &Pipeline) {
  std::vector<double> Busy;
  for (unsigned R = 0; R < ResourceCount; ++R)
    Busy.push_back(Pipeline.ledger().busyMicros(static_cast<Resource>(R)));
  return Busy;
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-tenant pass-through parity
//===----------------------------------------------------------------------===//

// A single tenant driven through the service must be bit-identical to
// the direct Volume path — chunks, recipes, mappings, per-lane ledger
// charges and index totals.
TEST(ServiceParity, SingleTenantMatchesDirectVolume) {
  // The write sequence: a dup-heavy prefix, an overwrite, fresh tail.
  const std::vector<std::pair<std::uint64_t, ByteVector>> Writes = {
      {0, runOf(100, 16)},
      {16, runOf(100, 16)}, // duplicates of the prefix
      {8, runOf(500, 8)},   // overwrite in the middle
      {32, runOf(900, 16)},
  };

  // Reference: the direct Volume path.
  ReductionPipeline RefPipeline(Platform::paper(), basePipeline());
  Volume RefVol(RefPipeline, VolumeConfig{256});
  for (const auto &[Lba, Data] : Writes)
    ASSERT_TRUE(RefVol.writeBlocks(
        Lba, ByteSpan(Data.data(), Data.size())));
  RefPipeline.finish();

  VolumeService Service(Platform::paper(), baseService());
  const auto Tenant = Service.addTenant("only", TenantConfig{256});
  for (const auto &[Lba, Data] : Writes)
    ASSERT_TRUE(Service.submitWrite(
        Tenant, Lba, ByteSpan(Data.data(), Data.size())));
  Service.finish();

  // Functional state: recipe, mapping, stored bytes.
  EXPECT_EQ(Service.pipeline().recipe().ChunkLocations,
            RefPipeline.recipe().ChunkLocations);
  EXPECT_EQ(Service.pipeline().recipe().ChunkSizes,
            RefPipeline.recipe().ChunkSizes);
  EXPECT_EQ(Service.tenantVolume(Tenant).mapping(), RefVol.mapping());

  // Outcome counters.
  const PipelineReport Report = Service.pipeline().report();
  const PipelineReport RefReport = RefPipeline.report();
  EXPECT_EQ(Report.UniqueChunks, RefReport.UniqueChunks);
  EXPECT_EQ(Report.DupChunks, RefReport.DupChunks);
  EXPECT_EQ(Report.DupFromBuffer, RefReport.DupFromBuffer);
  EXPECT_EQ(Report.DupFromTree, RefReport.DupFromTree);
  EXPECT_EQ(Report.StoredBytes, RefReport.StoredBytes);

  // Ledger charges, lane by lane.
  EXPECT_EQ(laneBusy(Service.pipeline()), laneBusy(RefPipeline));

  // Index totals.
  const DedupIndex &Index = Service.pipeline().dedupEngine()->index();
  const DedupIndex &RefIndex = RefPipeline.dedupEngine()->index();
  EXPECT_EQ(Index.uniqueInserts(), RefIndex.uniqueInserts());
  EXPECT_EQ(Index.bufferHits(), RefIndex.bufferHits());
  EXPECT_EQ(Index.treeHits(), RefIndex.treeHits());
  EXPECT_EQ(Index.treeEntries(), RefIndex.treeEntries());
  EXPECT_EQ(Index.memoryBytes(), RefIndex.memoryBytes());
}

//===----------------------------------------------------------------------===//
// Quotas and weighted-fair dispatch
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, QuotaRejectsBeforeAnyResourceIsCharged) {
  VolumeService Service(Platform::paper(), baseService());
  const auto Small = Service.addTenant(
      "small", TenantConfig{64, /*QuotaBytes=*/8 * BlockSize, 1});
  const auto Big = Service.addTenant("big", TenantConfig{64, 0, 1});

  const ByteVector Four = runOf(10, 4);
  const ByteSpan FourSpan(Four.data(), Four.size());
  EXPECT_TRUE(Service.submitWrite(Small, 0, FourSpan));
  EXPECT_TRUE(Service.submitWrite(Small, 4, FourSpan));
  // Third write would exceed the 8-block quota: rejected at admission,
  // before any modelled time is charged.
  const double CpuBefore =
      Service.pipeline().ledger().busyMicros(Resource::CpuPool);
  EXPECT_FALSE(Service.submitWrite(Small, 8, FourSpan));
  EXPECT_EQ(Service.pipeline().ledger().busyMicros(Resource::CpuPool),
            CpuBefore);
  EXPECT_EQ(Service.tenantStats(Small).RejectedBytes, 4 * BlockSize);

  // The unlimited tenant is unaffected.
  EXPECT_TRUE(Service.submitWrite(Big, 0, FourSpan));
  Service.finish();
  EXPECT_EQ(Service.tenantStats(Small).AdmittedBytes, 8 * BlockSize);
  EXPECT_EQ(Service.tenantStats(Big).AdmittedBytes, 4 * BlockSize);

  // Accepted data is intact; the rejected range stays unmapped.
  const auto Read = Service.readBlocks(Small, 8, 4);
  ASSERT_TRUE(Read.has_value());
  EXPECT_EQ((*Read)[0], 0);
}

TEST(ServiceAdmission, RejectsMisalignedAndOutOfRangeWrites) {
  VolumeService Service(Platform::paper(), baseService());
  const auto T = Service.addTenant("t", TenantConfig{16});
  const ByteVector One = runOf(1, 1);
  EXPECT_FALSE(Service.submitWrite(
      T, 0, ByteSpan(One.data(), BlockSize / 2))); // misaligned
  EXPECT_FALSE(Service.submitWrite(
      T, 16, ByteSpan(One.data(), BlockSize))); // out of range
  EXPECT_TRUE(Service.submitWrite(T, 15, ByteSpan(One.data(), BlockSize)));
}

TEST(ServiceDispatch, WeightedFairSharesOneRoundByWeight) {
  ServiceConfig Config = baseService();
  Config.DispatchRunBlocks = 4;
  VolumeService Service(Platform::paper(), Config);
  const auto Light = Service.addTenant("light", TenantConfig{256, 0, 1});
  const auto Heavy = Service.addTenant("heavy", TenantConfig{256, 0, 3});

  // Both tenants queue 32 single-block writes.
  for (std::uint64_t I = 0; I < 32; ++I) {
    const ByteVector A = blockOf(1000 + I), B = blockOf(2000 + I);
    ASSERT_TRUE(Service.submitWrite(Light, I, ByteSpan(A.data(), BlockSize)));
    ASSERT_TRUE(Service.submitWrite(Heavy, I, ByteSpan(B.data(), BlockSize)));
  }

  // One round: credit = Weight x DispatchRunBlocks blocks each.
  EXPECT_TRUE(Service.pump());
  EXPECT_EQ(Service.tenantStats(Light).AdmittedBytes, 4 * BlockSize);
  EXPECT_EQ(Service.tenantStats(Heavy).AdmittedBytes, 12 * BlockSize);

  // Draining finishes both queues regardless of weights.
  Service.finish();
  EXPECT_EQ(Service.tenantStats(Light).AdmittedBytes, 32 * BlockSize);
  EXPECT_EQ(Service.tenantStats(Heavy).AdmittedBytes, 32 * BlockSize);
  EXPECT_EQ(Service.tenantStats(Light).QueuedBytes, 0u);
}

//===----------------------------------------------------------------------===//
// Cross-tenant dedup bit-safety
//===----------------------------------------------------------------------===//

TEST(ServiceIsolation, CrossTenantSharingIsBitSafe) {
  VolumeService Service(Platform::paper(), baseService());
  const auto A = Service.addTenant("a", TenantConfig{64});
  const auto B = Service.addTenant("b", TenantConfig{64});
  const auto C = Service.addTenant("c", TenantConfig{64});

  const ByteVector Shared = runOf(42, 8);
  const ByteSpan SharedSpan(Shared.data(), Shared.size());
  ASSERT_TRUE(Service.submitWrite(A, 0, SharedSpan));
  ASSERT_TRUE(Service.submitWrite(B, 8, SharedSpan));
  const ByteVector Private = runOf(9000, 8);
  ASSERT_TRUE(Service.submitWrite(C, 0,
                                  ByteSpan(Private.data(), Private.size())));
  Service.finish();

  // The shared image is stored once (cross-tenant dedup)…
  EXPECT_GT(Service.pipeline().report().DupChunks, 0u);

  // …and every tenant reads exactly its own bytes.
  const auto ReadA = Service.readBlocks(A, 0, 8);
  const auto ReadB = Service.readBlocks(B, 8, 8);
  const auto ReadC = Service.readBlocks(C, 0, 8);
  ASSERT_TRUE(ReadA && ReadB && ReadC);
  EXPECT_EQ(*ReadA, Shared);
  EXPECT_EQ(*ReadB, Shared);
  EXPECT_EQ(*ReadC, Private);

  // A tenant that never wrote the shared content cannot see it: C's
  // other LBAs read as zeros, not as some other tenant's plaintext.
  const auto Unwritten = Service.readBlocks(C, 8, 8);
  ASSERT_TRUE(Unwritten.has_value());
  EXPECT_TRUE(std::all_of(Unwritten->begin(), Unwritten->end(),
                          [](std::uint8_t V) { return V == 0; }));

  // Trimming one tenant's copy must not damage the other's: the chunk
  // survives via B's references.
  ASSERT_TRUE(Service.tenantVolume(A).trim(0, 64));
  Service.tenantVolume(A).collectGarbage();
  const auto ReadBAfter = Service.readBlocks(B, 8, 8);
  ASSERT_TRUE(ReadBAfter.has_value());
  EXPECT_EQ(*ReadBAfter, Shared);
}

//===----------------------------------------------------------------------===//
// Prioritized cache tier and the deferred-dedup lifecycle
//===----------------------------------------------------------------------===//

TEST(ServiceCacheTier, LowLocalityTenantsAreDeferredAndSweptLater) {
  ServiceConfig Config = baseService();
  Config.IndexMemoryBudget = 64 * 32; // a few hundred entries
  Config.Policy = CachePolicy::Prioritized;
  Config.DispatchRunBlocks = 8;
  VolumeService Service(Platform::paper(), Config);

  const auto Hot = Service.addTenant("hot", TenantConfig{512});
  const auto Cold = Service.addTenant("cold", TenantConfig{512});

  // Hot tenant: the same 8 blocks over and over (locality ≈ 1).
  // Cold tenant: fresh blocks every time (locality ≈ 0).
  std::uint64_t ColdTag = 100000;
  for (std::uint64_t Round = 0; Round < 24; ++Round) {
    const ByteVector HotData = runOf(500, 8);
    ASSERT_TRUE(Service.submitWrite(Hot, (Round % 8) * 8,
                                    ByteSpan(HotData.data(),
                                             HotData.size())));
    const ByteVector ColdData = runOf(ColdTag, 8);
    ColdTag += 8;
    ASSERT_TRUE(Service.submitWrite(Cold, (Round * 8) % 512,
                                    ByteSpan(ColdData.data(),
                                             ColdData.size())));
    Service.pump();
  }
  Service.drain();

  // The hot stream stays resident; the cold one is demoted to the
  // deferred (raw) path once its locality score sinks.
  EXPECT_TRUE(Service.tenantStats(Hot).Resident);
  EXPECT_FALSE(Service.tenantStats(Cold).Resident);
  EXPECT_GT(Service.tenantStats(Cold).DeferredBytes, 0u);
  EXPECT_EQ(Service.tenantStats(Hot).DeferredBytes, 0u);
  EXPECT_GT(Service.tenantStats(Hot).LocalityScore,
            Service.tenantStats(Cold).LocalityScore);

  // The deferred-dedup pass reduces the raw blocks and expires the
  // non-resident tenant's transient index entries.
  const std::size_t EntriesBefore =
      Service.pipeline().dedupEngine()->index().treeEntries() +
      Service.tenantStats(Cold).TrackedEntries;
  const ServiceSweepStats Sweep = Service.sweepDeferred();
  EXPECT_EQ(Sweep.TenantsSwept, 1u);
  EXPECT_GT(Sweep.BlocksProcessed, 0u);
  EXPECT_GT(Sweep.EntriesExpired, 0u);
  (void)EntriesBefore;

  // Both tenants read back intact after the whole lifecycle.
  const auto HotRead = Service.readBlocks(Hot, 0, 8);
  ASSERT_TRUE(HotRead.has_value());
  EXPECT_EQ(*HotRead, runOf(500, 8));
}

//===----------------------------------------------------------------------===//
// Fault-plan drain through the dispatch layer
//===----------------------------------------------------------------------===//

TEST(ServiceFaults, FaultPlanDrainRecoversAndStaysBitExact) {
  fault::FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(fault::parseFaultPlan(
      "seed=7;ssd-write:error:at=0,2,5", Plan, Error))
      << Error;
  fault::FaultInjector Injector(Plan);

  ServiceConfig Config = baseService();
  Config.Pipeline.Faults = &Injector;
  VolumeService Service(Platform::paper(), Config);
  const auto A = Service.addTenant("a", TenantConfig{128});
  const auto B = Service.addTenant("b", TenantConfig{128});

  const ByteVector DataA = runOf(1, 64);
  const ByteVector DataB = runOf(5000, 64);
  ASSERT_TRUE(Service.submitWrite(A, 0, ByteSpan(DataA.data(),
                                                 DataA.size())));
  ASSERT_TRUE(Service.submitWrite(B, 0, ByteSpan(DataB.data(),
                                                 DataB.size())));
  Service.finish();

  // Faults actually fired during the drain…
  EXPECT_GT(Injector.injected(fault::FaultKind::LatentSectorError), 0u);

  // …and every tenant's data is still byte-exact (transient write
  // faults are retried inside the SSD model).
  const auto ReadA = Service.readBlocks(A, 0, 64);
  const auto ReadB = Service.readBlocks(B, 0, 64);
  ASSERT_TRUE(ReadA && ReadB);
  EXPECT_EQ(*ReadA, DataA);
  EXPECT_EQ(*ReadB, DataB);
}
