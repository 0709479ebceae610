//===----------------------------------------------------------------------===//
///
/// \file
/// E8 — multi-tenant service (extension): what the shared fingerprint
/// index buys under an inline memory budget, and how the sharded
/// global index scales.
///
///   1. cache-tier quality: one hot tenant (tight working set,
///      rewritten every round) interferes with three cold tenants
///      (fresh blocks every round) under a fixed index budget. The
///      HPDedup-style prioritized policy must keep the hot tenant
///      inline-resident and beat the LRU baseline on dedup ratio per
///      MB of index memory; demoted streams fall back to deferred
///      dedup (BackgroundReducer sweeps).
///   2. shard scaling: the same three-tenant workload through the
///      global index at several shard counts. Outcomes must be
///      bit-identical at every count (bins are disjoint across
///      shards), and per-shard occupancy must roughly balance.
///
/// Emits BENCH_service.json. `--smoke` runs reduced sweeps and only
/// the hard gates (CI).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "service/VolumeService.h"
#include "util/Random.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

constexpr std::size_t BlockSize = 4096;
constexpr std::uint64_t RunBlocks = 8;
constexpr unsigned ColdTenants = 3;

ByteVector blockOf(std::uint64_t Tag) {
  ByteVector Data(BlockSize);
  Random Rng(Tag * 7919 + 3);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

/// A run of \p RunBlocks blocks whose contents are Tag, Tag+1, ...
ByteVector runOf(std::uint64_t Tag) {
  ByteVector Data;
  Data.reserve(RunBlocks * BlockSize);
  for (std::uint64_t I = 0; I < RunBlocks; ++I) {
    const ByteVector Block = blockOf(Tag + I);
    Data.insert(Data.end(), Block.begin(), Block.end());
  }
  return Data;
}

std::unique_ptr<VolumeService> makeService(CachePolicy Policy,
                                           std::size_t BudgetBytes,
                                           unsigned Shards) {
  ServiceConfig Config;
  Config.Pipeline.Mode = PipelineMode::CpuOnly;
  Config.Pipeline.Dedup.Index.BinBits = 8;
  Config.Pipeline.Dedup.Index.Shards = Shards;
  Config.IndexMemoryBudget = BudgetBytes;
  Config.Policy = Policy;
  return std::make_unique<VolumeService>(Platform::paper(), Config);
}

//===--------------------------------------------------------------===//
// 1. Cache-tier quality: prioritized vs LRU under a budget.
//===--------------------------------------------------------------===//

struct CacheRow {
  const char *Policy = "";
  std::size_t BudgetBytes = 0;
  double DedupRatio = 0.0;
  double RatioPerMb = 0.0;       ///< dedup ratio / (budget in MiB)
  std::uint64_t HotDeferred = 0; ///< hot tenant's raw-dispatched bytes
  std::uint64_t DeferredBytes = 0;
  std::uint64_t SweptBlocks = 0;
  std::uint64_t ExpiredEntries = 0;
};

/// One hot + ColdTenants cold tenants for \p Rounds dispatch rounds.
/// The hot tenant rewrites the same RunBlocks-block working set every
/// round (duplicate fraction ~1 once warm); each cold tenant writes
/// fresh content every round (duplicate fraction 0).
CacheRow runCacheTier(CachePolicy Policy, std::size_t BudgetBytes,
                      std::uint64_t Rounds) {
  auto Service = makeService(Policy, BudgetBytes, /*Shards=*/1);
  const auto Hot = Service->addTenant("hot", TenantConfig{});
  std::vector<VolumeService::TenantId> Cold;
  for (unsigned I = 0; I < ColdTenants; ++I)
    Cold.push_back(
        Service->addTenant("cold" + std::to_string(I), TenantConfig{}));

  const ByteVector HotRun = runOf(1000);
  for (std::uint64_t Round = 0; Round < Rounds; ++Round) {
    bool Ok = Service->submitWrite(
        Hot, 0, ByteSpan(HotRun.data(), HotRun.size()));
    for (unsigned I = 0; I < ColdTenants; ++I) {
      const ByteVector Run =
          runOf(1'000'000 * (I + 1) + Round * RunBlocks);
      Ok = Service->submitWrite(Cold[I], Round * RunBlocks,
                                ByteSpan(Run.data(), Run.size())) &&
           Ok;
    }
    if (!Ok) {
      std::fprintf(stderr, "FATAL: admission rejected an in-range "
                           "write\n");
      std::exit(1);
    }
    Service->pump();
  }
  Service->finish();

  CacheRow Row;
  Row.Policy = Policy == CachePolicy::Prioritized ? "prioritized" : "lru";
  Row.BudgetBytes = BudgetBytes;
  const PipelineReport Report = Service->pipeline().report();
  Row.DedupRatio = Report.DedupRatio;
  Row.RatioPerMb = BudgetBytes == 0
                       ? 0.0
                       : Report.DedupRatio /
                             (static_cast<double>(BudgetBytes) /
                              (1024.0 * 1024.0));
  Row.HotDeferred = Service->tenantStats(Hot).DeferredBytes;
  for (unsigned T = 0; T < Service->tenantCount(); ++T)
    Row.DeferredBytes +=
        Service->tenantStats(static_cast<VolumeService::TenantId>(T))
            .DeferredBytes;
  const ServiceSweepStats Sweep = Service->sweepDeferred();
  Row.SweptBlocks = Sweep.BlocksProcessed;
  Row.ExpiredEntries = Sweep.EntriesExpired;
  return Row;
}

//===--------------------------------------------------------------===//
// 2. Shard scaling of the global index.
//===--------------------------------------------------------------===//

struct ShardRow {
  unsigned Shards = 0;
  std::uint64_t UniqueChunks = 0;
  std::uint64_t DupChunks = 0;
  std::uint64_t StoredBytes = 0;
  std::uint64_t MinShardEntries = 0;
  std::uint64_t MaxShardEntries = 0;
};

/// Three tenants with mixed (partially shared) content through the
/// pass-through service (no budget) at \p Shards index shards.
ShardRow runShardScaling(unsigned Shards, std::uint64_t Rounds) {
  auto Service =
      makeService(CachePolicy::Prioritized, /*BudgetBytes=*/0, Shards);
  std::vector<VolumeService::TenantId> Ids;
  for (unsigned I = 0; I < 3; ++I)
    Ids.push_back(
        Service->addTenant("t" + std::to_string(I), TenantConfig{}));
  for (std::uint64_t Round = 0; Round < Rounds; ++Round) {
    for (unsigned I = 0; I < 3; ++I) {
      // Even rounds write a shared image (cross-tenant duplicates);
      // odd rounds write tenant-private content.
      const std::uint64_t Tag = Round % 2 == 0
                                    ? 5'000'000 + Round * RunBlocks
                                    : 6'000'000 * (I + 1) +
                                          Round * RunBlocks;
      const ByteVector Run = runOf(Tag);
      if (!Service->submitWrite(Ids[I], Round * RunBlocks,
                                ByteSpan(Run.data(), Run.size()))) {
        std::fprintf(stderr, "FATAL: shard-scaling write rejected\n");
        std::exit(1);
      }
    }
    Service->pump();
  }
  Service->finish();

  ShardRow Row;
  Row.Shards = Shards;
  const PipelineReport Report = Service->pipeline().report();
  Row.UniqueChunks = Report.UniqueChunks;
  Row.DupChunks = Report.DupChunks;
  Row.StoredBytes = Report.StoredBytes;
  const DedupEngine *Engine = Service->pipeline().dedupEngine();
  const DedupIndex &Index = Engine->index();
  Row.MinShardEntries = ~0ull;
  for (unsigned S = 0; S < Index.shardCount(); ++S) {
    const IndexShardStats Stats = Index.shardStats(S);
    Row.MinShardEntries = std::min(Row.MinShardEntries, Stats.TreeEntries);
    Row.MaxShardEntries = std::max(Row.MaxShardEntries, Stats.TreeEntries);
  }
  return Row;
}

bool writeJson(const char *Path, const std::vector<CacheRow> &Cache,
               const std::vector<ShardRow> &Shards) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"experiment\": \"E8-service\",\n");
  std::fprintf(File, "  \"cache_tier\": [\n");
  for (std::size_t I = 0; I < Cache.size(); ++I)
    std::fprintf(
        File,
        "    {\"policy\": \"%s\", \"budget_bytes\": %zu, "
        "\"dedup_ratio\": %.4f, \"ratio_per_mb\": %.2f, "
        "\"hot_deferred_bytes\": %llu, \"deferred_bytes\": %llu, "
        "\"swept_blocks\": %llu, \"expired_entries\": %llu}%s\n",
        Cache[I].Policy, Cache[I].BudgetBytes, Cache[I].DedupRatio,
        Cache[I].RatioPerMb,
        static_cast<unsigned long long>(Cache[I].HotDeferred),
        static_cast<unsigned long long>(Cache[I].DeferredBytes),
        static_cast<unsigned long long>(Cache[I].SweptBlocks),
        static_cast<unsigned long long>(Cache[I].ExpiredEntries),
        I + 1 < Cache.size() ? "," : "");
  std::fprintf(File, "  ],\n  \"shard_scaling\": [\n");
  for (std::size_t I = 0; I < Shards.size(); ++I)
    std::fprintf(
        File,
        "    {\"shards\": %u, \"unique_chunks\": %llu, "
        "\"dup_chunks\": %llu, \"stored_bytes\": %llu, "
        "\"min_shard_entries\": %llu, \"max_shard_entries\": %llu}%s\n",
        Shards[I].Shards,
        static_cast<unsigned long long>(Shards[I].UniqueChunks),
        static_cast<unsigned long long>(Shards[I].DupChunks),
        static_cast<unsigned long long>(Shards[I].StoredBytes),
        static_cast<unsigned long long>(Shards[I].MinShardEntries),
        static_cast<unsigned long long>(Shards[I].MaxShardEntries),
        I + 1 < Shards.size() ? "," : "");
  std::fprintf(File, "  ]\n}\n");
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E8", Smoke ? "multi-tenant service (smoke)"
                     : "multi-tenant service — prioritized cache tier "
                       "and sharded-index scaling");

  //===------------------------------------------------------------===//
  // 1. Cache-tier quality.
  //===------------------------------------------------------------===//
  const std::uint64_t Rounds = Smoke ? 8 : 24;
  // 48 and 512 index entries' worth of budget (~32 B/entry): the tight
  // budget forces a choice almost immediately, the loose one only
  // after the cold tenants accumulate.
  const std::vector<std::size_t> Budgets = {48 * 32, 512 * 32};
  std::vector<CacheRow> Cache;
  for (const std::size_t Budget : Budgets)
    for (const CachePolicy Policy :
         {CachePolicy::Prioritized, CachePolicy::Lru})
      Cache.push_back(runCacheTier(Policy, Budget, Rounds));
  std::printf("\ncache tier (1 hot + %u cold tenants, %llu rounds):\n"
              "%13s %13s %12s %14s %15s %13s\n",
              ColdTenants, static_cast<unsigned long long>(Rounds),
              "policy", "budget (B)", "dedup ratio", "ratio per MB",
              "hot deferred", "swept blks");
  for (const CacheRow &Row : Cache)
    std::printf("%13s %13zu %12.3f %14.1f %15llu %13llu\n", Row.Policy,
                Row.BudgetBytes, Row.DedupRatio, Row.RatioPerMb,
                static_cast<unsigned long long>(Row.HotDeferred),
                static_cast<unsigned long long>(Row.SweptBlocks));
  std::printf("expected shape: prioritized protects the hot tenant's "
              "fingerprints (locality\nscore), so its duplicates stay "
              "inline; LRU's recency ranking evicts the hot\ntenant and "
              "pays for it in raw writes + deferred sweeps.\n");

  //===------------------------------------------------------------===//
  // 2. Shard scaling.
  //===------------------------------------------------------------===//
  const std::uint64_t ShardRounds = Smoke ? 6 : 16;
  const std::vector<unsigned> ShardCounts =
      Smoke ? std::vector<unsigned>{1, 4}
            : std::vector<unsigned>{1, 2, 4, 8};
  std::vector<ShardRow> Shards;
  for (const unsigned Count : ShardCounts)
    Shards.push_back(runShardScaling(Count, ShardRounds));
  std::printf("\nshard scaling (3 tenants, %llu rounds, shared + "
              "private content):\n%8s %10s %10s %14s %12s %12s\n",
              static_cast<unsigned long long>(ShardRounds), "shards",
              "unique", "dup", "stored (B)", "min entries",
              "max entries");
  for (const ShardRow &Row : Shards)
    std::printf("%8u %10llu %10llu %14llu %12llu %12llu\n", Row.Shards,
                static_cast<unsigned long long>(Row.UniqueChunks),
                static_cast<unsigned long long>(Row.DupChunks),
                static_cast<unsigned long long>(Row.StoredBytes),
                static_cast<unsigned long long>(Row.MinShardEntries),
                static_cast<unsigned long long>(Row.MaxShardEntries));
  std::printf("expected shape: identical outcomes at every shard count "
              "(bins are disjoint\nacross shards); occupancy balances "
              "because the digest prefix is uniform.\n");

  const char *JsonPath = "BENCH_service.json";
  if (!writeJson(JsonPath, Cache, Shards))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s\n", JsonPath);

  //===------------------------------------------------------------===//
  // Acceptance gates.
  //===------------------------------------------------------------===//
  bool Pass = true;
  // At equal budgets the per-MB factor cancels, so "dedup ratio per MB
  // of index memory" reduces to the dedup ratio: prioritized must never
  // lose, and must win strictly at the tight budget.
  for (std::size_t I = 0; I + 1 < Cache.size(); I += 2) {
    const CacheRow &P = Cache[I];
    const CacheRow &L = Cache[I + 1];
    if (P.DedupRatio < L.DedupRatio) {
      std::fprintf(stderr,
                   "FAIL: prioritized (%.3f) below lru (%.3f) at "
                   "budget %zu\n",
                   P.DedupRatio, L.DedupRatio, P.BudgetBytes);
      Pass = false;
    }
  }
  if (Cache[0].DedupRatio <= Cache[1].DedupRatio) {
    std::fprintf(stderr,
                 "FAIL: prioritized (%.3f per-MB %.1f) does not beat "
                 "lru (%.3f per-MB %.1f) at the tight budget\n",
                 Cache[0].DedupRatio, Cache[0].RatioPerMb,
                 Cache[1].DedupRatio, Cache[1].RatioPerMb);
    Pass = false;
  }
  // LRU's demotions must show up as deferred work (the raw fallback is
  // real), and the sweeps must expire the transient entries.
  if (Cache[1].HotDeferred == 0 || Cache[1].ExpiredEntries == 0) {
    std::fprintf(stderr, "FAIL: lru run deferred nothing (hot %llu, "
                         "expired %llu)\n",
                 static_cast<unsigned long long>(Cache[1].HotDeferred),
                 static_cast<unsigned long long>(Cache[1].ExpiredEntries));
    Pass = false;
  }
  // Shard-count invariance: bins are disjoint across shards, so every
  // count must reproduce the same outcome bit-for-bit.
  for (std::size_t I = 1; I < Shards.size(); ++I)
    if (Shards[I].UniqueChunks != Shards[0].UniqueChunks ||
        Shards[I].DupChunks != Shards[0].DupChunks ||
        Shards[I].StoredBytes != Shards[0].StoredBytes) {
      std::fprintf(stderr,
                   "FAIL: shard count %u diverged from unsharded "
                   "outcomes\n",
                   Shards[I].Shards);
      Pass = false;
    }
  if (!Pass)
    return 1;
  std::printf("\nPASS: prioritized cache beats LRU per MB of index "
              "memory; sharding is outcome-invariant\n");
  return 0;
}
