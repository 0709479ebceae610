//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the index module: bin layout arithmetic (prefix removal),
/// bin buffer semantics, bin tree merge/eviction, GPU bin table, and
/// the lock-free batch facade including flush events, and the shard
/// map's stats granularity (oracle replays and pinned per-shard stats).
///
//===----------------------------------------------------------------------===//

#include "OracleCheck.h"

#include "index/BinBuffer.h"
#include "index/BinLayout.h"
#include "index/CpuBinStore.h"
#include "index/DedupIndex.h"
#include "index/GpuBinTable.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

using namespace padre;

namespace {

Fingerprint fingerprintOf(std::uint64_t Value) {
  std::uint8_t Data[8];
  storeLe64(Data, Value);
  return Fingerprint::ofData(ByteSpan(Data, 8));
}

} // namespace

//===----------------------------------------------------------------------===//
// BinLayout
//===----------------------------------------------------------------------===//

TEST(BinLayout, PaperExampleTwoBytePrefix) {
  // §3.1(1): 2-byte prefix -> keep 18 of 20 bytes per hash. On a 4 TB /
  // 8 KiB system (512 Mi entries) that saves 1 GiB.
  const BinLayout Layout(16);
  EXPECT_EQ(Layout.binCount(), 65536u);
  EXPECT_EQ(Layout.prefixBytes(), 2u);
  EXPECT_EQ(Layout.suffixBytes(), 18u);
  const std::uint64_t Entries = (4ull << 40) / 8192;
  const std::uint64_t Saved = Entries * Layout.prefixBytes();
  EXPECT_EQ(Saved, 1ull << 30);
}

TEST(BinLayout, SuffixPlusPrefixReconstructsDigest) {
  const BinLayout Layout(16);
  const Fingerprint Fp = fingerprintOf(1234);
  std::uint8_t Suffix[Fingerprint::Size];
  Layout.extractSuffix(Fp, Suffix);
  const std::uint32_t Bin = Layout.binOf(Fp);
  // Prefix bytes are exactly the bin id (big-endian).
  EXPECT_EQ(Fp.bytes()[0], static_cast<std::uint8_t>(Bin >> 8));
  EXPECT_EQ(Fp.bytes()[1], static_cast<std::uint8_t>(Bin & 0xFF));
  for (unsigned I = 0; I < Layout.suffixBytes(); ++I)
    EXPECT_EQ(Suffix[I], Fp.bytes()[2 + I]);
}

TEST(BinLayout, NonByteAlignedBinBits) {
  const BinLayout Layout(10);
  EXPECT_EQ(Layout.binCount(), 1024u);
  EXPECT_EQ(Layout.prefixBytes(), 1u); // floor(10/8)
  EXPECT_EQ(Layout.suffixBytes(), 19u);
  const Fingerprint Fp = fingerprintOf(99);
  EXPECT_LT(Layout.binOf(Fp), 1024u);
}

TEST(BinLayout, EntrySizes) {
  const BinLayout Layout(16);
  EXPECT_EQ(Layout.cpuEntryBytes(), 18u + 8u);
  EXPECT_EQ(Layout.gpuEntryBytes(), 18u);
}

//===----------------------------------------------------------------------===//
// BinBuffer
//===----------------------------------------------------------------------===//

namespace {

struct BufferFixture : ::testing::Test {
  BinLayout Layout{8};
  BinBuffer Buffer{Layout, 4};

  std::uint32_t insertFp(const Fingerprint &Fp, std::uint64_t Location,
                         bool *Full = nullptr) {
    std::uint8_t Suffix[Fingerprint::Size];
    Layout.extractSuffix(Fp, Suffix);
    const std::uint32_t Bin = Layout.binOf(Fp);
    const bool F = Buffer.insert(Bin, Suffix, Location);
    if (Full)
      *Full = F;
    return Bin;
  }

  std::optional<std::uint64_t> lookupFp(const Fingerprint &Fp) {
    std::uint8_t Suffix[Fingerprint::Size];
    Layout.extractSuffix(Fp, Suffix);
    return Buffer.lookup(Layout.binOf(Fp), Suffix);
  }
};

} // namespace

TEST_F(BufferFixture, InsertThenLookup) {
  const Fingerprint Fp = fingerprintOf(1);
  EXPECT_FALSE(lookupFp(Fp).has_value());
  insertFp(Fp, 42);
  const auto Hit = lookupFp(Fp);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, 42u);
}

TEST_F(BufferFixture, ReportsFullAtCapacity) {
  // Find four fingerprints in one bin.
  std::map<std::uint32_t, std::vector<std::uint64_t>> ByBin;
  for (std::uint64_t I = 0; I < 4000; ++I) {
    const std::uint32_t Bin = Layout.binOf(fingerprintOf(I));
    ByBin[Bin].push_back(I);
    if (ByBin[Bin].size() == 4)
      break;
  }
  const auto It =
      std::find_if(ByBin.begin(), ByBin.end(),
                   [](const auto &Pair) { return Pair.second.size() == 4; });
  ASSERT_NE(It, ByBin.end());
  bool Full = false;
  for (std::size_t I = 0; I < 4; ++I)
    insertFp(fingerprintOf(It->second[I]), I, &Full);
  EXPECT_TRUE(Full);
  EXPECT_EQ(Buffer.size(It->first), 4u);
}

TEST_F(BufferFixture, DrainSortsAndEmpties) {
  std::vector<std::uint64_t> Values;
  std::uint32_t TargetBin = 0;
  for (std::uint64_t I = 0; Values.size() < 4 && I < 10000; ++I) {
    const Fingerprint Fp = fingerprintOf(I);
    if (Values.empty())
      TargetBin = Layout.binOf(Fp);
    if (Layout.binOf(Fp) == TargetBin) {
      insertFp(Fp, I);
      Values.push_back(I);
    }
  }
  ASSERT_EQ(Values.size(), 4u);

  ByteVector Suffixes;
  std::vector<std::uint64_t> Locations;
  Buffer.drain(TargetBin, Suffixes, Locations);
  EXPECT_EQ(Locations.size(), 4u);
  EXPECT_EQ(Suffixes.size(), 4u * Layout.suffixBytes());
  EXPECT_EQ(Buffer.size(TargetBin), 0u);
  // Sorted by suffix.
  for (std::size_t I = 0; I + 1 < Locations.size(); ++I)
    EXPECT_LE(std::memcmp(Suffixes.data() + I * Layout.suffixBytes(),
                          Suffixes.data() + (I + 1) * Layout.suffixBytes(),
                          Layout.suffixBytes()),
              0);
}

TEST_F(BufferFixture, TotalEntriesAcrossBins) {
  for (std::uint64_t I = 0; I < 10; ++I)
    insertFp(fingerprintOf(I), I);
  EXPECT_EQ(Buffer.totalEntries(0, Layout.binCount()), 10u);
  // Disjoint bin ranges partition the total.
  const std::uint32_t Mid = Layout.binCount() / 3;
  EXPECT_EQ(Buffer.totalEntries(0, Mid) +
                Buffer.totalEntries(Mid, Layout.binCount()),
            10u);
}

//===----------------------------------------------------------------------===//
// CpuBinStore
//===----------------------------------------------------------------------===//

namespace {

struct StoreFixture : ::testing::Test {
  BinLayout Layout{8};

  /// Inserts fingerprints via a sorted single-entry run each.
  void insertOne(CpuBinStore &Store, const Fingerprint &Fp,
                 std::uint64_t Location) {
    std::uint8_t Suffix[Fingerprint::Size];
    Layout.extractSuffix(Fp, Suffix);
    ByteVector Suffixes(Suffix, Suffix + Layout.suffixBytes());
    Store.mergeRun(Layout.binOf(Fp),
                   ByteSpan(Suffixes.data(), Suffixes.size()), {Location});
  }

  std::optional<std::uint64_t> lookupOne(const CpuBinStore &Store,
                                         const Fingerprint &Fp) {
    std::uint8_t Suffix[Fingerprint::Size];
    Layout.extractSuffix(Fp, Suffix);
    return Store.lookup(Layout.binOf(Fp), Suffix);
  }
};

} // namespace

TEST_F(StoreFixture, MergeAndLookupManyEntries) {
  CpuBinStore Store(Layout, 0, 1);
  for (std::uint64_t I = 0; I < 500; ++I)
    insertOne(Store, fingerprintOf(I), I);
  EXPECT_EQ(Store.totalEntries(0, Layout.binCount()), 500u);
  for (std::uint64_t I = 0; I < 500; ++I) {
    const auto Hit = lookupOne(Store, fingerprintOf(I));
    ASSERT_TRUE(Hit.has_value()) << "missing entry " << I;
    EXPECT_EQ(*Hit, I);
  }
  EXPECT_FALSE(lookupOne(Store, fingerprintOf(9999)).has_value());
}

TEST_F(StoreFixture, MergeKeepsBinsSorted) {
  CpuBinStore Store(Layout, 0, 2);
  // Insert in a scrambled order, then expect all lookups to succeed
  // (binary search requires sortedness).
  Random Rng(1);
  std::vector<std::uint64_t> Values(300);
  for (std::size_t I = 0; I < Values.size(); ++I)
    Values[I] = I * 13 + 7;
  for (std::size_t I = Values.size(); I > 1; --I)
    std::swap(Values[I - 1], Values[Rng.nextBelow(I)]);
  for (std::uint64_t Value : Values)
    insertOne(Store, fingerprintOf(Value), Value);
  for (std::uint64_t Value : Values)
    EXPECT_TRUE(lookupOne(Store, fingerprintOf(Value)).has_value());
}

TEST_F(StoreFixture, CapacityEvictsRandomEntries) {
  CpuBinStore Store(Layout, 2, 3); // 2 entries per bin
  for (std::uint64_t I = 0; I < 200; ++I)
    insertOne(Store, fingerprintOf(I), I);
  for (std::uint32_t Bin = 0; Bin < Layout.binCount(); ++Bin)
    EXPECT_LE(Store.entryCount(Bin), 2u);
  EXPECT_LE(Store.totalEntries(0, Layout.binCount()),
            2u * Layout.binCount());
  // Some lookups must now miss (the paper accepts missed duplicates).
  std::size_t Misses = 0;
  for (std::uint64_t I = 0; I < 200; ++I)
    Misses += !lookupOne(Store, fingerprintOf(I)).has_value();
  EXPECT_GT(Misses, 0u);
}

TEST_F(StoreFixture, MemoryBytesReflectsPrefixTruncation) {
  CpuBinStore Narrow(BinLayout(16), 0, 4);
  CpuBinStore Wide(BinLayout(8), 0, 4);
  // Same entries under both layouts.
  for (std::uint64_t I = 0; I < 100; ++I) {
    const Fingerprint Fp = fingerprintOf(I);
    for (auto *StorePtr : {&Narrow, &Wide}) {
      const BinLayout &L =
          StorePtr == &Narrow ? Narrow.layout() : Wide.layout();
      std::uint8_t Suffix[Fingerprint::Size];
      L.extractSuffix(Fp, Suffix);
      ByteVector Suffixes(Suffix, Suffix + L.suffixBytes());
      StorePtr->mergeRun(L.binOf(Fp),
                         ByteSpan(Suffixes.data(), Suffixes.size()), {I});
    }
  }
  // 16 bin bits store 18-byte suffixes; 8 bin bits store 19-byte ones.
  EXPECT_EQ(Wide.memoryBytes(0, Wide.layout().binCount()) -
                Narrow.memoryBytes(0, Narrow.layout().binCount()),
            100u);
}

TEST_F(StoreFixture, DuplicateRunsMergeStably) {
  CpuBinStore Store(Layout, 0, 5);
  insertOne(Store, fingerprintOf(1), 10);
  insertOne(Store, fingerprintOf(1), 20); // same digest again
  // Both entries live in the bin; lookup returns one of them.
  const auto Hit = lookupOne(Store, fingerprintOf(1));
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(*Hit == 10 || *Hit == 20);
}

//===----------------------------------------------------------------------===//
// GpuBinTable
//===----------------------------------------------------------------------===//

namespace {

struct GpuTableFixture : ::testing::Test {
  CostModel Model;
  ResourceLedger Ledger;
  BinLayout Layout{8};

  GpuTableFixture() { Model.Gpu.DeviceMemoryMiB = 1.0; }

  void applyOne(GpuBinTable &Table, const Fingerprint &Fp,
                std::uint64_t Location) {
    std::uint8_t Suffix[Fingerprint::Size];
    Layout.extractSuffix(Fp, Suffix);
    ByteVector Suffixes(Suffix, Suffix + Layout.suffixBytes());
    Table.applyFlush(Layout.binOf(Fp),
                     ByteSpan(Suffixes.data(), Suffixes.size()),
                     {Location});
  }
};

} // namespace

TEST_F(GpuTableFixture, SizesToDeviceMemory) {
  GpuDevice Device(Model, Ledger);
  GpuBinTable Table(Device, Layout, 16, 1);
  EXPECT_GT(Table.coverageFraction(), 0.0);
  EXPECT_LE(Table.deviceBytes(), Device.memoryCapacityBytes());
  EXPECT_EQ(Device.memoryUsedBytes(), Table.deviceBytes());
}

TEST_F(GpuTableFixture, ReleasesMemoryOnDestruction) {
  GpuDevice Device(Model, Ledger);
  {
    GpuBinTable Table(Device, Layout, 16, 1);
    EXPECT_GT(Device.memoryUsedBytes(), 0u);
  }
  EXPECT_EQ(Device.memoryUsedBytes(), 0u);
}

TEST_F(GpuTableFixture, ProbeFindsFlushedEntries) {
  GpuDevice Device(Model, Ledger);
  GpuBinTable Table(Device, Layout, 16, 1);
  const Fingerprint Fp = fingerprintOf(77);
  if (!Table.coversBin(Layout.binOf(Fp)))
    GTEST_SKIP() << "bin not covered under this budget";
  EXPECT_FALSE(Table.probe(Fp).Hit);
  applyOne(Table, Fp, 555);
  const GpuProbeResult Probe = Table.probe(Fp);
  ASSERT_TRUE(Probe.Hit);
  EXPECT_EQ(Table.resolveLocation(Probe.SlotIndex), 555u);
}

TEST_F(GpuTableFixture, RandomReplacementBoundsOccupancy) {
  GpuDevice Device(Model, Ledger);
  GpuBinTable Table(Device, Layout, 4, 1); // tiny bins
  // Flood one covered bin with many entries.
  std::uint32_t TargetBin = 0xFFFFFFFF;
  std::size_t Applied = 0;
  for (std::uint64_t I = 0; I < 50000 && Applied < 64; ++I) {
    const Fingerprint Fp = fingerprintOf(I);
    const std::uint32_t Bin = Layout.binOf(Fp);
    if (!Table.coversBin(Bin))
      continue;
    if (TargetBin == 0xFFFFFFFF)
      TargetBin = Bin;
    if (Bin != TargetBin)
      continue;
    applyOne(Table, Fp, I);
    ++Applied;
  }
  ASSERT_GT(Applied, 4u);
  EXPECT_LE(Table.occupiedSlots(), 4u * 1); // only the flooded bin filled
}

TEST_F(GpuTableFixture, UncoveredBinUpdatesAreIgnored) {
  Model.Gpu.DeviceMemoryMiB = 0.001; // almost no device memory
  GpuDevice Device(Model, Ledger);
  GpuBinTable Table(Device, Layout, 64, 1);
  EXPECT_LT(Table.coverageFraction(), 1.0);
  // Find an uncovered bin and apply — must be a no-op.
  for (std::uint64_t I = 0; I < 5000; ++I) {
    const Fingerprint Fp = fingerprintOf(I);
    if (!Table.coversBin(Layout.binOf(Fp))) {
      applyOne(Table, Fp, I);
      break;
    }
  }
  EXPECT_EQ(Table.occupiedSlots(), 0u);
}

//===----------------------------------------------------------------------===//
// DedupIndex (batch facade)
//===----------------------------------------------------------------------===//

namespace {

struct IndexFixture : ::testing::Test {
  DedupIndexConfig Config;
  ThreadPool Pool{4};

  IndexFixture() {
    Config.BinBits = 8;
    Config.BufferCapacityPerBin = 4;
  }

  std::vector<LookupResult>
  run(DedupIndex &Index, const std::vector<Fingerprint> &Fps,
      std::vector<FlushEvent> *FlushOut = nullptr,
      const std::vector<std::uint8_t> *Known = nullptr) {
    std::vector<std::uint64_t> Locations(Fps.size());
    for (std::size_t I = 0; I < Fps.size(); ++I)
      Locations[I] = 1000 + I;
    std::vector<LookupResult> Results(Fps.size());
    std::vector<FlushEvent> Flushes;
    Index.processBatch(
        Fps, Locations,
        Known ? std::span<const std::uint8_t>(Known->data(), Known->size())
              : std::span<const std::uint8_t>(),
        Pool, Results, FlushOut ? *FlushOut : Flushes);
    return Results;
  }
};

} // namespace

TEST_F(IndexFixture, FirstOccurrenceUniqueSecondDuplicate) {
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps;
  for (std::uint64_t I = 0; I < 100; ++I)
    Fps.push_back(fingerprintOf(I));

  const auto First = run(Index, Fps);
  for (const LookupResult &Result : First)
    EXPECT_EQ(Result.Outcome, LookupOutcome::Unique);

  const auto Second = run(Index, Fps);
  for (std::size_t I = 0; I < Second.size(); ++I) {
    EXPECT_NE(Second[I].Outcome, LookupOutcome::Unique) << I;
    EXPECT_EQ(Second[I].Location, 1000 + I); // original locations
  }
  EXPECT_EQ(Index.uniqueInserts(), 100u);
  EXPECT_EQ(Index.bufferHits() + Index.treeHits(), 100u);
}

TEST_F(IndexFixture, DuplicatesInsideOneBatch) {
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps;
  for (std::uint64_t I = 0; I < 50; ++I) {
    Fps.push_back(fingerprintOf(I));
    Fps.push_back(fingerprintOf(I)); // immediate duplicate
  }
  const auto Results = run(Index, Fps);
  std::size_t Uniques = 0, Dups = 0;
  for (const LookupResult &Result : Results)
    (Result.Outcome == LookupOutcome::Unique ? Uniques : Dups) += 1;
  EXPECT_EQ(Uniques, 50u);
  EXPECT_EQ(Dups, 50u);
}

TEST_F(IndexFixture, FlushEventsFireWhenBuffersFill) {
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps;
  for (std::uint64_t I = 0; I < 2000; ++I)
    Fps.push_back(fingerprintOf(I));
  std::vector<FlushEvent> Flushes;
  run(Index, Fps, &Flushes);
  EXPECT_GT(Flushes.size(), 0u);
  for (const FlushEvent &Event : Flushes) {
    EXPECT_EQ(Event.Suffixes.size(),
              Event.Locations.size() * Index.layout().suffixBytes());
    EXPECT_EQ(Event.Locations.size(), Config.BufferCapacityPerBin);
  }
  // Flushed entries moved to the tree and stay findable.
  for (std::uint64_t I = 0; I < 2000; ++I)
    EXPECT_TRUE(Index.lookup(fingerprintOf(I)).has_value()) << I;
}

TEST_F(IndexFixture, KnownDuplicatesSkipCpuPath) {
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps = {fingerprintOf(1), fingerprintOf(2)};
  std::vector<std::uint8_t> Known = {1, 0};
  const auto Results = run(Index, Fps, nullptr, &Known);
  EXPECT_EQ(Results[0].Outcome, LookupOutcome::DupGpu);
  EXPECT_EQ(Results[1].Outcome, LookupOutcome::Unique);
  EXPECT_EQ(Index.gpuHits(), 1u);
  // The known item was NOT inserted: next time it's still unique.
  std::vector<Fingerprint> Again = {fingerprintOf(1)};
  const auto Second = run(Index, Again);
  EXPECT_EQ(Second[0].Outcome, LookupOutcome::Unique);
}

TEST_F(IndexFixture, FlushAllDrainsEverything) {
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps;
  for (std::uint64_t I = 0; I < 37; ++I)
    Fps.push_back(fingerprintOf(I));
  run(Index, Fps);
  std::vector<FlushEvent> Flushes;
  Index.flushAll(Flushes);
  std::size_t Drained = 0;
  for (const FlushEvent &Event : Flushes)
    Drained += Event.Locations.size();
  EXPECT_EQ(Drained + Index.bufferHits(), 37u);
  EXPECT_EQ(Index.treeEntries(), 37u);
  // Everything still findable after the final flush.
  for (std::uint64_t I = 0; I < 37; ++I)
    EXPECT_TRUE(Index.lookup(fingerprintOf(I)).has_value());
}

TEST_F(IndexFixture, ParallelAndSerialAgree) {
  // The bin partitioning must make results independent of worker count.
  DedupIndexConfig SerialConfig = Config;
  DedupIndex Parallel(Config), Serial(SerialConfig);
  ThreadPool OnePool(1);

  std::vector<Fingerprint> Fps;
  Random Rng(9);
  for (std::uint64_t I = 0; I < 1000; ++I)
    Fps.push_back(fingerprintOf(Rng.nextBelow(400)));

  std::vector<std::uint64_t> Locations(Fps.size());
  for (std::size_t I = 0; I < Fps.size(); ++I)
    Locations[I] = I;
  std::vector<LookupResult> ResultsA(Fps.size()), ResultsB(Fps.size());
  std::vector<FlushEvent> FlushA, FlushB;
  Parallel.processBatch(Fps, Locations, {}, Pool, ResultsA, FlushA);
  Serial.processBatch(Fps, Locations, {}, OnePool, ResultsB, FlushB);

  for (std::size_t I = 0; I < Fps.size(); ++I) {
    EXPECT_EQ(ResultsA[I].Outcome == LookupOutcome::Unique,
              ResultsB[I].Outcome == LookupOutcome::Unique)
        << I;
    EXPECT_EQ(ResultsA[I].Location, ResultsB[I].Location) << I;
  }
}

TEST_F(IndexFixture, MemoryBoundedIndexMissesSomeDuplicates) {
  Config.MaxEntriesPerBin = 2;
  DedupIndex Index(Config);
  std::vector<Fingerprint> Fps;
  for (std::uint64_t I = 0; I < 3000; ++I)
    Fps.push_back(fingerprintOf(I));
  run(Index, Fps);
  EXPECT_GT(Index.evictions(), 0u);

  // Second pass: some duplicates are no longer detected (paper §3.1(1):
  // "the deduplication module cannot find some duplicate data. However
  // that is not a big deal").
  const auto Results = run(Index, Fps);
  std::size_t MissedDuplicates = 0;
  for (const LookupResult &Result : Results)
    MissedDuplicates += Result.Outcome == LookupOutcome::Unique;
  EXPECT_GT(MissedDuplicates, 0u);
}

//===----------------------------------------------------------------------===//
// Oracle replay: Shards = K against Shards = 1
//===----------------------------------------------------------------------===//

TEST(ShardedOracle, CompositeMatchesPlainIndexUnderRandomOps) {
  // The OracleCheck harness replays one op sequence at Shards = 1 and
  // Shards = K: the shard map must be pure stats granularity.
  DedupIndexConfig Serial;
  Serial.BinBits = 8;
  Serial.BufferCapacityPerBin = 4;
  for (unsigned Shards : {2u, 5u, 16u}) {
    SCOPED_TRACE("shards " + std::to_string(Shards));
    DedupIndexConfig Sharded = Serial;
    Sharded.Shards = Shards;
    Random Rng(0x51AB + Shards);
    const std::vector<oracle::IndexOp> Ops =
        oracle::randomOps(Rng, 200, /*Universe=*/512);
    oracle::replayConfigsAndCompare(Serial, Sharded, Ops);
  }
}

TEST(ShardedOracle, BoundedCompositeEvictsIdentically) {
  DedupIndexConfig Serial;
  Serial.BinBits = 6;
  Serial.BufferCapacityPerBin = 2;
  Serial.MaxEntriesPerBin = 4;
  DedupIndexConfig Sharded = Serial;
  Sharded.Shards = 4;
  Random Rng(0xE71C);
  const std::vector<oracle::IndexOp> Ops =
      oracle::randomOps(Rng, 200, /*Universe=*/2048, /*MaxBatch=*/24);
  oracle::replayConfigsAndCompare(Serial, Sharded, Ops);
}

class OracleShardTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(OracleShardTest, GpuResolvedBatches) {
  // ~1/8 of batch items arrive GPU-resolved: the DupGpu bypass must
  // count into the owning shard and leave the caller's location alone.
  DedupIndexConfig Serial;
  Serial.BinBits = 8;
  Serial.BufferCapacityPerBin = 4;
  DedupIndexConfig Sharded = Serial;
  Sharded.Shards = GetParam();
  Random Rng(0x6B75 ^ GetParam());
  const std::vector<oracle::IndexOp> Ops = oracle::randomOps(
      Rng, 200, /*Universe=*/512, /*MaxBatch=*/48, /*WithKnown=*/true);
  oracle::replayConfigsAndCompare(Serial, Sharded, Ops);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, OracleShardTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(OracleEquivalence, SingleBinPathologicalStream) {
  // Every fingerprint in one of two bins: maximal drain pressure and
  // the deepest buffer scans, with each shard owning a single bin.
  // Identities are drawn small so collisions recur fast.
  DedupIndexConfig Serial;
  Serial.BinBits = 1;
  Serial.BufferCapacityPerBin = 2;
  Serial.MaxEntriesPerBin = 8;
  DedupIndexConfig Sharded = Serial;
  Sharded.Shards = 2;
  Random Rng(7);
  const std::vector<oracle::IndexOp> Ops =
      oracle::randomOps(Rng, 200, /*Universe=*/64, /*MaxBatch=*/16);
  oracle::replayConfigsAndCompare(Serial, Sharded, Ops);
}

//===----------------------------------------------------------------------===//
// Per-shard stats pinned to constants
//===----------------------------------------------------------------------===//

namespace {

/// Every IndexShardStats field of one shard after the pinned replay.
struct PinnedShard {
  std::uint64_t BufferHits, TreeHits, GpuHits, UniqueInserts, Evictions;
  std::size_t TreeEntries, MemoryBytes;
  std::uint32_t BinBegin, BinEnd;
};

struct PinnedCase {
  unsigned Shards;
  std::vector<PinnedShard> Stats;
};

} // namespace

// One fixed op sequence (bounded bins, so evictions fire; GPU-resolved
// items, so GpuHits moves) replayed at several shard counts. The shard
// map is pure stats granularity: the constants below partition the
// same totals differently per shard count and must never move.
TEST(IndexShardPinned, PerShardStatsAtEveryShardCount) {
  DedupIndexConfig Config;
  Config.BinBits = 6;
  Config.BufferCapacityPerBin = 2;
  Config.MaxEntriesPerBin = 4;
  Random Rng(0x5A4D);
  const std::vector<oracle::IndexOp> Ops = oracle::randomOps(
      Rng, 250, /*Universe=*/2048, /*MaxBatch=*/32, /*WithKnown=*/true);

  const std::vector<PinnedCase> Cases = {
      // {BufferHits, TreeHits, GpuHits, UniqueInserts, Evictions,
      //  TreeEntries, MemoryBytes, BinBegin, BinEnd}
      {1,
       {
           {23, 202, 256, 1693, 1416, 256, 7672, 0, 64},
       }},
      {2,
       {
           {13, 97, 129, 815, 676, 128, 3892, 0, 32},
           {10, 105, 127, 878, 740, 128, 3780, 32, 64},
       }},
      {4,
       {
           {6, 46, 60, 413, 344, 64, 1932, 0, 16},
           {7, 51, 69, 402, 332, 64, 1960, 16, 32},
           {4, 46, 63, 439, 370, 64, 1876, 32, 48},
           {6, 59, 64, 439, 370, 64, 1904, 48, 64},
       }},
      {5,
       {
           {5, 38, 49, 345, 290, 52, 1540, 0, 13},
           {7, 38, 51, 326, 269, 52, 1596, 13, 26},
           {3, 46, 62, 379, 320, 52, 1596, 26, 39},
           {5, 33, 37, 319, 265, 52, 1512, 39, 52},
           {3, 47, 57, 324, 272, 48, 1428, 52, 64},
       }},
      {8,
       {
           {0, 28, 21, 192, 157, 32, 980, 0, 8},
           {6, 18, 39, 221, 187, 32, 952, 8, 16},
           {5, 19, 29, 201, 167, 32, 952, 16, 24},
           {2, 32, 40, 201, 165, 32, 1008, 24, 32},
           {3, 27, 42, 257, 220, 32, 980, 32, 40},
           {1, 19, 21, 182, 150, 32, 896, 40, 48},
           {4, 24, 24, 226, 190, 32, 980, 48, 56},
           {2, 35, 40, 213, 180, 32, 924, 56, 64},
       }},
  };
  for (const PinnedCase &Case : Cases) {
    SCOPED_TRACE("shards " + std::to_string(Case.Shards));
    Config.Shards = Case.Shards;
    const auto Index = oracle::buildIndex(Config);
    ThreadPool Pool(4);
    oracle::replay(*Index, Ops, Pool);
    ASSERT_EQ(Index->shardCount(), Case.Stats.size());
    for (unsigned S = 0; S < Index->shardCount(); ++S) {
      SCOPED_TRACE("shard " + std::to_string(S));
      const IndexShardStats Got = Index->shardStats(S);
      const PinnedShard &Want = Case.Stats[S];
      EXPECT_EQ(Got.BufferHits, Want.BufferHits);
      EXPECT_EQ(Got.TreeHits, Want.TreeHits);
      EXPECT_EQ(Got.GpuHits, Want.GpuHits);
      EXPECT_EQ(Got.UniqueInserts, Want.UniqueInserts);
      EXPECT_EQ(Got.Evictions, Want.Evictions);
      EXPECT_EQ(Got.TreeEntries, Want.TreeEntries);
      EXPECT_EQ(Got.MemoryBytes, Want.MemoryBytes);
      EXPECT_EQ(Got.BinBegin, Want.BinBegin);
      EXPECT_EQ(Got.BinEnd, Want.BinEnd);
    }
  }
}
