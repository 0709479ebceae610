//===----------------------------------------------------------------------===//
///
/// \file
/// E10 — lock-free hot path: modelled dedup-stage throughput of the
/// bin-partitioned index plus multi-buffer batched SHA-1 against the
/// P-Dedupe-style mutexed baseline (SerialIndexing: every index
/// microsecond also holds the capacity-one IndexLock lane). The bench
/// drives DedupEngine directly — hash + probe + maintain only, no
/// chunking overhead, verify or compression — so the CPU-lane charges
/// isolate exactly the stage the hot-path rework touches.
///
/// Rows sweep the two knobs independently (index: mutexed / serial;
/// hash width: 1 / 8) over one fixed vdbench stream. Functional
/// results — every chunk's outcome and resolved location, the
/// dup/unique totals — must be bit-identical on every row; the
/// throughput column is bytes / makespan over the compute lanes at the
/// paper's 8 hardware threads (CPU pool capacity 8, IndexLock
/// capacity 1).
///
/// Emits BENCH_hotpath.json. Exit status is the acceptance gate:
/// nonzero unless the lock-free index + width-8 hashing beats the
/// mutexed width-1 baseline by >= 2.0x dedup-stage throughput, with
/// zero bit-level change to results. `--smoke` runs a reduced stream
/// and only the baseline/hotpath pair — the CI (and TSan CI) variant.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/DedupEngine.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

struct HotRow {
  const char *Label;
  bool Mutexed; ///< SerialIndexing: index time also on IndexLock
  unsigned HashWidth;
  std::uint64_t UniqueChunks = 0;
  std::uint64_t DupChunks = 0;
  /// Per-chunk (outcome, location) pairs — the bit-identity witness.
  std::vector<std::uint64_t> Outcomes;
  double DedupStageSec = 0.0; ///< compute-lane makespan at 8 threads
  double ThroughputMBps = 0.0;
};

HotRow runRow(const char *Label, bool Mutexed, unsigned HashWidth,
              const ByteVector &Data) {
  CostModel Model = Platform::paper().Model;
  Model.Cpu.HashBatchWidth = HashWidth;

  DedupEngineConfig Config;
  Config.Index.BinBits = 8;
  Config.Index.BufferCapacityPerBin = 8;
  Config.SerialIndexing = Mutexed;

  ResourceLedger Ledger;
  ThreadPool Pool(4);
  SsdModel Ssd(Model, Ledger);
  DedupEngine Engine(Model, Ledger, Pool, Ssd, nullptr, Config);

  constexpr std::size_t ChunkSize = 4096;
  constexpr std::size_t BatchChunks = 256;
  HotRow Row;
  Row.Label = Label;
  Row.Mutexed = Mutexed;
  Row.HashWidth = HashWidth;

  std::vector<ChunkView> Views;
  std::vector<std::uint64_t> Locations;
  std::vector<DedupItem> Items;
  std::uint64_t NextLocation = 0;
  for (std::size_t Offset = 0; Offset < Data.size();) {
    Views.clear();
    Locations.clear();
    while (Views.size() < BatchChunks && Offset < Data.size()) {
      const std::size_t Size = std::min(ChunkSize, Data.size() - Offset);
      Views.push_back(ChunkView{ByteSpan(Data.data() + Offset, Size), Offset});
      Locations.push_back(NextLocation++);
      Offset += Size;
    }
    Engine.processBatch(Views, Locations, Items);
    for (const DedupItem &Item : Items) {
      if (Item.Outcome == LookupOutcome::Unique)
        ++Row.UniqueChunks;
      else
        ++Row.DupChunks;
      Row.Outcomes.push_back(static_cast<std::uint64_t>(Item.Outcome));
      Row.Outcomes.push_back(Item.Location);
    }
  }
  Engine.finish();

  Row.DedupStageSec =
      Ledger.makespanSeconds(Model.Cpu.Threads, ComputeResources);
  Row.ThroughputMBps =
      Row.DedupStageSec > 0.0
          ? static_cast<double>(Data.size()) / 1e6 / Row.DedupStageSec
          : 0.0;
  return Row;
}

bool sameResults(const HotRow &A, const HotRow &B) {
  return A.Outcomes == B.Outcomes && A.UniqueChunks == B.UniqueChunks &&
         A.DupChunks == B.DupChunks;
}

bool writeJson(const char *Path, const std::vector<HotRow> &Rows) {
  std::FILE *File = std::fopen(Path, "w");
  if (!File)
    return false;
  std::fprintf(File, "{\n  \"bench\": \"hotpath\",\n  \"rows\": [\n");
  for (std::size_t I = 0; I < Rows.size(); ++I) {
    const HotRow &R = Rows[I];
    std::fprintf(File,
                 "    {\"label\": \"%s\", \"mutexed\": %s, "
                 "\"hash_width\": %u, "
                 "\"dedup_stage_sec\": %.9f, \"dedup_mbps\": %.3f, "
                 "\"unique_chunks\": %llu, \"dup_chunks\": %llu}%s\n",
                 R.Label, R.Mutexed ? "true" : "false", R.HashWidth,
                 R.DedupStageSec, R.ThroughputMBps,
                 static_cast<unsigned long long>(R.UniqueChunks),
                 static_cast<unsigned long long>(R.DupChunks),
                 I + 1 < Rows.size() ? "," : "");
  }
  std::fprintf(File, "  ]\n}\n");
  std::fclose(File);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  const bool Smoke = Argc > 1 && std::strcmp(Argv[1], "--smoke") == 0;
  banner("E10", Smoke ? "lock-free hot path (smoke: mutexed vs "
                        "serial+width-8)"
                      : "lock-free bin-partitioned index + batched "
                        "hashing vs mutexed baseline");

  WorkloadConfig Load;
  Load.BlockSize = 4096;
  Load.TotalBytes = Smoke ? (4ull << 20) : (16ull << 20);
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  Load.Seed = 4242;
  const ByteVector Data = VdbenchStream(Load).generateAll();

  std::vector<HotRow> Rows;
  Rows.push_back(runRow("mutexed w1", true, 1, Data));
  if (!Smoke)
    Rows.push_back(runRow("serial w1", false, 1, Data));
  Rows.push_back(runRow("serial w8", false, 8, Data));

  std::printf("%-16s %7s %14s %14s %10s\n", "configuration", "width",
              "stage (s)", "dedup MB/s", "speedup");
  const HotRow &Baseline = Rows.front();
  for (const HotRow &R : Rows) {
    const double Speedup =
        Baseline.DedupStageSec > 0.0 && R.DedupStageSec > 0.0
            ? Baseline.DedupStageSec / R.DedupStageSec
            : 0.0;
    std::printf("%-16s %7u %14.4f %14.1f %9.2fx\n", R.Label, R.HashWidth,
                R.DedupStageSec, R.ThroughputMBps, Speedup);
  }

  const char *JsonPath = "BENCH_hotpath.json";
  if (!writeJson(JsonPath, Rows))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s (%zu rows)\n", JsonPath, Rows.size());

  // Gate 1: zero bit-level change to results on every row — the same
  // outcome and resolved location for every chunk.
  for (const HotRow &R : Rows) {
    if (!sameResults(Baseline, R)) {
      std::fprintf(stderr, "FAIL: '%s' changed functional results vs '%s'\n",
                   R.Label, Baseline.Label);
      return 1;
    }
  }
  std::printf("\nbit-identity: %zu rows, identical outcomes and "
              "locations for every chunk\n",
              Rows.size());

  // Gate 2: the headline number — the lock-free index plus width-8
  // hashing must at least double modelled dedup-stage throughput at
  // the paper's 8 threads.
  const HotRow &Hot = Rows.back();
  const double Gain = Baseline.DedupStageSec / Hot.DedupStageSec;
  std::printf("serial+width-8 vs mutexed width-1: %.2fx dedup-stage "
              "throughput\n",
              Gain);
  if (Gain < 2.0) {
    std::fprintf(stderr, "FAIL: %.2fx below the 2.0x acceptance bar (E10)\n",
                 Gain);
    return 1;
  }
  std::printf("PASS: hot-path gate met\n");
  return 0;
}
