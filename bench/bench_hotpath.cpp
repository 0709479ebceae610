//===----------------------------------------------------------------------===//
///
/// \file
/// E10 — lock-free hot path: modelled dedup-stage throughput of the
/// bin-partitioned index against the P-Dedupe-style mutexed baseline
/// (SerialIndexing: every index microsecond also holds the
/// capacity-one IndexLock lane). The bench drives DedupEngine directly
/// — hash + probe + maintain only, no chunking overhead, verify or
/// compression — so the CPU-lane charges isolate exactly the stage the
/// index policy touches.
///
/// Two rows, `mutexed` and `bin-parallel`, run one fixed vdbench
/// stream. Both hash every chunk with one SHA-1 call; only the index
/// policy differs. The throughput column is bytes / makespan over the
/// compute lanes at the paper's 8 hardware threads (CPU pool capacity
/// 8, IndexLock capacity 1), and the bound column names the lane that
/// sets that makespan.
///
/// Emits BENCH_hotpath.json. Exit status is the acceptance gate:
/// nonzero unless both rows give every chunk the same outcome and
/// resolved location, and the mutexed row is bound by IndexLock while
/// the bin-parallel row is bound by the CPU pool — the serialised index
/// is what caps the baseline. `--smoke` runs a reduced stream — the CI
/// (and TSan CI) variant.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "core/DedupEngine.h"

#include <cstdio>
#include <cstring>
#include <vector>

using namespace padre;
using namespace padre::bench;

namespace {

struct HotRow {
  const char *Label;
  bool Mutexed; ///< SerialIndexing: index time also on IndexLock
  std::uint64_t UniqueChunks = 0;
  std::uint64_t DupChunks = 0;
  /// Per-chunk (outcome, location) pairs — the bit-identity witness.
  std::vector<std::uint64_t> Outcomes;
  double DedupStageSec = 0.0; ///< compute-lane makespan at 8 threads
  Resource Bound = Resource::CpuPool; ///< lane that sets the makespan
  double ThroughputMBps = 0.0;
};

HotRow runRow(const char *Label, bool Mutexed, const ByteVector &Data) {
  const CostModel Model = Platform::paper().Model;

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
  Row.Bound = Ledger.bottleneck(Model.Cpu.Threads, ComputeResources);
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
                 "\"bound\": \"%s\", "
                 "\"dedup_stage_sec\": %.9f, \"dedup_mbps\": %.3f, "
                 "\"unique_chunks\": %llu, \"dup_chunks\": %llu}%s\n",
                 R.Label, R.Mutexed ? "true" : "false",
                 resourceName(R.Bound), R.DedupStageSec, R.ThroughputMBps,
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
                        "bin-parallel)"
                      : "lock-free bin-partitioned index vs mutexed "
                        "baseline");

  WorkloadConfig Load;
  Load.BlockSize = 4096;
  Load.TotalBytes = Smoke ? (4ull << 20) : (16ull << 20);
  Load.DedupRatio = 2.0;
  Load.CompressRatio = 2.0;
  Load.Seed = 4242;
  const ByteVector Data = VdbenchStream(Load).generateAll();

  const std::vector<HotRow> Rows = {runRow("mutexed", true, Data),
                                    runRow("bin-parallel", false, Data)};
  const HotRow &Mutexed = Rows[0];
  const HotRow &Parallel = Rows[1];

  std::printf("%-16s %10s %14s %14s %10s\n", "configuration", "bound",
              "stage (s)", "dedup MB/s", "speedup");
  for (const HotRow &R : Rows) {
    const double Speedup =
        Mutexed.DedupStageSec > 0.0 && R.DedupStageSec > 0.0
            ? Mutexed.DedupStageSec / R.DedupStageSec
            : 0.0;
    std::printf("%-16s %10s %14.4f %14.1f %9.2fx\n", R.Label,
                resourceName(R.Bound), R.DedupStageSec, R.ThroughputMBps,
                Speedup);
  }

  const char *JsonPath = "BENCH_hotpath.json";
  if (!writeJson(JsonPath, Rows))
    std::fprintf(stderr, "warning: cannot write %s\n", JsonPath);
  else
    std::printf("\njson: %s (%zu rows)\n", JsonPath, Rows.size());

  // Gate 1: the index policy changes no result — the same outcome and
  // resolved location for every chunk.
  if (!sameResults(Mutexed, Parallel)) {
    std::fprintf(stderr, "FAIL: '%s' changed functional results vs '%s'\n",
                 Parallel.Label, Mutexed.Label);
    return 1;
  }
  std::printf("\nbit-identity: %zu rows, identical outcomes and "
              "locations for every chunk\n",
              Rows.size());

  // Gate 2: the bottleneck moves. The global index lock caps the
  // mutexed baseline; with bin-parallel indexing the CPU pool is the
  // limit (P-Dedupe's claim, §5).
  if (Mutexed.Bound != Resource::IndexLock ||
      Parallel.Bound != Resource::CpuPool) {
    std::fprintf(stderr,
                 "FAIL: expected mutexed bound by lock and "
                 "bin-parallel by cpu, got %s and %s (E10)\n",
                 resourceName(Mutexed.Bound), resourceName(Parallel.Bound));
    return 1;
  }
  std::printf("bottleneck: mutexed bound by %s, bin-parallel by %s "
              "(%.2fx dedup-stage throughput)\n",
              resourceName(Mutexed.Bound), resourceName(Parallel.Bound),
              Mutexed.DedupStageSec / Parallel.DedupStageSec);
  std::printf("PASS: hot-path gate met\n");
  return 0;
}
