//===----------------------------------------------------------------------===//
///
/// \file
/// A3 — the prefix-removal memory optimization (§3.1(1)): "Assuming
/// that the storage capacity is 4 TB, the chunk size is 8 KB, and the
/// index size is 32 bytes … the storage system requires 16 GB of
/// memory for the index. … If the storage system uses a 2-byte prefix
/// value, we can save 1 GB of memory in this way."
///
/// This bench verifies the arithmetic analytically for a prefix sweep
/// and then measures the real per-entry memory of the CpuBinStore to
/// confirm the implementation realizes the saving.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "index/CpuBinStore.h"

#include <cstdio>

using namespace padre;
using namespace padre::bench;

int main() {
  banner("A3", "prefix-removal index memory (paper §3.1(1))");

  // Analytic reproduction of the §2/§3.1 sizing example.
  const std::uint64_t Capacity = 4ull << 40; // 4 TB
  const std::uint64_t ChunkSize = 8192;      // 8 KiB
  const std::uint64_t Entries = Capacity / ChunkSize;
  const double FullIndexGiB =
      static_cast<double>(Entries) * 32.0 / (1ull << 30);
  std::printf("4 TB / 8 KiB chunks -> %llu Mi entries; 32 B entries -> "
              "%.0f GiB index\n\n",
              static_cast<unsigned long long>(Entries >> 20),
              FullIndexGiB);

  std::printf("%12s %10s %14s %16s %14s\n", "prefix", "bins",
              "entry bytes", "index size", "saved");
  for (unsigned PrefixBytes : {0u, 1u, 2u, 3u, 4u}) {
    const unsigned BinBits = PrefixBytes * 8;
    const unsigned SuffixBytes = 20 - PrefixBytes;
    const unsigned EntryBytes = SuffixBytes + 12; // metadata per §2
    const double IndexGiB =
        static_cast<double>(Entries) * EntryBytes / (1ull << 30);
    const double SavedGiB =
        static_cast<double>(Entries) * PrefixBytes / (1ull << 30);
    std::printf("%9u B %10llu %11u B %13.2f GiB %11.2f GiB\n", PrefixBytes,
                static_cast<unsigned long long>(
                    BinBits == 0 ? 1 : (1ull << BinBits)),
                EntryBytes, IndexGiB, SavedGiB);
  }

  // Measured: real store memory for the same entries at two layouts.
  const std::size_t Count = 50000;
  std::size_t Memory[2];
  const unsigned Layouts[2] = {8, 16}; // 1-byte vs 2-byte prefix
  for (int L = 0; L < 2; ++L) {
    const BinLayout Layout(Layouts[L]);
    CpuBinStore Store(Layout, 0, 1);
    for (std::size_t I = 0; I < Count; ++I) {
      std::uint8_t Data[8];
      storeLe64(Data, I);
      const Fingerprint Fp = Fingerprint::ofData(ByteSpan(Data, 8));
      std::uint8_t Suffix[Fingerprint::Size];
      Layout.extractSuffix(Fp, Suffix);
      ByteVector Suffixes(Suffix, Suffix + Layout.suffixBytes());
      Store.mergeRun(Layout.binOf(Fp),
                     ByteSpan(Suffixes.data(), Suffixes.size()), {I});
    }
    Memory[L] = Store.memoryBytes(0, Layout.binCount());
  }
  std::printf("\nmeasured store memory for %zu entries: 1-byte prefix "
              "%zu B, 2-byte prefix %zu B\n",
              Count, Memory[0], Memory[1]);

  std::printf("\n");
  char Measured[64];
  std::snprintf(Measured, sizeof(Measured), "%.2f GiB",
                static_cast<double>(Entries) * 2.0 / (1ull << 30));
  paperRow("2-byte prefix saving at 4 TB / 8 KiB", "1 GB", Measured);
  std::snprintf(Measured, sizeof(Measured), "%zu B",
                (Memory[0] - Memory[1]) / Count);
  paperRow("measured per-entry saving (2B vs 1B prefix)", "1 B", Measured);
  return 0;
}
