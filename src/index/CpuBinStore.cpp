//===----------------------------------------------------------------------===//
///
/// \file
/// CPU bin store implementation.
///
//===----------------------------------------------------------------------===//

#include "index/CpuBinStore.h"

#include <cassert>
#include <cstring>

using namespace padre;

CpuBinStore::CpuBinStore(const BinLayout &Layout,
                         std::size_t MaxEntriesPerBin, std::uint64_t Seed)
    : Layout(Layout), MaxEntriesPerBin(MaxEntriesPerBin),
      SuffixBytes(Layout.suffixBytes()), Bins(Layout.binCount()) {
  // Give every bin an independent eviction stream so bins owned by
  // different workers never share generator state.
  std::uint64_t State = Seed;
  for (Bin &B : Bins)
    B.Rng.reseed(Random::splitMix64(State));
}

std::optional<std::uint64_t>
CpuBinStore::lookup(std::uint32_t Bin, const std::uint8_t *Suffix) const {
  const struct Bin &B = Bins[Bin];
  const std::uint8_t *Base = B.Suffixes.data();
  std::size_t Lo = 0;
  std::size_t Hi = B.Locations.size();
  while (Lo < Hi) {
    const std::size_t Mid = Lo + (Hi - Lo) / 2;
    const int Cmp =
        std::memcmp(Base + Mid * SuffixBytes, Suffix, SuffixBytes);
    if (Cmp == 0)
      return B.Locations[Mid];
    if (Cmp < 0)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return std::nullopt;
}

std::size_t
CpuBinStore::mergeRun(std::uint32_t Bin, ByteSpan Suffixes,
                      const std::vector<std::uint64_t> &Locations) {
  assert(Suffixes.size() == Locations.size() * SuffixBytes &&
         "Run arrays disagree");
  struct Bin &B = Bins[Bin];
  const std::size_t OldCount = B.Locations.size();
  const std::size_t RunCount = Locations.size();
  if (RunCount == 0)
    return 0;

  // Merge the sorted run with the sorted bin into fresh arrays.
  ByteVector NewSuffixes;
  NewSuffixes.reserve((OldCount + RunCount) * SuffixBytes);
  std::vector<std::uint64_t> NewLocations;
  NewLocations.reserve(OldCount + RunCount);

  const std::uint8_t *OldBase = B.Suffixes.data();
  const std::uint8_t *RunBase = Suffixes.data();
  std::size_t I = 0, J = 0;
  while (I < OldCount || J < RunCount) {
    bool TakeOld;
    if (I == OldCount)
      TakeOld = false;
    else if (J == RunCount)
      TakeOld = true;
    else
      TakeOld = std::memcmp(OldBase + I * SuffixBytes,
                            RunBase + J * SuffixBytes, SuffixBytes) <= 0;
    if (TakeOld) {
      NewSuffixes.insert(NewSuffixes.end(), OldBase + I * SuffixBytes,
                         OldBase + (I + 1) * SuffixBytes);
      NewLocations.push_back(B.Locations[I]);
      ++I;
    } else {
      NewSuffixes.insert(NewSuffixes.end(), RunBase + J * SuffixBytes,
                         RunBase + (J + 1) * SuffixBytes);
      NewLocations.push_back(Locations[J]);
      ++J;
    }
  }
  B.Suffixes = std::move(NewSuffixes);
  B.Locations = std::move(NewLocations);

  // Random replacement down to the capacity bound (§3.1(1): the index
  // is memory-bounded and may then miss some duplicates).
  std::size_t Evicted = 0;
  if (MaxEntriesPerBin != 0) {
    while (B.Locations.size() > MaxEntriesPerBin) {
      // Ordered erase keeps the bin sorted; eviction only happens on
      // the rare over-capacity flush, so O(n) removal is acceptable.
      const std::size_t Victim = B.Rng.nextBelow(B.Locations.size());
      B.Suffixes.erase(B.Suffixes.begin() + Victim * SuffixBytes,
                       B.Suffixes.begin() + (Victim + 1) * SuffixBytes);
      B.Locations.erase(B.Locations.begin() + Victim);
      ++Evicted;
    }
  }
  return Evicted;
}

bool CpuBinStore::remove(std::uint32_t Bin, const std::uint8_t *Suffix) {
  struct Bin &B = Bins[Bin];
  const std::uint8_t *Base = B.Suffixes.data();
  std::size_t Lo = 0;
  std::size_t Hi = B.Locations.size();
  while (Lo < Hi) {
    const std::size_t Mid = Lo + (Hi - Lo) / 2;
    const int Cmp =
        std::memcmp(Base + Mid * SuffixBytes, Suffix, SuffixBytes);
    if (Cmp == 0) {
      B.Suffixes.erase(B.Suffixes.begin() + Mid * SuffixBytes,
                       B.Suffixes.begin() + (Mid + 1) * SuffixBytes);
      B.Locations.erase(B.Locations.begin() + Mid);
      return true;
    }
    if (Cmp < 0)
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return false;
}

std::size_t CpuBinStore::entryCount(std::uint32_t Bin) const {
  return Bins[Bin].Locations.size();
}

std::size_t CpuBinStore::totalEntries(std::uint32_t BinBegin,
                                      std::uint32_t BinEnd) const {
  std::size_t Total = 0;
  for (std::uint32_t Bin = BinBegin; Bin < BinEnd; ++Bin)
    Total += Bins[Bin].Locations.size();
  return Total;
}

std::size_t CpuBinStore::memoryBytes(std::uint32_t BinBegin,
                                     std::uint32_t BinEnd) const {
  std::size_t Total = 0;
  for (std::uint32_t Bin = BinBegin; Bin < BinEnd; ++Bin)
    Total += Bins[Bin].Suffixes.size() +
             Bins[Bin].Locations.size() * sizeof(std::uint64_t);
  return Total;
}
