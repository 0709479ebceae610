//===----------------------------------------------------------------------===//
///
/// \file
/// Bin buffer implementation.
///
//===----------------------------------------------------------------------===//

#include "index/BinBuffer.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

using namespace padre;

BinBuffer::BinBuffer(const BinLayout &Layout, std::size_t CapacityPerBin)
    : Layout(Layout), CapacityPerBin(CapacityPerBin),
      SuffixBytes(Layout.suffixBytes()), Slots(Layout.binCount()) {
  assert(CapacityPerBin > 0 && "Buffer capacity must be nonzero");
}

std::optional<std::uint64_t>
BinBuffer::lookup(std::uint32_t Bin, const std::uint8_t *Suffix,
                  std::size_t *DepthOut) const {
  const Slot &S = Slots[Bin];
  const std::size_t Count = S.Locations.size();
  // Newest-first: recently written chunks are the likeliest duplicates.
  for (std::size_t I = Count; I > 0; --I) {
    const std::uint8_t *Entry = S.Suffixes.data() + (I - 1) * SuffixBytes;
    if (std::memcmp(Entry, Suffix, SuffixBytes) == 0) {
      if (DepthOut)
        *DepthOut = Count - I + 1;
      return S.Locations[I - 1];
    }
  }
  if (DepthOut)
    *DepthOut = Count;
  return std::nullopt;
}

bool BinBuffer::insert(std::uint32_t Bin, const std::uint8_t *Suffix,
                       std::uint64_t Location) {
  Slot &S = Slots[Bin];
  assert(S.Locations.size() < CapacityPerBin &&
         "Bin must be drained before inserting into a full buffer");
  S.Suffixes.insert(S.Suffixes.end(), Suffix, Suffix + SuffixBytes);
  S.Locations.push_back(Location);
  return S.Locations.size() == CapacityPerBin;
}

bool BinBuffer::remove(std::uint32_t Bin, const std::uint8_t *Suffix) {
  Slot &S = Slots[Bin];
  for (std::size_t I = S.Locations.size(); I > 0; --I) {
    const std::size_t Index = I - 1;
    if (std::memcmp(S.Suffixes.data() + Index * SuffixBytes, Suffix,
                    SuffixBytes) != 0)
      continue;
    S.Suffixes.erase(S.Suffixes.begin() + Index * SuffixBytes,
                     S.Suffixes.begin() + (Index + 1) * SuffixBytes);
    S.Locations.erase(S.Locations.begin() + Index);
    return true;
  }
  return false;
}

void BinBuffer::drain(std::uint32_t Bin, ByteVector &Suffixes,
                      std::vector<std::uint64_t> &Locations) {
  Slot &S = Slots[Bin];
  const std::size_t Count = S.Locations.size();
  if (Count == 0)
    return;

  // Sort entry indices by suffix so the drained run can be merge-joined
  // into the sorted bin tree.
  std::vector<std::uint32_t> Order(Count);
  std::iota(Order.begin(), Order.end(), 0);
  const std::uint8_t *Base = S.Suffixes.data();
  const unsigned Width = SuffixBytes;
  std::sort(Order.begin(), Order.end(),
            [Base, Width](std::uint32_t A, std::uint32_t B) {
              return std::memcmp(Base + A * Width, Base + B * Width,
                                 Width) < 0;
            });

  Suffixes.reserve(Suffixes.size() + Count * Width);
  Locations.reserve(Locations.size() + Count);
  for (std::uint32_t Index : Order) {
    const std::uint8_t *Entry = Base + Index * Width;
    Suffixes.insert(Suffixes.end(), Entry, Entry + Width);
    Locations.push_back(S.Locations[Index]);
  }
  S.Suffixes.clear();
  S.Locations.clear();
}

std::size_t BinBuffer::size(std::uint32_t Bin) const {
  return Slots[Bin].Locations.size();
}

std::size_t BinBuffer::totalEntries(std::uint32_t BinBegin,
                                    std::uint32_t BinEnd) const {
  std::size_t Total = 0;
  for (std::uint32_t Bin = BinBegin; Bin < BinEnd; ++Bin)
    Total += Slots[Bin].Locations.size();
  return Total;
}
