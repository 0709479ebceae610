//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian bit I/O used by the Huffman entropy stage. Bits are
/// packed LSB-first within each byte (the Deflate convention), so a
/// code written as N bits is read back by consuming N bits in the same
/// order.
///
//===----------------------------------------------------------------------===//

#ifndef PADRE_COMPRESS_BITSTREAM_H
#define PADRE_COMPRESS_BITSTREAM_H

#include "util/Bytes.h"

#include <cassert>
#include <cstdint>

namespace padre {

/// Appends bit fields to a byte buffer, LSB-first.
class BitWriter {
public:
  explicit BitWriter(ByteVector &Out) : Out(Out) {}

  /// Writes the low \p Count bits of \p Bits (Count in [0, 32]).
  void write(std::uint32_t Bits, unsigned Count) {
    assert(Count <= 32 && "Bit count out of range");
    assert((Count == 32 || (Bits >> Count) == 0) &&
           "Value wider than bit count");
    Accumulator |= static_cast<std::uint64_t>(Bits) << Filled;
    Filled += Count;
    while (Filled >= 8) {
      Out.push_back(static_cast<std::uint8_t>(Accumulator));
      Accumulator >>= 8;
      Filled -= 8;
    }
  }

  /// Flushes any partial byte (zero-padded high bits).
  void finish() {
    if (Filled != 0) {
      Out.push_back(static_cast<std::uint8_t>(Accumulator));
      Accumulator = 0;
      Filled = 0;
    }
  }

private:
  ByteVector &Out;
  std::uint64_t Accumulator = 0;
  unsigned Filled = 0;
};

/// Reads bit fields from a byte buffer, LSB-first. Over-reads are
/// reported rather than asserted so corrupt payloads fail decode
/// gracefully.
class BitReader {
public:
  explicit BitReader(ByteSpan Data) : Data(Data) {}

  /// Reads \p Count bits (in [0, 32]) into \p Bits. Returns false if
  /// the stream is exhausted.
  bool read(unsigned Count, std::uint32_t &Bits) {
    assert(Count <= 32 && "Bit count out of range");
    while (Filled < Count) {
      if (Position >= Data.size())
        return false;
      Accumulator |= static_cast<std::uint64_t>(Data[Position++]) << Filled;
      Filled += 8;
    }
    Bits = static_cast<std::uint32_t>(
        Accumulator & ((Count == 32) ? 0xFFFFFFFFull
                                     : ((1ull << Count) - 1)));
    Accumulator >>= Count;
    Filled -= Count;
    return true;
  }

  /// Reads a single bit.
  bool readBit(std::uint32_t &Bit) { return read(1, Bit); }

private:
  ByteSpan Data;
  std::size_t Position = 0;
  std::uint64_t Accumulator = 0;
  unsigned Filled = 0;
};

} // namespace padre

#endif // PADRE_COMPRESS_BITSTREAM_H
