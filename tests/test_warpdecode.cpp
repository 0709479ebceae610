//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for decode v2's codec layer (`ctest -L decode`): the sub-block
/// frame format (parse geometry, header round trips, the corruption
/// sweep), compressFramed's history-reset invariant and measured ratio
/// cost, the warp-cooperative decompressor's bit-exactness against the
/// serial LzCodec::decompress oracle across sub-block counts and data
/// shapes — framed, and unframed as one sub-block per chunk for every
/// producer of the token format — the unframed corruption sweep, and
/// the warp cost-model helper.
///
//===----------------------------------------------------------------------===//

#include "compress/ChunkCodec.h"
#include "compress/GpuLaneCompressor.h"
#include "compress/GpuWarpDecompressor.h"
#include "compress/SubBlockFrame.h"
#include "sim/CostModel.h"
#include "util/Random.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

using namespace padre;

namespace {

ByteVector randomData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  Rng.fillBytes(Data.data(), Data.size());
  return Data;
}

ByteVector repetitiveData(std::size_t Size, std::uint64_t Seed) {
  ByteVector Data(Size);
  Random Rng(Seed);
  std::uint8_t Pattern[64];
  Rng.fillBytes(Pattern, sizeof(Pattern));
  for (std::size_t I = 0; I < Size; I += 64) {
    const std::size_t Take = std::min<std::size_t>(64, Size - I);
    if (Rng.nextBool(0.2))
      Rng.fillBytes(Data.data() + I, Take);
    else
      std::copy(Pattern, Pattern + Take, Data.data() + I);
  }
  return Data;
}

/// The four data shapes the oracle suites sweep: random, mixed and
/// constant 4 KiB chunks, and a mixed 32 KiB one.
ByteVector shapeData(int Shape, std::uint64_t Seed) {
  switch (Shape) {
  case 0:
    return randomData(4096, Seed);
  case 1:
    return repetitiveData(4096, Seed + 1);
  case 2:
    return ByteVector(4096, 0x77);
  default:
    return repetitiveData(32768, Seed + 2);
  }
}

const char *const ShapeNames[] = {"random", "mixed", "constant", "big"};

/// The serial oracle: LzCodec::decompress over each sub-block, exactly
/// what ChunkCodec's LzFramed branch runs.
ByteVector serialOracleDecode(const ByteVector &Framed,
                              std::size_t OriginalSize) {
  const auto Frame = parseSubBlockFrame(
      ByteSpan(Framed.data(), Framed.size()),
      static_cast<std::uint32_t>(OriginalSize));
  EXPECT_TRUE(Frame.has_value());
  ByteVector Out;
  if (!Frame)
    return Out;
  for (unsigned I = 0; I < Frame->Count; ++I)
    EXPECT_TRUE(LzCodec::decompress(Frame->tokens(I),
                                    Frame->Segs[I].OutputBytes, Out));
  return Out;
}

/// Warp plan + runWarps over a \p Method payload (framed by default).
ByteVector warpDecode(const ByteVector &Payload, std::size_t OriginalSize,
                      bool *Ok = nullptr,
                      BlockMethod Method = BlockMethod::LzFramed) {
  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(
      Method, ByteSpan(Payload.data(), Payload.size()), OriginalSize,
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  ByteVector Out;
  if (!Plan) {
    if (Ok)
      *Ok = false;
    return Out;
  }
  const bool Ran = GpuWarpDecompressor::runWarps(
      ByteSpan(Payload.data(), Payload.size()), *Plan, Out);
  if (Ok)
    *Ok = Ran;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame format
//===----------------------------------------------------------------------===//

TEST(SubBlockFrame, HeaderRoundTripsAndSegsTile) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 11);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  EXPECT_EQ(Framed.SubBlockCount, 4u);
  const auto Frame =
      parseSubBlockFrame(ByteSpan(Framed.Payload.data(),
                                  Framed.Payload.size()),
                         static_cast<std::uint32_t>(Data.size()));
  ASSERT_TRUE(Frame.has_value());
  ASSERT_EQ(Frame->Count, 4u);
  // Segments tile both the token region and the decoded output.
  std::size_t PayloadPos = subBlockHeaderSize(Frame->Count);
  std::size_t OutputPos = 0;
  for (unsigned I = 0; I < Frame->Count; ++I) {
    const SubBlockSeg &Seg = Frame->Segs[I];
    EXPECT_EQ(Seg.PayloadOffset, PayloadPos);
    EXPECT_EQ(Seg.OutputOffset, OutputPos);
    EXPECT_GT(Seg.OutputBytes, 0u);
    PayloadPos += Seg.PayloadBytes;
    OutputPos += Seg.OutputBytes;
  }
  EXPECT_EQ(PayloadPos, Framed.Payload.size());
  EXPECT_EQ(OutputPos, Data.size());
}

TEST(SubBlockFrame, TinyInputClampsSubBlockCount) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Tiny = {std::uint8_t{1}, std::uint8_t{2},
                           std::uint8_t{3}};
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Tiny.data(), Tiny.size()), 8);
  EXPECT_LE(Framed.SubBlockCount, Tiny.size());
  EXPECT_GE(Framed.SubBlockCount, 1u);
  EXPECT_EQ(serialOracleDecode(Framed.Payload, Tiny.size()), Tiny);
}

TEST(SubBlockFrame, OversizedCountClampsToMax) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 12);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 1000);
  EXPECT_EQ(Framed.SubBlockCount, MaxSubBlocks);
  EXPECT_EQ(serialOracleDecode(Framed.Payload, Data.size()), Data);
}

TEST(SubBlockFrame, RatioCostIsBoundedOnCompressibleData) {
  // The history reset + header overhead must stay a small tax: the
  // whole point of the format is trading a few percent of ratio for
  // warp parallelism (the bench gates <= 5% on the vdbench workload).
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(65536, 13);
  const std::size_t Unframed =
      Codec.compress(ByteSpan(Data.data(), Data.size())).Payload.size();
  for (const unsigned Count : {1u, 2u, 4u, 8u}) {
    const FramedCompressResult Framed =
        Codec.compressFramed(ByteSpan(Data.data(), Data.size()), Count);
    const double DeltaPct =
        100.0 *
        (static_cast<double>(Framed.Payload.size()) -
         static_cast<double>(Unframed)) /
        static_cast<double>(Unframed);
    EXPECT_LT(DeltaPct, 10.0) << "sub-blocks=" << Count;
    EXPECT_EQ(serialOracleDecode(Framed.Payload, Data.size()), Data)
        << "sub-blocks=" << Count;
  }
}

TEST(SubBlockFrame, ChunkCodecDecodesLzFramedBlocks) {
  // The block-layer integration: an LzFramed block decodes through the
  // generic chunk codec (the CPU path every framed chunk can fall back
  // to).
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 14);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  const ByteVector Block = encodeBlock(
      BlockMethod::LzFramed, static_cast<std::uint32_t>(Data.size()),
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()));
  const auto View = decodeBlock(ByteSpan(Block.data(), Block.size()));
  ASSERT_TRUE(View.has_value());
  EXPECT_EQ(View->Method, BlockMethod::LzFramed);
  ByteVector Out;
  ASSERT_TRUE(decodeChunkPayload(*View, Out));
  EXPECT_EQ(Out, Data);
}

//===----------------------------------------------------------------------===//
// Warp decode vs the serial oracle
//===----------------------------------------------------------------------===//

namespace {

class WarpOracle
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

std::string warpOracleName(
    const ::testing::TestParamInfo<WarpOracle::ParamType> &Info) {
  return "sub" + std::to_string(std::get<0>(Info.param)) + "_" +
         ShapeNames[std::get<1>(Info.param)];
}

} // namespace

TEST_P(WarpOracle, WarpDecodeMatchesSerialOracleBitExact) {
  const auto &[SubBlocks, Shape] = GetParam();
  const ByteVector Data = shapeData(Shape, 21);
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), SubBlocks);
  const ByteVector Oracle = serialOracleDecode(Framed.Payload, Data.size());
  bool Ok = false;
  const ByteVector Warp = warpDecode(Framed.Payload, Data.size(), &Ok);
  ASSERT_TRUE(Ok);
  EXPECT_EQ(Warp, Oracle);
  EXPECT_EQ(Warp, Data);
}

INSTANTIATE_TEST_SUITE_P(
    CountsAndShapes, WarpOracle,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Range(0, 4)),
    warpOracleName);

TEST(GpuWarpDecompressor, PlanIsHeaderOnlyAndFillsTable) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(8192, 31);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  WarpSubBlock Table[MaxSubBlocks];
  auto Plan = GpuWarpDecompressor::plan(
      BlockMethod::LzFramed,
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()), Data.size(),
      std::span<WarpSubBlock>(Table, MaxSubBlocks));
  ASSERT_TRUE(Plan.has_value());
  EXPECT_EQ(Plan->SubBlocks.size(), 8u);
  EXPECT_EQ(Plan->OriginalSize, Data.size());
  EXPECT_EQ(Plan->PayloadSize, Framed.Payload.size());
  // Counts are filled by runWarps, not plan (the O(N) header parse
  // never walks tokens).
  for (const WarpSubBlock &Sub : Plan->SubBlocks) {
    EXPECT_EQ(Sub.Tokens, 0u);
    EXPECT_EQ(Sub.TokenSwitches, 0u);
  }
  ByteVector Out;
  ASSERT_TRUE(GpuWarpDecompressor::runWarps(
      ByteSpan(Framed.Payload.data(), Framed.Payload.size()), *Plan, Out));
  std::uint64_t Tokens = 0;
  for (const WarpSubBlock &Sub : Plan->SubBlocks) {
    EXPECT_GT(Sub.Tokens, 0u);
    EXPECT_EQ(Sub.Stats.LiteralBytes + Sub.Stats.MatchBytes,
              Sub.Seg.OutputBytes);
    Tokens += Sub.Tokens;
  }
  EXPECT_GT(Tokens, 0u);
}

TEST(GpuWarpDecompressor, UndersizedTableRejected) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 32);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 8);
  WarpSubBlock Small[4];
  EXPECT_FALSE(GpuWarpDecompressor::plan(
                   BlockMethod::LzFramed,
                   ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
                   Data.size(), std::span<WarpSubBlock>(Small, 4))
                   .has_value());
}

TEST(GpuWarpDecompressor, CrossSubBlockDistanceRejected) {
  // History reset is an invariant, not a convention: hand-build a frame
  // whose second sub-block reaches back across the boundary. The serial
  // oracle would happily decode it (its history spans the chunk), so
  // the warp kernel must reject it itself.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data(512, std::uint8_t{0x42});
  // Sub-block 1: the constant run compressed standalone.
  const CompressResult Legit =
      Codec.compress(ByteSpan(Data.data(), Data.size()));
  // Sub-block 2: one literal + a match whose distance (2) is fine, then
  // rebuild with a distance that reaches before the sub-block (600 >
  // its own output).
  ByteVector Evil;
  Evil.push_back(std::uint8_t{0});    // literal run, length 1
  Evil.push_back(std::uint8_t{0xAA}); // the literal
  Evil.push_back(std::uint8_t{0x80}); // match, length 4
  Evil.push_back(std::uint8_t{88});   // distance lo: 600 = 0x258
  Evil.push_back(std::uint8_t{2});    // distance hi
  const std::uint32_t PayloadBytes[2] = {
      static_cast<std::uint32_t>(Legit.Payload.size()),
      static_cast<std::uint32_t>(Evil.size())};
  const std::uint32_t OutputBytes[2] = {512, 5};
  ByteVector Framed;
  appendSubBlockHeader(Framed, 2, PayloadBytes, OutputBytes);
  appendBytes(Framed, ByteSpan(Legit.Payload.data(), Legit.Payload.size()));
  appendBytes(Framed, ByteSpan(Evil.data(), Evil.size()));

  bool Ok = true;
  const ByteVector Out = warpDecode(Framed, 517, &Ok);
  EXPECT_FALSE(Ok);
  EXPECT_TRUE(Out.empty()); // no partial output on failure
}

//===----------------------------------------------------------------------===//
// Unframed payloads: one sub-block per chunk
//===----------------------------------------------------------------------===//

namespace {

/// The producers of unframed token streams, one per block method the
/// warp kernel accepts without a frame.
enum class Producer { HashChain, SingleProbe, GpuLane };

/// An unframed block's method and payload.
struct UnframedPayload {
  BlockMethod Method = BlockMethod::Raw;
  ByteVector Payload;
};

UnframedPayload compressUnframed(Producer Kind, const ByteVector &Data) {
  const ByteSpan Input(Data.data(), Data.size());
  switch (Kind) {
  case Producer::HashChain:
    return {BlockMethod::Lz77,
            LzCodec(LzCodec::MatcherKind::HashChain).compress(Input).Payload};
  case Producer::SingleProbe:
    return {BlockMethod::QuickLz,
            LzCodec(LzCodec::MatcherKind::SingleProbe).compress(Input).Payload};
  case Producer::GpuLane:
    break;
  }
  // The write side's lane kernel plus its CPU refinement: the
  // production GpuLane block.
  const GpuLaneCompressor Compressor;
  const RefinedChunk Refined =
      GpuLaneCompressor::refine(Compressor.runLanes(Input), Input);
  const auto View =
      decodeBlock(ByteSpan(Refined.Block.data(), Refined.Block.size()));
  EXPECT_TRUE(View.has_value());
  if (!View)
    return {};
  return {View->Method,
          ByteVector(View->Payload.begin(), View->Payload.end())};
}

class UnframedWarp
    : public ::testing::TestWithParam<std::tuple<Producer, int>> {};

std::string unframedWarpName(
    const ::testing::TestParamInfo<UnframedWarp::ParamType> &Info) {
  static const char *Producers[] = {"lz77", "quicklz", "gpulane"};
  return std::string(Producers[static_cast<int>(std::get<0>(Info.param))]) +
         "_" + ShapeNames[std::get<1>(Info.param)];
}

} // namespace

TEST_P(UnframedWarp, OneSubBlockMatchesLzCodecBitExact) {
  const auto &[Kind, Shape] = GetParam();
  const ByteVector Data = shapeData(Shape, 51);
  const UnframedPayload Unframed = compressUnframed(Kind, Data);
  const ByteSpan Payload(Unframed.Payload.data(), Unframed.Payload.size());
  WarpSubBlock Table[1];
  auto Plan = GpuWarpDecompressor::plan(
      Unframed.Method, Payload, Data.size(),
      std::span<WarpSubBlock>(Table, 1));
  if (Unframed.Method == BlockMethod::Raw) {
    // The lane refiner stores incompressible chunks raw: no token
    // stream, so the kernel has nothing to plan.
    EXPECT_FALSE(Plan.has_value());
    return;
  }
  ASSERT_TRUE(Plan.has_value());
  // The plan is the whole chunk, without a header or a token walk.
  ASSERT_EQ(Plan->SubBlocks.size(), 1u);
  const SubBlockSeg &Seg = Plan->SubBlocks[0].Seg;
  EXPECT_EQ(Seg.PayloadOffset, 0u);
  EXPECT_EQ(Seg.PayloadBytes, Payload.size());
  EXPECT_EQ(Seg.OutputOffset, 0u);
  EXPECT_EQ(Seg.OutputBytes, Data.size());
  EXPECT_EQ(Plan->SubBlocks[0].Tokens, 0u);

  ByteVector Oracle;
  ASSERT_TRUE(LzCodec::decompress(Payload, Data.size(), Oracle));
  ByteVector Out;
  ASSERT_TRUE(GpuWarpDecompressor::runWarps(Payload, *Plan, Out));
  EXPECT_EQ(Out, Oracle);
  EXPECT_EQ(Out, Data);
  const WarpSubBlock &Sub = Plan->SubBlocks[0];
  EXPECT_GT(Sub.Tokens, 0u);
  EXPECT_EQ(Sub.Stats.LiteralBytes + Sub.Stats.MatchBytes, Data.size());
}

INSTANTIATE_TEST_SUITE_P(
    ProducersAndShapes, UnframedWarp,
    ::testing::Combine(::testing::Values(Producer::HashChain,
                                         Producer::SingleProbe,
                                         Producer::GpuLane),
                       ::testing::Range(0, 4)),
    unframedWarpName);

TEST(GpuWarpDecompressor, MethodsWithoutTokenStreamRejected) {
  const ByteVector Data = repetitiveData(4096, 33);
  const ByteVector Payload =
      LzCodec(LzCodec::MatcherKind::HashChain)
          .compress(ByteSpan(Data.data(), Data.size()))
          .Payload;
  WarpSubBlock Table[MaxSubBlocks];
  const std::span<WarpSubBlock> Span(Table, MaxSubBlocks);
  const ByteSpan View(Payload.data(), Payload.size());
  // Raw is a copy and LzHuff needs the serial entropy stage first.
  EXPECT_FALSE(GpuWarpDecompressor::accepts(BlockMethod::Raw));
  EXPECT_FALSE(GpuWarpDecompressor::accepts(BlockMethod::LzHuff));
  EXPECT_FALSE(
      GpuWarpDecompressor::plan(BlockMethod::Raw, View, Data.size(), Span)
          .has_value());
  EXPECT_FALSE(
      GpuWarpDecompressor::plan(BlockMethod::LzHuff, View, Data.size(), Span)
          .has_value());
  // An unframed stream read as framed fails the header parse.
  EXPECT_FALSE(GpuWarpDecompressor::plan(BlockMethod::LzFramed, View,
                                         Data.size(), Span)
                   .has_value());
  // The format's size bound holds for unframed chunks too, and a plan
  // needs somewhere to go.
  EXPECT_FALSE(GpuWarpDecompressor::plan(BlockMethod::Lz77, View,
                                         LzCodec::MaxInputSize + 1, Span)
                   .has_value());
  EXPECT_FALSE(GpuWarpDecompressor::plan(BlockMethod::Lz77, View,
                                         Data.size(),
                                         std::span<WarpSubBlock>())
                   .has_value());
}

TEST(UnframedWarpCorruption, MalformedPayloadsRejected) {
  // The unframed plan never reads the payload, so every kind of damage
  // must fail in runWarps — typed, with no partial output — or decode
  // to exactly OriginalSize bytes. Never a crash.
  const ByteVector Data = repetitiveData(4096, 45);
  const ByteVector Payload =
      LzCodec(LzCodec::MatcherKind::HashChain)
          .compress(ByteSpan(Data.data(), Data.size()))
          .Payload;
  const auto Decode = [](const ByteVector &Bytes, std::size_t OriginalSize,
                         bool &Ok) {
    return warpDecode(Bytes, OriginalSize, &Ok, BlockMethod::Lz77);
  };
  bool Ok = false;
  ASSERT_EQ(Decode(Payload, Data.size(), Ok), Data);
  ASSERT_TRUE(Ok);

  // Truncation: every strict prefix ends short of OriginalSize.
  for (std::size_t Keep = 0; Keep < Payload.size(); ++Keep) {
    const ByteVector Cut(Payload.begin(), Payload.begin() + Keep);
    const ByteVector Out = Decode(Cut, Data.size(), Ok);
    EXPECT_FALSE(Ok) << "kept " << Keep;
    EXPECT_TRUE(Out.empty()) << "kept " << Keep;
  }
  // Wrong original size: the stream does not produce it.
  for (const std::size_t Size : {Data.size() - 1, Data.size() + 1}) {
    EXPECT_TRUE(Decode(Payload, Size, Ok).empty());
    EXPECT_FALSE(Ok) << "size " << Size;
  }
  // A zero back-distance is never valid.
  ByteVector Bad = Payload;
  for (std::size_t I = 0; I + 2 < Bad.size(); ++I) {
    if ((Bad[I] & 0x80) != 0) { // first match token
      Bad[I + 1] = 0;
      Bad[I + 2] = 0;
      break;
    }
    I += (Bad[I] & 0x7F) + 1; // skip literal run body
  }
  ASSERT_NE(Bad, Payload);
  EXPECT_TRUE(Decode(Bad, Data.size(), Ok).empty());
  EXPECT_FALSE(Ok);
  // Bit flips: fail with no output, or decode to full size.
  for (std::size_t I = 0; I < Payload.size(); ++I) {
    Bad = Payload;
    Bad[I] ^= 0x55;
    const ByteVector Out = Decode(Bad, Data.size(), Ok);
    if (Ok)
      EXPECT_EQ(Out.size(), Data.size()) << "byte " << I;
    else
      EXPECT_TRUE(Out.empty()) << "byte " << I;
  }
  // Garbage of assorted sizes against assorted claimed sizes.
  Random Rng(46);
  for (int Trial = 0; Trial < 200; ++Trial) {
    ByteVector Garbage(Rng.nextBelow(512));
    Rng.fillBytes(Garbage.data(), Garbage.size());
    const std::size_t Claimed = Rng.nextBelow(8192);
    const ByteVector Out = Decode(Garbage, Claimed, Ok);
    EXPECT_EQ(Out.size(), Ok ? Claimed : 0u) << "trial " << Trial;
  }
  // runWarps cross-checks the plan against the payload it gets.
  WarpSubBlock Table[1];
  auto Plan = GpuWarpDecompressor::plan(
      BlockMethod::Lz77, ByteSpan(Payload.data(), Payload.size()),
      Data.size(), std::span<WarpSubBlock>(Table, 1));
  ASSERT_TRUE(Plan.has_value());
  ByteVector Out;
  EXPECT_FALSE(GpuWarpDecompressor::runWarps(
      ByteSpan(Payload.data(), Payload.size() - 1), *Plan, Out));
  EXPECT_TRUE(Out.empty());
}

//===----------------------------------------------------------------------===//
// Corruption sweep: every malformed frame fails typed, never crashes.
//===----------------------------------------------------------------------===//

TEST(SubBlockFrameCorruption, HeaderFieldSweep) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 41);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  const auto Parse = [&](const ByteVector &Payload) {
    return parseSubBlockFrame(ByteSpan(Payload.data(), Payload.size()),
                              static_cast<std::uint32_t>(Data.size()));
  };
  ASSERT_TRUE(Parse(Framed.Payload).has_value());

  ByteVector Bad = Framed.Payload;
  Bad[0] = 0x5C; // wrong magic
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[1] = 1; // wrong version (v1 streams are never framed)
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[2] = 0; // zero sub-blocks
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[2] = MaxSubBlocks + 1; // count above the format bound
  EXPECT_FALSE(Parse(Bad).has_value());

  Bad = Framed.Payload;
  Bad[3] = 0xFF; // reserved byte must be zero
  EXPECT_FALSE(Parse(Bad).has_value());

  // Size-table damage: every byte of every length entry, flipped.
  for (std::size_t I = 4; I < subBlockHeaderSize(4); ++I) {
    Bad = Framed.Payload;
    Bad[I] ^= 0xFF;
    const auto Frame = Parse(Bad);
    if (!Frame.has_value())
      continue; // parse already rejected it
    // A flip the running sums cannot catch must still fail (or
    // round-trip bit-exactly, never crash or mis-decode) in the
    // decoders themselves.
    ByteVector Out;
    WarpSubBlock Table[MaxSubBlocks];
    auto Plan = GpuWarpDecompressor::plan(
        BlockMethod::LzFramed, ByteSpan(Bad.data(), Bad.size()),
        Data.size(), std::span<WarpSubBlock>(Table, MaxSubBlocks));
    if (!Plan)
      continue;
    if (GpuWarpDecompressor::runWarps(ByteSpan(Bad.data(), Bad.size()),
                                      *Plan, Out)) {
      EXPECT_EQ(Out, Data) << "header byte " << I;
    }
  }
}

TEST(SubBlockFrameCorruption, TruncationAndSizeMismatch) {
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(4096, 42);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);

  // Truncated anywhere: header, table, streams.
  for (const std::size_t Keep :
       {std::size_t{0}, std::size_t{3}, subBlockHeaderSize(4) - 1,
        Framed.Payload.size() - 1}) {
    EXPECT_FALSE(parseSubBlockFrame(
                     ByteSpan(Framed.Payload.data(), Keep),
                     static_cast<std::uint32_t>(Data.size()))
                     .has_value())
        << "kept " << Keep;
  }
  // OriginalSize mismatch: the output sum no longer reconciles.
  EXPECT_FALSE(
      parseSubBlockFrame(
          ByteSpan(Framed.Payload.data(), Framed.Payload.size()),
          static_cast<std::uint32_t>(Data.size() - 1))
          .has_value());
  // Trailing garbage: payload sum no longer reconciles.
  ByteVector Longer = Framed.Payload;
  Longer.push_back(std::uint8_t{0});
  EXPECT_FALSE(parseSubBlockFrame(ByteSpan(Longer.data(), Longer.size()),
                                  static_cast<std::uint32_t>(Data.size()))
                   .has_value());
}

TEST(SubBlockFrameCorruption, TokenStreamByteSweepNeverCrashes) {
  // Flip every token byte in turn: each variant either fails typed in
  // runWarps (distances/lengths no longer reconcile) or still decodes
  // to exactly OriginalSize bytes. No partial output, no crash — the
  // CRC normally screens these, so this exercises the last line of
  // defence.
  const LzCodec Codec(LzCodec::MatcherKind::HashChain);
  const ByteVector Data = repetitiveData(1024, 43);
  const FramedCompressResult Framed =
      Codec.compressFramed(ByteSpan(Data.data(), Data.size()), 4);
  for (std::size_t I = subBlockHeaderSize(4); I < Framed.Payload.size();
       ++I) {
    ByteVector Bad = Framed.Payload;
    Bad[I] ^= 0x55;
    bool Ok = false;
    const ByteVector Out = warpDecode(Bad, Data.size(), &Ok);
    if (Ok)
      EXPECT_EQ(Out.size(), Data.size()) << "token byte " << I;
    else
      EXPECT_TRUE(Out.empty()) << "token byte " << I;
  }
}

//===----------------------------------------------------------------------===//
// Warp cost model
//===----------------------------------------------------------------------===//

TEST(WarpCostModel, SubBlockCostIsMonotonic) {
  const CostModel Model;
  const double Base = Model.gpuWarpSubBlockUs(64, 4096, 16, 4);
  EXPECT_GT(Base, 0.0);
  EXPECT_GT(Model.gpuWarpSubBlockUs(128, 4096, 16, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 8192, 16, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 4096, 64, 4), Base);
  EXPECT_GT(Model.gpuWarpSubBlockUs(64, 4096, 16, 32), Base);
}

TEST(WarpCostModel, DoorbellIsFarBelowLaunch) {
  // The doorbell is far below a full launch — the persistent kernel's
  // whole reason to exist.
  const CostModel Model;
  EXPECT_LT(Model.Gpu.WarpDoorbellUs * 10.0, Model.Gpu.LaunchUs);
}
