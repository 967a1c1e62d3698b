// Golden-encode pins: the CRC32C of every chunk each codec family emits
// for a fixed seeded corpus. Stored chunks outlive the code that wrote
// them, so any change to a generator matrix, the chunk layout, the
// padding or the piggyback wiring must fail here, not silently re-encode.
// The constants were recorded from the codec implementation they pin;
// they never change with a refactor.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/codec_spec.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "erasure/codec_family.h"

namespace ecstore {
namespace {

// Empty, one byte, a size no k in the table divides, and 1 MiB.
constexpr std::size_t kSizes[] = {0, 1, 10007, 1 << 20};

std::vector<std::uint8_t> CorpusBlock(std::size_t n) {
  Rng rng(0x901DE5 + n);
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

struct Golden {
  const char* spec;
  // One row per corpus size (kSizes order), one CRC per chunk.
  std::vector<std::vector<std::uint32_t>> crcs;
};

const Golden kGolden[] = {
    {"rs(2,2)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000},
         {0xc5c7f2eb, 0x527d5351, 0xcced7d2a, 0x20eb33c7},
         {0xc779d217, 0x18c8877e, 0xb24a1ed8, 0xf595b863},
         {0x63ad6f1e, 0xd982e5e5, 0xe45aeca6, 0xba694580},
     }},
    {"rs(6,3)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000},
         {0xc5c7f2eb, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x527d5351, 0x20eb33c7, 0xcced7d2a, 0xc5c7f2eb},
         {0xb9e5fb8b, 0x6481afe8, 0xb40851e8, 0x5cfc4280, 0x226d7025,
          0xf6b74292, 0xf0fc0df4, 0xa09f268c, 0x519b2d19},
         {0x6a92e0e4, 0xdff14887, 0xca7fb5bb, 0xb737df24, 0x1be55feb,
          0x26f9ea01, 0xdbe56525, 0x400336a9, 0xd5e5e488},
     }},
    {"rs(10,4)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000},
         {0xc5c7f2eb, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x9fc37f14, 0x80ab5e8c, 0xbe7b1dbc, 0xc9ff2087},
         {0xdfa5e084, 0xa814c4b6, 0xf22ca9a1, 0x9dc22ea7, 0x329a0962,
          0xf8da37d8, 0x35ef3580, 0x9f4467c3, 0x7bf4f32c, 0x0038cc46,
          0x2b007b9c, 0xdef5c1f0, 0xbafa65b8, 0x105c6533},
         {0xd450b441, 0x3255f906, 0xef8cd6c2, 0xb80c3f86, 0xb2952495,
          0x264ec6b9, 0x80027820, 0xfc4e0121, 0x8e4562ed, 0x3186d3b6,
          0xf01616a8, 0xc087706f, 0x5ae58b14, 0xccb07c09},
     }},
    {"lrc(6,2,2)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000},
         {0xc5c7f2eb, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x527d5351, 0xc5c7f2eb, 0x527d5351, 0xcced7d2a, 0x20eb33c7},
         {0xb9e5fb8b, 0x6481afe8, 0xb40851e8, 0x5cfc4280, 0x226d7025,
          0xf6b74292, 0x696c058b, 0x88267037, 0xb912094e, 0xdaa27252},
         {0x6a92e0e4, 0xdff14887, 0xca7fb5bb, 0xb737df24, 0x1be55feb,
          0x26f9ea01, 0x7f1c1dd8, 0x8a2b6ace, 0x68e3bece, 0x86f32fb9},
     }},
    {"lrc(12,2,2)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000},
         {0xc5c7f2eb, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351, 0x527d5351,
          0x527d5351, 0x527d5351, 0xc5c7f2eb, 0x527d5351, 0xcced7d2a,
          0x20eb33c7},
         {0x771f9ec3, 0x99d05d20, 0x66ec1825, 0x6472b3e9, 0x096d35ba,
          0x31efdedd, 0xb173d99e, 0x65ac9db5, 0xd8ea049e, 0x8aa1d5ba,
          0x3e4d2ead, 0x093480b6, 0xa174200a, 0xc44a9856, 0x33da982d,
          0x37416bfc},
         {0xfc5890e8, 0x08c5c4e2, 0x63d1b597, 0x97aca42d, 0x22535880,
          0x5b534192, 0x36b59d23, 0x257c2acd, 0xcd3be17c, 0x4eb59c71,
          0x34aacc58, 0xf072ff11, 0x93c70a6a, 0xbeb8af62, 0x56b5eaee,
          0x87433f65},
     }},
    {"pb(4,2)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000},
         {0x28019782, 0xf16177d2, 0xf16177d2, 0xf16177d2, 0x19ee18ca,
          0xd2a05bf7},
         {0xd7eb8e9d, 0x6cc7d125, 0xc0a04d6d, 0x47740f97, 0x58268daa,
          0xcadaf195},
         {0x82e3f766, 0xd027c6e7, 0x279e3aff, 0x3a4294d6, 0x5ccdf675,
          0x00eb6d30},
     }},
    {"pb(6,3)",
     {
         {0x00000000, 0x00000000, 0x00000000, 0x00000000, 0x00000000,
          0x00000000, 0x00000000, 0x00000000, 0x00000000},
         {0x28019782, 0xf16177d2, 0xf16177d2, 0xf16177d2, 0xf16177d2,
          0xf16177d2, 0x451afa4d, 0x8e54b970, 0x28019782},
         {0x91467f35, 0x5accd69a, 0xd819189f, 0x5a96b021, 0xbbaaa198,
          0xca295396, 0xf84e15a1, 0xcefeac90, 0xcaffa269},
         {0x44f57519, 0xaf5790f8, 0xbb1bf0c7, 0xfa15e507, 0x7d118e99,
          0x9a1d1bde, 0x481a8129, 0x998fdc42, 0x8886d7f1},
     }},
    {"rep(2)",
     {
         {0x00000000, 0x00000000, 0x00000000},
         {0xc5c7f2eb, 0xc5c7f2eb, 0xc5c7f2eb},
         {0x68b6e306, 0x68b6e306, 0x68b6e306},
         {0x48d5a0f4, 0x48d5a0f4, 0x48d5a0f4},
     }},
};

std::string Render(const std::vector<std::vector<std::uint32_t>>& rows) {
  std::string out = "{";
  char buf[16];
  for (const auto& row : rows) {
    out += "{";
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s0x%08x", i ? ", " : "", row[i]);
      out += buf;
    }
    out += "},";
  }
  return out + "}";
}

TEST(GoldenEncodeTest, EveryChunkMatchesThePinnedCrc) {
  ASSERT_EQ(std::size(kGolden), 8u);
  for (const Golden& g : kGolden) {
    const auto family = GetCodecFamily(ParseCodecSpec(g.spec));
    std::vector<std::vector<std::uint32_t>> got;
    for (const std::size_t n : kSizes) {
      const auto chunks = family->Encode(CorpusBlock(n));
      std::vector<std::uint32_t> row;
      for (const ChunkData& c : chunks) {
        row.push_back(Crc32c(c.data(), c.size()));
      }
      got.push_back(std::move(row));
    }
    EXPECT_EQ(got, g.crcs) << g.spec << " now encodes to " << Render(got);
  }
}

}  // namespace
}  // namespace ecstore
