// Exhaustive round-trips over the fused GF kernels: for RS(4,2), RS(6,3),
// RS(10,4), LRC(6,2,2) and piggybacked RS(6,3), decode from EVERY
// k-subset of the chunks and require byte equality with the original
// block whenever the family says the subset decodes (always, for the
// MDS families) — under every dispatched GF kernel path, and with
// identical encodings across paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/codec_spec.h"
#include "erasure/codec_family.h"
#include "gf/gf256_kernels.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

std::vector<gf::KernelPath> SupportedPaths() {
  std::vector<gf::KernelPath> paths;
  for (gf::KernelPath p : {gf::KernelPath::kScalar, gf::KernelPath::kSsse3,
                           gf::KernelPath::kAvx2}) {
    if (gf::CpuSupports(p)) paths.push_back(p);
  }
  return paths;
}

const char* const kSchemes[] = {"rs(4,2)", "rs(6,3)", "rs(10,4)", "lrc(6,2,2)",
                                "pb(6,3)"};

TEST(RsExhaustiveTest, RoundTripsEveryErasurePatternOnEveryKernelPath) {
  for (const gf::KernelPath path : SupportedPaths()) {
    ASSERT_TRUE(gf::ForceKernelPath(path));
    for (const char* const name : kSchemes) {
      const auto codec = GetCodecFamily(ParseCodecSpec(name));
      const std::uint32_t k = codec->DataChunks();
      const std::uint32_t total = codec->TotalChunks();
      // Not a multiple of k, so the last systematic chunk is padded.
      const std::size_t block_size = static_cast<std::size_t>(k) * 1000 + 17;
      const auto block = RandomBlock(block_size, 7 * k + total);
      const auto chunks = codec->Encode(block);
      ASSERT_EQ(chunks.size(), total);

      // Every k-subset of the chunk indices.
      std::vector<bool> pick(total, false);
      std::fill(pick.begin(), pick.begin() + k, true);
      std::size_t patterns = 0, decoded_patterns = 0;
      do {
        std::vector<IndexedChunk> held;
        std::vector<ChunkIndex> indices;
        for (std::uint32_t i = 0; i < total; ++i) {
          if (!pick[i]) continue;
          held.push_back({static_cast<ChunkIndex>(i), chunks[i]});
          indices.push_back(static_cast<ChunkIndex>(i));
        }
        const auto decoded = codec->TryDecode(held, block_size);
        ASSERT_EQ(decoded.has_value(), codec->CanDecode(indices))
            << "kernel=" << gf::KernelPathName(path) << " " << name
            << " pattern #" << patterns;
        if (decoded) {
          ASSERT_EQ(*decoded, block)
              << "kernel=" << gf::KernelPathName(path) << " " << name
              << " pattern #" << patterns;
          ++decoded_patterns;
        }
        ++patterns;
      } while (std::prev_permutation(pick.begin(), pick.end()));
      // C(total, k) patterns must all have been exercised, and every one
      // decodes for the MDS families.
      std::size_t expect = 1;
      for (std::uint32_t i = 1; i <= total - k; ++i) {
        expect = expect * (k + i) / i;
      }
      EXPECT_EQ(patterns, expect);
      if (codec->AnyKDecodes()) {
        EXPECT_EQ(decoded_patterns, expect) << name;
      }
    }
    gf::ResetKernelPath();
  }
}

TEST(RsExhaustiveTest, EncodingIsIdenticalAcrossKernelPaths) {
  const auto paths = SupportedPaths();
  for (const char* const name : kSchemes) {
    const auto codec = GetCodecFamily(ParseCodecSpec(name));
    const auto block = RandomBlock(100 * 1024 + 3, 99);
    std::vector<std::vector<ChunkData>> encodings;
    for (const gf::KernelPath path : paths) {
      ASSERT_TRUE(gf::ForceKernelPath(path));
      encodings.push_back(codec->Encode(block));
      gf::ResetKernelPath();
    }
    for (std::size_t i = 1; i < encodings.size(); ++i) {
      EXPECT_EQ(encodings[i], encodings[0])
          << gf::KernelPathName(paths[i]) << " vs "
          << gf::KernelPathName(paths[0]) << " " << name;
    }
  }
}

TEST(RsExhaustiveTest, DuplicateChunksAreIgnoredNotDoubleCounted) {
  // The seen-bitmap must skip duplicates even when they arrive
  // interleaved with fresh indices.
  const auto codec = GetCodecFamily(ParseCodecSpec("rs(4,2)"));
  const auto block = RandomBlock(4096, 5);
  const auto chunks = codec->Encode(block);
  const std::vector<IndexedChunk> held = {
      {5, chunks[5]}, {5, chunks[5]}, {1, chunks[1]}, {1, chunks[1]},
      {4, chunks[4]}, {5, chunks[5]}, {2, chunks[2]}, {0, chunks[0]},
  };
  EXPECT_EQ(codec->Decode(held, block.size()), block);
}

}  // namespace
}  // namespace ecstore
