// Codec-family seam tests (DESIGN.md §11): exhaustive erasure-pattern
// decodability + bit-exactness for Azure-LRC and the piggybacked-RS
// regenerating family (every survivor subset), RepairPlan rebuilds that
// must be bit-identical to the encoder's chunks under every erasure
// pattern up to the family's fault tolerance, the families' repair-cost
// ordering (LRC local group < RS full-k; piggyback half-chunks < RS),
// the IsTrivialDecode => CanDecode contract, the CodecSpec
// parse/validate/name round trip, and the per-family encode/decode/
// repair cases for Reed-Solomon, replication and LRC.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/codec_spec.h"
#include "common/rng.h"
#include "erasure/codec_family.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

std::vector<IndexedChunk> Pick(const std::vector<ChunkData>& chunks,
                               const std::vector<ChunkIndex>& indices) {
  std::vector<IndexedChunk> out;
  for (ChunkIndex i : indices) out.push_back({i, chunks[i]});
  return out;
}

std::shared_ptr<const CodecFamily> Family(const char* name) {
  return GetCodecFamily(ParseCodecSpec(name));
}

const CodecSpec kRs63{CodecFamilyId::kRs, 6, 3, 0};
const CodecSpec kLrc622{CodecFamilyId::kAzureLrc, 6, 2, 2};
const CodecSpec kPb63{CodecFamilyId::kPiggybackRs, 6, 3, 0};
const CodecSpec kRep2{CodecFamilyId::kReplication, 1, 2, 0};

/// Every subset of {0..n-1}, as index vectors.
std::vector<std::vector<ChunkIndex>> AllSubsets(std::uint32_t n) {
  std::vector<std::vector<ChunkIndex>> out;
  out.reserve(std::size_t{1} << n);
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<ChunkIndex> s;
    for (std::uint32_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) s.push_back(static_cast<ChunkIndex>(i));
    }
    out.push_back(std::move(s));
  }
  return out;
}

// ---------------------------------------------------------------------------
// CodecSpec: parse / validate / name.

TEST(CodecSpecTest, ParseNameRoundTrip) {
  for (const char* name : {"rs(6,3)", "lrc(6,2,2)", "pb(6,3)", "rep(2)"}) {
    const CodecSpec spec = ParseCodecSpec(name);
    EXPECT_EQ(CodecSpecName(spec), name);
  }
  EXPECT_EQ(ParseCodecSpec("rs(6,3)"), kRs63);
  EXPECT_EQ(ParseCodecSpec("lrc(6,2,2)"), kLrc622);  // (k, l, g) argument order
  EXPECT_EQ(ParseCodecSpec("pb(6,3)"), kPb63);
  EXPECT_EQ(ParseCodecSpec("rep(2)"), kRep2);
}

TEST(CodecSpecTest, RejectsJunk) {
  EXPECT_THROW(ParseCodecSpec("xor(2)"), std::invalid_argument);
  EXPECT_THROW(ParseCodecSpec("rs(6)"), std::invalid_argument);
  EXPECT_THROW(ParseCodecSpec("lrc(5,2,2)"), std::invalid_argument);  // k % l
  EXPECT_THROW(ParseCodecSpec("pb(6,1)"), std::invalid_argument);  // needs r>=2
  EXPECT_THROW(ParseCodecSpec("rs(6,3"), std::invalid_argument);
}

TEST(CodecSpecTest, ShapeHelpers) {
  EXPECT_EQ(SpecTotalChunks(kRs63), 9u);
  EXPECT_EQ(SpecTotalChunks(kLrc622), 10u);  // 6 data + 2 local + 2 global
  EXPECT_EQ(SpecTotalChunks(kPb63), 9u);
  EXPECT_EQ(SpecTotalChunks(kRep2), 3u);
  EXPECT_EQ(SpecDataChunks(kRep2), 1u);

  // Piggyback chunks must split into two equal subchunks.
  EXPECT_EQ(SpecChunkBytes(kPb63, 12000), 2000u);  // two 1000 B subchunks
  EXPECT_EQ(SpecChunkBytes(kPb63, 12001) % 2, 0u);
  EXPECT_GE(SpecChunkBytes(kPb63, 12001) * 6, 12001u);

  // LRC placement groups: data split across l local groups, local parity
  // i guards group i, globals unconstrained.
  EXPECT_EQ(PlacementGroupOf(kLrc622, 0), PlacementGroupOf(kLrc622, 2));
  EXPECT_NE(PlacementGroupOf(kLrc622, 0), PlacementGroupOf(kLrc622, 3));
  EXPECT_EQ(PlacementGroupOf(kLrc622, 6), PlacementGroupOf(kLrc622, 0));
  EXPECT_EQ(PlacementGroupOf(kLrc622, 8), std::nullopt);
  EXPECT_FALSE(SpecAnyKDecodes(kLrc622));
  EXPECT_TRUE(SpecAnyKDecodes(kRs63));
  EXPECT_TRUE(SpecAnyKDecodes(kPb63));
}

TEST(CodecFamilyTest, RegistryMemoizesOneInstancePerSpec) {
  const auto a = GetCodecFamily(kLrc622);
  const auto b = GetCodecFamily(kLrc622);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), GetCodecFamily(kRs63).get());
}

// ---------------------------------------------------------------------------
// Exhaustive decodability + bit-exactness: for EVERY subset of the
// stripe's chunks, TryDecode must either reproduce the block exactly or
// return nullopt, and must agree with CanDecode.

void CheckEverySubset(const CodecSpec& spec, std::size_t block_size) {
  const auto family = GetCodecFamily(spec);
  const auto block = RandomBlock(block_size, 0xABCD ^ block_size);
  const auto chunks = family->Encode(block);
  ASSERT_EQ(chunks.size(), family->TotalChunks());
  for (const ChunkData& c : chunks) {
    EXPECT_EQ(c.size(), family->ChunkSize(block_size));
  }

  for (const auto& subset : AllSubsets(family->TotalChunks())) {
    std::vector<IndexedChunk> held;
    held.reserve(subset.size());
    for (const ChunkIndex c : subset) held.push_back({c, chunks[c]});
    const auto decoded = family->TryDecode(held, block_size);
    EXPECT_EQ(decoded.has_value(), family->CanDecode(subset))
        << family->Name() << " subset size " << subset.size();
    if (decoded) {
      EXPECT_EQ(*decoded, block) << family->Name();
    }
  }
}

TEST(CodecFamilyExhaustiveTest, LrcDecodesEverySpanningSubsetBitExact) {
  CheckEverySubset(kLrc622, 6 * 512 + 11);
}

TEST(CodecFamilyExhaustiveTest, PiggybackDecodesEveryKSubsetBitExact) {
  CheckEverySubset(kPb63, 6 * 512 + 11);
  CheckEverySubset(CodecSpec{CodecFamilyId::kPiggybackRs, 4, 2, 0}, 4096 + 3);
}

TEST(CodecFamilyExhaustiveTest, RsAndReplicationSubsets) {
  CheckEverySubset(CodecSpec{CodecFamilyId::kRs, 4, 2, 0}, 4096 + 3);
  CheckEverySubset(kRep2, 777);
}

TEST(CodecFamilyExhaustiveTest, SmallLrcSubsets) {
  CheckEverySubset(ParseCodecSpec("lrc(4,2,1)"), 444);
}

// ---------------------------------------------------------------------------
// IsTrivialDecode: true exactly when the set's distinct systematic chunks
// cover every data chunk, so it can never claim a set CanDecode rejects.

TEST(CodecFamilyTest, TrivialDecodeImpliesDecodableOnEverySubset) {
  for (const char* name : {"rs(2,2)", "rs(4,2)", "rs(6,3)", "lrc(6,2,2)",
                           "lrc(4,2,1)", "pb(4,2)", "pb(6,3)", "rep(2)"}) {
    const auto family = Family(name);
    for (const auto& subset : AllSubsets(family->TotalChunks())) {
      if (family->IsTrivialDecode(subset)) {
        EXPECT_TRUE(family->CanDecode(subset)) << name;
      }
      if (!family->CanDecode(subset)) continue;
      // On distinct decodable sets RS and replication keep their old
      // rules: >= k systematic chunks, and any replica.
      const auto systematic = std::count_if(
          subset.begin(), subset.end(),
          [&](ChunkIndex c) { return c < family->DataChunks(); });
      if (family->spec().family == CodecFamilyId::kRs) {
        EXPECT_EQ(family->IsTrivialDecode(subset),
                  systematic >= family->DataChunks())
            << name;
      }
      if (family->spec().family == CodecFamilyId::kReplication) {
        EXPECT_TRUE(family->IsTrivialDecode(subset)) << name;
      }
    }
  }
}

TEST(CodecFamilyTest, TrivialDecodeCountsDistinctChunksOnly) {
  const std::vector<ChunkIndex> dup = {0, 0};
  const std::vector<ChunkIndex> none;
  EXPECT_FALSE(Family("rs(2,2)")->CanDecode(dup));
  EXPECT_FALSE(Family("rs(2,2)")->IsTrivialDecode(dup));
  EXPECT_FALSE(Family("lrc(6,2,2)")->IsTrivialDecode(none));
  EXPECT_FALSE(Family("rep(2)")->IsTrivialDecode(none));
  const std::vector<ChunkIndex> parity_then_data = {2, 0, 1};
  EXPECT_TRUE(Family("rs(2,2)")->IsTrivialDecode(parity_then_data));
}

// ---------------------------------------------------------------------------
// RepairPlan: under every erasure pattern up to the family's fault
// tolerance, every erased chunk must either rebuild bit-identically from
// exactly the plan's reads, or the plan must be absent AND the survivors
// genuinely undecodable.

void CheckRepairEveryPattern(const CodecSpec& spec, std::size_t block_size) {
  const auto family = GetCodecFamily(spec);
  const auto block = RandomBlock(block_size, 0x5EED ^ block_size);
  const auto chunks = family->Encode(block);
  const std::uint32_t n = family->TotalChunks();
  const std::uint32_t max_erased = family->FaultTolerance();
  ASSERT_GE(max_erased, 1u);

  std::size_t plans_checked = 0;
  for (const auto& erased : AllSubsets(n)) {
    if (erased.empty() || erased.size() > max_erased) continue;
    std::vector<ChunkIndex> avail;
    for (ChunkIndex c = 0; c < n; ++c) {
      if (std::find(erased.begin(), erased.end(), c) == erased.end()) {
        avail.push_back(c);
      }
    }
    for (const ChunkIndex target : erased) {
      const auto plan = family->PlanRepair(target, avail);
      ASSERT_TRUE(plan.has_value())
          << family->Name() << ": no plan for chunk " << target
          << " with " << erased.size() << " erased (within fault tolerance)";
      // The plan draws only on genuinely surviving chunks, reads at most
      // whole chunks, and never reads the target itself.
      std::vector<IndexedChunk> sources;
      for (const RepairRead& read : plan->reads) {
        ASSERT_NE(read.chunk, target);
        ASSERT_TRUE(std::find(avail.begin(), avail.end(), read.chunk) !=
                    avail.end());
        ASSERT_GE(read.subchunks, 1u);
        ASSERT_LE(read.subchunks, plan->chunk_subchunks);
        sources.push_back({read.chunk, chunks[read.chunk]});
      }
      EXPECT_LE(plan->BytesToRead(chunks[0].size()),
                std::uint64_t{plan->reads.size()} * chunks[0].size());
      const auto rebuilt = family->RepairChunk(target, sources, block_size);
      ASSERT_TRUE(rebuilt.has_value()) << family->Name();
      EXPECT_EQ(*rebuilt, chunks[target])
          << family->Name() << " target " << target << " erased set size "
          << erased.size();
      ++plans_checked;
    }
  }
  EXPECT_GT(plans_checked, 0u);
}

TEST(CodecFamilyRepairTest, RsRebuildsBitIdenticalUnderEveryPattern) {
  CheckRepairEveryPattern(CodecSpec{CodecFamilyId::kRs, 4, 2, 0}, 4096 + 3);
  CheckRepairEveryPattern(kRs63, 6 * 300 + 5);
}

TEST(CodecFamilyRepairTest, LrcRebuildsBitIdenticalUnderEveryPattern) {
  CheckRepairEveryPattern(kLrc622, 6 * 300 + 5);
}

TEST(CodecFamilyRepairTest, PiggybackRebuildsBitIdenticalUnderEveryPattern) {
  CheckRepairEveryPattern(kPb63, 6 * 300 + 5);
  CheckRepairEveryPattern(CodecSpec{CodecFamilyId::kPiggybackRs, 4, 2, 0},
                          4096 + 2);
}

TEST(CodecFamilyRepairTest, ReplicationRepairsFromOneCopy) {
  CheckRepairEveryPattern(kRep2, 999);
  const auto family = GetCodecFamily(kRep2);
  const std::vector<ChunkIndex> avail = {1, 2};
  const auto plan = family->PlanRepair(0, avail);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->reads.size(), 1u);
}

// ---------------------------------------------------------------------------
// Repair-cost ordering: the reason the families exist.

TEST(CodecFamilyRepairTest, LrcSingleChunkRepairReadsOnlyItsLocalGroup) {
  const auto lrc = GetCodecFamily(kLrc622);
  const auto rs = GetCodecFamily(kRs63);
  std::vector<ChunkIndex> all_but_0;
  for (ChunkIndex c = 1; c < lrc->TotalChunks(); ++c) all_but_0.push_back(c);
  const auto plan = lrc->PlanRepair(0, all_but_0);
  ASSERT_TRUE(plan.has_value());
  // Group 0 = data {0,1,2} + local parity 6: repairing 0 reads {1,2,6}.
  EXPECT_EQ(plan->Chunks(), (std::vector<ChunkIndex>{1, 2, 6}));

  const std::uint64_t chunk_bytes = 1000;
  all_but_0.clear();
  for (ChunkIndex c = 1; c < rs->TotalChunks(); ++c) all_but_0.push_back(c);
  const auto rs_plan = rs->PlanRepair(0, all_but_0);
  ASSERT_TRUE(rs_plan.has_value());
  // The acceptance ratio: 3 chunks vs 6 = 0.5x <= 0.55x.
  EXPECT_LE(plan->BytesToRead(chunk_bytes) * 100,
            rs_plan->BytesToRead(chunk_bytes) * 55);
}

TEST(CodecFamilyRepairTest, PiggybackDataRepairReadsFewerBytesThanFullK) {
  const auto pb = GetCodecFamily(kPb63);
  std::vector<ChunkIndex> all_but_0;
  for (ChunkIndex c = 1; c < pb->TotalChunks(); ++c) all_but_0.push_back(c);
  const auto plan = pb->PlanRepair(0, all_but_0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->chunk_subchunks, 2u);
  // 9 half-chunks = 0.75x of the 6 whole chunks a full-k rebuild reads.
  const std::uint64_t chunk_bytes = 1000;
  EXPECT_EQ(plan->BytesToRead(chunk_bytes), 4500u);

  // Parity chunks fall back to the whole-chunk MDS rebuild.
  std::vector<ChunkIndex> others;
  for (ChunkIndex c = 0; c < pb->TotalChunks(); ++c) {
    if (c != 7) others.push_back(c);
  }
  const auto parity_plan = pb->PlanRepair(7, others);
  ASSERT_TRUE(parity_plan.has_value());
  EXPECT_EQ(parity_plan->BytesToRead(chunk_bytes), 6000u);
}

TEST(CodecFamilyRepairTest, LrcFaultToleranceIsComputedNotAssumed) {
  const auto lrc = GetCodecFamily(kLrc622);
  // The punctured {data + globals} code is MDS with g = 2 parities, and
  // a local parity adds one more recoverable erasure per group.
  EXPECT_GE(lrc->FaultTolerance(), 2u);
  EXPECT_LE(lrc->FaultTolerance(), 4u);
}

// Degraded-read seam: any k of {data + globals} decode (the punctured
// MDS trick BuildDemands leans on), while a mixed set including locals
// can fail — exactly what IsPlanReadCandidate encodes.
TEST(CodecFamilyTest, LrcPlanReadCandidatesAlwaysDecode) {
  const auto family = GetCodecFamily(kLrc622);
  std::vector<ChunkIndex> candidates;
  for (ChunkIndex c = 0; c < family->TotalChunks(); ++c) {
    if (IsPlanReadCandidate(kLrc622, c)) candidates.push_back(c);
  }
  EXPECT_EQ(candidates.size(), 8u);  // 6 data + 2 globals; locals excluded.
  // Every 6-subset of the candidates decodes.
  std::vector<bool> pick(candidates.size(), false);
  std::fill(pick.begin(), pick.begin() + 6, true);
  do {
    std::vector<ChunkIndex> held;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (pick[i]) held.push_back(candidates[i]);
    }
    EXPECT_TRUE(family->CanDecode(held));
  } while (std::prev_permutation(pick.begin(), pick.end()));
}

// ---------------------------------------------------------------------------
// Reed-Solomon through the family API.

TEST(ReedSolomonTest, RejectsBadParameters) {
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kRs, 1, 2, 0}),
               std::invalid_argument);
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kRs, 2, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kRs, 200, 57, 0}),
               std::invalid_argument);
}

TEST(ReedSolomonTest, BasicShape) {
  const auto codec = Family("rs(2,2)");
  EXPECT_EQ(codec->DataChunks(), 2u);
  EXPECT_EQ(codec->TotalChunks(), 4u);
  EXPECT_EQ(codec->FaultTolerance(), 2u);
  EXPECT_DOUBLE_EQ(codec->StorageOverhead(), 2.0);
  EXPECT_EQ(codec->ChunkSize(100), 50u);
  EXPECT_EQ(codec->ChunkSize(101), 51u);  // Rounds up.
}

TEST(ReedSolomonTest, EncodeProducesEqualSizedChunks) {
  const auto codec = Family("rs(3,2)");
  const auto chunks = codec->Encode(RandomBlock(1000, 1));
  ASSERT_EQ(chunks.size(), 5u);
  for (const auto& c : chunks) EXPECT_EQ(c.size(), codec->ChunkSize(1000));
}

TEST(ReedSolomonTest, SystematicChunksAreDataSplits) {
  const std::vector<std::uint8_t> block = {1, 2, 3, 4, 5, 6};
  const auto chunks = Family("rs(2,1)")->Encode(block);
  EXPECT_EQ(chunks[0], (ChunkData{1, 2, 3}));
  EXPECT_EQ(chunks[1], (ChunkData{4, 5, 6}));
}

TEST(ReedSolomonTest, DecodeFromSystematicChunks) {
  const auto codec = Family("rs(2,2)");
  const auto block = RandomBlock(100 * 1024, 2);  // Paper's 100 KB default.
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 1}), block.size()), block);
}

// The MDS property, exhaustively: any k of k+r chunks reconstruct.
TEST(ReedSolomonTest, AnyKSubsetDecodes) {
  for (const auto& [name, size] :
       {std::make_tuple("rs(2,2)", 1003), std::make_tuple("rs(3,2)", 999)}) {
    const auto codec = Family(name);
    const auto block = RandomBlock(size, 3);  // Odd size exercises padding.
    const auto chunks = codec->Encode(block);
    for (const auto& subset : AllSubsets(codec->TotalChunks())) {
      if (subset.size() != codec->DataChunks()) continue;
      EXPECT_EQ(codec->Decode(Pick(chunks, subset), block.size()), block)
          << name;
    }
  }
}

TEST(ReedSolomonTest, DecodeOrderDoesNotMatter) {
  const auto codec = Family("rs(2,2)");
  const auto block = RandomBlock(512, 4);
  const auto chunks = codec->Encode(block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {3, 0}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 3}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {3, 2}), block.size()), block);
}

TEST(ReedSolomonTest, ExtraChunksIgnored) {
  const auto codec = Family("rs(2,2)");
  const auto block = RandomBlock(256, 5);
  const auto chunks = codec->Encode(block);
  // Late binding delivers more than k chunks.
  EXPECT_EQ(codec->Decode(Pick(chunks, {1, 2, 3}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {0, 1, 2, 3}), block.size()), block);
  EXPECT_EQ(codec->Decode(Pick(chunks, {2, 0, 1}), block.size()), block);
}

TEST(ReedSolomonTest, DuplicateChunksDoNotInflateRank) {
  const auto codec = Family("rs(2,2)");
  const auto block = RandomBlock(64, 6);
  const auto chunks = codec->Encode(block);
  EXPECT_FALSE(codec->TryDecode(Pick(chunks, {1, 1}), block.size()));
  EXPECT_THROW(codec->Decode(Pick(chunks, {1, 1}), block.size()),
               std::invalid_argument);
}

TEST(ReedSolomonTest, TooFewChunksRejected) {
  const auto codec = Family("rs(3,2)");
  const auto block = RandomBlock(64, 7);
  const auto chunks = codec->Encode(block);
  EXPECT_THROW(codec->Decode(Pick(chunks, {0, 1}), block.size()),
               std::invalid_argument);
  EXPECT_FALSE(codec->TryDecode(Pick(chunks, {0, 4}), block.size()));
  const std::vector<ChunkIndex> two = {0, 4};
  EXPECT_FALSE(codec->CanDecode(two));
}

// An out-of-range index is skipped: it cannot stand in for a real chunk.
TEST(ReedSolomonTest, OutOfRangeIndexDoesNotCount) {
  const auto codec = Family("rs(2,1)");
  std::vector<IndexedChunk> bad = {{7, ChunkData(10)}, {0, ChunkData(10)}};
  EXPECT_THROW(codec->Decode(bad, 20), std::invalid_argument);
}

TEST(ReedSolomonTest, WrongChunkSizeRejected) {
  const auto codec = Family("rs(2,1)");
  const auto block = RandomBlock(100, 8);
  auto chunks = codec->Encode(block);
  chunks[0].pop_back();
  EXPECT_THROW(codec->Decode(Pick(chunks, {0, 1}), block.size()),
               std::invalid_argument);
}

TEST(ReedSolomonTest, EmptyBlockRoundTrips) {
  const auto codec = Family("rs(2,2)");
  const auto chunks = codec->Encode({});
  EXPECT_EQ(codec->Decode(Pick(chunks, {2, 3}), 0).size(), 0u);
}

TEST(ReedSolomonTest, OneByteBlockRoundTrips) {
  const auto codec = Family("rs(2,2)");
  const std::vector<std::uint8_t> one = {0xAB};
  const auto chunks = codec->Encode(one);
  for (const auto& subset : AllSubsets(4)) {
    if (subset.size() != 2) continue;
    EXPECT_EQ(codec->Decode(Pick(chunks, subset), 1), one);
  }
}

TEST(ReedSolomonTest, IsTrivialDecodeDetectsSystematic) {
  const auto codec = Family("rs(2,2)");
  const std::vector<ChunkIndex> sys = {0, 1};
  const std::vector<ChunkIndex> mixed = {0, 2};
  const std::vector<ChunkIndex> parity = {2, 3};
  EXPECT_TRUE(codec->IsTrivialDecode(sys));
  EXPECT_FALSE(codec->IsTrivialDecode(mixed));
  EXPECT_FALSE(codec->IsTrivialDecode(parity));
}

TEST(ReedSolomonTest, RepairChunkRebuildsAnyRow) {
  const auto codec = Family("rs(2,2)");
  const auto block = RandomBlock(512, 9);
  const auto chunks = codec->Encode(block);
  for (ChunkIndex target = 0; target < 4; ++target) {
    // Repair `target` from the first two other chunks.
    std::vector<ChunkIndex> sources;
    for (ChunkIndex i = 0; i < 4 && sources.size() < 2; ++i) {
      if (i != target) sources.push_back(i);
    }
    const auto rebuilt =
        codec->RepairChunk(target, Pick(chunks, sources), block.size());
    ASSERT_TRUE(rebuilt.has_value()) << "target " << target;
    EXPECT_EQ(*rebuilt, chunks[target]);
  }
}

// Parameterized sweep across (k, r) configurations and block sizes:
// property-test the MDS guarantee with randomly chosen chunk subsets.
class RsParamTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, std::size_t>> {};

TEST_P(RsParamTest, RandomKSubsetsDecode) {
  const auto [k, r, size] = GetParam();
  const auto codec = GetCodecFamily(CodecSpec{CodecFamilyId::kRs, k, r, 0});
  Rng rng(1000 + k * 31 + r * 7 + size);
  const auto block = RandomBlock(size, rng.Next());
  const auto chunks = codec->Encode(block);

  for (int trial = 0; trial < 10; ++trial) {
    // Random k-subset of [0, k+r).
    std::vector<ChunkIndex> all(k + r);
    std::iota(all.begin(), all.end(), 0u);
    for (std::size_t i = all.size(); i > 1; --i) {
      std::swap(all[i - 1], all[rng.NextBounded(i)]);
    }
    all.resize(k);
    EXPECT_EQ(codec->Decode(Pick(chunks, all), block.size()), block);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, RsParamTest,
    ::testing::Values(
        std::make_tuple(2u, 1u, 1000u), std::make_tuple(2u, 2u, 1000u),
        std::make_tuple(3u, 2u, 1000u), std::make_tuple(4u, 2u, 1000u),
        std::make_tuple(6u, 3u, 1000u), std::make_tuple(10u, 4u, 1000u),
        std::make_tuple(2u, 2u, 1u), std::make_tuple(2u, 2u, 17u),
        std::make_tuple(3u, 3u, 100001u), std::make_tuple(5u, 1u, 4097u)));

// ---------------------------------------------------------------------------
// Replication.

TEST(ReplicationTest, RejectsZeroFaults) {
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kReplication, 1, 0, 0}),
               std::invalid_argument);
}

TEST(ReplicationTest, Shape) {
  const auto codec = GetCodecFamily(kRep2);
  EXPECT_EQ(codec->DataChunks(), 1u);
  EXPECT_EQ(codec->TotalChunks(), 3u);  // Paper: three copies.
  EXPECT_EQ(codec->FaultTolerance(), 2u);
  EXPECT_DOUBLE_EQ(codec->StorageOverhead(), 3.0);
  EXPECT_EQ(codec->ChunkSize(12345), 12345u);
}

TEST(ReplicationTest, EveryReplicaIsTheBlock) {
  const auto block = RandomBlock(100, 10);
  const auto copies = GetCodecFamily(kRep2)->Encode(block);
  ASSERT_EQ(copies.size(), 3u);
  for (const auto& c : copies) EXPECT_EQ(c, block);
}

TEST(ReplicationTest, AnySingleReplicaDecodes) {
  const auto codec = GetCodecFamily(kRep2);
  const auto block = RandomBlock(100, 11);
  const auto copies = codec->Encode(block);
  for (ChunkIndex i = 0; i < 3; ++i) {
    EXPECT_EQ(codec->Decode(Pick(copies, {i}), block.size()), block);
  }
}

TEST(ReplicationTest, NoChunksRejected) {
  const std::vector<IndexedChunk> none;
  EXPECT_THROW(GetCodecFamily(kRep2)->Decode(none, 10), std::invalid_argument);
}

TEST(ReplicationTest, DecodeIsAlwaysTrivial) {
  const std::vector<ChunkIndex> any = {2};
  EXPECT_TRUE(GetCodecFamily(kRep2)->IsTrivialDecode(any));
}

// Storage-overhead comparison, the paper's core motivation: replication
// stores 50% more than RS(2,2) at equal fault tolerance.
TEST(CodecComparisonTest, PaperStorageOverheadClaim) {
  const auto ec = Family("rs(2,2)");
  const auto rep = GetCodecFamily(kRep2);
  EXPECT_EQ(ec->FaultTolerance(), rep->FaultTolerance());
  EXPECT_DOUBLE_EQ(rep->StorageOverhead() / ec->StorageOverhead(), 1.5);
}

// ---------------------------------------------------------------------------
// Azure-LRC.

TEST(LrcTest, RejectsBadParameters) {
  // CodecSpec fields are (family, k, g, l).
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kAzureLrc, 5, 2, 2}),
               std::invalid_argument);  // k % l != 0.
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kAzureLrc, 4, 2, 0}),
               std::invalid_argument);
  EXPECT_THROW(GetCodecFamily(CodecSpec{CodecFamilyId::kAzureLrc, 4, 0, 2}),
               std::invalid_argument);
}

TEST(LrcTest, ShapeAndOverhead) {
  const auto lrc = Family("lrc(12,2,2)");  // Azure's production parameters.
  EXPECT_EQ(lrc->TotalChunks(), 16u);
  EXPECT_NEAR(lrc->StorageOverhead(), 16.0 / 12.0, 1e-12);
}

TEST(LrcTest, RoundTripsWithAllChunks) {
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(6000, 12);
  const auto chunks = lrc->Encode(block);
  ASSERT_EQ(chunks.size(), 10u);
  std::vector<ChunkIndex> all(10);
  std::iota(all.begin(), all.end(), 0u);
  const auto decoded = lrc->TryDecode(Pick(chunks, all), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, GroupAssignment) {
  // Groups {0,1,2} and {3,4,5}.
  EXPECT_EQ(PlacementGroupOf(kLrc622, 0), 0u);
  EXPECT_EQ(PlacementGroupOf(kLrc622, 2), 0u);
  EXPECT_EQ(PlacementGroupOf(kLrc622, 3), 1u);
  EXPECT_EQ(PlacementGroupOf(kLrc622, 6), 0u);  // First local parity.
  EXPECT_EQ(PlacementGroupOf(kLrc622, 7), 1u);
  EXPECT_FALSE(PlacementGroupOf(kLrc622, 8).has_value());  // Global parity.
  EXPECT_FALSE(PlacementGroupOf(kLrc622, 9).has_value());
}

TEST(LrcTest, LocalRepairSetIsSmall) {
  const auto lrc = Family("lrc(12,2,2)");
  const auto others = [&](ChunkIndex target) {
    std::vector<ChunkIndex> out;
    for (ChunkIndex c = 0; c < lrc->TotalChunks(); ++c) {
      if (c != target) out.push_back(c);
    }
    return out;
  };
  // Repair reads the group (5 data siblings + local parity), versus
  // k = 12 for an RS code — the entire point of LRC.
  EXPECT_EQ(lrc->PlanRepair(3, others(3))->reads.size(), 6u);
  // A global parity has no local group: it rebuilds from k chunks.
  EXPECT_EQ(lrc->PlanRepair(15, others(15))->reads.size(), 12u);
}

TEST(LrcTest, SingleFailureRepairsLocally) {
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(3001, 13);
  const auto chunks = lrc->Encode(block);
  // Every data chunk and every local parity repairs from its group.
  for (ChunkIndex failed = 0; failed < 8; ++failed) {
    std::vector<ChunkIndex> others;
    for (ChunkIndex c = 0; c < 10; ++c) {
      if (c != failed) others.push_back(c);
    }
    const auto plan = lrc->PlanRepair(failed, others);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->reads.size(), 3u) << "chunk " << failed;
    const auto rebuilt =
        lrc->RepairChunk(failed, Pick(chunks, plan->Chunks()), block.size());
    ASSERT_TRUE(rebuilt.has_value()) << "chunk " << failed;
    EXPECT_EQ(*rebuilt, chunks[failed]) << "chunk " << failed;
  }
}

TEST(LrcTest, RepairRejectsIncompleteGroup) {
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(600, 14);
  const auto chunks = lrc->Encode(block);
  // Group 0 less one member: neither a local nor a full rebuild.
  EXPECT_FALSE(lrc->RepairChunk(0, Pick(chunks, {1, 2}), block.size()));
}

TEST(LrcTest, SurvivesOneFailurePerGroupPlusGlobals) {
  // Erase one data chunk from each group; the locals + globals cover it.
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(2000, 15);
  const auto chunks = lrc->Encode(block);
  const auto decoded =
      lrc->TryDecode(Pick(chunks, {1, 2, 4, 5, 6, 7, 8, 9}), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, SurvivesGlobalParityWorthOfDataFailures) {
  // Two failures in the SAME group need the globals.
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(2000, 16);
  const auto chunks = lrc->Encode(block);
  const auto decoded =
      lrc->TryDecode(Pick(chunks, {2, 3, 4, 5, 6, 7, 8, 9}), block.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, block);
}

TEST(LrcTest, TooManyFailuresDetected) {
  // Lost 0, 1, 2 (whole group 0) + 6 (its parity): 4 erasures, only 2
  // globals to help -> unrecoverable; TryDecode must refuse rather than
  // corrupt.
  const auto lrc = GetCodecFamily(kLrc622);
  const auto block = RandomBlock(2000, 17);
  const auto chunks = lrc->Encode(block);
  EXPECT_FALSE(lrc->TryDecode(Pick(chunks, {3, 4, 5, 7, 8, 9}), block.size()));
}

}  // namespace
}  // namespace ecstore
