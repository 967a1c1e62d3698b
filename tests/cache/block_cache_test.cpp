// Latency tier tests (DESIGN.md §12): the λ-weighted decoded-block cache
// (admission/eviction determinism, version-checked coherence, prefetch
// dedup), the replica promoter's budget accounting, the LocalECStore
// integration — cached MultiGet, invalidation on Put/move/scrub rewrite,
// prefetch fills, promote/demote surviving a replica-site failure with
// zero stale reads, group-aware demotion — and the SimECStore tier:
// promotion within the budget, demotion to the original spec, prefetch
// on a hit, and its brownout-L1 cut-off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/block_cache.h"
#include "cache/promoter.h"
#include "core/local_store.h"
#include "core/sim_store.h"

namespace ecstore {
namespace {

std::shared_ptr<const std::vector<std::uint8_t>> Bytes(std::size_t n,
                                                       std::uint8_t fill) {
  return std::make_shared<const std::vector<std::uint8_t>>(n, fill);
}

std::vector<std::uint8_t> MakeBlock(std::size_t n, std::uint64_t tag) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>((tag * 131) ^ (i * 7) ^ (i >> 6));
  }
  return data;
}

// --- BlockCache unit tests -------------------------------------------

TEST(BlockCacheTest, ZeroCapacityRejectsEverything) {
  BlockCache cache(0);
  EXPECT_FALSE(cache.enabled());
  EXPECT_FALSE(cache.Insert(1, Bytes(8, 1), 8, 1, 0.5));
  EXPECT_FALSE(cache.Lookup(1, 1, nullptr));
  EXPECT_EQ(cache.Stats().misses, 1u);
}

TEST(BlockCacheTest, LambdaAdmissionRejectsColderThanResidents) {
  BlockCache cache(100);
  ASSERT_TRUE(cache.Insert(1, Bytes(50, 1), 50, 1, 0.5));
  ASSERT_TRUE(cache.Insert(2, Bytes(50, 2), 50, 1, 0.4));
  // A colder candidate must NOT flush hotter residents — and must not
  // partially evict anything either.
  EXPECT_FALSE(cache.Insert(3, Bytes(50, 3), 50, 1, 0.1));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.Stats().admission_rejects, 1u);
  EXPECT_EQ(cache.Stats().evictions, 0u);
  // A hotter candidate evicts the coldest resident deterministically.
  EXPECT_TRUE(cache.Insert(4, Bytes(50, 4), 50, 1, 0.9));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(4));
  EXPECT_EQ(cache.Stats().evictions, 1u);
  EXPECT_EQ(cache.resident_bytes(), 100u);
}

TEST(BlockCacheTest, EqualWeightEvictionIsLruDeterministic) {
  BlockCache cache(100);
  ASSERT_TRUE(cache.Insert(1, Bytes(50, 1), 50, 1, 0.5));
  ASSERT_TRUE(cache.Insert(2, Bytes(50, 2), 50, 1, 0.5));
  // Touch block 1 so block 2 becomes least recently used.
  EXPECT_TRUE(cache.Lookup(1, 1, nullptr));
  ASSERT_TRUE(cache.Insert(3, Bytes(50, 3), 50, 1, 0.5));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(BlockCacheTest, OversizedInsertRejected) {
  BlockCache cache(100);
  EXPECT_FALSE(cache.Insert(1, Bytes(200, 1), 200, 1, 9.0));
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(BlockCacheTest, VersionMismatchInvalidatesOnLookup) {
  BlockCache cache(1024);
  ASSERT_TRUE(cache.Insert(7, Bytes(16, 7), 16, /*version=*/5, 0.5));
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  EXPECT_TRUE(cache.Lookup(7, 5, &data));
  ASSERT_NE(data, nullptr);
  EXPECT_EQ((*data)[0], 7u);
  // The catalog moved on (Put/move/repair rewrite): the stale entry
  // self-invalidates and reports a miss.
  EXPECT_FALSE(cache.Lookup(7, 6, &data));
  EXPECT_FALSE(cache.Contains(7));
  EXPECT_EQ(cache.Stats().invalidations, 1u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

TEST(BlockCacheTest, ReinsertReplacesWithFreshVersion) {
  BlockCache cache(1024);
  ASSERT_TRUE(cache.Insert(7, Bytes(16, 1), 16, 1, 0.5));
  ASSERT_TRUE(cache.Insert(7, Bytes(32, 2), 32, 2, 0.5));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.resident_bytes(), 32u);
  std::shared_ptr<const std::vector<std::uint8_t>> data;
  EXPECT_TRUE(cache.Lookup(7, 2, &data));
  EXPECT_EQ((*data)[0], 2u);
}

TEST(BlockCacheTest, ExplicitInvalidate) {
  BlockCache cache(1024);
  ASSERT_TRUE(cache.Insert(1, Bytes(16, 1), 16, 1, 0.5));
  EXPECT_TRUE(cache.Invalidate(1));
  EXPECT_FALSE(cache.Invalidate(1));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST(BlockCacheTest, PrefetchDedupAndAccounting) {
  BlockCache cache(1024);
  // Claim: only the first Begin wins while the fill is in flight.
  EXPECT_TRUE(cache.BeginPrefetch(9));
  EXPECT_FALSE(cache.BeginPrefetch(9));
  EXPECT_EQ(cache.Stats().prefetch_issued, 1u);
  ASSERT_TRUE(cache.Insert(9, Bytes(16, 9), 16, 1, 0.5, /*prefetched=*/true));
  cache.EndPrefetch(9);
  // Resident blocks are never re-claimed.
  EXPECT_FALSE(cache.BeginPrefetch(9));
  EXPECT_EQ(cache.Stats().prefetch_issued, 1u);
  // The first hit on a prefetched entry counts once toward prefetch_hits.
  EXPECT_TRUE(cache.Lookup(9, 1, nullptr));
  EXPECT_TRUE(cache.Lookup(9, 1, nullptr));
  EXPECT_EQ(cache.Stats().prefetch_hits, 1u);
  EXPECT_EQ(cache.Stats().hits, 2u);
}

TEST(BlockCacheTest, MetadataOnlyEntriesCountBytes) {
  // The simulator embodiment caches null data with real byte accounting.
  BlockCache cache(100);
  ASSERT_TRUE(cache.Insert(1, nullptr, 60, 1, 0.5));
  ASSERT_TRUE(cache.Insert(2, nullptr, 40, 1, 0.9));
  EXPECT_EQ(cache.resident_bytes(), 100u);
  EXPECT_TRUE(cache.Lookup(1, 1, nullptr));
  EXPECT_FALSE(cache.Insert(3, nullptr, 10, 1, 0.1));  // colder than both
}

// --- ReplicaPromoter unit tests --------------------------------------

TEST(ReplicaPromoterTest, BudgetAccountingAndHysteresis) {
  ReplicaPromoter::Params params;
  params.budget_bytes = 1000;
  params.replica_copies = 3;
  params.promote_min_frequency = 0.1;
  params.demote_frequency = 0.02;
  ReplicaPromoter promoter(params);
  const CodecSpec rs{CodecFamilyId::kRs, 2, 2, 0};

  // rep(3) of a 300-byte block over a 600-byte EC layout: +300 bytes.
  EXPECT_EQ(ReplicaPromoter::ReplicaExtraBytes(300, 600, 3), 300u);
  // A replica cheaper than the layout charges nothing.
  EXPECT_EQ(ReplicaPromoter::ReplicaExtraBytes(100, 600, 3), 0u);

  EXPECT_FALSE(promoter.ShouldPromote(1, 0.05, 300));  // too cold
  EXPECT_TRUE(promoter.ShouldPromote(1, 0.5, 300));
  // The size gate: bandwidth-bound large blocks keep their parallel EC
  // fetch (a replica would serialize the whole block onto one site).
  ReplicaPromoter::Params gated = params;
  gated.max_block_bytes = 64 * 1024;
  ReplicaPromoter small_only(gated);
  EXPECT_TRUE(small_only.ShouldPromote(9, 0.5, 300, 64 * 1024));
  EXPECT_FALSE(small_only.ShouldPromote(9, 0.5, 300, 64 * 1024 + 1));
  promoter.RecordPromoted(1, rs, 300);
  EXPECT_TRUE(promoter.IsPromoted(1));
  EXPECT_FALSE(promoter.ShouldPromote(1, 0.5, 300));  // already promoted
  EXPECT_TRUE(promoter.ShouldPromote(2, 0.5, 700));   // exactly fits
  EXPECT_FALSE(promoter.ShouldPromote(2, 0.5, 701));  // over budget
  promoter.RecordPromoted(2, rs, 700);
  EXPECT_EQ(promoter.Stats().replica_extra_bytes, 1000u);

  // Hysteresis: a block between the thresholds neither promotes again nor
  // demotes.
  const auto freq_of = [](BlockId id) { return id == 1 ? 0.05 : 0.01; };
  const std::vector<BlockId> cold = promoter.SelectDemotions(freq_of);
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_EQ(cold[0], 2u);

  const CodecSpec restored = promoter.RecordDemoted(2);
  EXPECT_EQ(restored, rs);
  EXPECT_EQ(promoter.Stats().replica_extra_bytes, 300u);
  EXPECT_EQ(promoter.Stats().blocks_demoted, 1u);
  EXPECT_THROW(promoter.RecordDemoted(2), std::out_of_range);
}

// --- LocalECStore integration ----------------------------------------

ECStoreConfig CacheConfig(std::uint64_t cache_bytes, bool prefetch,
                          std::uint64_t budget_bytes) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 8;
  config.k = 2;
  config.r = 2;
  config.seed = 7;
  config.cache_capacity_bytes = cache_bytes;
  config.cache_prefetch = prefetch;
  config.promotion.budget_bytes = budget_bytes;
  return config;
}

TEST(CachedStoreTest, HitsServeFromCacheAndRewriteInvalidates) {
  LocalECStore store(CacheConfig(1 << 20, false, 0));
  constexpr std::size_t kBytes = 4096;
  for (BlockId id = 0; id < 6; ++id) store.Put(id, MakeBlock(kBytes, id));

  const std::vector<BlockId> ids = {0, 1, 2};
  const auto first = store.MultiGet(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(first[i], MakeBlock(kBytes, ids[i]));
  }
  EXPECT_EQ(store.Usage().cache_hits, 0u);

  const auto second = store.MultiGet(ids);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(second[i], MakeBlock(kBytes, ids[i]));
  }
  EXPECT_EQ(store.Usage().cache_hits, 3u);

  // A delete + re-put under the same id gets a fresh coherence version:
  // the cached bytes must never surface again.
  ASSERT_TRUE(store.Remove(1));
  store.Put(1, MakeBlock(kBytes, 999));
  const auto after = store.MultiGet(ids);
  EXPECT_EQ(after[1], MakeBlock(kBytes, 999));

  // An explicit version bump (the move/repair rewrite path) forces the
  // next lookup to re-validate and refetch — still bit-exact.
  ASSERT_TRUE(store.state().BumpBlockVersion(0));
  const std::uint64_t invalidations_before = store.Usage().cache_invalidations;
  const auto revalidated = store.MultiGet(std::vector<BlockId>{0});
  EXPECT_EQ(revalidated[0], MakeBlock(kBytes, 0));
  EXPECT_GT(store.Usage().cache_invalidations, invalidations_before);
}

TEST(CachedStoreTest, AllHitFastPathReturnsCopies) {
  LocalECStore store(CacheConfig(1 << 20, false, 0));
  constexpr std::size_t kBytes = 2048;
  store.Put(1, MakeBlock(kBytes, 1));
  store.Put(2, MakeBlock(kBytes, 2));
  const std::vector<BlockId> ids = {1, 2};
  (void)store.MultiGet(ids);
  auto out = store.MultiGet(ids);  // fully cached
  EXPECT_EQ(store.Usage().cache_hits, 2u);
  EXPECT_EQ(out[0], MakeBlock(kBytes, 1));
  EXPECT_EQ(out[1], MakeBlock(kBytes, 2));
  // The caller owns its copy: mutating it must not poison the cache.
  out[0][0] ^= 0xFF;
  const auto again = store.MultiGet(ids);
  EXPECT_EQ(again[0], MakeBlock(kBytes, 1));
}

TEST(CachedStoreTest, PrefetchFillsCoAccessPartners) {
  LocalECStore store(CacheConfig(1 << 20, true, 0));
  constexpr std::size_t kBytes = 2048;
  store.Put(1, MakeBlock(kBytes, 1));
  store.Put(2, MakeBlock(kBytes, 2));

  // Build co-access: blocks 1 and 2 always travel together (λ = 1).
  const std::vector<BlockId> pair = {1, 2};
  for (int i = 0; i < 8; ++i) (void)store.MultiGet(pair);
  store.WaitForPrefetches();

  // Knock 2 out of the cache; a hit on 1 alone must prefetch it back.
  ASSERT_TRUE(store.block_cache()->Invalidate(2));
  (void)store.MultiGet(std::vector<BlockId>{1});
  store.WaitForPrefetches();
  EXPECT_TRUE(store.block_cache()->Contains(2));
  EXPECT_GE(store.Usage().prefetch_issued, 1u);

  // The prefetched entry now serves a real request, bit-exact.
  const auto out = store.MultiGet(pair);
  EXPECT_EQ(out[1], MakeBlock(kBytes, 2));
  EXPECT_GE(store.Usage().prefetch_hits, 1u);
}

// Satellite regression (ISSUE: repair/scrub rewrite must bump the block
// version): corrupt a chunk, scrub, and the cached decoded bytes must
// re-validate rather than serve stale.
TEST(CachedStoreTest, ScrubRewriteBumpsVersionAndInvalidates) {
  LocalECStore store(CacheConfig(1 << 20, false, 0));
  constexpr std::size_t kBytes = 4096;
  store.Put(1, MakeBlock(kBytes, 1));
  (void)store.MultiGet(std::vector<BlockId>{1});
  ASSERT_TRUE(store.block_cache()->Contains(1));

  const std::uint64_t version_before = store.state().BlockVersion(1);
  const ChunkLocation loc = store.state().GetBlock(1).locations[0];
  ASSERT_TRUE(store.node(loc.site).CorruptChunk(1, loc.chunk));
  ASSERT_GE(store.ScrubOnce(), 1u);

  // The rewrite bumped the coherence version and eagerly evicted the
  // cached decode.
  EXPECT_GT(store.state().BlockVersion(1), version_before);
  EXPECT_FALSE(store.block_cache()->Contains(1));
  EXPECT_GE(store.Usage().cache_invalidations, 1u);

  // The next read re-validates, refetches, and is bit-exact.
  const auto out = store.MultiGet(std::vector<BlockId>{1});
  EXPECT_EQ(out[0], MakeBlock(kBytes, 1));
}

TEST(CachedStoreTest, PromoteDemoteWithinBudgetSurvivesSiteFailure) {
  ECStoreConfig config = CacheConfig(0, false, /*budget=*/1 << 20);
  config.co_access_window = 200;  // small window so demotion can observe
  config.promotion.promote_min_frequency = 0.05;
  config.promotion.demote_frequency = 0.01;
  config.promotion.replica_copies = 3;
  LocalECStore store(config);
  constexpr std::size_t kBytes = 4096;
  // Enough blocks that the cooling traffic below keeps every individual
  // block under the promote threshold (each gets ~200/39 ≈ 5 of the
  // 200-access window, frequency ≈ 0.026 < 0.05).
  constexpr BlockId kBlocks = 40;
  for (BlockId id = 0; id < kBlocks; ++id) store.Put(id, MakeBlock(kBytes, id));

  // Make block 0 hot, then run a movement round: the promoter should
  // rewrite it to rep(2) within the budget.
  for (int i = 0; i < 40; ++i) (void)store.MultiGet(std::vector<BlockId>{0});
  store.RunMovementRound();

  const PromoterStats promoted = store.promoter()->Stats();
  ASSERT_GE(promoted.blocks_promoted, 1u);
  EXPECT_LE(promoted.replica_extra_bytes, config.promotion.budget_bytes);
  ASSERT_TRUE(store.promoter()->IsPromoted(0));
  const BlockInfo replicated = store.state().GetBlock(0);
  EXPECT_EQ(replicated.codec.family, CodecFamilyId::kReplication);
  ASSERT_EQ(replicated.locations.size(), 3u);

  // Zero stale reads across the rewrite, and the replica layout survives
  // losing one of its sites outright.
  EXPECT_EQ(store.Get(0), MakeBlock(kBytes, 0));
  store.FailSite(replicated.locations[0].site);
  EXPECT_EQ(store.Get(0), MakeBlock(kBytes, 0));
  store.RecoverSite(replicated.locations[0].site);

  // Cool the block: slide the co-access window past its accesses, then
  // demote back to the original codec family.
  for (int i = 0; i < 300; ++i) {
    (void)store.MultiGet(std::vector<BlockId>{1 + (i % (kBlocks - 1))});
  }
  store.RunMovementRound();
  EXPECT_GE(store.promoter()->Stats().blocks_demoted, 1u);
  EXPECT_FALSE(store.promoter()->IsPromoted(0));
  const BlockInfo demoted = store.state().GetBlock(0);
  EXPECT_EQ(demoted.codec.family, CodecFamilyId::kRs);
  EXPECT_EQ(store.Get(0), MakeBlock(kBytes, 0));
  EXPECT_EQ(store.promoter()->Stats().replica_extra_bytes, 0u);
}


// Placement-group regression: a demotion rewrite must honour failure
// domains like a Put does. Chunks of one LRC local group land on
// distinct domains (site % failure_domains) after Put, and must still
// do so after promote -> demote.
std::size_t SameDomainGroupMates(const BlockInfo& info, std::size_t domains) {
  std::size_t clashes = 0;
  for (std::size_t a = 0; a < info.locations.size(); ++a) {
    const ChunkLocation& la = info.locations[a];
    const auto group = PlacementGroupOf(info.codec, la.chunk);
    if (!group) continue;
    for (std::size_t b = a + 1; b < info.locations.size(); ++b) {
      const ChunkLocation& lb = info.locations[b];
      if (PlacementGroupOf(info.codec, lb.chunk) == group &&
          la.site % domains == lb.site % domains) {
        ++clashes;
      }
    }
  }
  return clashes;
}

TEST(CachedStoreTest, LrcDemotionKeepsGroupsOnDistinctDomains) {
  ECStoreConfig config = CacheConfig(0, false, /*budget=*/1 << 20);
  config.num_sites = 16;
  config.codec_family = CodecFamilyId::kAzureLrc;
  config.k = 6;
  config.r = 2;
  config.codec_locals = 2;
  config.failure_domains = 4;
  config.co_access_window = 200;
  config.promotion.promote_min_frequency = 0.05;
  config.promotion.demote_frequency = 0.01;
  config.promotion.replica_copies = 3;
  LocalECStore store(config);
  constexpr std::size_t kBytes = 4096;
  constexpr BlockId kBlocks = 40;
  for (BlockId id = 0; id < kBlocks; ++id) store.Put(id, MakeBlock(kBytes, id));
  for (BlockId id = 0; id < kBlocks; ++id) {
    ASSERT_EQ(SameDomainGroupMates(store.state().GetBlock(id), 4), 0u) << id;
  }
  const CodecSpec original = store.state().GetBlock(0).codec;

  for (int i = 0; i < 40; ++i) (void)store.MultiGet(std::vector<BlockId>{0});
  store.RunMovementRound();
  ASSERT_TRUE(store.promoter()->IsPromoted(0));

  for (int i = 0; i < 300; ++i) {
    (void)store.MultiGet(std::vector<BlockId>{1 + (i % (kBlocks - 1))});
  }
  store.RunMovementRound();
  ASSERT_FALSE(store.promoter()->IsPromoted(0));
  const BlockInfo demoted = store.state().GetBlock(0);
  EXPECT_EQ(demoted.codec, original);
  EXPECT_EQ(SameDomainGroupMates(demoted, 4), 0u);
  EXPECT_EQ(store.Get(0), MakeBlock(kBytes, 0));
}

// --- SimECStore integration -------------------------------------------
// The simulator runs the same tier policy on metadata-only entries; these
// drive its promotion round and prefetch path through the event queue.

void RunSimGet(SimECStore& store, std::vector<BlockId> blocks) {
  bool done = false;
  store.Get(std::move(blocks), [&](const RequestBreakdown&) { done = true; });
  store.queue().RunUntil(store.queue().Now() + kSecond / 10);
  ASSERT_TRUE(done);
}

ECStoreConfig SimTierConfig() {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCM);
  config.num_sites = 16;
  config.seed = 11;
  config.co_access_window = 200;
  config.promotion.budget_bytes = 1 << 20;
  config.promotion.promote_min_frequency = 0.05;
  config.promotion.demote_frequency = 0.01;
  config.promotion.replica_copies = 3;
  return config;
}

TEST(SimTierTest, HotBlockPromotesWithinBudgetThenDemotesToItsSpec) {
  const ECStoreConfig config = SimTierConfig();
  SimECStore store(config);
  constexpr BlockId kBlocks = 40;
  constexpr std::uint64_t kBytes = 64 * 1024;
  store.LoadBlocks(0, kBlocks, kBytes);
  const CodecSpec original = store.state().GetBlock(0).codec;
  store.Start();

  // Block 0 is the only block read: it tops the hottest list at the
  // first mover tick and rewrites to rep(2) within the budget.
  for (int i = 0; i < 40; ++i) RunSimGet(store, {0});
  store.queue().RunUntil(store.queue().Now() + 2 * kSecond);
  ASSERT_NE(store.promoter(), nullptr);
  ASSERT_TRUE(store.promoter()->IsPromoted(0));
  const ControlPlaneUsage hot = store.Usage();
  EXPECT_GE(hot.blocks_promoted, 1u);
  EXPECT_GT(hot.replica_extra_bytes, 0u);
  EXPECT_LE(hot.replica_extra_bytes, config.promotion.budget_bytes);
  const BlockInfo replicated = store.state().GetBlock(0);
  EXPECT_EQ(replicated.codec, store.promoter()->ReplicaSpec());
  ASSERT_EQ(replicated.locations.size(), 3u);
  RunSimGet(store, {0});  // The replica layout serves reads.

  // Cool it: slide the co-access window past its accesses.
  for (int i = 0; i < 300; ++i) {
    RunSimGet(store, {static_cast<BlockId>(1 + (i % (kBlocks - 1)))});
  }
  store.queue().RunUntil(store.queue().Now() + 2 * kSecond);
  EXPECT_FALSE(store.promoter()->IsPromoted(0));
  const ControlPlaneUsage cooled = store.Usage();
  EXPECT_GE(cooled.blocks_demoted, 1u);
  EXPECT_EQ(cooled.replica_extra_bytes, 0u);
  const BlockInfo demoted = store.state().GetBlock(0);
  EXPECT_EQ(demoted.codec, original);
  EXPECT_EQ(demoted.locations.size(), SpecTotalChunks(original));
}

std::vector<SiteId> SitesOf(const BlockInfo& info) {
  std::vector<SiteId> sites;
  for (const ChunkLocation& loc : info.locations) sites.push_back(loc.site);
  std::sort(sites.begin(), sites.end());
  return sites;
}

bool Disjoint(const std::vector<SiteId>& a, const std::vector<SiteId>& b) {
  for (SiteId s : a) {
    if (std::binary_search(b.begin(), b.end(), s)) return false;
  }
  return true;
}

// Both embodiments rewrite a layout onto sites disjoint from the old one,
// so the old chunks stay readable until the swap and retiring them never
// touches the new layout.
TEST(SimTierTest, RewritesLandOnSitesDisjointFromTheOldLayout) {
  ECStoreConfig config = SimTierConfig();
  config.num_sites = 8;
  config.mover.candidate_blocks = 0;  // Promotion rounds only: no moves.
  SimECStore store(config);
  constexpr BlockId kBlocks = 40;
  store.LoadBlocks(0, kBlocks, 64 * 1024);
  const std::vector<SiteId> original = SitesOf(store.state().GetBlock(0));
  store.Start();

  for (int i = 0; i < 40; ++i) RunSimGet(store, {0});
  store.queue().RunUntil(store.queue().Now() + 2 * kSecond);
  ASSERT_TRUE(store.promoter()->IsPromoted(0));
  const std::vector<SiteId> replicated = SitesOf(store.state().GetBlock(0));
  EXPECT_TRUE(Disjoint(replicated, original));

  for (int i = 0; i < 300; ++i) {
    RunSimGet(store, {static_cast<BlockId>(1 + (i % (kBlocks - 1)))});
  }
  store.queue().RunUntil(store.queue().Now() + 2 * kSecond);
  ASSERT_FALSE(store.promoter()->IsPromoted(0));
  EXPECT_TRUE(Disjoint(SitesOf(store.state().GetBlock(0)), replicated));
}

ECStoreConfig SimPrefetchConfig() {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = 8;
  config.seed = 5;
  config.cache_capacity_bytes = 1 << 20;
  config.cache_prefetch = true;
  return config;
}

TEST(SimTierTest, CacheHitPrefetchesCoAccessPartner) {
  SimECStore store(SimPrefetchConfig());
  store.LoadBlocks(1, 2, 16 * 1024);
  for (int i = 0; i < 8; ++i) RunSimGet(store, {1, 2});
  ASSERT_TRUE(store.block_cache()->Contains(1));

  // Knock 2 out; a hit on 1 alone must warm it back.
  ASSERT_TRUE(store.block_cache()->Invalidate(2));
  const std::uint64_t issued_before = store.Usage().prefetch_issued;
  RunSimGet(store, {1});
  EXPECT_GT(store.Usage().prefetch_issued, issued_before);
  EXPECT_TRUE(store.block_cache()->Contains(2));

  const std::uint64_t prefetch_hits_before = store.Usage().prefetch_hits;
  RunSimGet(store, {2});
  EXPECT_GT(store.Usage().prefetch_hits, prefetch_hits_before);
}

TEST(SimTierTest, BrownoutLevelOneSuppressesPrefetch) {
  ECStoreConfig config = SimPrefetchConfig();
  config.overload.brownout = true;
  SimECStore store(config);
  store.LoadBlocks(1, 2, 16 * 1024);
  for (int i = 0; i < 8; ++i) RunSimGet(store, {1, 2});
  ASSERT_TRUE(store.block_cache()->Invalidate(2));

  // Full pressure escalates the ladder one rung: prefetch is the first
  // optional work to go.
  store.overload()->brownout()->Update(1.0, 0.0);
  ASSERT_GE(store.overload()->brownout_level(), 1);
  const std::uint64_t issued_before = store.Usage().prefetch_issued;
  RunSimGet(store, {1});
  EXPECT_EQ(store.Usage().prefetch_issued, issued_before);
  EXPECT_FALSE(store.block_cache()->Contains(2));
}

}  // namespace
}  // namespace ecstore
