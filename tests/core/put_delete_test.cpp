// Tests for the simulated write path (Fig. 3's W1-W3) and delete.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "core/sim_store.h"

namespace ecstore {
namespace {

ECStoreConfig TinyConfig(Technique t) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(t);
  c.num_sites = 8;
  c.seed = 77;
  return c;
}

SimECStore::PutResult RunPut(SimECStore& store, BlockId id, std::uint64_t bytes) {
  SimECStore::PutResult result;
  bool done = false;
  store.Put(id, bytes, [&](const SimECStore::PutResult& r) {
    result = r;
    done = true;
  });
  store.queue().RunUntil(store.queue().Now() + 30 * kSecond);
  EXPECT_TRUE(done);
  return result;
}

SimECStore::PutResult RunDelete(SimECStore& store, BlockId id) {
  SimECStore::PutResult result;
  bool done = false;
  store.Delete(id, [&](const SimECStore::PutResult& r) {
    result = r;
    done = true;
  });
  store.queue().RunUntil(store.queue().Now() + 10 * kSecond);
  EXPECT_TRUE(done);
  return result;
}

TEST(SimPutTest, PutCreatesKPlusRChunks) {
  SimECStore store(TinyConfig(Technique::kEc));
  const auto r = RunPut(store, 1, 100 * 1024);
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.total, 0);
  ASSERT_TRUE(store.state().Contains(1));
  const BlockInfo& info = store.state().GetBlock(1);
  EXPECT_EQ(info.locations.size(), 4u);  // RS(2,2).
  EXPECT_EQ(info.chunk_bytes, 50u * 1024);
}

TEST(SimPutTest, ReplicationPutStoresThreeCopies) {
  SimECStore store(TinyConfig(Technique::kReplication));
  ASSERT_TRUE(RunPut(store, 1, 100 * 1024).ok);
  const BlockInfo& info = store.state().GetBlock(1);
  EXPECT_EQ(info.locations.size(), 3u);
  EXPECT_EQ(info.chunk_bytes, 100u * 1024);
}

TEST(SimPutTest, DuplicatePutFails) {
  SimECStore store(TinyConfig(Technique::kEc));
  ASSERT_TRUE(RunPut(store, 1, 1024).ok);
  EXPECT_FALSE(RunPut(store, 1, 1024).ok);
  EXPECT_EQ(store.state().num_blocks(), 1u);
}

TEST(SimPutTest, PutThenGetRoundTrips) {
  SimECStore store(TinyConfig(Technique::kEcC));
  ASSERT_TRUE(RunPut(store, 5, 100 * 1024).ok);
  bool got = false;
  store.Get({5}, [&](const RequestBreakdown& r) {
    EXPECT_TRUE(r.ok);
    got = true;
  });
  store.queue().RunUntil(store.queue().Now() + 10 * kSecond);
  EXPECT_TRUE(got);
}

TEST(SimPutTest, ChooseWriteSitesReturnsDistinctAvailableSites) {
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  SimECStore store(config);
  store.LoadBlocks(1000, 8, 100 * 1024);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sites = store.ChooseWriteSites();
    ASSERT_EQ(sites.size(), 4u);
    const std::set<SiteId> distinct(sites.begin(), sites.end());
    EXPECT_EQ(distinct.size(), 4u);
    for (SiteId s : sites) EXPECT_LT(s, 8u);
  }
}

TEST(SimPutTest, LoadAwarePlacementAvoidsSlowSites) {
  // A heterogeneous cluster: sites 0 and 1 run 5x slower. After probes
  // observe them, load-aware placement should prefer the fast sites.
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  config.cost_tiebreak_noise = 0.0;
  config.slow_sites = {0, 1};
  config.slow_factor = 5.0;
  SimECStore store(config);
  store.LoadBlocks(0, 30, 100 * 1024);
  store.Start();
  // Traffic + several probe rounds let o_j converge.
  std::function<void()> issue = [&] {
    if (store.queue().Now() >= 10 * kSecond) return;
    store.Get({static_cast<BlockId>(store.requests_completed() % 30)},
              [&](const RequestBreakdown&) { issue(); });
  };
  for (int c = 0; c < 4; ++c) issue();
  store.queue().RunUntil(12 * kSecond);

  int slow_picks = 0;
  for (int trial = 0; trial < 20; ++trial) {
    for (SiteId s : store.ChooseWriteSites()) {
      slow_picks += (s == 0 || s == 1);
    }
  }
  // 20 trials x 4 picks from 8 sites: an oblivious chooser takes a slow
  // site half the time (20 of 80); load-aware placement should mostly
  // avoid them.
  EXPECT_LT(slow_picks, 10);
}

TEST(SimPutTest, WriteSitesExcludeFailed) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.FailSite(0);
  store.FailSite(1);
  for (int trial = 0; trial < 20; ++trial) {
    for (SiteId s : store.ChooseWriteSites()) {
      EXPECT_NE(s, 0u);
      EXPECT_NE(s, 1u);
    }
  }
}

TEST(SimPutTest, PutFailsWhenTooFewSites) {
  SimECStore store(TinyConfig(Technique::kEc));
  for (SiteId s = 0; s < 5; ++s) store.FailSite(s);  // 3 left < k+r = 4.
  EXPECT_FALSE(RunPut(store, 1, 1024).ok);
  EXPECT_FALSE(store.state().Contains(1));
}

TEST(SimPutTest, PutLandsOnSubstituteWhenSiteDiesMidWrite) {
  SimECStore store(TinyConfig(Technique::kEc));
  // Fail a site shortly after the put begins; the writer substitutes.
  store.Put(1, 1024 * 1024, [](const SimECStore::PutResult& r) {
    EXPECT_TRUE(r.ok);
  });
  store.queue().ScheduleAfter(1, [&] {
    // Fail half the cluster mid-flight; enough healthy sites remain.
    store.FailSite(0);
    store.FailSite(1);
    store.FailSite(2);
  });
  store.queue().RunUntil(30 * kSecond);
  if (store.state().Contains(1)) {
    for (const ChunkLocation& loc : store.state().GetBlock(1).locations) {
      // Every committed chunk claims a site; failed sites may legitimately
      // appear only if the write landed before the failure.
      EXPECT_LT(loc.site, 8u);
    }
  }
}

TEST(SimDeleteTest, DeleteRemovesBlock) {
  SimECStore store(TinyConfig(Technique::kEc));
  ASSERT_TRUE(RunPut(store, 1, 2048).ok);
  const auto r = RunDelete(store, 1);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(store.state().Contains(1));
  EXPECT_EQ(store.state().total_bytes(), 0u);
}

TEST(SimDeleteTest, DeleteUnknownFails) {
  SimECStore store(TinyConfig(Technique::kEc));
  EXPECT_FALSE(RunDelete(store, 42).ok);
}

TEST(SimDeleteTest, DeleteInvalidatesCachedPlans) {
  SimECStore store(TinyConfig(Technique::kEcC));
  store.LoadBlocks(0, 4, 100 * 1024);
  // Warm the cache for {0, 1} (second miss queues the ILP).
  for (int i = 0; i < 3; ++i) {
    bool done = false;
    store.Get({0, 1}, [&](const RequestBreakdown&) { done = true; });
    store.queue().RunUntil(store.queue().Now() + 5 * kSecond);
    ASSERT_TRUE(done);
  }
  EXPECT_GT(store.plan_cache().size(), 0u);
  (void)RunDelete(store, 0);
  // The cached plan for {0,1} must be gone (block 0 no longer exists).
  // A fresh get for {1} must succeed without touching stale state.
  bool done = false;
  store.Get({1}, [&](const RequestBreakdown& r) {
    EXPECT_TRUE(r.ok);
    done = true;
  });
  store.queue().RunUntil(store.queue().Now() + 5 * kSecond);
  EXPECT_TRUE(done);
}

TEST(SimPutTest, PutDeleteChurnKeepsInventoryConsistent) {
  SimECStore store(TinyConfig(Technique::kEc));
  for (int round = 0; round < 10; ++round) {
    for (BlockId id = 0; id < 5; ++id) {
      ASSERT_TRUE(RunPut(store, round * 100 + id, 10 * 1024).ok);
    }
    for (BlockId id = 0; id < 5; ++id) {
      ASSERT_TRUE(RunDelete(store, round * 100 + id).ok);
    }
  }
  EXPECT_EQ(store.state().num_blocks(), 0u);
  EXPECT_EQ(store.state().total_bytes(), 0u);
  for (auto count : store.state().site_chunk_counts()) EXPECT_EQ(count, 0u);
}

}  // namespace
}  // namespace ecstore
