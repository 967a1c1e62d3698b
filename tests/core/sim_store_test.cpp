#include "core/sim_store.h"

#include <gtest/gtest.h>

#include <functional>

#include "core/repair.h"
#include "erasure/codec_family.h"

namespace ecstore {
namespace {

ECStoreConfig TinyConfig(Technique t) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(t);
  c.num_sites = 8;
  c.seed = 7;
  return c;
}

RequestBreakdown RunSingleGet(SimECStore& store, std::vector<BlockId> blocks) {
  RequestBreakdown result;
  bool done = false;
  store.Get(std::move(blocks), [&](const RequestBreakdown& r) {
    result = r;
    done = true;
  });
  store.queue().RunUntil(store.queue().Now() + 10 * kSecond);
  EXPECT_TRUE(done);
  return result;
}

TEST(SimStoreTest, SingleBlockGetCompletesWithBreakdown) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 10, 100 * 1024);
  const RequestBreakdown r = RunSingleGet(store, {3});
  EXPECT_TRUE(r.ok);
  EXPECT_GT(r.metadata, 0);
  EXPECT_GT(r.planning, 0);
  EXPECT_GT(r.retrieval, 0);
  EXPECT_GE(r.decode, 0);
  EXPECT_GE(r.total, r.metadata + r.planning + r.retrieval + r.decode);
  // Sanity: a single idle 100 KB get lands in the low-millisecond range.
  EXPECT_LT(r.total, 20 * kMillisecond);
}

TEST(SimStoreTest, MultiGetFetchesAllBlocks) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 10, 100 * 1024);
  const RequestBreakdown r = RunSingleGet(store, {0, 1, 2, 3, 4});
  EXPECT_TRUE(r.ok);
  // 5 blocks x k=2 chunks of 50 KB = 500 KB read across sites.
  std::uint64_t total_read = 0;
  for (auto b : store.SiteBytesRead()) total_read += b;
  EXPECT_EQ(total_read, 5u * 2 * 50 * 1024);
}

TEST(SimStoreTest, ReplicationReadsOneChunkPerBlock) {
  SimECStore store(TinyConfig(Technique::kReplication));
  store.LoadBlocks(0, 10, 100 * 1024);
  const RequestBreakdown r = RunSingleGet(store, {0, 1});
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.decode, 0);  // No decode for replication.
  std::uint64_t total_read = 0;
  for (auto b : store.SiteBytesRead()) total_read += b;
  EXPECT_EQ(total_read, 2u * 100 * 1024);  // One full copy per block.
}

TEST(SimStoreTest, LateBindingReadsExtraChunks) {
  ECStoreConfig config = TinyConfig(Technique::kEcLb);
  config.late_binding_delta = 1;
  SimECStore store(config);
  store.LoadBlocks(0, 10, 100 * 1024);
  const RequestBreakdown r = RunSingleGet(store, {0});
  EXPECT_TRUE(r.ok);
  std::uint64_t total_read = 0;
  for (auto b : store.SiteBytesRead()) total_read += b;
  EXPECT_EQ(total_read, 3u * 50 * 1024);  // k + delta = 3 chunks read.
}

TEST(SimStoreTest, UnknownBlockThrowsAtMetadata) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 5, 1024);
  bool called = false;
  store.Get({99}, [&](const RequestBreakdown&) { called = true; });
  EXPECT_THROW(store.queue().RunUntil(10 * kSecond), std::out_of_range);
  EXPECT_FALSE(called);
}

TEST(SimStoreTest, CostModelPopulatesPlanCache) {
  SimECStore store(TinyConfig(Technique::kEcC));
  store.LoadBlocks(0, 10, 100 * 1024);
  // First miss registers the query set; the second miss (the set has
  // proven to recur) queues the background ILP; the third request hits.
  (void)RunSingleGet(store, {1, 2});
  EXPECT_EQ(store.plan_cache().hits(), 0u);
  EXPECT_EQ(store.Usage().ilp_solves, 0u);
  (void)RunSingleGet(store, {1, 2});
  EXPECT_EQ(store.Usage().ilp_solves, 1u);
  const RequestBreakdown r3 = RunSingleGet(store, {2, 1});  // Order-insensitive.
  EXPECT_TRUE(r3.plan_cache_hit);
  EXPECT_EQ(store.Usage().ilp_solves, 1u);  // One background solve total.
}

TEST(SimStoreTest, CachedPlanIsCheaperToGenerate) {
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  SimECStore store(config);
  store.LoadBlocks(0, 10, 100 * 1024);
  const RequestBreakdown miss1 = RunSingleGet(store, {1, 2});
  const RequestBreakdown miss2 = RunSingleGet(store, {1, 2});  // Queues ILP.
  const RequestBreakdown hit = RunSingleGet(store, {1, 2});
  EXPECT_EQ(miss1.planning, kGreedyPlanCost);
  EXPECT_EQ(miss2.planning, kGreedyPlanCost);
  EXPECT_EQ(hit.planning, kPlanLookupCost);
  EXPECT_LT(hit.planning, miss1.planning);
}

TEST(SimStoreTest, RandomTechniquesSkipCache) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 10, 100 * 1024);
  (void)RunSingleGet(store, {1, 2});
  (void)RunSingleGet(store, {1, 2});
  EXPECT_EQ(store.plan_cache().hits() + store.plan_cache().misses(), 0u);
}

TEST(SimStoreTest, FailedSiteRoutedAround) {
  SimECStore store(TinyConfig(Technique::kEcC));
  store.LoadBlocks(0, 20, 100 * 1024);
  store.Start();
  // Fail two sites; r = 2 tolerance keeps every block readable.
  store.FailSite(0);
  store.FailSite(1);
  for (BlockId id = 0; id < 20; ++id) {
    const RequestBreakdown r = RunSingleGet(store, {id});
    EXPECT_TRUE(r.ok) << "block " << id;
  }
  // Failed sites never served reads after failing (they were idle before).
  const auto bytes = store.SiteBytesRead();
  EXPECT_EQ(bytes[0], 0u);
  EXPECT_EQ(bytes[1], 0u);
}

TEST(SimStoreTest, TooManyFailuresReportNotOk) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 5, 100 * 1024);
  const BlockInfo info = store.state().GetBlock(0);
  store.FailSite(info.locations[0].site);
  store.FailSite(info.locations[1].site);
  store.FailSite(info.locations[2].site);
  const RequestBreakdown r = RunSingleGet(store, {0});
  EXPECT_FALSE(r.ok);
}

TEST(SimStoreTest, StatsServicesFeedLoadTracker) {
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  SimECStore store(config);
  store.LoadBlocks(0, 50, 100 * 1024);
  store.Start();
  // Sustained closed-loop load spanning several stats ticks.
  std::uint64_t issued = 0;
  std::function<void()> issue = [&] {
    if (store.queue().Now() >= 11 * kSecond) return;
    ++issued;
    store.Get({static_cast<BlockId>(issued % 50)},
              [&](const RequestBreakdown&) { issue(); });
  };
  for (int c = 0; c < 4; ++c) issue();
  store.queue().RunUntil(12 * kSecond);
  // Probes updated o_j away from the initial constant for at least one site.
  bool any_probed = false;
  for (SiteId j = 0; j < 8; ++j) {
    if (store.load_tracker().OverheadMs(j) != 5.0) any_probed = true;
  }
  EXPECT_TRUE(any_probed);
  EXPECT_GT(store.RequestRate(), 0.0);
  EXPECT_GT(store.Usage().stats_network_bytes, 0u);
}

TEST(SimStoreTest, MoverRelocatesChunksUnderCoAccess) {
  ECStoreConfig config = TinyConfig(Technique::kEcCM);
  config.mover_chunks_per_sec = 5.0;  // Faster for the test.
  SimECStore store(config);
  store.LoadBlocks(0, 30, 100 * 1024);
  store.Start();

  // Strong co-access pattern: blocks 0 and 1 always together.
  std::function<void()> issue = [&] {
    store.Get({0, 1}, [&](const RequestBreakdown&) {
      if (store.queue().Now() < 60 * kSecond) issue();
    });
  };
  issue();
  store.queue().RunUntil(90 * kSecond);

  EXPECT_GT(store.Usage().moves_executed, 0u);
  EXPECT_GT(store.Usage().mover_network_bytes, 0u);
}

TEST(SimStoreTest, MoverDisabledForPlainEc) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 10, 100 * 1024);
  store.Start();
  for (int i = 0; i < 20; ++i) (void)RunSingleGet(store, {0, 1});
  store.queue().RunUntil(store.queue().Now() + 30 * kSecond);
  EXPECT_EQ(store.Usage().moves_executed, 0u);
}

TEST(SimStoreTest, ImbalanceLambdaZeroWhenUniform) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 8, 100 * 1024);
  const std::vector<std::uint64_t> baseline(8, 0);
  EXPECT_EQ(store.ImbalanceLambda(baseline), 0.0);  // No reads yet.
}

TEST(SimStoreTest, ImbalanceLambdaDetectsSkew) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 40, 100 * 1024);
  const auto baseline = store.SiteBytesRead();
  // Hammer one block: its chunk sites absorb all I/O.
  for (int i = 0; i < 30; ++i) (void)RunSingleGet(store, {0});
  EXPECT_GT(store.ImbalanceLambda(baseline), 50.0);
}

TEST(SimStoreTest, DeterministicForSameSeed) {
  auto run = [] {
    SimECStore store(TinyConfig(Technique::kEcCM));
    store.LoadBlocks(0, 20, 100 * 1024);
    store.Start();
    std::vector<SimTime> latencies;
    std::function<void()> issue = [&] {
      store.Get({1, 2, 3}, [&](const RequestBreakdown& r) {
        latencies.push_back(r.total);
        if (latencies.size() < 50) issue();
      });
    };
    issue();
    store.queue().RunUntil(5 * kMinute);
    return latencies;
  };
  EXPECT_EQ(run(), run());
}

// Regression: a replicated block (the layout a promotion writes) needs
// no decode, whichever copy answers — in any cluster, not only under the
// R technique. Copies 1 and 2 used to be charged the GF decode rate.
TEST(SimStoreTest, ReplicaBlockReadsChargeNoDecodeInEcCluster) {
  SimECStore store(TinyConfig(Technique::kEc));
  const CodecSpec rep{CodecFamilyId::kReplication, 1, 2, 0};
  constexpr std::uint64_t kBytes = 1 << 20;
  store.state().AddBlock(0, kBytes, SpecChunkBytes(rep, kBytes), rep,
                         std::vector<SiteId>{1, 3, 5});
  for (int i = 0; i < 40; ++i) {
    const RequestBreakdown r = RunSingleGet(store, {0});
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.decode, 0) << "read " << i;
  }
}

// Regression: an LRC block completes only on a chunk set that decodes,
// as in the real store. With block 0's chunks 0, 1 and 8 lost, lrc(6,2,2)
// keeps 7 survivors, and 3 of the 7 random 6-chunk plans over them do not
// decode: such a read must fetch a seventh chunk, not report ok on k.
TEST(SimStoreTest, LrcBlockCompletesOnlyOnDecodableChunks) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEc);
  config.num_sites = 16;
  config.seed = 3;
  config.codec_family = CodecFamilyId::kAzureLrc;
  config.k = 6;
  config.r = 2;
  config.codec_locals = 2;
  SimECStore store(config);
  store.LoadBlocks(0, 40, 600 * 1024);
  const BlockInfo info = store.state().GetBlock(0);
  for (const ChunkLocation& loc : info.locations) {
    if (loc.chunk == 0 || loc.chunk == 1 || loc.chunk == 8) {
      store.FailSite(loc.site);
    }
  }
  const auto family = GetCodecFamily(info.codec);
  std::vector<ChunkIndex> planned;
  store.control_plane().set_plan_observer(
      [&](std::span<const BlockId>, const PlanDecision& d) {
        planned.clear();
        for (const ChunkRead& read : d.plan.reads) {
          planned.push_back(read.chunk);
        }
      });
  int undecodable_plans = 0;
  for (int i = 0; i < 60; ++i) {
    const std::vector<std::uint64_t> before = store.SiteBytesRead();
    const RequestBreakdown r = RunSingleGet(store, {0});
    EXPECT_TRUE(r.ok) << "read " << i;
    const std::vector<std::uint64_t> after = store.SiteBytesRead();
    std::uint64_t bytes = 0;
    for (std::size_t j = 0; j < after.size(); ++j) {
      bytes += after[j] - before[j];
    }
    if (!family->CanDecode(planned)) {
      ++undecodable_plans;
      EXPECT_GE(bytes / info.chunk_bytes, 7u) << "read " << i;
    }
  }
  EXPECT_GT(undecodable_plans, 0);
}

// A site of the chosen plan fails after planning and before its batch is
// dispatched: the client re-plans once against the surviving sites.
TEST(SimStoreTest, SiteFailingBeforeDispatchReplansOnce) {
  SimECStore store(TinyConfig(Technique::kEc));
  store.LoadBlocks(0, 10, 100 * 1024);
  SiteId victim = kInvalidSite;
  store.control_plane().set_plan_observer(
      [&](std::span<const BlockId>, const PlanDecision& d) {
        if (victim != kInvalidSite) return;  // The re-plan.
        victim = d.plan.reads.front().site;
        // The plan's reads go out after the modeled planning cost.
        store.queue().ScheduleAfter(1, [&store, site = victim] {
          store.FailSite(site);
        });
      });
  const RequestBreakdown r = RunSingleGet(store, {3});
  ASSERT_NE(victim, kInvalidSite);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(store.Usage().retried_fetches, 1u);
  EXPECT_EQ(store.SiteBytesRead()[victim], 0u);
}

TEST(RepairServiceTest, ReconstructsAfterGracePeriod) {
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  config.repair_wait = 30 * kSecond;  // Shorten the 15 min for the test.
  config.repair_poll_interval = 1 * kSecond;
  SimECStore store(config);
  store.LoadBlocks(0, 20, 100 * 1024);

  SiteId repaired_site = kInvalidSite;
  std::uint64_t repaired_chunks = 0;
  RepairService repair(&store, [&](SiteId s, std::uint64_t n) {
    repaired_site = s;
    repaired_chunks = n;
  });
  store.Start();
  repair.Start();

  const auto lost = store.state().BlocksWithChunkAt(2);
  store.FailSite(2);
  store.queue().RunUntil(60 * kSecond);

  EXPECT_EQ(repaired_site, 2u);
  EXPECT_EQ(repaired_chunks, lost.size());
  EXPECT_EQ(repair.chunks_rebuilt(), lost.size());
  // Every block is back to full strength on available sites.
  for (BlockId id : lost) {
    EXPECT_EQ(store.state().AvailableLocations(id).size(), 4u);
  }
}

TEST(RepairServiceTest, RecoveryDuringGracePeriodCancelsRepair) {
  ECStoreConfig config = TinyConfig(Technique::kEcC);
  config.repair_wait = 30 * kSecond;
  config.repair_poll_interval = 1 * kSecond;
  SimECStore store(config);
  store.LoadBlocks(0, 20, 100 * 1024);
  RepairService repair(&store);
  store.Start();
  repair.Start();

  store.FailSite(2);
  store.queue().RunUntil(10 * kSecond);
  store.RecoverSite(2);  // Transient outage.
  store.queue().RunUntil(120 * kSecond);
  EXPECT_EQ(repair.chunks_rebuilt(), 0u);
}

}  // namespace
}  // namespace ecstore
