// Robustness-layer tests (DESIGN.md §9): checksum verification end to
// end, the scrubber, the bounded-retry fetch path, the repair service's
// grace-period semantics, and detector-driven failure marking in both
// embodiments — all deterministic (fixed seeds, explicit Poll/clock
// calls), no wall-clock races.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/local_store.h"
#include "core/repair.h"
#include "core/sim_store.h"
#include "fault/fault_schedule.h"
#include "fault/injector.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> MakeBlock(std::size_t n, std::uint64_t tag) {
  std::vector<std::uint8_t> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>((tag * 131) ^ (i * 31) ^ (i >> 8));
  }
  return data;
}

ECStoreConfig LocalConfig(Technique t = Technique::kEcCMLb) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(t);
  c.num_sites = 8;
  c.k = 2;
  c.r = 2;
  c.seed = 11;
  return c;
}

// ---------------------------------------------------------------------------
// Checksums: corruption becomes an erasure, never returned data, and the
// scrubber rewrites the bad chunk in place (the acceptance-criteria unit
// test for the corrupt-chunk path).

TEST(RobustnessTest, CorruptChunkIsErasedDecodedAroundAndScrubbed) {
  LocalECStore store(LocalConfig());
  const auto data = MakeBlock(64 * 1024, 1);
  store.Put(1, data);

  // Corrupt r = 2 of the 4 chunks: any bit-exact read from here on proves
  // at least one corrupt chunk was fetched, caught by its checksum, and
  // decoded around (with 2 corrupt chunks, no plan of k + delta = 3 can
  // avoid both).
  const BlockInfo info = store.state().GetBlock(1);
  ASSERT_EQ(info.locations.size(), 4u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ChunkLocation& loc = info.locations[i];
    ASSERT_TRUE(store.node(loc.site).CorruptChunk(1, loc.chunk));
    // The node-level guarantee: a corrupt chunk is never handed out.
    EXPECT_EQ(store.node(loc.site).GetChunk(1, loc.chunk), nullptr);
    EXPECT_TRUE(store.node(loc.site).HasChunk(1, loc.chunk));
    EXPECT_FALSE(store.node(loc.site).HasValidChunk(1, loc.chunk));
  }

  EXPECT_EQ(store.Get(1), data);  // Bit-exact despite 2 corrupt chunks.

  ControlPlaneUsage usage = store.Usage();
  EXPECT_GE(usage.checksum_failures, 1u);

  // The scrubber rewrites both bad chunks in place from valid survivors.
  EXPECT_EQ(store.ScrubOnce(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const ChunkLocation& loc = info.locations[i];
    EXPECT_TRUE(store.node(loc.site).HasValidChunk(1, loc.chunk));
  }
  usage = store.Usage();
  EXPECT_EQ(usage.chunks_scrubbed, 2u);
  EXPECT_EQ(store.Get(1), data);
  EXPECT_EQ(store.ScrubOnce(), 0u);  // Nothing left to fix.
}

TEST(RobustnessTest, ScrubberHealsWritesDroppedByCrashedNode) {
  LocalECStore store(LocalConfig());
  // Crash a node silently, then write: the cluster state still believes
  // the site is up, so placement may choose it — those chunk writes are
  // dropped, leaving redundancy holes.
  store.CrashNode(3);
  std::vector<BlockId> holed;
  for (BlockId id = 0; id < 24; ++id) {
    store.Put(id, MakeBlock(4096, id));
    const BlockInfo& info = store.state().GetBlock(id);
    for (const ChunkLocation& loc : info.locations) {
      if (loc.site == 3) {
        EXPECT_FALSE(store.node(3).HasChunk(id, loc.chunk));
        holed.push_back(id);
      }
    }
  }
  ASSERT_FALSE(holed.empty()) << "placement never chose the crashed site";

  // Node comes back (a flap): the scrubber rebuilds the dropped chunks.
  store.HealNode(3);
  EXPECT_EQ(store.ScrubOnce(), holed.size());
  for (BlockId id : holed) {
    const BlockInfo& info = store.state().GetBlock(id);
    for (const ChunkLocation& loc : info.locations) {
      EXPECT_TRUE(store.node(loc.site).HasValidChunk(id, loc.chunk));
    }
    EXPECT_EQ(store.Get(id), MakeBlock(4096, id));
  }
}

// ---------------------------------------------------------------------------
// The hedge round and the degraded top-up: injected transient fetch
// errors never surface to the client.

TEST(RobustnessTest, TransientFetchErrorsAreRetriedToCompletion) {
  ECStoreConfig config = LocalConfig();
  LocalECStore store(config);
  for (BlockId id = 0; id < 16; ++id) store.Put(id, MakeBlock(8192, id));

  // Heavy transient error rates on half the cluster.
  for (SiteId j = 0; j < 4; ++j) store.node(j).set_fetch_error(0.5, 99 + j);

  for (int pass = 0; pass < 4; ++pass) {
    for (BlockId id = 0; id < 16; ++id) {
      EXPECT_EQ(store.Get(id), MakeBlock(8192, id));
    }
  }
  std::uint64_t injected = 0;
  for (SiteId j = 0; j < 4; ++j) injected += store.node(j).injected_fetch_errors();
  EXPECT_GE(injected, 1u) << "error injection never fired";

  const ControlPlaneUsage usage = store.Usage();
  // Every injected error was absorbed by the hedge round or the degraded
  // top-up — and the counters saw it.
  EXPECT_GE(usage.retried_fetches + usage.degraded_reads, 1u);

  for (SiteId j = 0; j < 4; ++j) store.node(j).set_fetch_error(0.0);
  const std::uint64_t before = store.node(0).injected_fetch_errors();
  store.Get(5);
  EXPECT_EQ(store.node(0).injected_fetch_errors(), before);  // Switched off.
}

// ---------------------------------------------------------------------------
// One hedge round: a read still short of k when the per-fetch deadline
// expires re-issues each untried chunk once — never a chunk already in
// flight, never a second round — and no hedge goes out once the
// request's end-to-end deadline has passed.

/// Plain EC (exactly k planned fetches) over 4 sites holding one chunk
/// each of block 1.
ECStoreConfig HedgeConfig() {
  ECStoreConfig c = LocalConfig(Technique::kEc);
  c.num_sites = 4;
  return c;
}

TEST(RobustnessTest, StragglerDeadlineIssuesOneHedgeOverUntriedChunks) {
  ECStoreConfig config = HedgeConfig();
  config.data_plane.site_extra_latency_ms = {400.0, 0, 0, 0};
  config.data_plane.fetch_deadline_ms = 50.0;
  LocalECStore store(config);
  const auto data = MakeBlock(4096, 1);
  store.Put(1, data, std::vector<SiteId>{0, 1, 2, 3});
  std::vector<ChunkRead> plan;
  store.control_plane().set_plan_observer(
      [&plan](std::span<const BlockId>, const PlanDecision& d) {
        plan = d.plan.reads;
      });

  int straggled = 0;
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t before = store.Usage().retried_fetches;
    EXPECT_EQ(store.Get(1), data);
    const std::uint64_t hedged = store.Usage().retried_fetches - before;
    ASSERT_EQ(plan.size(), 2u);
    const bool hit_straggler =
        std::any_of(plan.begin(), plan.end(),
                    [](const ChunkRead& r) { return r.site == 0; });
    straggled += hit_straggler;
    // Straggler in the plan: the hedge is the two chunks the plan left
    // out — not the straggling one again, and no later round. Otherwise
    // both fetches land inside the deadline and nothing is hedged.
    EXPECT_EQ(hedged, hit_straggler ? 2u : 0u) << "round " << round;
  }
  EXPECT_GT(straggled, 0) << "no plan ever drew the straggler site";
}

TEST(RobustnessTest, NoHedgeOnceTheRequestDeadlinePassed) {
  // Every fetch takes 100 ms and the hedge decision comes at the 40 ms
  // per-fetch deadline: with a 20 ms request deadline it has passed by
  // then, with a generous one the two untried chunks are hedged.
  const auto hedged_with_deadline = [](double deadline_ms) {
    ECStoreConfig config = HedgeConfig();
    config.data_plane.base_latency_ms = 100.0;
    config.data_plane.fetch_deadline_ms = 40.0;
    config.overload.deadline_ms = deadline_ms;
    LocalECStore store(config);
    const auto data = MakeBlock(4096, 2);
    store.Put(1, data, std::vector<SiteId>{0, 1, 2, 3});
    const std::vector<BlockId> ids = {1};
    if (deadline_ms < 100.0) {
      EXPECT_THROW(store.MultiGet(ids), DeadlineExceededError);
    } else {
      EXPECT_EQ(store.MultiGet(ids)[0], data);
    }
    return store.Usage().retried_fetches;
  };
  EXPECT_EQ(hedged_with_deadline(20.0), 0u);
  EXPECT_EQ(hedged_with_deadline(60'000.0), 2u);
}

// ---------------------------------------------------------------------------
// Repair grace period (satellite regression test): a flap shorter than
// repair_wait triggers zero rebuilds; a site dead past the deadline is
// rebuilt exactly once, no matter how often the service polls.

TEST(RobustnessTest, RepairGracePeriodSemantics) {
  ECStoreConfig config = LocalConfig();
  config.repair_wait = FromMillis(100);
  LocalECStore store(config);
  for (BlockId id = 0; id < 20; ++id) store.Put(id, MakeBlock(4096, id));
  const std::uint64_t lost = store.state().BlocksWithChunkAt(2).size();
  ASSERT_GT(lost, 0u);

  RepairService& repair = store.repair_service();
  // Flap: down at t=0 (first seen by the poll at t=10ms), back before the
  // 100ms grace expires. No rebuild may fire.
  store.FailSite(2);
  repair.Poll(FromMillis(10));
  repair.Poll(FromMillis(60));
  EXPECT_EQ(repair.chunks_rebuilt(), 0u);
  store.RecoverSite(2);
  repair.Poll(FromMillis(90));
  repair.Poll(FromMillis(500));  // Long after: the outage ended in time.
  EXPECT_EQ(repair.chunks_rebuilt(), 0u);
  EXPECT_EQ(store.state().BlocksWithChunkAt(2).size(), lost);

  // Crash-stop: down past the grace deadline is rebuilt exactly once,
  // however many times the service polls afterwards.
  store.FailSite(2);
  repair.Poll(FromMillis(1000));  // Grace clock starts here.
  EXPECT_EQ(repair.chunks_rebuilt(), 0u);
  repair.Poll(FromMillis(1050));  // Still inside the grace period.
  EXPECT_EQ(repair.chunks_rebuilt(), 0u);
  repair.Poll(FromMillis(1120));  // Past it: rebuild.
  EXPECT_EQ(repair.chunks_rebuilt(), lost);
  repair.Poll(FromMillis(1200));
  repair.Poll(FromMillis(5000));
  EXPECT_EQ(repair.chunks_rebuilt(), lost) << "rebuilt more than once";

  // Full k+r redundancy is restored on real bytes, off the dead site.
  EXPECT_TRUE(store.state().BlocksWithChunkAt(2).empty());
  for (BlockId id = 0; id < 20; ++id) {
    const BlockInfo& info = store.state().GetBlock(id);
    EXPECT_EQ(info.locations.size(), 4u);
    for (const ChunkLocation& loc : info.locations) {
      EXPECT_NE(loc.site, 2u);
      EXPECT_TRUE(store.node(loc.site).HasValidChunk(id, loc.chunk));
    }
    EXPECT_EQ(store.Get(id), MakeBlock(4096, id));
  }
  EXPECT_EQ(store.Usage().chunks_repaired, lost);
}

// ---------------------------------------------------------------------------
// Detector-driven failure marking: a silent crash is noticed from missed
// stats heartbeats alone — no manual FailSite — in the simulator.

TEST(RobustnessTest, SimDetectorMarksSilentCrashDeadAndRevivesOnHeal) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = 8;
  config.seed = 3;
  config.stats_report_interval = FromMillis(200);  // Detector: 500/900 ms.
  SimECStore store(config);
  store.LoadBlocks(0, 40, 64 * 1024);
  store.Start();

  store.queue().RunUntil(FromMillis(500));
  store.CrashSite(2);  // Ground truth only: belief still up.
  EXPECT_TRUE(store.state().IsSiteAvailable(2));

  store.queue().RunUntil(FromMillis(3000));
  EXPECT_FALSE(store.state().IsSiteAvailable(2))
      << "missed heartbeats never marked the site dead";
  EXPECT_EQ(store.Usage().sites_marked_dead, 1u);

  // Reads keep completing (replanned around the dead site).
  bool done = false;
  store.Get({0, 1, 2, 3}, [&](const RequestBreakdown& r) {
    done = true;
    EXPECT_TRUE(r.ok);
  });
  store.queue().RunUntil(FromMillis(3000) + 10 * kSecond);
  EXPECT_TRUE(done);

  // Heal: the next heartbeat revives the belief, no manual RecoverSite.
  store.HealSite(2);
  store.queue().RunUntil(store.queue().Now() + 2 * kSecond);
  EXPECT_TRUE(store.state().IsSiteAvailable(2));
}

// A generated fault schedule replayed on the DES event queue: requests
// keep succeeding across a crash, a flap, and a slow-site window, with
// failure-triggered replans surfacing in the robustness counters.

TEST(RobustnessTest, SimSurvivesGeneratedFaultSchedule) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 8;
  config.seed = 5;
  config.stats_report_interval = FromMillis(200);
  SimECStore store(config);
  store.LoadBlocks(0, 60, 64 * 1024);
  store.Start();

  FaultScheduleParams params;
  params.num_sites = 8;
  params.horizon_ms = 4000;
  params.crashes = 1;
  params.flaps = 1;
  params.slow_sites = 1;
  params.fetch_error_sites = 0;  // No real fetches in the DES.
  params.corrupt_sites = 0;      // No real bytes in the DES.
  params.flap_duration_ms = 1500;
  params.slow_duration_ms = 1000;
  const auto events = GenerateFaultSchedule(params, 17);
  ASSERT_EQ(events.size(), 3u);
  const auto actions = ExpandFaultSchedule(events, store.MakeFaultActions());
  ASSERT_EQ(actions.size(), 5u);  // crash + flap(2) + slow(2)
  for (const TimedAction& a : actions) {
    store.queue().ScheduleAt(FromMillis(a.at_ms), a.run);
  }

  // A steady stream of reads across the whole horizon.
  std::uint64_t issued = 0, completed = 0;
  for (double at_ms = 50; at_ms < 6000; at_ms += 50) {
    ++issued;
    store.queue().ScheduleAt(FromMillis(at_ms), [&store, &completed, at_ms] {
      const BlockId base = static_cast<BlockId>(at_ms / 50);
      store.Get({base % 60, (base * 7 + 3) % 60}, [&](const RequestBreakdown& r) {
        EXPECT_TRUE(r.ok);
        ++completed;
      });
    });
  }
  store.queue().RunUntil(60 * kSecond);

  EXPECT_EQ(completed, issued) << "requests lost under the fault schedule";
  const ControlPlaneUsage usage = store.Usage();
  EXPECT_GE(usage.sites_marked_dead, 1u);
  EXPECT_GE(usage.retried_fetches, 1u)
      << "no request ever bounced off a crashed site";
}

}  // namespace
}  // namespace ecstore
