// Overload control (DESIGN.md §14): breaker state machine, CoDel
// admission gate, brownout ladder, the breaker-aware planning filter,
// and the SimECStore deadline/shed integration.
#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/state.h"
#include "core/control_plane.h"
#include "core/local_store.h"
#include "core/sim_store.h"
#include "overload/overload.h"
#include "placement/cost_model.h"

namespace ecstore {
namespace {

OverloadParams BreakerParams() {
  OverloadParams p;
  p.breakers = true;
  p.breaker_p99_ms = 50;
  p.breaker_open_ms = 250;
  p.breaker_half_open_probes = 3;
  p.breaker_min_samples = 64;
  return p;
}

// ---------------------------------------------------------------------------
// Circuit breakers.

TEST(CircuitBreakerTest, ClosedOpenHalfOpenClosedCycle) {
  CircuitBreakerSet set(4, BreakerParams());
  EXPECT_FALSE(set.AnyNotClosed());
  EXPECT_FALSE(set.ShouldAvoid(0));

  // Bad p99 with enough samples trips the breaker.
  set.Evaluate(0, /*p99_ms=*/200, /*samples=*/100, /*now_ms=*/0);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kOpen);
  EXPECT_TRUE(set.AnyNotClosed());
  EXPECT_TRUE(set.ShouldAvoid(0));
  EXPECT_FALSE(set.AllowProbe(0));
  EXPECT_EQ(set.opens(), 1u);
  // Other sites are untouched.
  EXPECT_FALSE(set.ShouldAvoid(1));

  // Before the cool-off the breaker stays open.
  set.Evaluate(0, 200, 100, 100);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kOpen);

  // After breaker_open_ms it goes half-open and grants a bounded number
  // of probes — no thundering herd on recovery.
  set.Evaluate(0, 200, 100, 250);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kHalfOpen);
  EXPECT_FALSE(set.ShouldAvoid(0));  // probes still available
  EXPECT_TRUE(set.AllowProbe(0));
  EXPECT_TRUE(set.AllowProbe(0));
  EXPECT_TRUE(set.AllowProbe(0));
  EXPECT_FALSE(set.AllowProbe(0));  // budget exhausted
  EXPECT_TRUE(set.ShouldAvoid(0));
  EXPECT_EQ(set.half_open_probes(), 3u);

  // The first healthy window closes it.
  set.Evaluate(0, 10, 200, 300);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kClosed);
  EXPECT_FALSE(set.AnyNotClosed());
  EXPECT_TRUE(set.AllowProbe(0));  // closed sites always pass
  EXPECT_EQ(set.opens(), 1u);
}

TEST(CircuitBreakerTest, MinSamplesPreventsColdTrip) {
  CircuitBreakerSet set(2, BreakerParams());
  // A cold site with a few unlucky fetches must not flap the breaker.
  set.Evaluate(0, /*p99_ms=*/1000, /*samples=*/10, /*now_ms=*/0);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kClosed);
  EXPECT_FALSE(set.AnyNotClosed());
}

TEST(CircuitBreakerTest, HalfOpenRelapseReopensAfterFullPeriod) {
  CircuitBreakerSet set(2, BreakerParams());
  set.Evaluate(0, 200, 100, 0);
  set.Evaluate(0, 200, 100, 250);  // half-open
  ASSERT_EQ(set.StateOf(0), CircuitBreakerSet::State::kHalfOpen);
  // Still bad shortly after: the histogram remembers the bad episode, so
  // the verdict waits a full half-open period before re-opening.
  set.Evaluate(0, 200, 100, 300);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kHalfOpen);
  set.Evaluate(0, 200, 100, 520);
  EXPECT_EQ(set.StateOf(0), CircuitBreakerSet::State::kOpen);
  EXPECT_EQ(set.opens(), 2u);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(AdmissionTest, ConcurrencyCapShedsExcess) {
  OverloadParams p;
  p.admission = true;
  p.admission_max_in_flight = 2;
  AdmissionController adm(p);
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_TRUE(adm.TryAdmit(0));
  EXPECT_FALSE(adm.TryAdmit(0));  // past the cap: shed
  EXPECT_EQ(adm.requests_shed(), 1u);
  EXPECT_EQ(adm.in_flight(), 2);
  adm.Release();
  EXPECT_TRUE(adm.TryAdmit(0));  // token returned
  adm.Release();
  adm.Release();
}

TEST(AdmissionTest, StandingQueueHalvesTheCap) {
  OverloadParams p;
  p.admission = true;
  p.admission_max_in_flight = 4;
  p.codel_target_ms = 5;
  p.codel_interval_ms = 100;
  AdmissionController adm(p);
  // A whole CoDel window whose *minimum* sojourn exceeds target: a
  // standing queue, not a burst.
  adm.RecordSojourn(20, 0);
  adm.RecordSojourn(15, 60);
  adm.RecordSojourn(18, 120);  // closes the window: min 15 > 5
  EXPECT_TRUE(adm.overloaded());
  EXPECT_GE(adm.Pressure(), 1.0);
  EXPECT_TRUE(adm.TryAdmit(130));
  EXPECT_TRUE(adm.TryAdmit(130));
  EXPECT_FALSE(adm.TryAdmit(130));  // halved cap: 2 of 4
}

TEST(AdmissionTest, BriefBurstIsTolerated) {
  OverloadParams p;
  p.admission = true;
  p.admission_max_in_flight = 4;
  p.codel_target_ms = 5;
  p.codel_interval_ms = 100;
  AdmissionController adm(p);
  // Deep sojourns mixed with one fast pickup: the window minimum stays
  // under target, so the queue is draining — no cut.
  adm.RecordSojourn(50, 0);
  adm.RecordSojourn(1, 60);
  adm.RecordSojourn(40, 120);  // closes the window: min 1 <= 5
  EXPECT_FALSE(adm.overloaded());
  EXPECT_TRUE(adm.TryAdmit(130));
  EXPECT_TRUE(adm.TryAdmit(130));
  EXPECT_TRUE(adm.TryAdmit(130));
  EXPECT_TRUE(adm.TryAdmit(130));
}

// ---------------------------------------------------------------------------
// Brownout ladder.

TEST(BrownoutTest, EscalatesOneLevelPerDwellAndRestoresInReverse) {
  OverloadParams p;
  p.brownout = true;
  p.brownout_high_pressure = 0.7;
  p.brownout_low_pressure = 0.3;
  p.brownout_dwell_ms = 150;
  BrownoutController ladder(p);
  EXPECT_EQ(ladder.level(), 0);

  ladder.Update(0.9, 0);
  EXPECT_EQ(ladder.level(), 1);
  ladder.Update(0.9, 100);  // inside the dwell: holds
  EXPECT_EQ(ladder.level(), 1);
  ladder.Update(0.9, 200);
  EXPECT_EQ(ladder.level(), 2);
  ladder.Update(0.9, 400);
  ladder.Update(0.9, 600);
  EXPECT_EQ(ladder.level(), 4);
  ladder.Update(0.9, 800);  // capped at kMaxLevel
  EXPECT_EQ(ladder.level(), 4);

  // Middling pressure holds the level (hysteresis band).
  ladder.Update(0.5, 1000);
  EXPECT_EQ(ladder.level(), 4);

  // Low pressure steps down one level per dwell — reverse order.
  ladder.Update(0.1, 1200);
  EXPECT_EQ(ladder.level(), 3);
  ladder.Update(0.1, 1250);  // inside the dwell: holds
  EXPECT_EQ(ladder.level(), 3);
  ladder.Update(0.1, 1400);
  ladder.Update(0.1, 1600);
  ladder.Update(0.1, 1800);
  EXPECT_EQ(ladder.level(), 0);
  ladder.Update(0.1, 2000);
  EXPECT_EQ(ladder.level(), 0);
}

// ---------------------------------------------------------------------------
// OverloadControl aggregate.

TEST(OverloadControlTest, CountersAggregateAcrossControllers) {
  OverloadParams p;
  p.admission = true;
  p.admission_max_in_flight = 1;
  p.breakers = true;
  p.breaker_min_samples = 1;
  p.brownout = true;
  OverloadControl ctl(4, p);
  ASSERT_NE(ctl.admission(), nullptr);
  ASSERT_NE(ctl.breakers(), nullptr);
  ASSERT_NE(ctl.brownout(), nullptr);
  EXPECT_TRUE(ctl.gate_enabled());

  EXPECT_TRUE(ctl.admission()->TryAdmit(0));
  EXPECT_FALSE(ctl.admission()->TryAdmit(0));
  ctl.EvaluateSite(2, /*p99_ms=*/500, /*samples=*/10, /*now_ms=*/0);
  ctl.deadline_exceeded.fetch_add(3);
  ctl.expired_jobs_cancelled.fetch_add(2);

  const OverloadCounters c = ctl.Counters();
  EXPECT_EQ(c.requests_shed, 1u);
  EXPECT_EQ(c.deadline_exceeded, 3u);
  EXPECT_EQ(c.breaker_opens, 1u);
  EXPECT_EQ(c.expired_jobs_cancelled, 2u);
  EXPECT_EQ(c.brownout_level, 0u);
}

TEST(OverloadControlTest, BrownoutOnlyConfigStillHasPressureSource) {
  OverloadParams p;
  p.brownout = true;
  OverloadControl ctl(2, p);
  // Brownout derives its pressure from the admission controller, so the
  // controller exists — but the gate does not bite.
  ASSERT_NE(ctl.admission(), nullptr);
  EXPECT_FALSE(ctl.gate_enabled());
  EXPECT_EQ(ctl.breakers(), nullptr);
}

// ---------------------------------------------------------------------------
// Breaker-aware planning filter.

struct PlaneFixture {
  explicit PlaneFixture(std::size_t sites = 8)
      : config(ECStoreConfig::ForTechnique(Technique::kEcCMLb)),
        state(sites),
        rng(42) {
    config.num_sites = sites;
  }

  ControlPlane& plane() {
    if (!plane_) {
      plane_ = std::make_unique<ControlPlane>(
          &config, &state, &rng,
          [this](ControlPlane::Deferred w) { deferred.push_back(std::move(w)); });
    }
    return *plane_;
  }

  ECStoreConfig config;
  ClusterState state;
  Rng rng;
  std::deque<ControlPlane::Deferred> deferred;
  std::unique_ptr<ControlPlane> plane_;
};

TEST(PlanningFilterTest, OpenBreakerSiteIsAvoidedWhenAlternativesExist) {
  PlaneFixture f;
  f.config.overload = BreakerParams();
  f.config.overload.breaker_min_samples = 1;
  OverloadControl& ctl = *f.plane().overload();

  // Block 0: 4 candidate sites, only 2 needed — site 0 is avoidable.
  f.state.AddBlock(0, 100 * 1024, 50 * 1024, 2, 2,
                   std::vector<SiteId>{0, 1, 2, 3});
  ctl.EvaluateSite(0, /*p99_ms=*/500, /*samples=*/100, /*now_ms=*/0);
  ASSERT_TRUE(ctl.breakers()->ShouldAvoid(0));

  const std::vector<BlockId> blocks = {0};
  const DemandResult dr = BuildDemands(f.state, blocks, 0);
  const PlanDecision d = f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  EXPECT_EQ(d.source, PlanSource::kGreedy);
  ASSERT_EQ(d.plan.reads.size(), 2u);
  for (const ChunkRead& r : d.plan.reads) {
    EXPECT_NE(r.site, 0u) << "planned a read on the tripped site";
  }
  // A breaker episode must not poison the plan cache: repeated requests
  // under a tripped breaker never queue a background ILP solve (which
  // would install the transient, filtered plan for posterity).
  (void)f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  (void)f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  EXPECT_TRUE(f.deferred.empty());
}

TEST(PlanningFilterTest, TrippedSiteEveryBlockNeedsIsStillRead) {
  PlaneFixture f;
  f.config.overload = BreakerParams();
  f.config.overload.breaker_min_samples = 1;
  OverloadControl& ctl = *f.plane().overload();

  // Block 0: exactly k candidates, one on the tripped site. Soft
  // failure, not hard: the filter never makes a plan infeasible.
  f.state.AddBlock(0, 100 * 1024, 50 * 1024, 2, 0,
                   std::vector<SiteId>{0, 1});
  ctl.EvaluateSite(0, 500, 100, 0);

  const std::vector<BlockId> blocks = {0};
  const DemandResult dr = BuildDemands(f.state, blocks, 0);
  const PlanDecision d = f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  ASSERT_EQ(d.plan.reads.size(), 2u);
  bool uses_site0 = false;
  for (const ChunkRead& r : d.plan.reads) uses_site0 |= (r.site == 0);
  EXPECT_TRUE(uses_site0);
}

TEST(PlanningFilterTest, ClosedBreakersLeaveThePlanPathUntouched) {
  PlaneFixture f;
  f.config.overload = BreakerParams();
  ASSERT_NE(f.plane().overload(), nullptr);
  f.state.AddBlock(0, 100 * 1024, 50 * 1024, 2, 2,
                   std::vector<SiteId>{0, 1, 2, 3});
  const std::vector<BlockId> blocks = {0};
  const DemandResult dr = BuildDemands(f.state, blocks, 0);
  // All breakers closed: the normal cache-miss -> greedy + queued ILP
  // path runs exactly as without the overload subsystem (two misses
  // queue the background solve, as in the plan-cache tests).
  const PlanDecision d = f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  EXPECT_EQ(d.plan.reads.size(), 2u);
  (void)f.plane().SelectAccessPlan(blocks, dr.demands, 0);
  EXPECT_FALSE(f.deferred.empty());
}

// ---------------------------------------------------------------------------
// SimECStore integration.

TEST(SimOverloadTest, DisabledConfigConstructsNoSubsystem) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  ASSERT_FALSE(config.overload.Enabled());
  SimECStore store(config);
  EXPECT_EQ(store.overload(), nullptr);
  const ControlPlaneUsage u = store.Usage();
  EXPECT_EQ(u.requests_shed, 0u);
  EXPECT_EQ(u.deadline_exceeded, 0u);
  EXPECT_EQ(u.brownout_level, 0u);
}

TEST(SimOverloadTest, AdmissionGateShedsAndReleasesTokens) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.admission = true;
  config.overload.admission_max_in_flight = 1;
  SimECStore store(config);
  store.LoadBlocks(0, 8, 100 * 1024);
  store.Start();

  int ok = 0, shed = 0;
  SimTime shed_total = 0;
  auto record = [&](const RequestBreakdown& r) {
    if (r.shed) {
      ++shed;
      shed_total += r.total;
      EXPECT_FALSE(r.ok);
    } else if (r.ok) {
      ++ok;
    }
  };
  // Three synchronous submissions: the first takes the only token; the
  // other two shed at the gate before any control-plane work.
  store.Get({0}, record);
  store.Get({1}, record);
  store.Get({2}, record);
  store.queue().RunUntil(FromSeconds(5));
  EXPECT_EQ(ok, 1);
  EXPECT_EQ(shed, 2);
  // Sheds fail fast: the modeled penalty, orders of magnitude under a
  // served request.
  EXPECT_LE(shed_total, 2 * kShedPenalty);
  EXPECT_EQ(store.Usage().requests_shed, 2u);

  // The completed request returned its token: a new request is admitted.
  store.Get({3}, record);
  store.queue().RunUntil(FromSeconds(10));
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(shed, 2);
}

TEST(SimOverloadTest, DeadlineCompletesTheRequestAtItsBudget) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.deadline_ms = 0.001;  // 1 us: expires before metadata
  SimECStore store(config);
  store.LoadBlocks(0, 4, 100 * 1024);
  store.Start();

  bool done = false;
  RequestBreakdown out;
  store.Get({0}, [&](const RequestBreakdown& r) {
    done = true;
    out = r;
  });
  store.queue().RunUntil(FromSeconds(5));
  ASSERT_TRUE(done);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.deadline_hit);
  EXPECT_FALSE(out.shed);
  EXPECT_EQ(out.total, FromMillis(config.overload.deadline_ms));
  EXPECT_EQ(store.Usage().deadline_exceeded, 1u);
}

// Regression: a request served wholly from the cache completes exactly
// once. Its deadline timer used to fire later anyway and report the
// already-answered request again, as a deadline miss.
TEST(SimOverloadTest, FullyCachedRequestCompletesOnce) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcC);
  config.num_sites = 8;
  config.cache_capacity_bytes = 1 << 20;
  config.overload.deadline_ms = 100;
  config.overload.admission = true;
  config.overload.admission_max_in_flight = 4;
  SimECStore store(config);
  store.LoadBlocks(0, 2, 16 * 1024);
  store.Get({0, 1}, [](const RequestBreakdown&) {});  // Fills the cache.
  store.queue().RunAll();

  int calls = 0;
  RequestBreakdown out;
  store.Get({0, 1}, [&](const RequestBreakdown& r) {
    ++calls;
    out = r;
  });
  store.queue().RunAll();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.cached_blocks, 2u);
  EXPECT_EQ(store.Usage().deadline_exceeded, 0u);
  // Exactly one token release per admitted request.
  EXPECT_EQ(store.overload()->admission()->in_flight(), 0);
}

TEST(SimOverloadTest, GenerousDeadlineLeavesRequestsUntouched) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.deadline_ms = 60'000;
  SimECStore store(config);
  store.LoadBlocks(0, 4, 100 * 1024);
  store.Start();

  int ok = 0;
  for (BlockId b = 0; b < 4; ++b) {
    store.Get({b}, [&](const RequestBreakdown& r) { ok += r.ok ? 1 : 0; });
  }
  store.queue().RunUntil(FromSeconds(30));
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(store.Usage().deadline_exceeded, 0u);
}

TEST(SimOverloadTest, BrownoutEngagesUnderFloodAndRecoversAfter) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.admission = true;
  config.overload.admission_max_in_flight = 2;
  config.overload.brownout = true;
  SimECStore store(config);
  store.LoadBlocks(0, 32, 100 * 1024);
  store.Start();

  // Eight closed-loop clients against a 2-token gate: admitted
  // utilization pins at 1.0, so the ladder climbs at every stats tick.
  const SimTime load_end = FromSeconds(8);
  Rng pick(7);
  std::function<void(std::uint32_t)> issue = [&](std::uint32_t client) {
    if (store.queue().Now() >= load_end) return;
    const BlockId b = pick.NextBounded(32);
    store.Get({b}, [&, client](const RequestBreakdown& r) {
      if (r.shed) {
        // Shed completions re-issue after a short think so the event
        // count stays bounded while pressure stays pinned.
        store.queue().ScheduleAfter(FromMillis(1),
                                    [&, client] { issue(client); });
      } else {
        issue(client);
      }
    });
  };
  for (std::uint32_t c = 0; c < 8; ++c) issue(c);

  int level_during = 0;
  store.queue().ScheduleAt(load_end - FromSeconds(1), [&] {
    level_during = store.overload()->brownout_level();
  });
  // Run well past the flood: pressure collapses and the ladder steps
  // back down one dwell at a time.
  store.queue().RunUntil(load_end + FromSeconds(20));
  EXPECT_GE(level_during, 1);
  EXPECT_EQ(store.overload()->brownout_level(), 0);
  EXPECT_GT(store.Usage().requests_shed, 0u);
}

// ---------------------------------------------------------------------------
// LocalECStore integration.

TEST(LocalOverloadTest, ConcurrentMultiGetsShedPastTheGate) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.admission = true;
  config.overload.admission_max_in_flight = 1;
  config.data_plane.base_latency_ms = 2.0;  // holds the token visibly long
  LocalECStore store(config);
  std::vector<std::uint8_t> data(64 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>((i * 131) & 0xFF);
  }
  for (BlockId b = 0; b < 4; ++b) store.Put(b, data);

  constexpr int kThreads = 4;
  constexpr int kGetsPerThread = 3;
  std::atomic<int> ok{0}, shed{0}, errors{0}, start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.fetch_add(1);
      while (start.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kGetsPerThread; ++i) {
        try {
          const std::vector<BlockId> ids = {static_cast<BlockId>((t + i) % 4)};
          auto out = store.MultiGet(ids);
          if (out.size() == 1 && out[0] == data) {
            ok.fetch_add(1);
          } else {
            errors.fetch_add(1);
          }
        } catch (const RequestShedError&) {
          shed.fetch_add(1);
        } catch (const std::exception&) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kThreads * kGetsPerThread);
  // One token, four barrier-started threads, 2 ms service: overlap is
  // certain, so the gate must have refused someone — and the refusals
  // must all be accounted for.
  EXPECT_GE(shed.load(), 1);
  EXPECT_GE(ok.load(), kGetsPerThread);  // progress was never blocked
  EXPECT_EQ(store.Usage().requests_shed, static_cast<std::uint64_t>(shed.load()));
}

TEST(LocalOverloadTest, ExpiredQueueJobsCountInUsage) {
  // One worker per site, each fetch held 40 ms against a 5 ms deadline:
  // the first fetch at a site runs past the deadline, so the fetches
  // queued behind it expire at pickup.
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEc);
  config.num_sites = 4;
  config.overload.deadline_ms = 5;
  config.data_plane.workers_per_site = 1;
  config.data_plane.base_latency_ms = 40;
  LocalECStore store(config);
  std::vector<std::uint8_t> data(16 * 1024, 0x3C);
  std::vector<BlockId> ids;
  for (BlockId b = 0; b < 8; ++b) {
    store.Put(b, data);
    ids.push_back(b);
  }
  EXPECT_THROW(store.MultiGet(ids), DeadlineExceededError);
  const std::uint64_t expired = store.data_plane().jobs_expired();
  EXPECT_GT(expired, 0u);
  EXPECT_GE(store.Usage().expired_jobs_cancelled, expired);
  EXPECT_EQ(store.Usage().deadline_exceeded, 1u);
}

TEST(LocalOverloadTest, GenerousDeadlinePassesAndCountersStayZero) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  config.num_sites = 4;
  config.overload.deadline_ms = 60'000;
  LocalECStore store(config);
  std::vector<std::uint8_t> data(32 * 1024, 0x5A);
  store.Put(1, data);
  const std::vector<BlockId> ids = {1};
  const auto out = store.MultiGet(ids);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], data);
  const ControlPlaneUsage u = store.Usage();
  EXPECT_EQ(u.deadline_exceeded, 0u);
  EXPECT_EQ(u.requests_shed, 0u);
  EXPECT_EQ(u.expired_jobs_cancelled, 0u);
}

}  // namespace
}  // namespace ecstore
