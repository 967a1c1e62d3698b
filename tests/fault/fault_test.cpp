// Unit tests for the fault subsystem (DESIGN.md §9): CRC32C, seeded fault
// schedules, the failure detector state machine, and the
// schedule-expansion / injection-thread drivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "fault/detector.h"
#include "fault/fault_schedule.h"
#include "fault/injector.h"

namespace ecstore {
namespace {

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli): standard check vectors (RFC 3720 / iSCSI).

TEST(Crc32cTest, StandardVectors) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);

  const char* check = "123456789";
  EXPECT_EQ(Crc32c(check, std::strlen(check)), 0xE3069283u);

  std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);

  std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  const std::uint32_t clean = Crc32c(data.data(), data.size());
  for (std::size_t pos : {std::size_t{0}, data.size() / 2, data.size() - 1}) {
    data[pos] ^= 0x01;
    EXPECT_NE(Crc32c(data.data(), data.size()), clean) << "flip at " << pos;
    data[pos] ^= 0x01;
  }
  EXPECT_EQ(Crc32c(data.data(), data.size()), clean);
}

TEST(Crc32cTest, SeedChainsIncrementalComputation) {
  // crc(a+b) == crc(b, seed=crc(a)): the slice-by-8 kernel must preserve
  // the streaming property across arbitrary split points.
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i ^ (i >> 3));
  }
  const std::uint32_t whole = Crc32c(data.data(), data.size());
  for (std::size_t split : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                            std::size_t{493}, data.size() - 1}) {
    const std::uint32_t part = Crc32c(data.data(), split);
    EXPECT_EQ(Crc32c(data.data() + split, data.size() - split, part), whole)
        << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Fault schedules.

TEST(FaultScheduleTest, DeterministicForSeed) {
  FaultScheduleParams params;
  const auto a = GenerateFaultSchedule(params, 7);
  const auto b = GenerateFaultSchedule(params, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_ms, b[i].at_ms);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].site, b[i].site);
    EXPECT_EQ(a[i].duration_ms, b[i].duration_ms);
    EXPECT_EQ(a[i].magnitude, b[i].magnitude);
  }
  // A different seed perturbs the schedule.
  const auto c = GenerateFaultSchedule(params, 8);
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].at_ms != c[i].at_ms || a[i].site != c[i].site;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultScheduleTest, ShapeMatchesParams) {
  FaultScheduleParams params;
  params.num_sites = 10;
  params.horizon_ms = 5'000;
  params.crashes = 2;
  params.flaps = 2;
  params.slow_sites = 1;
  params.fetch_error_sites = 1;
  params.corrupt_sites = 1;
  const auto events = GenerateFaultSchedule(params, 123);

  std::map<FaultKind, std::size_t> counts;
  std::set<SiteId> unreachable_victims;
  double prev = 0;
  for (const FaultEvent& e : events) {
    ++counts[e.kind];
    EXPECT_GE(e.at_ms, prev) << "schedule not sorted";
    prev = e.at_ms;
    EXPECT_GE(e.at_ms, 0.0);
    EXPECT_LT(e.at_ms, params.horizon_ms);
    EXPECT_LT(e.site, params.num_sites);
    if (e.kind == FaultKind::kCrash || e.kind == FaultKind::kFlap) {
      // Crash/flap victims are distinct, bounding concurrent outages.
      EXPECT_TRUE(unreachable_victims.insert(e.site).second)
          << "site " << e.site << " drawn twice";
    }
    EXPECT_FALSE(DescribeFaultEvent(e).empty());
  }
  EXPECT_EQ(counts[FaultKind::kCrash], params.crashes);
  EXPECT_EQ(counts[FaultKind::kFlap], params.flaps);
  EXPECT_EQ(counts[FaultKind::kSlowSite], params.slow_sites);
  EXPECT_EQ(counts[FaultKind::kFetchError], params.fetch_error_sites);
  EXPECT_EQ(counts[FaultKind::kCorruptChunks], params.corrupt_sites);
}

// ---------------------------------------------------------------------------
// Failure detector.

TEST(FailureDetectorTest, SilenceEscalatesSuspectThenDead) {
  FailureDetector det({/*suspect_after_ms=*/100, /*dead_after_ms=*/250});
  det.Baseline(0, 1000.0);
  det.Baseline(1, 1000.0);

  EXPECT_TRUE(det.Tick(1050.0).empty());  // Within the suspect window.
  det.Heartbeat(1, 1080.0);

  auto t = det.Tick(1120.0);  // Site 0 silent 120ms, site 1 silent 40ms.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].site, 0u);
  EXPECT_EQ(t[0].from, SiteHealth::kAlive);
  EXPECT_EQ(t[0].to, SiteHealth::kSuspect);
  EXPECT_EQ(det.Health(0), SiteHealth::kSuspect);
  EXPECT_EQ(det.Health(1), SiteHealth::kAlive);

  det.Heartbeat(1, 1290.0);   // Keep site 1 fresh throughout.
  t = det.Tick(1300.0);       // Site 0 silent 300ms: dead.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].site, 0u);
  EXPECT_EQ(t[0].to, SiteHealth::kDead);

  // Dead sites emit no further transitions; revival is Heartbeat's job.
  det.Heartbeat(1, 1990.0);
  EXPECT_TRUE(det.Tick(2000.0).empty());
  EXPECT_TRUE(det.Heartbeat(0, 2100.0));  // revived
  EXPECT_EQ(det.Health(0), SiteHealth::kAlive);
  det.Heartbeat(1, 2140.0);
  EXPECT_TRUE(det.Tick(2150.0).empty());
}

TEST(FailureDetectorTest, BaselinePreventsInstantDeath) {
  FailureDetector det({100, 250});
  // A site first observed late is measured from that observation, not
  // from time zero.
  det.Baseline(3, 10'000.0);
  EXPECT_TRUE(det.Tick(10'050.0).empty());
  EXPECT_EQ(det.Health(3), SiteHealth::kAlive);
  // Baseline never overwrites fresh evidence.
  det.Baseline(3, 99'999.0);
  EXPECT_EQ(det.Tick(10'300.0).size(), 1u);  // suspect from the 10'000 base
}

TEST(FailureDetectorTest, HeartbeatOnUntrackedSiteIsNotRevival) {
  FailureDetector det({100, 250});
  EXPECT_FALSE(det.Heartbeat(5, 50.0));
  EXPECT_TRUE(det.Tracks(5));
  det.MarkDead(5);
  EXPECT_EQ(det.Health(5), SiteHealth::kDead);
  EXPECT_TRUE(det.Heartbeat(5, 60.0));
}

// ---------------------------------------------------------------------------
// Schedule expansion + injection thread.

TEST(InjectorTest, ExpandLowersEventsOntoHooks) {
  std::vector<FaultEvent> events;
  events.push_back({100, FaultKind::kCrash, 1, 0, 0});
  events.push_back({200, FaultKind::kFlap, 2, 50, 0});
  events.push_back({300, FaultKind::kSlowSite, 3, 100, 4.0});
  events.push_back({400, FaultKind::kFetchError, 4, 100, 0.25});
  events.push_back({500, FaultKind::kCorruptChunks, 5, 0, 0.02});

  std::vector<std::string> fired;
  FaultActions actions;
  actions.crash = [&](SiteId s) { fired.push_back("crash" + std::to_string(s)); };
  actions.heal = [&](SiteId s) { fired.push_back("heal" + std::to_string(s)); };
  actions.degrade = [&](SiteId s, double f) {
    fired.push_back("degrade" + std::to_string(s) + "x" + std::to_string(int(f)));
  };
  actions.set_fetch_error = [&](SiteId s, double p) {
    fired.push_back((p > 0 ? "err" : "noerr") + std::to_string(s));
  };
  actions.corrupt = [&](SiteId s, double) { fired.push_back("corrupt" + std::to_string(s)); };

  auto timed = ExpandFaultSchedule(events, actions);
  // crash=1, flap=2 (crash+heal), slow=2, fetch-error=2 (on+off), corrupt=1.
  ASSERT_EQ(timed.size(), 8u);
  double prev = 0;
  for (const TimedAction& a : timed) {
    EXPECT_GE(a.at_ms, prev);
    prev = a.at_ms;
    a.run();
  }
  const std::vector<std::string> want = {"crash1",     "crash2", "heal2",
                                         "degrade3x4", "degrade3x1",
                                         "err4",       "noerr4", "corrupt5"};
  // Execution order is by time; same-time pairs keep schedule order.
  ASSERT_EQ(fired.size(), want.size());
  EXPECT_TRUE(std::is_permutation(fired.begin(), fired.end(), want.begin()));

  // Empty hooks drop their fault class entirely.
  FaultActions crash_only;
  crash_only.crash = [](SiteId) {};
  EXPECT_EQ(ExpandFaultSchedule(events, crash_only).size(), 1u);
}

TEST(InjectorTest, InjectionThreadFiresActionsAndStopRunsRemainder) {
  std::atomic<int> fired{0};
  std::vector<TimedAction> actions;
  actions.push_back({1, [&] { ++fired; }});
  actions.push_back({2, [&] { ++fired; }});
  // Far in the future: must be executed inline by Stop(run_remaining).
  actions.push_back({60'000, [&] { ++fired; }});
  actions.push_back({60'001, [&] { ++fired; }});

  InjectionThread inj(std::move(actions));
  inj.Start();
  // Wait for the two near-term actions.
  for (int i = 0; i < 2000 && fired.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fired.load(), 2);
  EXPECT_FALSE(inj.done());
  inj.Stop(/*run_remaining=*/true);
  EXPECT_EQ(fired.load(), 4);
  EXPECT_EQ(inj.actions_fired(), 4u);
  EXPECT_TRUE(inj.done());
}

TEST(InjectorTest, DestructorAbandonsRemainingActions) {
  std::atomic<int> fired{0};
  {
    std::vector<TimedAction> actions;
    actions.push_back({60'000, [&] { ++fired; }});
    InjectionThread inj(std::move(actions));
    inj.Start();
  }
  EXPECT_EQ(fired.load(), 0);
}

}  // namespace
}  // namespace ecstore
