#include "placement/mover.h"

#include <gtest/gtest.h>

namespace ecstore {
namespace {

/// Fixture reproducing the paper's Fig. 2 scenario: blocks A and B are
/// co-accessed; A has a chunk on an overloaded site; moving it to a site
/// holding B's chunks both improves co-location and sheds load.
class MoverFixture : public ::testing::Test {
 protected:
  MoverFixture()
      : state_(6),
        co_access_(100),
        load_(6),
        params_(CostParams::Homogeneous(6, 5.0, 0.0001)) {
    // Block A (id 1): RS(2,1) chunks at sites 1, 2, 4. Site 4 is "S5".
    state_.AddBlock(1, 100 * 1024, 50 * 1024, 2, 1, std::vector<SiteId>{1, 2, 4});
    // Block B (id 2): RS(2,1) chunks at sites 0, 2, 3.
    state_.AddBlock(2, 100 * 1024, 50 * 1024, 2, 1, std::vector<SiteId>{0, 2, 3});
    // Popular block H (id 3) on site 4 keeps it hot.
    state_.AddBlock(3, 100 * 1024, 50 * 1024, 2, 1, std::vector<SiteId>{4, 5, 0});

    // A and B always accessed together; H accessed alone very often.
    for (int i = 0; i < 40; ++i) {
      co_access_.RecordRequest(std::vector<BlockId>{1, 2});
      co_access_.RecordRequest(std::vector<BlockId>{3});
    }

    // Site 4 overloaded; others lightly loaded.
    for (SiteId s = 0; s < 6; ++s) {
      load_.RecordReport(s, s == 4 ? 0.9 : 0.2, 0, 0);
      load_.RecordProbe(s, s == 4 ? 20.0 : 5.0);
    }
    ctx_.state = &state_;
    ctx_.co_access = &co_access_;
    ctx_.load = &load_;
    ctx_.cost_params = &params_;
    ctx_.request_rate_per_sec = 100;
  }

  ClusterState state_;
  CoAccessTracker co_access_;
  LoadTracker load_;
  CostParams params_;
  MoverContext ctx_;
};

TEST_F(MoverFixture, AccessGainPositiveForCoLocatingMove) {
  // Moving A's chunk from hot site 4 to site 3 (which holds B) lets the
  // pair {A, B} be read from two sites instead of three.
  const double gain = EstimateAccessGain(ctx_, 1, 4, 3, 10);
  EXPECT_GT(gain, 0.0);
}

TEST_F(MoverFixture, AccessGainNegativeForSpreadingMove) {
  // Moving A's chunk from site 2 (shared with B) to empty site 5 can only
  // hurt co-located access.
  const double gain = EstimateAccessGain(ctx_, 1, 2, 5, 10);
  EXPECT_LE(gain, 1e-12);
}

TEST_F(MoverFixture, LoadGainPositiveWhenSheddingHotSite) {
  const double gain = EstimateLoadGain(ctx_, 1, 4, 3);
  EXPECT_GT(gain, 0.0);
}

TEST_F(MoverFixture, LoadGainNegativeWhenLoadingHotSite) {
  // Moving B's chunk from a cool site onto hot site 4's neighborhood:
  // destination 4 is not valid for B? Site 4 holds no chunk of block 2,
  // so the move is legal but load-harmful.
  const double gain = EstimateLoadGain(ctx_, 2, 0, 4);
  EXPECT_LT(gain, 0.0);
}

TEST_F(MoverFixture, MovementScoreCombinesWithWeights) {
  MoverParams mp;
  mp.w1 = 1.0;
  mp.w2 = 3.0;
  const double e = EstimateAccessGain(ctx_, 1, 4, 3, kMoverPartners);
  const double i = EstimateLoadGain(ctx_, 1, 4, 3);
  EXPECT_NEAR(MovementScore(ctx_, 1, 4, 3, mp), e + 3.0 * i, 1e-9);
}

TEST_F(MoverFixture, SelectsTheFig2Move) {
  MoverParams mp;
  mp.candidate_blocks = 3;
  Rng rng(1);
  const auto plan = SelectMovementPlan(ctx_, mp, rng);
  ASSERT_TRUE(plan.has_value());
  EXPECT_GT(plan->score, 0.0);
  // The strongest single-chunk move in this scenario relocates a chunk
  // off the overloaded site 4.
  EXPECT_EQ(plan->source, 4u);
  // And the state accepts it.
  EXPECT_TRUE(state_.MoveChunk(plan->block, plan->source, plan->destination));
}

TEST_F(MoverFixture, NeverProposesIllegalDestination) {
  MoverParams mp;
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto plan = SelectMovementPlan(ctx_, mp, rng);
    if (!plan) continue;
    EXPECT_FALSE(state_.HasChunkAt(plan->block, plan->destination));
    EXPECT_TRUE(state_.HasChunkAt(plan->block, plan->source));
  }
}

TEST_F(MoverFixture, RespectsUnavailableSites) {
  state_.SetSiteAvailable(3, false);
  MoverParams mp;
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const auto plan = SelectMovementPlan(ctx_, mp, rng);
    if (!plan) continue;
    EXPECT_NE(plan->destination, 3u);
  }
}

TEST_F(MoverFixture, EarlyStoppingBoundsEvaluations) {
  MoverParams mp;
  mp.max_evaluations = 1;  // Degenerate budget still returns cleanly.
  Rng rng(4);
  const auto plan = SelectMovementPlan(ctx_, mp, rng);
  // With one evaluation we may or may not find a positive-score plan;
  // either outcome is acceptable, but no crash/hang.
  if (plan) EXPECT_GT(plan->score, 0.0);
}

TEST(MoverEdgeTest, NoStatisticsMeansNoPlan) {
  ClusterState state(4);
  state.AddBlock(1, 100, 50, 2, 1, std::vector<SiteId>{0, 1, 2});
  CoAccessTracker co(10);
  LoadTracker load(4);
  CostParams params = CostParams::Homogeneous(4, 5.0, 0.001);
  MoverContext ctx{&state, &co, &load, &params, 0};
  MoverParams mp;
  Rng rng(5);
  // No requests recorded: candidate sampling returns nothing.
  EXPECT_FALSE(SelectMovementPlan(ctx, mp, rng).has_value());
}

TEST(MoverEdgeTest, BalancedIdleSystemProposesNoLoadMove) {
  // All sites equally loaded, one isolated block accessed alone: no move
  // should look beneficial (E = 0 for sole block at equal o_j; I = 0).
  ClusterState state(4);
  state.AddBlock(1, 100, 50, 2, 1, std::vector<SiteId>{0, 1, 2});
  CoAccessTracker co(10);
  for (int i = 0; i < 5; ++i) co.RecordRequest(std::vector<BlockId>{1});
  LoadTracker load(4);
  for (SiteId s = 0; s < 4; ++s) load.RecordReport(s, 0.5, 0, 0);
  CostParams params = CostParams::Homogeneous(4, 5.0, 0.001);
  MoverContext ctx{&state, &co, &load, &params, 10};
  MoverParams mp;
  Rng rng(6);
  const auto plan = SelectMovementPlan(ctx, mp, rng);
  EXPECT_FALSE(plan.has_value());
}

TEST(MoverEdgeTest, SoloBlockMovesTowardCheaperSite) {
  // Even without co-access partners, E includes the solo query. With two
  // of the block's three chunk sites expensive, the optimal plan must
  // touch one expensive site; relocating a chunk to a cheap site frees it.
  ClusterState state(4);
  state.AddBlock(1, 100 * 1024, 50 * 1024, 2, 1, std::vector<SiteId>{0, 1, 2});
  CoAccessTracker co(10);
  for (int i = 0; i < 5; ++i) co.RecordRequest(std::vector<BlockId>{1});
  LoadTracker load(4);
  CostParams params = CostParams::Homogeneous(4, 5.0, 0.0001);
  params.site_overhead_ms[0] = 50.0;
  params.site_overhead_ms[1] = 50.0;
  MoverContext ctx{&state, &co, &load, &params, 10};
  const double gain = EstimateAccessGain(ctx, 1, 0, 3, 5);
  EXPECT_NEAR(gain, 45.0, 1e-9);  // o drops from 50 to 5 for one site.

  // When the optimal plan already avoids the single expensive site, the
  // move is correctly judged worthless.
  params.site_overhead_ms[1] = 5.0;
  EXPECT_NEAR(EstimateAccessGain(ctx, 1, 0, 3, 5), 0.0, 1e-9);
}

}  // namespace
}  // namespace ecstore
