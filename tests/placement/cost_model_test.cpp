#include "placement/cost_model.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace ecstore {
namespace {

void PopulateSmallState(ClusterState& state) {
  // Block 1: chunks at sites 0,1,2,3 (RS(2,2)).
  state.AddBlock(1, 100, 50, 2, 2, std::vector<SiteId>{0, 1, 2, 3});
  // Block 2: chunks at sites 2,3,4,5.
  state.AddBlock(2, 200, 100, 2, 2, std::vector<SiteId>{2, 3, 4, 5});
}

TEST(CostParamsTest, HomogeneousFillsAllSites) {
  const CostParams p = CostParams::Homogeneous(4, 5.0, 0.01);
  ASSERT_EQ(p.site_overhead_ms.size(), 4u);
  ASSERT_EQ(p.media_ms_per_byte.size(), 4u);
  EXPECT_DOUBLE_EQ(p.site_overhead_ms[3], 5.0);
  EXPECT_DOUBLE_EQ(p.media_ms_per_byte[0], 0.01);
}

TEST(BuildDemandsTest, BuildsOnePerDistinctBlock) {
  ClusterState state(6);
  PopulateSmallState(state);
  const std::vector<BlockId> q = {1, 2, 1};
  const DemandResult result = BuildDemands(state, q, 0);
  ASSERT_EQ(result.demands.size(), 2u);
  EXPECT_EQ(result.demands[0].block, 1u);
  EXPECT_EQ(result.demands[0].needed, 2u);
  EXPECT_EQ(result.demands[0].chunk_bytes, 50u);
  EXPECT_EQ(result.demands[0].candidates.size(), 4u);
  EXPECT_EQ(result.readable, (std::vector<bool>{true, true, true}));
}

TEST(BuildDemandsTest, DeltaRaisesNeededUpToAvailability) {
  ClusterState state(6);
  PopulateSmallState(state);
  const std::vector<BlockId> q = {1};
  EXPECT_EQ(BuildDemands(state, q, 1).demands[0].needed, 3u);
  EXPECT_EQ(BuildDemands(state, q, 2).demands[0].needed, 4u);
  // delta beyond the available chunks clamps.
  EXPECT_EQ(BuildDemands(state, q, 5).demands[0].needed, 4u);
}

TEST(BuildDemandsTest, UnavailableSitesExcluded) {
  ClusterState state(6);
  PopulateSmallState(state);
  state.SetSiteAvailable(0, false);
  const std::vector<BlockId> q = {1};
  const DemandResult result = BuildDemands(state, q, 0);
  EXPECT_EQ(result.demands[0].candidates.size(), 3u);
  EXPECT_TRUE(result.readable[0]);
}

TEST(BuildDemandsTest, UnreadableBlockFlagged) {
  ClusterState state(6);
  PopulateSmallState(state);
  // Fail 3 of block 1's sites: only 1 chunk left < k = 2.
  state.SetSiteAvailable(0, false);
  state.SetSiteAvailable(1, false);
  state.SetSiteAvailable(2, false);
  const std::vector<BlockId> q = {1, 2};
  const DemandResult result = BuildDemands(state, q, 0);
  ASSERT_EQ(result.demands.size(), 1u);  // Only block 2 demandable.
  EXPECT_EQ(result.demands[0].block, 2u);
  EXPECT_EQ(result.readable, (std::vector<bool>{false, true}));
}

TEST(BuildDemandsTest, UnknownBlockThrows) {
  ClusterState state(6);
  PopulateSmallState(state);
  const std::vector<BlockId> q = {42};
  EXPECT_THROW(BuildDemands(state, q, 0), std::out_of_range);
}

TEST(PlanCostTest, EquationOneByHand) {
  ClusterState state(6);
  PopulateSmallState(state);
  const std::vector<BlockId> q = {1, 2};
  const DemandResult dr = BuildDemands(state, q, 0);
  CostParams params = CostParams::Homogeneous(6, 5.0, 0.01);

  // Plan: block 1 from sites 2,3; block 2 from sites 2,3. Two sites
  // accessed. Eq. 1: 2*5 (o_j) + 2*0.01*50 + 2*0.01*100 = 10 + 1 + 2 = 13.
  const std::vector<ChunkRead> reads = {
      {1, 2, 2}, {1, 3, 3}, {2, 2, 0}, {2, 3, 1}};
  EXPECT_DOUBLE_EQ(PlanCost(reads, dr.demands, params), 13.0);

  // Spread plan: 4 distinct sites => 4*5 + 1 + 2 = 23.
  const std::vector<ChunkRead> spread = {
      {1, 0, 0}, {1, 1, 1}, {2, 4, 2}, {2, 5, 3}};
  EXPECT_DOUBLE_EQ(PlanCost(spread, dr.demands, params), 23.0);
}

TEST(PlanCostTest, HeterogeneousParams) {
  ClusterState state(6);
  PopulateSmallState(state);
  const std::vector<BlockId> q = {1};
  const DemandResult dr = BuildDemands(state, q, 0);
  CostParams params = CostParams::Homogeneous(6, 5.0, 0.01);
  params.site_overhead_ms[0] = 50.0;  // Site 0 is overloaded.
  const std::vector<ChunkRead> uses_hot = {{1, 0, 0}, {1, 1, 1}};
  const std::vector<ChunkRead> avoids_hot = {{1, 2, 2}, {1, 1, 1}};
  EXPECT_GT(PlanCost(uses_hot, dr.demands, params),
            PlanCost(avoids_hot, dr.demands, params));
}

TEST(PlanCostTest, EmptyPlanIsFree) {
  const std::vector<ChunkRead> none;
  const std::vector<BlockDemand> demands;
  const CostParams params = CostParams::Homogeneous(2, 5.0, 0.01);
  EXPECT_DOUBLE_EQ(PlanCost(none, demands, params), 0.0);
}

TEST(PlanCostTest, ReadForUnknownBlockThrows) {
  const CostParams params = CostParams::Homogeneous(2, 5.0, 0.01);
  const std::vector<ChunkRead> reads = {{9, 0, 0}};
  const std::vector<BlockDemand> demands;
  EXPECT_THROW(PlanCost(reads, demands, params), std::invalid_argument);
}

/// Eq. 1 summed the obvious way: per-read media terms in read order, then
/// o_j once per accessed site in ascending site order.
double ReferencePlanCost(const std::vector<ChunkRead>& reads,
                         const std::vector<BlockDemand>& demands,
                         const CostParams& params) {
  double cost = 0;
  std::set<SiteId> accessed;
  for (const ChunkRead& read : reads) {
    for (const BlockDemand& d : demands) {
      if (d.block != read.block) continue;
      cost += params.media_ms_per_byte[read.site] * static_cast<double>(d.chunk_bytes);
      break;
    }
    accessed.insert(read.site);
  }
  for (SiteId site : accessed) cost += params.site_overhead_ms[site];
  return cost;
}

TEST(PlanCostTest, MatchesSetReferenceBitForBit) {
  // Heterogeneous o_j / m_j with no common scale, so a different
  // summation order would show up in the low bits. Plans range from
  // empty to far more reads than sites (heavy site repetition) and up to
  // 300 reads, past any inline buffer.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    const std::size_t num_sites = 1 + rng.NextBounded(96);
    CostParams params;
    for (std::size_t s = 0; s < num_sites; ++s) {
      params.site_overhead_ms.push_back(0.1 + 20 * rng.NextDouble());
      params.media_ms_per_byte.push_back(1e-6 + 1e-3 * rng.NextDouble());
    }
    std::vector<BlockDemand> demands(1 + rng.NextBounded(12));
    for (std::size_t b = 0; b < demands.size(); ++b) {
      demands[b].block = 100 + b;
      demands[b].chunk_bytes = 1 + rng.NextBounded(1 << 20);
    }
    std::vector<ChunkRead> reads(rng.NextBounded(301));
    for (ChunkRead& r : reads) {
      r.block = demands[rng.NextBounded(demands.size())].block;
      r.site = static_cast<SiteId>(rng.NextBounded(num_sites));
    }
    EXPECT_EQ(PlanCost(reads, demands, params),
              ReferencePlanCost(reads, demands, params))
        << "seed " << seed << ", " << reads.size() << " reads over " << num_sites
        << " sites";
  }
}

}  // namespace
}  // namespace ecstore
