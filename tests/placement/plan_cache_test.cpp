#include "placement/plan_cache.h"

#include <gtest/gtest.h>

namespace ecstore {
namespace {

AccessPlan PlanWithCost(double cost) {
  AccessPlan p;
  p.estimated_cost_ms = cost;
  p.optimal = true;
  return p;
}

TEST(PlanCacheTest, MissOnEmpty) {
  PlanCache cache;
  const std::vector<BlockId> q = {1, 2};
  EXPECT_FALSE(cache.Lookup(q, 0).has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(PlanCacheTest, InsertThenHit) {
  PlanCache cache;
  const std::vector<BlockId> q = {1, 2};
  cache.Insert(q, 0, PlanWithCost(7.0));
  const auto hit = cache.Lookup(q, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->estimated_cost_ms, 7.0);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PlanCacheTest, KeyIsOrderInsensitive) {
  PlanCache cache;
  const std::vector<BlockId> q1 = {1, 2, 3};
  const std::vector<BlockId> q2 = {3, 1, 2};
  cache.Insert(q1, 0, PlanWithCost(1.0));
  EXPECT_TRUE(cache.Lookup(q2, 0).has_value());
}

TEST(PlanCacheTest, KeyCollapsesDuplicates) {
  PlanCache cache;
  const std::vector<BlockId> q1 = {1, 1, 2};
  const std::vector<BlockId> q2 = {1, 2};
  cache.Insert(q1, 0, PlanWithCost(1.0));
  EXPECT_TRUE(cache.Lookup(q2, 0).has_value());
}

TEST(PlanCacheTest, DeltaDistinguishesEntries) {
  PlanCache cache;
  const std::vector<BlockId> q = {1};
  cache.Insert(q, 0, PlanWithCost(1.0));
  EXPECT_FALSE(cache.Lookup(q, 1).has_value());  // Late-binding variant.
  cache.Insert(q, 1, PlanWithCost(2.0));
  EXPECT_DOUBLE_EQ(cache.Lookup(q, 0)->estimated_cost_ms, 1.0);
  EXPECT_DOUBLE_EQ(cache.Lookup(q, 1)->estimated_cost_ms, 2.0);
}

TEST(PlanCacheTest, InsertReplaces) {
  PlanCache cache;
  const std::vector<BlockId> q = {5};
  cache.Insert(q, 0, PlanWithCost(1.0));
  cache.Insert(q, 0, PlanWithCost(9.0));  // Background ILP upgrade.
  EXPECT_DOUBLE_EQ(cache.Lookup(q, 0)->estimated_cost_ms, 9.0);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, InvalidateBlockDropsOnlyInvolvedPlans) {
  PlanCache cache;
  const std::vector<BlockId> q12 = {1, 2};
  const std::vector<BlockId> q13 = {1, 3};
  const std::vector<BlockId> q45 = {4, 5};
  cache.Insert(q12, 0, PlanWithCost(1.0));
  cache.Insert(q13, 0, PlanWithCost(2.0));
  cache.Insert(q45, 0, PlanWithCost(3.0));
  cache.InvalidateBlock(1);  // A chunk of block 1 moved.
  EXPECT_FALSE(cache.Lookup(q12, 0).has_value());
  EXPECT_FALSE(cache.Lookup(q13, 0).has_value());
  EXPECT_TRUE(cache.Lookup(q45, 0).has_value());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCacheTest, InvalidateUnknownBlockIsNoop) {
  PlanCache cache;
  const std::vector<BlockId> q = {1};
  cache.Insert(q, 0, PlanWithCost(1.0));
  cache.InvalidateBlock(99);
  EXPECT_TRUE(cache.Lookup(q, 0).has_value());
}

TEST(PlanCacheTest, BumpEpochClearsAll) {
  PlanCache cache;
  for (BlockId b = 0; b < 10; ++b) {
    cache.Insert(std::vector<BlockId>{b}, 0, PlanWithCost(1.0));
  }
  EXPECT_EQ(cache.size(), 10u);
  cache.BumpEpoch();  // o_j changed materially.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(std::vector<BlockId>{3}, 0).has_value());
}

TEST(PlanCacheTest, LruEvictionKeepsHotEntries) {
  PlanCache cache(3);
  cache.Insert(std::vector<BlockId>{1}, 0, PlanWithCost(1.0));
  cache.Insert(std::vector<BlockId>{2}, 0, PlanWithCost(2.0));
  cache.Insert(std::vector<BlockId>{3}, 0, PlanWithCost(3.0));
  // Touch 1 so that 2 is the LRU victim.
  EXPECT_TRUE(cache.Lookup(std::vector<BlockId>{1}, 0).has_value());
  cache.Insert(std::vector<BlockId>{4}, 0, PlanWithCost(4.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.Lookup(std::vector<BlockId>{1}, 0).has_value());
  EXPECT_FALSE(cache.Lookup(std::vector<BlockId>{2}, 0).has_value());
  EXPECT_TRUE(cache.Lookup(std::vector<BlockId>{3}, 0).has_value());
  EXPECT_TRUE(cache.Lookup(std::vector<BlockId>{4}, 0).has_value());
}

TEST(PlanCacheTest, EvictionDropsBlockIndexEntries) {
  // Capacity 1: every insert evicts the previous plan. The evicted
  // plans' block-index entries must go with them, or they fill the
  // bounded superset scan for block 1 and hide the live plan.
  PlanCache cache(1);
  for (BlockId i = 0; i < 40; ++i) {
    cache.Insert(std::vector<BlockId>{1, 100 + i}, 0, PlanWithCost(1.0));
  }
  cache.Insert(std::vector<BlockId>{1, 2}, 0, PlanWithCost(2.0));
  ASSERT_EQ(cache.size(), 1u);
  const auto plan = cache.LookupSatisfying(std::vector<BlockId>{1}, 0);
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->estimated_cost_ms, 2.0);
}

TEST(PlanCacheTest, HitRateTracksPaperMetric) {
  PlanCache cache;
  const std::vector<BlockId> q = {1};
  cache.Insert(q, 0, PlanWithCost(1.0));
  for (int i = 0; i < 9; ++i) (void)cache.Lookup(q, 0);
  (void)cache.Lookup(std::vector<BlockId>{2}, 0);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.9);  // Paper reports ~90%.
}

TEST(PlanCacheTest, MemoryEstimatePositive) {
  PlanCache cache;
  EXPECT_EQ(cache.ApproxMemoryBytes(), 0u);
  AccessPlan plan = PlanWithCost(1.0);
  plan.reads.push_back({1, 0, 0});
  cache.Insert(std::vector<BlockId>{1}, 0, plan);
  EXPECT_GT(cache.ApproxMemoryBytes(), 0u);
}

TEST(PlanCacheTest, StressManyEntriesWithInvalidation) {
  PlanCache cache(1000);
  for (BlockId b = 0; b < 2000; ++b) {
    cache.Insert(std::vector<BlockId>{b, b + 1}, 0, PlanWithCost(1.0));
  }
  EXPECT_EQ(cache.size(), 1000u);
  // Every remaining entry references blocks >= 1000.
  for (BlockId b = 1500; b < 1600; ++b) cache.InvalidateBlock(b);
  EXPECT_LT(cache.size(), 1000u);
  // The structure stays consistent: all lookups behave.
  for (BlockId b = 0; b < 2000; ++b) {
    (void)cache.Lookup(std::vector<BlockId>{b, b + 1}, 0);
  }
}

}  // namespace
}  // namespace ecstore
