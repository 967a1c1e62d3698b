#include "stats/co_access.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace ecstore {
namespace {

/// Reference model for the differential test: the straightforward
/// nested-map tracker (a count per block plus a co-count per ordered
/// pair), written for obviousness rather than speed.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(std::size_t window) : window_(window) {}

  void RecordRequest(std::vector<BlockId> q) {
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    if (q.empty()) return;
    Apply(q, +1);
    requests_.push_back(std::move(q));
    if (requests_.size() > window_) {
      Apply(requests_.front(), -1);
      requests_.pop_front();
    }
  }

  std::uint64_t Count(BlockId b) const {
    const auto it = counts_.find(b);
    return it == counts_.end() ? 0 : it->second;
  }

  double Lambda(BlockId b, BlockId i) const {
    const auto cb = Count(b);
    const auto outer = co_counts_.find(b);
    if (cb == 0 || outer == co_counts_.end()) return 0;
    const auto inner = outer->second.find(i);
    if (inner == outer->second.end()) return 0;
    return static_cast<double>(inner->second) / static_cast<double>(cb);
  }

  std::vector<CoAccessPartner> Partners(BlockId b, std::size_t cap) const {
    std::vector<CoAccessPartner> out;
    const auto outer = co_counts_.find(b);
    if (outer == co_counts_.end()) return out;
    for (const auto& [partner, c] : outer->second) {
      out.push_back({partner, static_cast<double>(c) / static_cast<double>(Count(b))});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& x, const auto& y) { return x.lambda > y.lambda; });
    if (out.size() > cap) out.resize(cap);
    return out;
  }

  std::vector<CoAccessPartner> TopBlocks(std::size_t n) const {
    std::vector<CoAccessPartner> out;
    if (requests_.empty() || n == 0) return out;
    for (const auto& [block, c] : counts_) {
      out.push_back({block, static_cast<double>(c) /
                                static_cast<double>(requests_.size())});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const auto& x, const auto& y) { return x.lambda > y.lambda; });
    if (out.size() > n) out.resize(n);
    return out;
  }

  std::vector<BlockId> SampleCandidateBlocks(Rng& rng, std::size_t count) const {
    std::vector<BlockId> ids;
    std::vector<double> weights;
    for (const auto& [block, c] : counts_) {
      ids.push_back(block);
      weights.push_back(static_cast<double>(c));
    }
    std::vector<BlockId> out;
    for (std::size_t idx : WeightedSampleWithoutReplacement(rng, weights, count)) {
      out.push_back(ids[idx]);
    }
    return out;
  }

  std::size_t distinct_blocks_tracked() const { return counts_.size(); }

 private:
  void Apply(const std::vector<BlockId>& q, int sign) {
    for (BlockId b : q) {
      if ((counts_[b] += sign) == 0) counts_.erase(b);
      for (BlockId i : q) {
        if (i == b) continue;
        auto& inner = co_counts_[b];
        if ((inner[i] += sign) == 0) inner.erase(i);
        if (inner.empty()) co_counts_.erase(b);
      }
    }
  }

  std::size_t window_;
  std::deque<std::vector<BlockId>> requests_;
  std::map<BlockId, std::uint64_t> counts_;
  std::map<BlockId, std::map<BlockId, std::uint64_t>> co_counts_;
};

void ExpectSamePartners(const std::vector<CoAccessPartner>& got,
                        const std::vector<CoAccessPartner>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].block, want[i].block) << "rank " << i;
    EXPECT_EQ(got[i].lambda, want[i].lambda) << "rank " << i;
  }
}

/// Drives the tracker and the reference with one seeded request stream
/// and compares every query after every step: counts, lambdas, partner
/// and top-block rankings (order included), and candidate samples drawn
/// from cloned generators.
void RunDifferential(std::uint64_t seed, std::size_t window,
                     std::uint64_t keyspace, int steps) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " window " << window);
  CoAccessTracker tracker(window);
  ReferenceTracker reference(window);
  Rng stream(seed);
  Rng sampler(seed ^ 0xA5A5A5A5ULL);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    std::vector<BlockId> q;
    const auto shape = stream.NextBounded(10);
    // Mostly multi-block requests with duplicates; some single-block
    // ones; an occasional empty request.
    const std::uint64_t n = shape == 0 ? 0 : shape < 3 ? 1 : 2 + stream.NextBounded(9);
    for (std::uint64_t j = 0; j < n; ++j) q.push_back(stream.NextBounded(keyspace));
    tracker.RecordRequest(q);
    reference.RecordRequest(q);

    ASSERT_EQ(tracker.distinct_blocks_tracked(), reference.distinct_blocks_tracked());
    for (BlockId b = 0; b < keyspace; ++b) {
      ASSERT_EQ(tracker.Count(b), reference.Count(b)) << "block " << b;
      for (BlockId i = 0; i < keyspace; ++i) {
        ASSERT_EQ(tracker.Lambda(b, i), reference.Lambda(b, i)) << b << "," << i;
      }
      for (std::size_t cap : {std::size_t{1}, std::size_t{4}, std::size_t{64}}) {
        ExpectSamePartners(tracker.Partners(b, cap), reference.Partners(b, cap));
      }
    }
    for (std::size_t n_top : {std::size_t{0}, std::size_t{3}, std::size_t{100}}) {
      ExpectSamePartners(tracker.TopBlocks(n_top), reference.TopBlocks(n_top));
    }
    Rng a = sampler;
    Rng b = sampler;
    const std::size_t want = 1 + static_cast<std::size_t>(sampler.NextBounded(8));
    ASSERT_EQ(tracker.SampleCandidateBlocks(a, want),
              reference.SampleCandidateBlocks(b, want));
    ASSERT_EQ(a.Next(), b.Next());  // Same number of draws consumed.
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CoAccessDifferentialTest, MatchesReferenceAcrossWindows) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (std::size_t window : {std::size_t{1}, std::size_t{3}, std::size_t{50}}) {
      RunDifferential(seed, window, 24, 300);
      if (HasFailure()) return;
    }
  }
}

TEST(CoAccessDifferentialTest, EvictsBackToEmpty) {
  // Fill a window of 5 with multi-block requests, then push five
  // single-block requests for one block: every other block's entry and
  // every partner list must be gone, and the tracker must agree with
  // the reference at each step of the drain.
  CoAccessTracker tracker(5);
  ReferenceTracker reference(5);
  for (BlockId b = 0; b < 5; ++b) {
    const std::vector<BlockId> q = {b, b + 1, b + 2, b + 2};
    tracker.RecordRequest(q);
    reference.RecordRequest(q);
  }
  for (int i = 0; i < 5; ++i) {
    tracker.RecordRequest(std::vector<BlockId>{99});
    reference.RecordRequest({99});
    EXPECT_EQ(tracker.distinct_blocks_tracked(), reference.distinct_blocks_tracked());
    for (BlockId b = 0; b < 8; ++b) {
      EXPECT_EQ(tracker.Count(b), reference.Count(b));
      ExpectSamePartners(tracker.Partners(b, 16), reference.Partners(b, 16));
    }
  }
  EXPECT_EQ(tracker.distinct_blocks_tracked(), 1u);
  EXPECT_TRUE(tracker.Partners(99, 16).empty());
  ExpectSamePartners(tracker.TopBlocks(10), {{99, 1.0}});
}

TEST(CoAccessTest, EmptyTracker) {
  CoAccessTracker t(10);
  EXPECT_EQ(t.Count(1), 0u);
  EXPECT_EQ(t.Lambda(1, 2), 0.0);
  EXPECT_TRUE(t.Partners(1).empty());
  EXPECT_EQ(t.AccessFrequency(1), 0.0);
  EXPECT_EQ(t.requests_in_window(), 0u);
}

TEST(CoAccessTest, CountsBlocks) {
  CoAccessTracker t(10);
  t.RecordRequest(std::vector<BlockId>{1, 2});
  t.RecordRequest(std::vector<BlockId>{1, 3});
  EXPECT_EQ(t.Count(1), 2u);
  EXPECT_EQ(t.Count(2), 1u);
  EXPECT_EQ(t.Count(3), 1u);
  EXPECT_EQ(t.Count(4), 0u);
  EXPECT_EQ(t.distinct_blocks_tracked(), 3u);
}

TEST(CoAccessTest, LambdaIsConditionalProbability) {
  CoAccessTracker t(100);
  // 1 appears 4 times; {1,2} together twice => lambda(1,2) = 0.5.
  t.RecordRequest(std::vector<BlockId>{1, 2});
  t.RecordRequest(std::vector<BlockId>{1, 2});
  t.RecordRequest(std::vector<BlockId>{1, 3});
  t.RecordRequest(std::vector<BlockId>{1});
  EXPECT_DOUBLE_EQ(t.Lambda(1, 2), 0.5);
  EXPECT_DOUBLE_EQ(t.Lambda(1, 3), 0.25);
  // Asymmetry: 2 appears twice, both with 1 => lambda(2,1) = 1.
  EXPECT_DOUBLE_EQ(t.Lambda(2, 1), 1.0);
}

TEST(CoAccessTest, DuplicatesWithinRequestCollapse) {
  CoAccessTracker t(10);
  t.RecordRequest(std::vector<BlockId>{5, 5, 5, 7});
  EXPECT_EQ(t.Count(5), 1u);
  EXPECT_DOUBLE_EQ(t.Lambda(5, 7), 1.0);
}

TEST(CoAccessTest, EmptyRequestIgnored) {
  CoAccessTracker t(10);
  t.RecordRequest(std::vector<BlockId>{});
  EXPECT_EQ(t.requests_in_window(), 0u);
}

TEST(CoAccessTest, WindowEvictsOldRequests) {
  CoAccessTracker t(3);
  t.RecordRequest(std::vector<BlockId>{1, 2});
  t.RecordRequest(std::vector<BlockId>{3});
  t.RecordRequest(std::vector<BlockId>{4});
  EXPECT_EQ(t.Count(1), 1u);
  t.RecordRequest(std::vector<BlockId>{5});  // Evicts {1,2}.
  EXPECT_EQ(t.Count(1), 0u);
  EXPECT_EQ(t.Lambda(1, 2), 0.0);
  EXPECT_EQ(t.requests_in_window(), 3u);
  EXPECT_EQ(t.distinct_blocks_tracked(), 3u);  // 3, 4, 5.
}

TEST(CoAccessTest, WorkloadShiftChangesStatistics) {
  // The paper's Fig. 4a depends on stats adapting after workload change.
  CoAccessTracker t(10);
  for (int i = 0; i < 10; ++i) t.RecordRequest(std::vector<BlockId>{1, 2});
  EXPECT_DOUBLE_EQ(t.Lambda(1, 2), 1.0);
  for (int i = 0; i < 10; ++i) t.RecordRequest(std::vector<BlockId>{1, 3});
  EXPECT_DOUBLE_EQ(t.Lambda(1, 2), 0.0);  // Old pattern fully aged out.
  EXPECT_DOUBLE_EQ(t.Lambda(1, 3), 1.0);
}

TEST(CoAccessTest, PartnersSortedByLambda) {
  CoAccessTracker t(100);
  t.RecordRequest(std::vector<BlockId>{1, 2, 3});
  t.RecordRequest(std::vector<BlockId>{1, 2});
  t.RecordRequest(std::vector<BlockId>{1, 4});
  const auto partners = t.Partners(1);
  ASSERT_EQ(partners.size(), 3u);
  EXPECT_EQ(partners[0].block, 2u);
  EXPECT_NEAR(partners[0].lambda, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(partners[1].lambda >= partners[2].lambda);
}

TEST(CoAccessTest, PartnersRespectsCap) {
  CoAccessTracker t(100);
  std::vector<BlockId> big;
  for (BlockId i = 0; i < 50; ++i) big.push_back(i);
  t.RecordRequest(big);
  EXPECT_EQ(t.Partners(0, 5).size(), 5u);
}

TEST(CoAccessTest, AccessFrequency) {
  CoAccessTracker t(10);
  t.RecordRequest(std::vector<BlockId>{1});
  t.RecordRequest(std::vector<BlockId>{1});
  t.RecordRequest(std::vector<BlockId>{2});
  t.RecordRequest(std::vector<BlockId>{3});
  EXPECT_DOUBLE_EQ(t.AccessFrequency(1), 0.5);
  EXPECT_DOUBLE_EQ(t.AccessFrequency(2), 0.25);
}

TEST(CoAccessTest, SampleCandidatesFavorsFrequent) {
  CoAccessTracker t(1000);
  for (int i = 0; i < 100; ++i) t.RecordRequest(std::vector<BlockId>{1});
  for (int i = 0; i < 2; ++i) t.RecordRequest(std::vector<BlockId>{2});
  Rng rng(3);
  int ones_first = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = t.SampleCandidateBlocks(rng, 1);
    ASSERT_EQ(sample.size(), 1u);
    ones_first += (sample[0] == 1);
  }
  EXPECT_GT(ones_first, 150);  // 100:2 weighting dominates.
}

TEST(CoAccessTest, SampleCandidatesDistinct) {
  CoAccessTracker t(100);
  for (BlockId b = 0; b < 20; ++b) t.RecordRequest(std::vector<BlockId>{b});
  Rng rng(4);
  auto sample = t.SampleCandidateBlocks(rng, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::sort(sample.begin(), sample.end());
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) == sample.end());
}

TEST(CoAccessTest, SampleMoreThanTrackedReturnsAll) {
  CoAccessTracker t(100);
  t.RecordRequest(std::vector<BlockId>{1, 2});
  Rng rng(5);
  EXPECT_EQ(t.SampleCandidateBlocks(rng, 50).size(), 2u);
}

TEST(CoAccessTest, MemoryGrowsAndShrinksWithWindow) {
  CoAccessTracker t(5);
  const std::size_t empty = t.ApproxMemoryBytes();
  for (BlockId b = 0; b < 100; b += 2) {
    t.RecordRequest(std::vector<BlockId>{b, b + 1});
  }
  const std::size_t full = t.ApproxMemoryBytes();
  EXPECT_GT(full, empty);
  // Window is 5, so only ~5 requests' worth of state remains even after
  // 50 recorded requests (bounded memory, Section VI-C5).
  EXPECT_EQ(t.requests_in_window(), 5u);
  EXPECT_EQ(t.distinct_blocks_tracked(), 10u);
}

TEST(CoAccessTest, LongRunStaysConsistent) {
  // Property: after any sequence, Count(b) equals the number of windowed
  // requests containing b.
  CoAccessTracker t(50);
  Rng rng(6);
  std::deque<std::vector<BlockId>> shadow;
  for (int step = 0; step < 500; ++step) {
    std::vector<BlockId> q;
    const int n = 1 + static_cast<int>(rng.NextBounded(5));
    for (int i = 0; i < n; ++i) q.push_back(rng.NextBounded(20));
    t.RecordRequest(q);
    std::sort(q.begin(), q.end());
    q.erase(std::unique(q.begin(), q.end()), q.end());
    if (!q.empty()) shadow.push_back(q);
    if (shadow.size() > 50) shadow.pop_front();
  }
  for (BlockId b = 0; b < 20; ++b) {
    std::uint64_t expected = 0;
    for (const auto& q : shadow) {
      expected += std::binary_search(q.begin(), q.end(), b) ? 1 : 0;
    }
    EXPECT_EQ(t.Count(b), expected) << "block " << b;
  }
}

}  // namespace
}  // namespace ecstore
