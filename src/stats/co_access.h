// Co-access statistics over a sliding window of sampled requests
// (paper Section V-A): tracks the conditional likelihood
// lambda_{b,i} = P({B_b, B_i} subset Q | B_b in Q) used to weight the
// chunk mover's estimate of access-cost change (Eq. 5), and supplies the
// candidate-block sampling for Algorithm 1 line 1.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace ecstore {

/// A block co-accessed with some anchor block, with its likelihood.
struct CoAccessPartner {
  BlockId block = kInvalidBlock;
  double lambda = 0;  // P(partner in Q | anchor in Q)
};

/// Read-only view of co-access statistics — the exact subset the chunk
/// mover (Algorithm 1) consumes. Lets the sharded control plane
/// (DESIGN.md §10) hand the mover either one tracker directly (shards=1,
/// preserving the simulator's deterministic iteration) or a merged view
/// over per-shard trackers that locks the owning shard per call.
class CoAccessView {
 public:
  virtual ~CoAccessView() = default;

  /// lambda_{b,i}; zero if either block is unseen or never co-accessed.
  virtual double Lambda(BlockId b, BlockId i) const = 0;

  /// Co-access partners of `b` with positive lambda, most likely first.
  virtual std::vector<CoAccessPartner> Partners(BlockId b,
                                                std::size_t max_partners) const = 0;

  /// Samples up to `count` distinct candidates weighted by windowed
  /// access frequency (Algorithm 1 line 1).
  virtual std::vector<BlockId> SampleCandidateBlocks(Rng& rng,
                                                     std::size_t count) const = 0;

  /// Fraction of windowed requests containing `b`.
  virtual double AccessFrequency(BlockId b) const = 0;
};

/// Sliding-window co-access tracker. When a request leaves the window its
/// contribution is subtracted, so the statistics adapt to workload change
/// — the behaviour the paper's Fig. 4a timeline depends on.
///
/// Layout: one ordered map entry per windowed block holding its count and
/// a flat partner list {partner id, co-count} sorted by id, so a request
/// of n blocks costs n map lookups plus n linear merges. Deterministic:
/// blocks and partners iterate in ascending id, so candidate sampling and
/// tie order are reproducible under a fixed seed.
class CoAccessTracker : public CoAccessView {
 public:
  /// `window` = number of most recent sampled requests retained
  /// (the paper used 5000).
  explicit CoAccessTracker(std::size_t window = 5000);

  /// Records one sampled multi-block request. Duplicate ids within one
  /// request are collapsed. Single-block requests still count toward
  /// block frequency (they just add no pairs).
  void RecordRequest(std::span<const BlockId> blocks);

  /// Number of windowed requests containing `b`.
  std::uint64_t Count(BlockId b) const;

  /// lambda_{b,i}; zero if either block is unseen or never co-accessed.
  double Lambda(BlockId b, BlockId i) const override;

  /// All co-access partners of `b` with positive lambda, most likely
  /// first, capped at `max_partners`.
  std::vector<CoAccessPartner> Partners(BlockId b,
                                        std::size_t max_partners = 16) const override;

  /// Probabilistically samples up to `count` distinct candidate blocks,
  /// weighted by windowed access frequency (Algorithm 1 line 1:
  /// "recently accessed blocks ... generated probabilistically based on
  /// access likelihood").
  std::vector<BlockId> SampleCandidateBlocks(Rng& rng, std::size_t count) const override;

  /// Fraction of windowed requests containing `b` (access likelihood).
  double AccessFrequency(BlockId b) const override;

  /// The `n` most frequently accessed blocks in the window, hottest
  /// first (ties: ascending block id). `lambda` carries the windowed
  /// access frequency — feeds the cache/promotion tier (DESIGN.md §12).
  std::vector<CoAccessPartner> TopBlocks(std::size_t n) const;

  std::size_t window() const { return window_; }
  std::size_t requests_in_window() const { return requests_.size(); }
  std::size_t distinct_blocks_tracked() const { return entries_.size(); }

  /// Rough heap footprint for the Table III resource-usage experiment.
  std::size_t ApproxMemoryBytes() const;

 private:
  /// A windowed block: the number of windowed requests containing it and
  /// its co-access partners with their pair counts, sorted by partner id
  /// and free of zero counts. Erased when `count` reaches 0: a co-count
  /// never exceeds the block's own count, so every pair count is 0 then.
  struct Entry {
    std::uint64_t count = 0;
    std::vector<std::pair<BlockId, std::uint64_t>> partners;
  };

  void Add(const std::vector<BlockId>& blocks);
  void Remove(const std::vector<BlockId>& blocks);
  const Entry* Find(BlockId b) const;

  std::size_t window_;
  std::deque<std::vector<BlockId>> requests_;
  std::map<BlockId, Entry> entries_;
};

}  // namespace ecstore
