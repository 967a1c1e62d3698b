// The chunk mover (paper Sections IV-C, IV-D, V-B2): evaluates candidate
// single-chunk movements and selects the one with the highest expected
// benefit
//
//   Delta(C, b, s, d) = w1 * E(C, b, s, d) + w2 * I(C, b, s, d)    (Eq. 8)
//
// where E is the lambda-weighted improvement in pairwise co-access cost
// (Eq. 5) and I the improvement in the load-balance factor of the worse
// of the source and destination sites (Eqs. 6-7). Plan generation follows
// Algorithm 1: probabilistically sample recently/frequently accessed
// candidate blocks, order sources by load (heaviest first), consider
// destinations that hold no chunk of the block, and early-stop.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "cluster/state.h"
#include "common/rng.h"
#include "placement/cost_model.h"
#include "stats/co_access.h"
#include "stats/load_tracker.h"

namespace ecstore {

/// A selected movement: move `block`'s chunk from `source` to `destination`.
struct MovementPlan {
  BlockId block = kInvalidBlock;
  SiteId source = kInvalidSite;
  SiteId destination = kInvalidSite;
  double score = 0;  // Delta(C, b, s, d)
};

struct MoverParams {
  /// Weights of Eq. 8. The paper's parameter search settled on
  /// (w1 = 1, w2 = 3) — Section V-B3.
  double w1 = 1.0;
  double w2 = 3.0;
  /// Candidate blocks sampled per invocation (Algorithm 1 line 1).
  std::size_t candidate_blocks = 8;
  /// Early-stopping: stop scoring once this many plans were evaluated.
  std::size_t max_evaluations = 256;
};

/// Co-access partners per block used to estimate E (Eq. 5).
inline constexpr std::size_t kMoverPartners = 10;

/// Statistics snapshot the mover needs: how often a block is accessed per
/// second (derived by the caller from the co-access window and the
/// request rate).
struct MoverContext {
  const ClusterState* state = nullptr;
  const CoAccessView* co_access = nullptr;
  const LoadTracker* load = nullptr;
  const CostParams* cost_params = nullptr;
  /// Requests per second observed by the statistics service; used to turn
  /// windowed access frequency into a byte rate for load shifting.
  double request_rate_per_sec = 0;
  /// Optional placement veto (DESIGN.md §11): when set, a candidate move
  /// of `block`'s chunk from `source` to `dest` is only scored if this
  /// returns true. The control plane uses it for group-aware spreading
  /// (an LRC local group must never co-locate on one failure domain).
  /// Null (the default) scores every candidate — the legacy behavior.
  std::function<bool(BlockId block, SiteId source, SiteId dest)> move_allowed;
};

/// Computes E(C, b, s, d): the expected access-cost change (Eq. 5) over
/// pairwise queries {B_b, B_i} weighted by lambda_{b,i}. Positive =
/// improvement. Exposed for unit tests and ablation benches.
double EstimateAccessGain(const MoverContext& ctx, BlockId block, SiteId source,
                          SiteId destination, std::size_t max_partners);

/// Computes I(C, b, s, d): the load-balance improvement (Eq. 7).
double EstimateLoadGain(const MoverContext& ctx, BlockId block, SiteId source,
                        SiteId destination);

/// Full Eq. 8 score (E over kMoverPartners partners).
double MovementScore(const MoverContext& ctx, BlockId block, SiteId source,
                     SiteId destination, const MoverParams& params);

/// Algorithm 1: returns the best-scoring movement plan, or std::nullopt
/// when no candidate has a positive score.
std::optional<MovementPlan> SelectMovementPlan(const MoverContext& ctx,
                                               const MoverParams& params, Rng& rng);

}  // namespace ecstore
