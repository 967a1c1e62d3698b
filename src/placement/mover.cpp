#include "placement/mover.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "placement/planner.h"

namespace ecstore {

namespace {

/// Destinations examined per chunk, best-candidate-first (greedy
/// subroutines, Section IV-D).
constexpr std::size_t kCandidateDestinations = 8;

/// Builds the pairwise demands {B_b, B_i} for Eq. 5, optionally applying
/// a virtual relocation of B_b's chunk from `source` to `destination`.
std::vector<BlockDemand> PairDemands(const ClusterState& state, BlockId b,
                                     BlockId i, SiteId source, SiteId destination,
                                     bool apply_move) {
  std::vector<BlockDemand> demands;
  for (BlockId id : {b, i}) {
    if (id == kInvalidBlock || !state.Contains(id)) continue;
    const BlockInfo& info = state.GetBlock(id);
    BlockDemand d;
    d.block = id;
    d.needed = info.k;
    d.chunk_bytes = info.chunk_bytes;
    d.candidates = state.AvailableLocations(id);
    if (apply_move && id == b) {
      for (ChunkLocation& loc : d.candidates) {
        if (loc.site == source) loc.site = destination;
      }
    }
    if (d.candidates.size() < d.needed) return {};  // Unreadable pair.
    demands.push_back(std::move(d));
  }
  return demands;
}

/// Guard for the exhaustive evaluator: product of per-block combination
/// counts. Pairwise queries under RS(2,2) yield 36.
double CombinationCount(std::span<const BlockDemand> demands) {
  double combos = 1;
  for (const BlockDemand& d : demands) {
    double c = 1;
    for (std::uint32_t x = 0; x < d.needed; ++x) {
      c *= static_cast<double>(d.candidates.size() - x) / static_cast<double>(x + 1);
    }
    combos *= c;
  }
  return combos;
}

double PairCost(const MoverContext& ctx, std::vector<BlockDemand> demands) {
  if (demands.empty()) return 0;
  if (CombinationCount(demands) <= 4096) {
    return ExhaustivePlan(demands, *ctx.cost_params).estimated_cost_ms;
  }
  const auto plan = IlpPlan(demands, *ctx.cost_params);
  return plan ? plan->estimated_cost_ms : 0;
}

/// Estimated omega-units of load one chunk of `block` contributes to the
/// site storing it: per-block request rate x chunk bytes x probability
/// the chunk is among the k selected, folded through the I/O
/// normalization constant ("proportionally shift the CPU utilization and
/// I/O load ... based on chunk size and chunk access likelihood").
double ChunkLoadShare(const MoverContext& ctx, BlockId block) {
  const BlockInfo& info = ctx.state->GetBlock(block);
  const double freq = ctx.co_access->AccessFrequency(block);
  const double block_req_per_sec = freq * ctx.request_rate_per_sec;
  const double select_prob =
      static_cast<double>(info.k) / static_cast<double>(info.k + info.r);
  const double bytes_per_sec =
      block_req_per_sec * static_cast<double>(info.chunk_bytes) * select_prob;
  return bytes_per_sec / ctx.load->reference_io_bytes_per_sec();
}

}  // namespace

namespace {

/// Per-candidate-block evaluation state reused across every (source,
/// destination) pair: the partner list and the before-move pair costs,
/// which depend only on the current state C.
struct BlockGainContext {
  std::vector<CoAccessPartner> partners;  // Front entry is the solo query.
  std::vector<double> before_costs;       // Parallel to partners.
};

BlockGainContext BuildBlockGainContext(const MoverContext& ctx, BlockId block,
                                       std::size_t max_partners) {
  BlockGainContext out;
  out.partners.push_back({kInvalidBlock, 1.0});  // The solo query {B_b}.
  for (const CoAccessPartner& p : ctx.co_access->Partners(block, max_partners)) {
    if (p.block != block) out.partners.push_back(p);
  }
  out.before_costs.reserve(out.partners.size());
  for (const CoAccessPartner& p : out.partners) {
    out.before_costs.push_back(PairCost(
        ctx, PairDemands(*ctx.state, block, p.block, 0, 0, /*apply_move=*/false)));
  }
  return out;
}

double AccessGainWithContext(const MoverContext& ctx, const BlockGainContext& bctx,
                             BlockId block, SiteId source, SiteId destination) {
  double gain = 0;
  for (std::size_t i = 0; i < bctx.partners.size(); ++i) {
    const CoAccessPartner& p = bctx.partners[i];
    const double after = PairCost(
        ctx, PairDemands(*ctx.state, block, p.block, source, destination, true));
    gain += (bctx.before_costs[i] - after) * p.lambda;
  }
  return gain;
}

}  // namespace

double EstimateAccessGain(const MoverContext& ctx, BlockId block, SiteId source,
                          SiteId destination, std::size_t max_partners) {
  const BlockGainContext bctx = BuildBlockGainContext(ctx, block, max_partners);
  return AccessGainWithContext(ctx, bctx, block, source, destination);
}

double EstimateLoadGain(const MoverContext& ctx, BlockId block, SiteId source,
                        SiteId destination) {
  const LoadTracker& load = *ctx.load;
  const double mean = load.MeanOmega();
  if (mean <= 1e-12) return 0;

  const double shift = ChunkLoadShare(ctx, block);
  const double ws = load.Omega(source);
  const double wd = load.Omega(destination);
  const double ws_after = std::max(0.0, ws - shift);
  const double wd_after = wd + shift;

  const auto balance = [mean](double w) { return std::abs(1.0 - w / mean); };
  // Eq. 6: the worse of the two balance factors, before and after.
  const double before = std::max(balance(ws), balance(wd));
  const double after = std::max(balance(ws_after), balance(wd_after));
  return before - after;  // Eq. 7.
}

double MovementScore(const MoverContext& ctx, BlockId block, SiteId source,
                     SiteId destination, const MoverParams& params) {
  const double e =
      EstimateAccessGain(ctx, block, source, destination, kMoverPartners);
  const double i = EstimateLoadGain(ctx, block, source, destination);
  return params.w1 * e + params.w2 * i;  // Eq. 8.
}

std::optional<MovementPlan> SelectMovementPlan(const MoverContext& ctx,
                                               const MoverParams& params, Rng& rng) {
  const ClusterState& state = *ctx.state;
  const LoadTracker& load = *ctx.load;

  // Algorithm 1 line 1: probabilistic candidate blocks by access likelihood.
  const std::vector<BlockId> candidates =
      ctx.co_access->SampleCandidateBlocks(rng, params.candidate_blocks);

  // Destination preference: least-loaded available sites first (greedy
  // best-candidate-first subroutine).
  std::vector<SiteId> sites_by_load;
  for (SiteId j = 0; j < state.num_sites(); ++j) {
    if (state.IsSiteAvailable(j)) sites_by_load.push_back(j);
  }
  std::stable_sort(sites_by_load.begin(), sites_by_load.end(),
                   [&](SiteId a, SiteId b) { return load.Omega(a) < load.Omega(b); });

  MovementPlan best;
  bool found = false;
  std::size_t evaluations = 0;

  for (BlockId block : candidates) {
    if (!state.Contains(block)) continue;
    const BlockInfo& info = state.GetBlock(block);

    // Partner list and before-move costs are per-block invariants.
    const BlockGainContext bctx = BuildBlockGainContext(ctx, block, kMoverPartners);

    // Line 4: candidate destinations exclude sites already holding a
    // chunk of the block. Best-candidate-first ordering (Section IV-D):
    // sites holding chunks of the strongest co-access partners come
    // first — those are the moves that can co-locate the pair — then the
    // least-loaded sites for load-shedding moves.
    std::vector<SiteId> destinations;
    const auto consider = [&](SiteId site) {
      if (destinations.size() >= kCandidateDestinations) return;
      if (!state.IsSiteAvailable(site) || state.HasChunkAt(block, site)) return;
      if (std::find(destinations.begin(), destinations.end(), site) !=
          destinations.end()) {
        return;
      }
      destinations.push_back(site);
    };
    for (const CoAccessPartner& p : bctx.partners) {
      if (p.block == kInvalidBlock || !state.Contains(p.block)) continue;
      for (const ChunkLocation& loc : state.GetBlock(p.block).locations) {
        consider(loc.site);
      }
    }
    for (SiteId site : sites_by_load) consider(site);
    if (destinations.empty()) continue;

    // Line 5: iterate chunks ordered by site load, heaviest source first.
    std::vector<ChunkLocation> sources = info.locations;
    std::stable_sort(sources.begin(), sources.end(),
                     [&](const ChunkLocation& a, const ChunkLocation& b) {
                       return load.Omega(a.site) > load.Omega(b.site);
                     });

    for (const ChunkLocation& src : sources) {
      if (!state.IsSiteAvailable(src.site)) continue;  // Cannot read it.
      for (SiteId dst : destinations) {
        if (ctx.move_allowed && !ctx.move_allowed(block, src.site, dst)) {
          continue;  // Vetoed (e.g. group-aware domain constraint).
        }
        const double e = AccessGainWithContext(ctx, bctx, block, src.site, dst);
        const double i = EstimateLoadGain(ctx, block, src.site, dst);
        const double score = params.w1 * e + params.w2 * i;
        ++evaluations;
        if (score > 0 && (!found || score > best.score)) {
          best = MovementPlan{block, src.site, dst, score};
          found = true;
        }
        if (evaluations >= params.max_evaluations) {
          // Early stop (Section IV-D): return the best plan so far.
          return found ? std::optional<MovementPlan>(best) : std::nullopt;
        }
      }
    }
  }
  return found ? std::optional<MovementPlan>(best) : std::nullopt;
}

}  // namespace ecstore
