#include "core/control_plane.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecstore {

namespace {

/// Largest per-site o_j drift, relative to the mean o_j, that cached plans
/// survive; beyond it every plan is invalidated (ReloadPlansOnDrift).
constexpr double kEpochBumpThreshold = 0.3;

/// Promotions per movement round: promotion shares the mover's
/// bandwidth-limited rounds, so it ramps rather than bursts.
constexpr std::size_t kMaxPromotionsPerRound = 4;

/// Per-site media read cost in milliseconds per byte, from the site model.
double MediaMsPerByte(const sim::SiteParams& site) {
  return 1000.0 / site.disk_bytes_per_sec;
}

/// Detector thresholds: explicit when configured, else derived from the
/// stats reporting interval. The half-window slack keeps a heartbeat that
/// lands exactly on its interval boundary from tripping the detector.
FailureDetectorParams EffectiveDetectorParams(const ECStoreConfig& c) {
  FailureDetectorParams p;
  p.suspect_after_ms = c.detector_suspect_after > 0
                           ? ToMillis(c.detector_suspect_after)
                           : 2.5 * ToMillis(c.stats_report_interval);
  p.dead_after_ms = c.detector_dead_after > 0
                        ? ToMillis(c.detector_dead_after)
                        : 4.5 * ToMillis(c.stats_report_interval);
  return p;
}

/// The tail model's window lives in the system config; fold it into the
/// embodiment-supplied tracker params so LoadTracker stays config-free.
LoadTrackerParams WithTailParams(LoadTrackerParams p, const ECStoreConfig& c) {
  p.latency_window = std::max<std::uint64_t>(1, c.latency_window);
  return p;
}

/// P[Binomial(n, p) > d]: probability that more than d of n issued reads
/// straggle — i.e. that d spare chunks fail to cover the stragglers.
double BinomialTailAbove(std::uint32_t n, std::uint32_t d, double p) {
  p = std::clamp(p, 0.0, 1.0);
  double below = 0.0;
  double pmf = std::pow(1.0 - p, static_cast<double>(n));  // P[X = 0]
  for (std::uint32_t i = 0; i <= d && i <= n; ++i) {
    below += pmf;
    // C(n,i+1) p^(i+1) q^(n-i-1) from C(n,i) p^i q^(n-i).
    pmf *= static_cast<double>(n - i) / static_cast<double>(i + 1) * p /
           std::max(1.0 - p, 1e-300);
  }
  return std::max(0.0, 1.0 - below);
}

}  // namespace

ControlPlane::ControlPlane(const ECStoreConfig* config, ClusterState* state,
                           Rng* rng, Executor defer_solve,
                           LoadTrackerParams load_params)
    : config_(config),
      state_(state),
      rng_(rng),
      defer_solve_(std::move(defer_solve)),
      default_spec_(config->BlockCodec()),
      default_family_(GetCodecFamily(default_spec_)),
      load_tracker_(config->num_sites, WithTailParams(load_params, *config)),
      detector_(EffectiveDetectorParams(*config)) {
  const std::size_t n = std::max<std::size_t>(1, config->control_plane_shards);
  // The configured cache capacity is a system-wide budget: split it across
  // shards (each shard LRU-evicts independently within its slice).
  const std::size_t per_shard_capacity =
      std::max<std::size_t>(1, config->plan_cache_capacity / n);
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(config->co_access_window, per_shard_capacity));
  }
  if (config->cache_capacity_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(config->cache_capacity_bytes);
  }
  if (config->promotion.budget_bytes > 0) {
    promoter_ = std::make_unique<ReplicaPromoter>(config->promotion);
  }
  if (config->overload.Enabled()) {
    overload_ =
        std::make_unique<OverloadControl>(config->num_sites, config->overload);
  }
}

std::size_t ControlPlane::TotalRequestsInWindow() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    total += sh->co_access.requests_in_window();
  }
  return total;
}

void ControlPlane::RecordRequest(std::span<const BlockId> blocks) {
  if (shards_.size() == 1) {
    Shard& sh = *shards_[0];
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.co_access.RecordRequest(blocks);
    return;
  }
  // Record the full request into every touched shard so each block's
  // owning shard sees every pair involving it (see header).
  std::vector<std::size_t> touched;
  touched.reserve(blocks.size());
  for (BlockId b : blocks) touched.push_back(ShardOf(b));
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (std::size_t idx : touched) {
    Shard& sh = *shards_[idx];
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.co_access.RecordRequest(blocks);
  }
}

void ControlPlane::RecordLoadReport(SiteId site, double cpu_utilization,
                                    double io_bytes_per_sec,
                                    std::uint64_t chunk_count,
                                    std::size_t msg_bytes) {
  {
    std::unique_lock lk(load_mu_);
    load_tracker_.RecordReport(site, cpu_utilization, io_bytes_per_sec,
                               chunk_count);
  }
  stats_network_bytes_.fetch_add(msg_bytes, std::memory_order_relaxed);
}

void ControlPlane::RecordProbe(SiteId site, double rtt_ms,
                               std::size_t msg_bytes) {
  {
    std::unique_lock lk(load_mu_);
    load_tracker_.RecordProbe(site, rtt_ms);
  }
  stats_network_bytes_.fetch_add(msg_bytes, std::memory_order_relaxed);
}

void ControlPlane::RecordServiceTime(SiteId site, double service_ms) {
  std::unique_lock lk(load_mu_);
  load_tracker_.RecordServiceTime(site, service_ms);
}

void ControlPlane::RecordServiceSamples(SiteId site,
                                        std::span<const double> service_ms) {
  if (service_ms.empty()) return;
  std::unique_lock lk(load_mu_);
  for (double ms : service_ms) load_tracker_.RecordServiceTime(site, ms);
}

std::uint32_t ControlPlane::AdaptiveDelta() const {
  const std::uint32_t base = config_->EffectiveDelta();
  // Only the LB techniques late-bind at all; for the rest base is 0 and
  // stays 0. With the feature off the static δ passes through untouched.
  if (!config_->adaptive_delta || LateBindingDelta(config_->technique, 1) == 0) {
    return base;
  }
  double p;
  {
    std::shared_lock lk(load_mu_);
    p = load_tracker_.ClusterStragglerFraction();
  }
  return DeltaForStragglerFraction(p);
}

std::uint32_t ControlPlane::AdaptiveDelta(
    std::span<const BlockId> blocks) const {
  const std::uint32_t base = config_->EffectiveDelta();
  if (!config_->adaptive_delta || LateBindingDelta(config_->technique, 1) == 0) {
    return base;
  }
  // The sites this request's plan can possibly touch: the available
  // chunk-holding sites of the requested blocks. Distinct — a site
  // serving five of the request's blocks is no more likely to straggle
  // per read than one serving one.
  std::vector<SiteId> sites;
  for (BlockId id : blocks) {
    BlockInfo info;
    if (!state_->ReadBlock(id, &info)) continue;
    for (const ChunkLocation& loc : info.locations) {
      if (loc.site == kInvalidSite) continue;
      if (!state_->IsSiteAvailable(loc.site)) continue;
      if (std::find(sites.begin(), sites.end(), loc.site) == sites.end()) {
        sites.push_back(loc.site);
      }
    }
  }
  double p;
  {
    std::shared_lock lk(load_mu_);
    if (sites.empty()) {
      p = load_tracker_.ClusterStragglerFraction();
    } else {
      p = 0.0;
      for (SiteId s : sites) p += load_tracker_.StragglerFraction(s);
      p /= static_cast<double>(sites.size());
    }
  }
  return DeltaForStragglerFraction(p);
}

std::uint32_t ControlPlane::DeltaForStragglerFraction(double p) const {
  // Brownout level 4 (DESIGN.md §14): the deepest shed rung trades tail
  // latency for capacity — spare late-binding reads are pure extra load.
  if (overload_ && overload_->brownout_level() >= 4) return 0;
  const std::uint32_t cap =
      config_->adaptive_delta_max > 0
          ? std::min(config_->adaptive_delta_max, config_->r)
          : config_->r;
  if (p <= 0.0) return 0;  // Quiet cluster: no spare reads.
  const double eps = std::max(config_->adaptive_delta_epsilon, 0.0);
  for (std::uint32_t d = 0; d < cap; ++d) {
    if (BinomialTailAbove(config_->k + d, d, p) <= eps) return d;
  }
  return cap;
}

void ControlPlane::EvaluateOverload(double now_ms) {
  if (!overload_) return;
  // Breakers feed on the same histograms the tail model keeps; the
  // brownout ladder feeds on the admission controller's pressure.
  for (SiteId j = 0; j < state_->num_sites(); ++j) {
    overload_->EvaluateSite(j, SiteLatencyQuantileMs(j, 0.99),
                            SiteLatencySamples(j), now_ms);
  }
  overload_->UpdateBrownout(now_ms);
}

void ControlPlane::FinishPrefetch(BlockId id, const BlockInfo* filled,
                                  CachedBytes data) {
  // A rewrite or delete since the fill read its layout drops the fill
  // rather than caching something stale.
  if (filled != nullptr && state_->BlockVersion(id) == filled->version) {
    cache_->Insert(id, std::move(data), filled->block_bytes, filled->version,
                   BlockAccessFrequency(id), /*prefetched=*/true);
  }
  cache_->EndPrefetch(id);
}

void ControlPlane::RunPromotionRound(const LayoutRewrite& rewrite) {
  if (!promoter_ || BackgroundPaused()) return;
  // Demotions first: cooled blocks release budget the same round's
  // promotions can spend.
  for (BlockId id : promoter_->SelectDemotions(
           [this](BlockId b) { return BlockAccessFrequency(b); })) {
    const std::optional<CodecSpec> original = promoter_->OriginalSpec(id);
    if (!original) continue;
    BlockInfo info;
    if (!state_->ReadBlock(id, &info)) {
      promoter_->RecordDemoted(id);  // Deleted while promoted: free budget.
      continue;
    }
    if (RewriteLayout(id, info, *original, rewrite)) {
      promoter_->RecordDemoted(id);
    }
  }
  const ReplicaPromoter::Params& params = promoter_->params();
  std::size_t promoted = 0;
  BlockInfo info;
  for (const CoAccessPartner& hot :
       HottestBlocks(kMaxPromotionsPerRound * 8 + 8)) {
    if (promoted >= kMaxPromotionsPerRound) break;
    if (!state_->ReadBlock(hot.block, &info)) continue;
    if (info.codec.family == CodecFamilyId::kReplication) continue;
    const std::uint64_t extra = ReplicaPromoter::ReplicaExtraBytes(
        info.block_bytes, info.chunk_bytes * info.locations.size(),
        params.replica_copies);
    if (!promoter_->ShouldPromote(hot.block, hot.lambda, extra,
                                  info.block_bytes)) {
      continue;
    }
    if (RewriteLayout(hot.block, info, promoter_->ReplicaSpec(), rewrite)) {
      promoter_->RecordPromoted(hot.block, info.codec, extra);
      ++promoted;
    }
  }
}

bool ControlPlane::RewriteLayout(BlockId id, const BlockInfo& info,
                                 const CodecSpec& spec,
                                 const LayoutRewrite& rewrite) {
  std::vector<SiteId> old_sites;
  old_sites.reserve(info.locations.size());
  for (const ChunkLocation& loc : info.locations) old_sites.push_back(loc.site);
  const std::vector<SiteId> sites = SelectWriteSites(spec, old_sites);
  // Too few free sites, or the block is unreadable right now: the next
  // round retries.
  if (sites.empty() || !rewrite(id, info, spec, sites)) return false;
  // Plans and cached decodes against the old layout die here; the swap
  // already bumped the coherence version as the lookup backstop.
  InvalidateBlock(id);
  return true;
}

double ControlPlane::SiteLatencyQuantileMs(SiteId site, double q) const {
  std::shared_lock lk(load_mu_);
  return load_tracker_.LatencyQuantileMs(site, q);
}

std::uint64_t ControlPlane::SiteLatencySamples(SiteId site) const {
  std::shared_lock lk(load_mu_);
  return load_tracker_.latency_samples(site);
}

void ControlPlane::ApplyTailTerm(std::vector<double>& overheads,
                                 const LoadTracker& tracker) const {
  if (config_->tail_weight <= 0.0) return;
  const std::vector<double>& tail = tracker.TailExcessVector();
  const std::size_t n = std::min(overheads.size(), tail.size());
  for (std::size_t j = 0; j < n; ++j) {
    overheads[j] += config_->tail_weight * tail[j];
  }
}

void ControlPlane::ReloadPlansOnDrift() {
  // Reload cached plans when the cost landscape shifted materially
  // (Section V-B1 "dynamically reload solutions"). The trigger is the
  // largest per-site drift of o_j since the last epoch, relative to the
  // mean — a single site going hot or cold is exactly what invalidates
  // plans, even though the cluster-wide mean barely moves.
  bool bump = false;
  {
    std::unique_lock lk(load_mu_);
    const auto& overheads = load_tracker_.OverheadVector();
    if (overheads_at_epoch_.empty()) {
      overheads_at_epoch_ = overheads;
      return;
    }
    const double mean_o = std::max(load_tracker_.MeanOverheadMs(), 1e-9);
    double max_drift = 0;
    for (std::size_t j = 0; j < overheads.size(); ++j) {
      max_drift = std::max(
          max_drift, std::abs(overheads[j] - overheads_at_epoch_[j]) / mean_o);
    }
    if (max_drift > kEpochBumpThreshold) {
      overheads_at_epoch_ = overheads;
      bump = true;
    }
  }
  if (!bump) return;
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->plan_cache.BumpEpoch();
  }
}

CostParams ControlPlane::CurrentCostParams() const {
  CostParams params;
  {
    std::shared_lock lk(load_mu_);
    params.site_overhead_ms = load_tracker_.OverheadVector();
    ApplyTailTerm(params.site_overhead_ms, load_tracker_);
  }
  params.media_ms_per_byte.assign(config_->num_sites,
                                  MediaMsPerByte(config_->site));
  return params;
}

CostParams ControlPlane::PlanningCostParamsLocked() {
  // Near-equal o_j values would otherwise be tie-broken identically by
  // every solve (always the lowest-indexed site), herding load. A small
  // per-call perturbation spreads equal-cost choices across sites while
  // leaving genuine load differences decisive.
  CostParams params;
  double mean;
  {
    std::shared_lock lk(load_mu_);
    params.site_overhead_ms = load_tracker_.OverheadVector();
    mean = load_tracker_.MeanOverheadMs();
    // Tail term (DESIGN.md §13): charge high-variance sites their p_tail
    // excess so planning steers around them, not just around loaded
    // ones. Applied before the tie-break noise; no-op at weight 0.
    ApplyTailTerm(params.site_overhead_ms, load_tracker_);
  }
  params.media_ms_per_byte.assign(config_->num_sites,
                                  MediaMsPerByte(config_->site));
  for (double& o : params.site_overhead_ms) {
    o += rng_->NextDouble() * config_->cost_tiebreak_noise * mean;
  }
  return params;
}

PlanDecision ControlPlane::SelectAccessPlan(
    std::span<const BlockId> blocks, std::span<const BlockDemand> demands,
    std::uint32_t delta) {
  PlanDecision decision;
  if (!config_->CostModelEnabled()) {
    {
      std::lock_guard<std::mutex> lk(rng_mu_);
      decision.plan = RandomPlan(demands, *rng_);
    }
    decision.source = PlanSource::kRandom;
    if (plan_observer_) plan_observer_(blocks, decision);
    return decision;
  }

  // Breaker soft-failure path (DESIGN.md §14): while any breaker is not
  // closed, plan greedily over breaker-filtered demands — no cache
  // lookup (cached plans predate the trip and would steer right back
  // into the sick site), no cache insert or background ILP (the episode
  // is transient; its plans must not outlive it). When the filter drops
  // nothing — every tripped site is one some demand can't do without —
  // planning falls through to the normal path unchanged.
  if (overload_) {
    std::vector<BlockDemand> filtered;
    if (FilterDemandsForBreakers(demands, filtered)) {
      {
        std::lock_guard<std::mutex> lk(rng_mu_);
        decision.plan = GreedyPlan(filtered, PlanningCostParamsLocked(), *rng_);
      }
      decision.source = PlanSource::kGreedy;
      if (plan_observer_) plan_observer_(blocks, decision);
      return decision;
    }
  }

  // The request key's owning shard: shard of the minimum block id, which
  // is also where background solves for this key Insert their plan.
  const std::size_t owner_idx =
      blocks.empty() ? 0
                     : ShardOf(*std::min_element(blocks.begin(), blocks.end()));
  std::optional<AccessPlan> cached;
  {
    Shard& owner = *shards_[owner_idx];
    std::lock_guard<std::mutex> lk(owner.mu);
    cached = owner.plan_cache.LookupSatisfying(blocks, delta);
  }
  if (cached) {
    if (ValidatePlan(*cached)) {
      decision.plan = std::move(*cached);
      decision.source = PlanSource::kCacheHit;
      if (plan_observer_) plan_observer_(blocks, decision);
      return decision;
    }
    // Stale entry (site failed since caching): drop and fall through.
    // Each block's plans die in its own owning shard — one lock at a
    // time, never two shard locks held together.
    for (BlockId b : blocks) {
      Shard& sh = *shards_[ShardOf(b)];
      std::lock_guard<std::mutex> lk(sh.mu);
      sh.plan_cache.InvalidateBlock(b);
    }
  }
  {
    std::lock_guard<std::mutex> lk(rng_mu_);
    decision.plan = GreedyPlan(demands, PlanningCostParamsLocked(), *rng_);
  }
  decision.source = PlanSource::kGreedy;
  ScheduleBackgroundIlp(blocks, delta);
  if (plan_observer_) plan_observer_(blocks, decision);
  return decision;
}

bool ControlPlane::FilterDemandsForBreakers(
    std::span<const BlockDemand> demands, std::vector<BlockDemand>& filtered) {
  CircuitBreakerSet* breakers = overload_ ? overload_->breakers() : nullptr;
  if (!breakers || !breakers->AnyNotClosed()) return false;
  // Per-call memo of the avoid decision: one breaker consultation — and
  // at most one half-open probe grant — per site per request, so a
  // single multiget can't drain the probe budget and the herd of
  // requests behind it is bounded to `breaker_half_open_probes` total.
  std::vector<std::pair<SiteId, bool>> memo;
  auto avoid = [&](SiteId site) {
    for (const auto& [s, a] : memo) {
      if (s == site) return a;
    }
    const bool a = breakers->ShouldAvoid(site) || !breakers->AllowProbe(site);
    memo.emplace_back(site, a);
    return a;
  };
  bool dropped_any = false;
  filtered.assign(demands.begin(), demands.end());
  for (BlockDemand& d : filtered) {
    for (std::size_t i = d.candidates.size(); i-- > 0;) {
      if (d.candidates.size() <= d.needed) break;
      if (avoid(d.candidates[i].site)) {
        d.candidates.erase(d.candidates.begin() +
                           static_cast<std::ptrdiff_t>(i));
        dropped_any = true;
      }
    }
  }
  return dropped_any;
}

bool ControlPlane::ValidatePlan(const AccessPlan& plan) const {
  for (const ChunkRead& read : plan.reads) {
    if (!state_->IsSiteAvailable(read.site)) return false;
    if (!state_->HasChunkAt(read.block, read.site)) return false;
  }
  return !plan.reads.empty();
}

void ControlPlane::ScheduleBackgroundIlp(std::span<const BlockId> blocks,
                                         std::uint32_t delta) {
  // Each shard runs one background ILP worker solving queued sets off the
  // request path and installing solutions for future requests (Section
  // V-B1). The queue is deduplicated and bounded: under a miss storm
  // extra solve requests are dropped — the greedy plan already served
  // the client.
  // Brownout level 2+ (DESIGN.md §14): background refinement is paused —
  // solver capacity is shed long before client work is. The greedy plan
  // already served the request; the recurrence gate will re-queue the
  // set once the ladder steps back down.
  if (BackgroundPaused()) return;
  constexpr std::size_t kMaxQueue = 64;
  constexpr std::size_t kMaxMissedOnce = 100000;
  // Very large multigets (the Wikipedia trace's tail pages) are served by
  // the greedy plan permanently: their exact sets rarely recur, and their
  // ILPs are the most expensive -- bounded optimization, as in any
  // production solver deployment.
  constexpr std::size_t kMaxIlpBlocks = 16;
  std::vector<BlockId> key = PlanCache::CanonicalKey(blocks);
  if (key.size() > kMaxIlpBlocks) return;
  const std::size_t idx = key.empty() ? 0 : ShardOf(key.front());
  Shard& sh = *shards_[idx];
  std::lock_guard<std::mutex> lk(sh.mu);
  if (sh.ilp_pending.count(key)) return;
  // First miss only registers the set; a solve is queued when it recurs,
  // since only recurring sets can ever profit from a cached plan.
  if (sh.missed_once.insert(key).second) {
    if (sh.missed_once.size() > kMaxMissedOnce) sh.missed_once.clear();
    return;
  }
  if (sh.ilp_queue.size() >= kMaxQueue) return;
  sh.ilp_pending.insert(key);
  sh.ilp_queue.push_back(Shard::IlpJob{std::move(key), delta});
  if (!sh.ilp_worker_busy) {
    sh.ilp_worker_busy = true;
    PumpIlpWorkerLocked(idx);
  }
}

void ControlPlane::PumpIlpWorkerLocked(std::size_t shard_idx) {
  Shard& sh = *shards_[shard_idx];
  if (sh.ilp_queue.empty()) {
    sh.ilp_worker_busy = false;
    return;
  }
  Shard::IlpJob job = std::move(sh.ilp_queue.front());
  sh.ilp_queue.pop_front();
  // The executor seam is invoked with the shard lock held; executors
  // queue the unit rather than running it inline (class contract).
  defer_solve_([this, shard_idx, job = std::move(job)]() mutable {
    RunDeferredSolve(shard_idx, std::move(job.blocks), job.delta);
  });
}

void ControlPlane::RunDeferredSolve(std::size_t shard_idx,
                                    std::vector<BlockId> blocks,
                                    std::uint32_t delta) {
  Shard& sh = *shards_[shard_idx];
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.ilp_pending.erase(blocks);
  }
  // The solve itself runs without any shard lock: BuildDemands reads the
  // cluster state through its own stripe locks and IlpPlan is pure CPU.
  std::optional<AccessPlan> plan;
  try {
    DemandResult dr = BuildDemands(*state_, blocks, delta);
    const bool readable =
        std::find(dr.readable.begin(), dr.readable.end(), false) ==
        dr.readable.end();
    if (readable) {
      CostParams params;
      {
        std::lock_guard<std::mutex> lk(rng_mu_);
        params = PlanningCostParamsLocked();
      }
      plan = IlpPlan(dr.demands, params);
      ilp_solves_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (const std::exception&) {
    // A block was deleted between queueing and solving: abandon this
    // solve (the set can re-queue if it recurs) and pump the next one.
    plan.reset();
  }
  std::lock_guard<std::mutex> lk(sh.mu);
  if (plan) sh.plan_cache.Insert(blocks, delta, *plan);
  PumpIlpWorkerLocked(shard_idx);
}

std::vector<SiteId> ControlPlane::SelectWriteSites(
    const CodecSpec& spec, std::span<const SiteId> avoid) {
  const std::uint32_t count = SpecTotalChunks(spec);
  const std::size_t domains = config_->failure_domains;
  const bool grouped = domains > 0 && SpecHasPlacementGroups(spec);
  std::vector<SiteId> available;
  for (SiteId j = 0; j < state_->num_sites(); ++j) {
    if (!state_->IsSiteAvailable(j)) continue;
    if (std::find(avoid.begin(), avoid.end(), j) != avoid.end()) continue;
    available.push_back(j);
  }
  if (available.size() < count) return {};

  // Preference order. Under the cost model: least-loaded first, with the
  // same tie-break perturbation planning uses so concurrent writers do
  // not all pick the same set. Otherwise the baseline's random distinct
  // placement [38]: a partial shuffle of the `count` slots kept, or a
  // full one when the group-aware pass below may probe deep into the
  // list.
  {
    std::lock_guard<std::mutex> lk(rng_mu_);
    if (config_->CostModelEnabled()) {
      const CostParams params = PlanningCostParamsLocked();
      std::stable_sort(available.begin(), available.end(),
                       [&](SiteId a, SiteId b) {
                         return params.site_overhead_ms[a] <
                                params.site_overhead_ms[b];
                       });
    } else {
      const std::size_t shuffled = grouped ? available.size() - 1 : count;
      for (std::size_t i = 0; i < shuffled; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    rng_->NextBounded(available.size() - i));
        std::swap(available[i], available[j]);
      }
    }
  }
  if (!grouped) {
    available.resize(count);
    return available;
  }

  // Greedy per-chunk assignment in preference order, keeping each
  // placement group's chunks on distinct failure domains. When a chunk
  // cannot be placed without a same-domain group-mate (few sites, many
  // chunks), it takes the best unused site anyway: availability beats
  // the locality guarantee.
  std::vector<SiteId> chosen(count, kInvalidSite);
  std::vector<bool> used(available.size(), false);
  for (std::uint32_t c = 0; c < count; ++c) {
    const auto group = PlacementGroupOf(spec, c);
    std::size_t fallback = available.size();
    for (std::size_t i = 0; i < available.size(); ++i) {
      if (used[i]) continue;
      if (fallback == available.size()) fallback = i;
      if (group) {
        const std::size_t domain = available[i] % domains;
        bool conflict = false;
        for (std::uint32_t c2 = 0; c2 < c && !conflict; ++c2) {
          conflict = PlacementGroupOf(spec, c2) == group &&
                     chosen[c2] % domains == domain;
        }
        if (conflict) continue;
      }
      fallback = i;
      break;
    }
    used[fallback] = true;
    chosen[c] = available[fallback];
  }
  return chosen;
}

void ControlPlane::InvalidateBlock(BlockId block) {
  {
    Shard& sh = *shards_[ShardOf(block)];
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.plan_cache.InvalidateBlock(block);
  }
  // Cache coherence (§12): evict the decoded bytes eagerly, after the
  // shard lock drops. The cache's version check stays the correctness
  // backstop.
  if (cache_) cache_->Invalidate(block);
}

std::vector<CoAccessPartner> ControlPlane::CoAccessPartnersOf(
    BlockId b, std::size_t max_partners) const {
  const Shard& sh = *shards_[ShardOf(b)];
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.co_access.Partners(b, max_partners);
}

double ControlPlane::BlockAccessFrequency(BlockId b) const {
  const Shard& sh = *shards_[ShardOf(b)];
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.co_access.AccessFrequency(b);
}

std::vector<CoAccessPartner> ControlPlane::HottestBlocks(std::size_t n) const {
  std::vector<CoAccessPartner> merged;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = *shards_[s];
    std::lock_guard<std::mutex> lk(sh.mu);
    for (const CoAccessPartner& p : sh.co_access.TopBlocks(n)) {
      // With shards > 1 a request is recorded into every touched shard;
      // only the owner's counts are authoritative for its blocks.
      if (ShardOf(p.block) == s) merged.push_back(p);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const CoAccessPartner& a, const CoAccessPartner& b) {
              if (a.lambda != b.lambda) return a.lambda > b.lambda;
              return a.block < b.block;
            });
  if (merged.size() > n) merged.resize(n);
  return merged;
}

void ControlPlane::OnSiteFailed(SiteId /*site*/) {
  // Any cached plan may reference the dead site: bump every shard's
  // epoch, one shard lock at a time (no world freeze).
  for (auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    sh->plan_cache.BumpEpoch();
  }
}

double ControlPlane::ShardedCoAccessView::Lambda(BlockId b, BlockId i) const {
  const Shard& sh = *cp_->shards_[cp_->ShardOf(b)];
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.co_access.Lambda(b, i);
}

std::vector<CoAccessPartner> ControlPlane::ShardedCoAccessView::Partners(
    BlockId b, std::size_t max_partners) const {
  const Shard& sh = *cp_->shards_[cp_->ShardOf(b)];
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.co_access.Partners(b, max_partners);
}

double ControlPlane::ShardedCoAccessView::AccessFrequency(BlockId b) const {
  const Shard& sh = *cp_->shards_[cp_->ShardOf(b)];
  std::lock_guard<std::mutex> lk(sh.mu);
  return sh.co_access.AccessFrequency(b);
}

std::vector<BlockId> ControlPlane::ShardedCoAccessView::SampleCandidateBlocks(
    Rng& rng, std::size_t count) const {
  if (cp_->shards_.size() == 1) {
    // Straight delegation: preserves the single tracker's deterministic
    // sampling (and draw count) exactly — the simulator's requirement.
    const Shard& sh = *cp_->shards_[0];
    std::lock_guard<std::mutex> lk(sh.mu);
    return sh.co_access.SampleCandidateBlocks(rng, count);
  }
  // Merged sampling: let each shard nominate its own frequency-weighted
  // candidates (restricted to blocks it owns, so the union is duplicate
  // free), then weighted-sample the final set from the pooled nominees.
  std::vector<std::pair<BlockId, double>> pool;
  for (std::size_t s = 0; s < cp_->shards_.size(); ++s) {
    const Shard& sh = *cp_->shards_[s];
    std::lock_guard<std::mutex> lk(sh.mu);
    for (BlockId b : sh.co_access.SampleCandidateBlocks(rng, count)) {
      if (cp_->ShardOf(b) != s) continue;
      pool.emplace_back(b, sh.co_access.AccessFrequency(b));
    }
  }
  std::vector<BlockId> out;
  out.reserve(std::min(count, pool.size()));
  while (out.size() < count && !pool.empty()) {
    double total = 0;
    for (const auto& [b, w] : pool) total += std::max(w, 1e-12);
    double x = rng.NextDouble() * total;
    std::size_t pick = pool.size() - 1;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      x -= std::max(pool[i].second, 1e-12);
      if (x <= 0) {
        pick = i;
        break;
      }
    }
    out.push_back(pool[pick].first);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return out;
}

std::optional<MovementPlan> ControlPlane::SelectMovement(
    double request_rate_per_sec) {
  if (BackgroundPaused()) return std::nullopt;
  // Snapshot the load statistics so the candidate search never holds
  // load_mu_ (the mover walks many candidates; planners keep reading
  // fresh o_j meanwhile).
  LoadTracker load_snapshot = [&] {
    std::shared_lock lk(load_mu_);
    return load_tracker_;
  }();
  CostParams params;
  params.site_overhead_ms = load_snapshot.OverheadVector();
  ApplyTailTerm(params.site_overhead_ms, load_snapshot);
  params.media_ms_per_byte.assign(config_->num_sites,
                                  MediaMsPerByte(config_->site));
  ShardedCoAccessView view(this);
  MoverContext ctx;
  ctx.state = state_;
  ctx.co_access = &view;
  ctx.load = &load_snapshot;
  ctx.cost_params = &params;
  ctx.request_rate_per_sec = request_rate_per_sec;
  if (config_->failure_domains > 0) {
    // Group-aware constraint: a move must not land a chunk on a failure
    // domain one of its placement-group mates occupies (which would let
    // a single domain failure break the group's cheap repair plan).
    const std::size_t domains = config_->failure_domains;
    ctx.move_allowed = [this, domains](BlockId block, SiteId from, SiteId to) {
      BlockInfo info;
      if (!state_->ReadBlock(block, &info)) return true;
      if (!SpecHasPlacementGroups(info.codec)) return true;
      std::optional<std::uint32_t> group;
      for (const ChunkLocation& loc : info.locations) {
        if (loc.site == from) {
          group = PlacementGroupOf(info.codec, loc.chunk);
          break;
        }
      }
      if (!group) return true;
      for (const ChunkLocation& loc : info.locations) {
        if (loc.site == from) continue;
        if (PlacementGroupOf(info.codec, loc.chunk) == group &&
            loc.site % domains == to % domains) {
          return false;
        }
      }
      return true;
    };
  }
  std::lock_guard<std::mutex> lk(rng_mu_);
  return SelectMovementPlan(ctx, config_->mover, *rng_);
}

void ControlPlane::RecordMoveExecuted(BlockId block, std::uint64_t chunk_bytes) {
  InvalidateBlock(block);
  moves_executed_.fetch_add(1, std::memory_order_relaxed);
  mover_network_bytes_.fetch_add(chunk_bytes, std::memory_order_relaxed);
}

void ControlPlane::NoteHeartbeat(SiteId site, double now_ms) {
  bool revived;
  {
    std::lock_guard<std::mutex> lk(detector_mu_);
    revived = detector_.Heartbeat(site, now_ms);
  }
  if (revived && !state_->IsSiteAvailable(site)) {
    // A site the detector wrote off reported in again (a flap healing):
    // restore belief. Its chunks are still cataloged, so redundancy
    // returns with it; cached plans need no invalidation — validation
    // only ever rejects *unavailable* sites.
    state_->SetSiteAvailable(site, true);
  }
}

std::vector<SiteId> ControlPlane::CheckFailures(double now_ms) {
  // Baseline sites the detector has never heard from, so silence is
  // measured from first observation — not from time zero, which would
  // declare a quiet cluster dead on the first check. Detector work runs
  // under detector_mu_ alone; the resulting transitions are applied to
  // the cluster state and shards afterwards (no nested locks).
  std::vector<HealthTransition> transitions;
  {
    std::lock_guard<std::mutex> lk(detector_mu_);
    for (SiteId j = 0; j < state_->num_sites(); ++j) {
      if (!detector_.Tracks(j)) detector_.Baseline(j, now_ms);
    }
    transitions = detector_.Tick(now_ms);
  }
  std::vector<SiteId> died;
  for (const HealthTransition& t : transitions) {
    if (t.to != SiteHealth::kDead) continue;
    if (!state_->IsSiteAvailable(t.site)) continue;  // Already failed manually.
    state_->SetSiteAvailable(t.site, false);
    OnSiteFailed(t.site);
    sites_marked_dead_.fetch_add(1, std::memory_order_relaxed);
    died.push_back(t.site);
  }
  return died;
}

SiteId ControlPlane::SelectRepairDestination(BlockId block) const {
  // The least-loaded available site holding no chunk of this block — the
  // data-movement strategy's load awareness (Section V-C).
  std::shared_lock lk(load_mu_);
  SiteId best = kInvalidSite;
  double best_load = 0;
  for (SiteId j = 0; j < state_->num_sites(); ++j) {
    if (!state_->IsSiteAvailable(j)) continue;
    if (state_->HasChunkAt(block, j)) continue;
    if (best == kInvalidSite || load_tracker_.Omega(j) < best_load) {
      best = j;
      best_load = load_tracker_.Omega(j);
    }
  }
  return best;
}

SiteId ControlPlane::SelectRepairDestination(BlockId block,
                                             ChunkIndex lost_chunk) const {
  const std::size_t domains = config_->failure_domains;
  BlockInfo info;
  if (domains == 0 || !state_->ReadBlock(block, &info) ||
      !SpecHasPlacementGroups(info.codec)) {
    return SelectRepairDestination(block);
  }
  const auto group = PlacementGroupOf(info.codec, lost_chunk);
  if (!group) return SelectRepairDestination(block);

  // Domains already occupied by the lost chunk's group-mates.
  std::vector<bool> taken(domains, false);
  for (const ChunkLocation& loc : info.locations) {
    if (loc.chunk == lost_chunk) continue;
    if (PlacementGroupOf(info.codec, loc.chunk) == group) {
      taken[loc.site % domains] = true;
    }
  }

  std::shared_lock lk(load_mu_);
  SiteId best = kInvalidSite, best_any = kInvalidSite;
  double best_load = 0, best_any_load = 0;
  for (SiteId j = 0; j < state_->num_sites(); ++j) {
    if (!state_->IsSiteAvailable(j)) continue;
    if (state_->HasChunkAt(block, j)) continue;
    const double load = load_tracker_.Omega(j);
    if (best_any == kInvalidSite || load < best_any_load) {
      best_any = j;
      best_any_load = load;
    }
    if (taken[j % domains]) continue;
    if (best == kInvalidSite || load < best_load) {
      best = j;
      best_load = load;
    }
  }
  // Unsatisfiable constraint: availability beats the locality guarantee.
  return best != kInvalidSite ? best : best_any;
}

void ControlPlane::RecordRepair(BlockId block) {
  // The reconstructed chunk lives at a new site; plans for the block are
  // stale (they either reference the dead site or miss the cheaper new
  // location).
  InvalidateBlock(block);
  chunks_repaired_.fetch_add(1, std::memory_order_relaxed);
}

ControlPlane::PlanCacheTotals ControlPlane::CacheTotals() const {
  PlanCacheTotals t;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    t.hits += sh->plan_cache.hits();
    t.misses += sh->plan_cache.misses();
    t.entries += sh->plan_cache.size();
  }
  return t;
}

bool ControlPlane::ilp_worker_busy() const {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    if (sh->ilp_worker_busy) return true;
  }
  return false;
}

ControlPlaneUsage ControlPlane::Usage() const {
  ControlPlaneUsage u;
  // Memory gauges: lock each shard briefly in turn — a per-shard
  // snapshot, not one frozen instant (see ControlPlaneUsage).
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lk(sh->mu);
    u.stats_memory_bytes += sh->co_access.ApproxMemoryBytes();
    u.optimizer_memory_bytes += sh->plan_cache.ApproxMemoryBytes();
  }
  // The mover's working set: candidate demand vectors + partner lists; a
  // small multiple of the per-evaluation state.
  u.mover_memory_bytes =
      config_->mover.max_evaluations *
      (sizeof(BlockDemand) + 8 * sizeof(ChunkLocation) + sizeof(MovementPlan));
  u.stats_network_bytes = stats_network_bytes_.load(std::memory_order_relaxed);
  u.mover_network_bytes = mover_network_bytes_.load(std::memory_order_relaxed);
  u.ilp_solves = ilp_solves_.load(std::memory_order_relaxed);
  u.moves_executed = moves_executed_.load(std::memory_order_relaxed);
  u.chunks_repaired = chunks_repaired_.load(std::memory_order_relaxed);
  u.sites_marked_dead = sites_marked_dead_.load(std::memory_order_relaxed);
  u.repair_bytes_read = repair_bytes_read_.load(std::memory_order_relaxed);
  u.repair_chunks_read = repair_chunks_read_.load(std::memory_order_relaxed);
  if (cache_) {
    const BlockCacheStats cs = cache_->Stats();
    u.cache_hits = cs.hits;
    u.cache_misses = cs.misses;
    u.cache_evictions = cs.evictions;
    u.cache_invalidations = cs.invalidations;
    u.prefetch_issued = cs.prefetch_issued;
    u.prefetch_hits = cs.prefetch_hits;
    u.cache_bytes = cs.bytes;
  }
  if (promoter_) {
    const PromoterStats ps = promoter_->Stats();
    u.blocks_promoted = ps.blocks_promoted;
    u.blocks_demoted = ps.blocks_demoted;
    u.replica_extra_bytes = ps.replica_extra_bytes;
  }
  if (overload_) {
    const OverloadCounters oc = overload_->Counters();
    u.requests_shed = oc.requests_shed;
    u.deadline_exceeded = oc.deadline_exceeded;
    u.breaker_opens = oc.breaker_opens;
    u.breaker_half_open_probes = oc.breaker_half_open_probes;
    u.brownout_level = oc.brownout_level;
    u.expired_jobs_cancelled = oc.expired_jobs_cancelled;
  }
  return u;
}

}  // namespace ecstore
