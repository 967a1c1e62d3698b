// ControlPlane: the embodiment-agnostic control plane of EC-Store
// (Fig. 3's statistics service + chunk placement service + the policy
// half of the repair service), plus the latency tier and overload
// control that sit in front of it.
//
// Both embodiments — the discrete-event SimECStore and the real-bytes
// LocalECStore — drive this one component for every policy decision:
// cost-parameter snapshots (o_j/m_j), access-plan selection (plan-cache
// lookup with superset satisfaction -> validation -> greedy fallback ->
// deduplicated/bounded/recurrence-gated background ILP refinement),
// plan invalidation (chunk move, block delete, site failure, o_j drift),
// write-site placement, mover-context assembly for Algorithm 1, repair
// destinations, and the Table III resource accounting. Only *when*
// deferred work runs differs per embodiment, expressed through the
// executor seam below: the DES schedules the ILP solve on its event
// queue after the modeled solve latency; LocalECStore queues it and
// drains synchronously off the request path (or on a small executor
// pool when ilp_executor_threads > 0).
//
// The plane also builds and owns the BlockCache, ReplicaPromoter and
// OverloadControl (DESIGN.md §12, §14) — each null when its feature is
// off — and holds their policy: the promotion round (demote, then
// promote, under the budget and size gate), breaker and brownout
// evaluation, and their Usage() counters. Each read's lifecycle — its
// admission, cache split, prefetch claims, plan snapshot, completion and
// cache fill — is the ReadRequest core's (core/read_request.h), created
// through BeginRead. The embodiments keep only the mechanism: the read
// transport, scheduling a prefetch fill, and rewriting a block's layout
// (a catalog swap in the DES, real bytes in LocalECStore).
//
// --- Sharding (DESIGN.md §10) ----------------------------------------
// The block-keyed mutable structures — co-access window, plan cache,
// deferred-ILP queue — are partitioned into `control_plane_shards`
// independently locked shards (hash of block id -> shard), so concurrent
// MultiGet planners only contend when their blocks share a shard. The
// remaining state is split by role:
//   - load_mu_ (shared_mutex): load tracker + epoch overhead snapshot;
//     planners take it shared for cost snapshots, report ingestion takes
//     it exclusive.
//   - rng_mu_: the embodiment's single RNG stream. Each planning
//     decision's draws happen atomically under it.
//   - detector_mu_: the failure detector.
//   - counters: std::atomic, lock-free.
// Lock order (outer -> inner): rng_mu_ -> { load_mu_, shard.mu };
// shard.mu -> executor queue (the seam may enqueue under a shard lock —
// executors must not re-enter the control plane inline, see below).
// No path ever holds two shard locks at once: cross-shard operations
// (drift reload, site failure, Usage()) iterate shards ascending,
// locking one at a time. detector_mu_ is never held across other locks.
//
// A plan-cache entry lives in the shard of the MINIMUM block id of its
// canonical key, so lookups and inserts for the same request key always
// land on the same shard. With shards > 1 a block can appear in entries
// owned by other shards (via co-accessed partners); those entries are
// not eagerly invalidated cross-shard — they die lazily when
// ValidatePlan rejects them against the live cluster state. With
// shards = 1 (the default, and the simulator's required setting) every
// structure degenerates to the original single instance and the paper's
// exact semantics — including cross-key superset reuse — are preserved
// bit-for-bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <span>
#include <vector>

#include "cache/block_cache.h"
#include "cache/promoter.h"
#include "cluster/state.h"
#include "common/rng.h"
#include "core/config.h"
#include "erasure/codec_family.h"
#include "fault/detector.h"
#include "placement/mover.h"
#include "placement/plan_cache.h"
#include "placement/planner.h"
#include "stats/co_access.h"
#include "stats/load_tracker.h"

namespace ecstore {

class AdmissionTicket;
class ReadRequest;

/// Control-plane resource usage counters (Table III), extended with the
/// robustness counters of DESIGN.md §9. The control plane fills what it
/// owns (repair/detector, cache, promoter, overload); embodiments overlay
/// only their data-plane counters (degraded reads, retries, cancellations,
/// checksums, scrub, queue-expired jobs) in their own Usage() accessors.
///
/// Consistency under concurrency (DESIGN.md §10): the event counters
/// (stats/mover network bytes, ilp_solves, moves_executed,
/// chunks_repaired, sites_marked_dead) are MONOTONIC atomics — each read
/// is exact-at-some-instant and never decreases. The memory gauges
/// (stats/optimizer/mover memory) are aggregated by locking each shard
/// briefly in turn, so the total is a per-shard-consistent SNAPSHOT, not
/// a single cross-shard instant: concurrent inserts/evictions may land
/// between shard visits. No reader should assume the gauges and counters
/// describe the same moment.
struct ControlPlaneUsage {
  std::size_t stats_memory_bytes = 0;
  std::size_t optimizer_memory_bytes = 0;
  std::size_t mover_memory_bytes = 0;
  std::uint64_t stats_network_bytes = 0;    // reports + probes
  std::uint64_t mover_network_bytes = 0;    // chunk copies
  std::uint64_t ilp_solves = 0;
  std::uint64_t moves_executed = 0;

  // --- Robustness counters (DESIGN.md §9).
  std::uint64_t degraded_reads = 0;       // blocks topped up off-plan
  std::uint64_t retried_fetches = 0;      // re-issued fetches / replans
  std::uint64_t cancelled_fetch_jobs = 0; // late-binding stragglers dropped
  std::uint64_t checksum_failures = 0;    // CRC mismatches caught on reads
  std::uint64_t chunks_scrubbed = 0;      // bad/missing chunks rewritten
  std::uint64_t chunks_repaired = 0;      // chunks rebuilt by repair
  std::uint64_t sites_marked_dead = 0;    // detector-driven dead verdicts

  // --- Repair-traffic accounting (DESIGN.md §11). Bytes/chunks the
  // reconstruction paths (repair, scrub, store-level rebuilds) read
  // according to their RepairPlan — the bytes-on-wire a networked
  // deployment would move, which is where LRC and piggyback families
  // beat RS. Monotonic atomics like the other event counters.
  std::uint64_t repair_bytes_read = 0;
  std::uint64_t repair_chunks_read = 0;

  // --- Cache + hybrid-redundancy counters (DESIGN.md §12), from the
  // control plane's BlockCache / ReplicaPromoter; zero when both tiers
  // are disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t cache_bytes = 0;          // resident decoded bytes (gauge)
  std::uint64_t blocks_promoted = 0;
  std::uint64_t blocks_demoted = 0;
  std::uint64_t replica_extra_bytes = 0;  // current extra storage (gauge)

  // --- Overload-control counters (DESIGN.md §14), from the control
  // plane's OverloadControl; zero when the subsystem is off. All
  // monotonic except brownout_level, a gauge holding the current
  // shed-ladder level (0 = normal .. 4 = fully browned out).
  // LocalECStore adds its data plane's queue expirations to
  // expired_jobs_cancelled.
  std::uint64_t requests_shed = 0;            // admission fast-fails
  std::uint64_t deadline_exceeded = 0;        // requests past their budget
  std::uint64_t breaker_opens = 0;            // closed->open transitions
  std::uint64_t breaker_half_open_probes = 0; // probe requests granted
  std::uint64_t brownout_level = 0;           // current ladder level (gauge)
  std::uint64_t expired_jobs_cancelled = 0;   // queue jobs expired pre-service
};

/// How an access plan was produced (the R2 decision of Fig. 3).
enum class PlanSource {
  kCacheHit,  // validated cached ILP solution (or superset restriction)
  kGreedy,    // cache miss: greedy fallback, ILP queued in background
  kRandom,    // cost model disabled (R / EC / EC+LB techniques)
};

/// The outcome of one plan selection.
struct PlanDecision {
  AccessPlan plan;
  PlanSource source = PlanSource::kRandom;

  bool cache_hit() const { return source == PlanSource::kCacheHit; }
};

/// The shared planning/stats/mover/repair path. Owns the statistics
/// trackers, the plan cache, and the tier and overload subsystems;
/// borrows the cluster state, config, and RNG stream from the embodiment
/// (so a DES run remains bit-reproducible against the embodiment's
/// single seeded stream).
///
/// Internally synchronized (see the sharding note above): MultiGet-path
/// calls (RecordRequest, SelectAccessPlan, cost snapshots) may run
/// concurrently from many client threads and only contend per shard.
/// The reference accessors co_access() / load_tracker() / plan_cache()
/// bypass that synchronization — they
/// are for single-threaded diagnostics (the DES, tests, CLI dumps), not
/// for use concurrent with live traffic.
///
/// The executor seam may be invoked while a shard lock is held, so
/// executors must not re-enter the control plane inline — they queue the
/// unit and run it later (both embodiments do).
class ControlPlane {
 public:
  using Deferred = std::function<void()>;
  /// Executor seam: receives the next unit of deferred background work
  /// (one ILP solve + worker continuation). SimECStore schedules it on
  /// the DES event queue after the modeled solve latency; LocalECStore
  /// appends it to a queue drained off the request path.
  using Executor = std::function<void(Deferred)>;
  /// Test/diagnostics hook: observes every SelectAccessPlan decision.
  /// Invoked outside all control-plane locks; must be set before
  /// concurrent traffic starts and be thread-safe itself if the
  /// embodiment is concurrent.
  using PlanObserver =
      std::function<void(std::span<const BlockId>, const PlanDecision&)>;
  /// The embodiment's layout rewrite (promotion/demotion mechanism):
  /// re-store block `id` (currently `info`) under `spec` with chunk i at
  /// `sites[i]` — sites disjoint from the current layout — and swap the
  /// catalog entry. Returns false when the block cannot be rewritten right
  /// now (the round retries it later). The control plane invalidates the
  /// block's plans and cached bytes after a successful rewrite.
  using LayoutRewrite =
      std::function<bool(BlockId id, const BlockInfo& info,
                         const CodecSpec& spec, std::span<const SiteId> sites)>;
  /// A decoded block as the cache holds it: real bytes in LocalECStore,
  /// null in the metadata-only simulator.
  using CachedBytes = std::shared_ptr<const std::vector<std::uint8_t>>;

  ControlPlane(const ECStoreConfig* config, ClusterState* state, Rng* rng,
               Executor defer_solve, LoadTrackerParams load_params = {});

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // --- Sharding --------------------------------------------------------
  std::size_t num_shards() const { return shards_.size(); }

  /// Owning shard of a block id (and of every plan-cache key whose
  /// minimum block id it is).
  std::size_t ShardOf(BlockId id) const {
    // Fibonacci multiplicative mix so sequential ids spread evenly.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> 40) %
           shards_.size();
  }

  // --- Statistics service (Section V-A) -------------------------------
  /// Shard-0 trackers, for single-threaded diagnostics and the shards=1
  /// embodiments (see the class comment for the thread-safety caveat).
  CoAccessTracker& co_access() { return shards_[0]->co_access; }
  const CoAccessTracker& co_access() const { return shards_[0]->co_access; }
  LoadTracker& load_tracker() { return load_tracker_; }
  const LoadTracker& load_tracker() const { return load_tracker_; }

  /// Windowed sampled-request count summed over shards. With shards > 1
  /// a request spanning shards is counted once per touched shard, so
  /// this slightly overestimates the true request count — fine for the
  /// mover's request-rate estimate; exact at shards = 1.
  std::size_t TotalRequestsInWindow() const;

  /// Samples one multiget into the co-access window: the full block list
  /// is recorded into every shard owning at least one of the blocks, so
  /// each block's owning shard sees every request (and thus every
  /// co-access pair) involving it.
  void RecordRequest(std::span<const BlockId> blocks);

  /// Ingests one periodic load report; `msg_bytes` is charged to the
  /// stats-network Table III counter (0 for in-process embodiments).
  void RecordLoadReport(SiteId site, double cpu_utilization,
                        double io_bytes_per_sec, std::uint64_t chunk_count,
                        std::size_t msg_bytes);

  /// Ingests one o_j probe round trip.
  void RecordProbe(SiteId site, double rtt_ms, std::size_t msg_bytes);

  /// Ingests one completed fetch's service time into the tail model
  /// (DESIGN.md §13): per-site latency histograms behind load_mu_.
  void RecordServiceTime(SiteId site, double service_ms);

  /// Batch form: one exclusive load_mu_ acquisition for a whole drained
  /// sample buffer (LocalECStore's load refresh drains the data plane's
  /// per-site buffers here, off the per-fetch hot path).
  void RecordServiceSamples(SiteId site, std::span<const double> service_ms);

  /// Charges stats-service message bytes (Table III) without touching the
  /// load estimates — for probes whose RTT is reported later.
  void ChargeStatsNetwork(std::size_t msg_bytes) {
    stats_network_bytes_.fetch_add(msg_bytes, std::memory_order_relaxed);
  }

  /// Reloads (drops) every cached plan when the largest per-site o_j
  /// drift since the last epoch exceeds the configured threshold
  /// (Section V-B1 "dynamically reload solutions"). Call after each
  /// batch of load reports. Bumps shard epochs one at a time.
  void ReloadPlansOnDrift();

  /// Current cost parameters (o_j from the load tracker, m_j from the
  /// media model).
  CostParams CurrentCostParams() const;

  // --- Chunk read optimizer (Section V-B1) ----------------------------
  /// Selects the access plan for a multiget: cached plan (validated
  /// against the live state) when the cost model is on, greedy fallback
  /// on a miss (queuing a deduplicated background ILP refinement), or
  /// the random baseline plan otherwise. Never solves an ILP inline.
  /// Takes only the owning shard's lock (plus rng/load for the fallback).
  /// `delta` is the late-binding δ the demands were built with — the
  /// plan-cache key component, and the δ the background refinement will
  /// re-solve at. Callers pass AdaptiveDelta() (== EffectiveDelta() when
  /// adaptive late binding is off).
  PlanDecision SelectAccessPlan(std::span<const BlockId> blocks,
                                std::span<const BlockDemand> demands,
                                std::uint32_t delta);

  /// The late-binding δ for the next request (DESIGN.md §13). With
  /// `adaptive_delta` off this is exactly EffectiveDelta(). On, and for
  /// an LB technique, it is the smallest d such that
  /// P[Binomial(k + d, p) > d] <= adaptive_delta_epsilon, where p is the
  /// tracker's cluster straggler fraction — 0 on a quiet cluster, rising
  /// toward min(adaptive_delta_max, r) under variance. Draws no RNG.
  std::uint32_t AdaptiveDelta() const;

  /// Per-request form (DESIGN.md §13 leftover closed in §14's PR): p is
  /// the mean straggler fraction over the *available candidate sites of
  /// the requested blocks* — the sites the plan must actually touch —
  /// instead of the cluster mean, which underreacts when variance is
  /// concentrated on one planned site. Falls back to the cluster form
  /// when the blocks resolve to no sites. Draws no RNG. At brownout
  /// level >= 4 the ladder forces δ = 0 (both forms).
  std::uint32_t AdaptiveDelta(std::span<const BlockId> blocks) const;

  /// True when every read in the plan targets an available site that
  /// still holds the chunk.
  bool ValidatePlan(const AccessPlan& plan) const;

  /// Shard-0 plan cache (diagnostics / shards=1 compatibility).
  const PlanCache& plan_cache() const { return shards_[0]->plan_cache; }
  PlanCache& plan_cache() { return shards_[0]->plan_cache; }

  /// Plan cache of one shard (diagnostics; see class comment).
  const PlanCache& plan_cache(std::size_t shard) const {
    return shards_[shard]->plan_cache;
  }

  /// Aggregated hits/misses/entries over all shard caches.
  struct PlanCacheTotals {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
  };
  PlanCacheTotals CacheTotals() const;

  void set_plan_observer(PlanObserver observer) {
    plan_observer_ = std::move(observer);
  }

  // --- Read requests (DESIGN.md §5; core/read_request.h) --------------
  /// Starts one read of `ids` at `now_ms`: takes its admission token and,
  /// when shed at brownout L3, its cache-only answer.
  ReadRequest BeginRead(std::span<const BlockId> ids, double now_ms);

  const ECStoreConfig& config() const { return *config_; }

  /// A token from the admission gate for any client request (reads via
  /// BeginRead, writes directly). Not shed when the gate is off.
  AdmissionTicket Admit(double now_ms);

  /// The memoized codec family of `spec`; the config default skips the
  /// registry's lock.
  std::shared_ptr<const CodecFamily> FamilyFor(const CodecSpec& spec) const {
    return spec == default_spec_ ? default_family_ : GetCodecFamily(spec);
  }

  // --- Overload control (DESIGN.md §14) -----------------------------
  /// Null when config.overload.Enabled() is false — then no admission
  /// gate, deadline, breaker, or brownout logic runs anywhere. When on,
  /// planning treats open-breaker sites as soft failures (dropping their
  /// candidates while alternatives remain, letting bounded half-open
  /// probes through), and the brownout ladder turns off prefetch at
  /// level >= 1, pauses background ILP, movement and promotion at
  /// level >= 2, answers refused reads from the cache at level >= 3
  /// (ReadRequest) and forces δ = 0 at level >= 4.
  OverloadControl* overload() const { return overload_.get(); }

  /// The periodic breaker and brownout evaluation: feeds every site's
  /// merged-window p99 to its breaker, then steps the brownout ladder on
  /// the admission controller's pressure. Embodiments call it from their
  /// stats refresh (the DES stats tick, LocalECStore's load refresh).
  /// No-op with the subsystem off.
  void EvaluateOverload(double now_ms);

  // --- Latency tier (DESIGN.md §12) ----------------------------------
  /// The decoded-block cache; null when config.cache_capacity_bytes == 0.
  BlockCache* block_cache() const { return cache_.get(); }
  /// The hybrid-redundancy promoter; null when
  /// config.promotion.budget_bytes == 0.
  ReplicaPromoter* promoter() const { return promoter_.get(); }

  /// Ends a prefetch claimed by ReadRequest::RecordAndSplit: admits the
  /// fill when `filled` (the catalog entry the fill read; null when the
  /// block is gone or unreadable) is still current, then releases the
  /// claim.
  void FinishPrefetch(BlockId id, const BlockInfo* filled, CachedBytes data);

  /// One hybrid-redundancy round, run by the movement round: demotes
  /// cooled promoted blocks back to their original spec, then promotes
  /// the hottest EC blocks to replicas within the budget and size gate,
  /// at most four per round. New layouts land on SelectWriteSites(spec,
  /// current sites); `rewrite` executes each one.
  /// No-op without the promoter or at brownout >= L2.
  void RunPromotionRound(const LayoutRewrite& rewrite);

  /// One site's tail-model latency quantile / sample count, read under
  /// the shared load lock (safe concurrent with live traffic — unlike
  /// the raw load_tracker() accessor).
  double SiteLatencyQuantileMs(SiteId site, double q) const;
  std::uint64_t SiteLatencySamples(SiteId site) const;

  // --- Stats queries for the cache/prefetch/promotion tier (§12) ------
  /// Co-access partners of `b` (λ descending) from its owning shard —
  /// the prefetch candidate list. Thread-safe (locks the shard).
  std::vector<CoAccessPartner> CoAccessPartnersOf(BlockId b,
                                                  std::size_t max_partners) const;

  /// Windowed access frequency of `b` from its owning shard — the cache's
  /// admission/eviction weight and the promoter's temperature.
  double BlockAccessFrequency(BlockId b) const;

  /// The `n` most frequently accessed blocks across all shards, hottest
  /// first (ties: ascending block id, deterministic). `lambda` carries
  /// the windowed access frequency. Locks one shard at a time.
  std::vector<CoAccessPartner> HottestBlocks(std::size_t n) const;

  // --- Chunk placement: writes (W1 of Fig. 3) -------------------------
  /// Distinct available sites for a block's SpecTotalChunks(spec)
  /// chunks, none of them in `avoid`; site i receives chunk index i.
  /// Preference order is least-loaded under the cost model, random
  /// otherwise. When `failure_domains` > 0 and the family has placement
  /// groups (LRC local groups, piggyback groups), chunks sharing a group
  /// land on distinct failure domains (site % failure_domains) so one
  /// domain failure never costs a group its cheap repair plan. Empty when
  /// too few sites remain.
  ///
  /// Layout rewrites (promote/demote, DESIGN.md §12) pass the block's
  /// current sites as `avoid`, so the old chunks stay fetchable until the
  /// catalog swap commits and retiring them can never delete new data.
  /// The avoided sites are dropped before the draws, so every caller makes
  /// the same RNG draws as a plain Put.
  std::vector<SiteId> SelectWriteSites(const CodecSpec& spec,
                                       std::span<const SiteId> avoid = {});

  // --- Plan invalidation ----------------------------------------------
  /// A chunk of `block` moved, or the block was deleted: its plans die.
  /// Touches only the block's owning shard; entries referencing the
  /// block from other shards are rejected lazily by ValidatePlan.
  void InvalidateBlock(BlockId block);

  /// A site failed: any cached plan may reference it. Bumps every
  /// shard's epoch, one shard lock at a time.
  void OnSiteFailed(SiteId site);

  // --- Chunk mover (Algorithm 1, Section V-B2) ------------------------
  /// Assembles the mover context from the live statistics and runs
  /// Algorithm 1. The embodiment executes the returned copy and commits
  /// via RecordMoveExecuted. Works from a load-tracker snapshot so the
  /// candidate search never holds load_mu_.
  std::optional<MovementPlan> SelectMovement(double request_rate_per_sec);

  /// A movement committed: invalidate the block's plans and charge the
  /// Table III mover counters.
  void RecordMoveExecuted(BlockId block, std::uint64_t chunk_bytes);

  // --- Failure detection (DESIGN.md §9) -------------------------------
  /// Evidence of life: each periodic stats report / probe / load refresh
  /// an embodiment ingests doubles as a heartbeat. When the heartbeat
  /// revives a site the detector had marked suspect/dead, its
  /// availability is restored in the cluster state (belief, not ground
  /// truth — the embodiment's node simply reported in again).
  void NoteHeartbeat(SiteId site, double now_ms);

  /// Advances the detector to `now_ms`. Sites newly declared dead are
  /// marked unavailable in the cluster state (invalidating their cached
  /// plans) and returned; the repair service's `repair_wait` grace period
  /// takes over from there. Sites already failed manually are skipped.
  std::vector<SiteId> CheckFailures(double now_ms);

  // --- Repair service policy (Section V-C) ----------------------------
  /// Destination for reconstructing a lost chunk of `block`: the
  /// least-loaded available site holding no chunk of the block, or
  /// kInvalidSite when none exists.
  SiteId SelectRepairDestination(BlockId block) const;

  /// Chunk-aware destination: additionally keeps the rebuilt chunk's
  /// placement group off failure domains its group-mates occupy (when
  /// `failure_domains` > 0; falls back to any legal site when the
  /// constraint is unsatisfiable). Equivalent to the block-only overload
  /// for group-free families or domains = 0.
  SiteId SelectRepairDestination(BlockId block, ChunkIndex lost_chunk) const;

  /// A chunk of `block` was reconstructed at a new site.
  void RecordRepair(BlockId block);

  /// Charges a reconstruction's RepairPlan to the repair-traffic
  /// counters: `chunks` source chunks touched, `bytes` bytes-on-wire.
  void RecordRepairTraffic(std::uint64_t chunks, std::uint64_t bytes) {
    repair_chunks_read_.fetch_add(chunks, std::memory_order_relaxed);
    repair_bytes_read_.fetch_add(bytes, std::memory_order_relaxed);
  }

  // --- Table III accounting -------------------------------------------
  /// See ControlPlaneUsage for which fields are monotonic counters and
  /// which are per-shard-snapshot gauges.
  ControlPlaneUsage Usage() const;

  std::uint64_t moves_executed() const {
    return moves_executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_repaired() const {
    return chunks_repaired_.load(std::memory_order_relaxed);
  }
  std::uint64_t sites_marked_dead() const {
    return sites_marked_dead_.load(std::memory_order_relaxed);
  }
  std::uint64_t repair_bytes_read() const {
    return repair_bytes_read_.load(std::memory_order_relaxed);
  }
  std::uint64_t repair_chunks_read() const {
    return repair_chunks_read_.load(std::memory_order_relaxed);
  }
  /// True when any shard's background worker is mid-solve.
  bool ilp_worker_busy() const;

 private:
  /// One control-plane shard: the block-keyed mutable state for the
  /// blocks hashing here, all guarded by one mutex.
  struct Shard {
    explicit Shard(std::size_t co_access_window, std::size_t cache_capacity)
        : co_access(co_access_window), plan_cache(cache_capacity) {}

    mutable std::mutex mu;
    CoAccessTracker co_access;
    PlanCache plan_cache;
    // Per-shard background ILP worker (Section V-B1); misses queue up
    // (deduplicated, bounded) rather than spawning unbounded solver work.
    // Each job carries the δ its request planned with, so the refinement
    // solves and caches at the same fan-out (adaptive δ varies per
    // request; dedup is by block set, newest δ wins).
    struct IlpJob {
      std::vector<BlockId> blocks;
      std::uint32_t delta = 0;
    };
    std::deque<IlpJob> ilp_queue;
    std::set<std::vector<BlockId>> ilp_pending;
    // Query sets that missed once: a set is only worth an ILP solve if
    // it recurs (one-off scans can never hit the cache afterwards).
    std::set<std::vector<BlockId>> missed_once;
    bool ilp_worker_busy = false;
  };

  /// Merged mover view over the per-shard co-access trackers: routes
  /// anchor-keyed queries to the anchor's owning shard (which saw every
  /// request involving the anchor) and merges candidate samples.
  class ShardedCoAccessView : public CoAccessView {
   public:
    explicit ShardedCoAccessView(const ControlPlane* cp) : cp_(cp) {}
    double Lambda(BlockId b, BlockId i) const override;
    std::vector<CoAccessPartner> Partners(BlockId b,
                                          std::size_t max_partners) const override;
    std::vector<BlockId> SampleCandidateBlocks(Rng& rng,
                                               std::size_t count) const override;
    double AccessFrequency(BlockId b) const override;

   private:
    const ControlPlane* cp_;
  };

  void ScheduleBackgroundIlp(std::span<const BlockId> blocks,
                             std::uint32_t delta);
  /// Pops and defers the next queued solve. Caller holds shard.mu.
  void PumpIlpWorkerLocked(std::size_t shard_idx);
  /// Body of one deferred solve (runs via the executor seam, no locks
  /// held on entry).
  void RunDeferredSolve(std::size_t shard_idx, std::vector<BlockId> blocks,
                        std::uint32_t delta);
  /// Cost parameters for one planning decision: CurrentCostParams plus
  /// the per-call anti-herding tie-break perturbation (see
  /// ECStoreConfig::cost_tiebreak_noise). Caller holds rng_mu_.
  CostParams PlanningCostParamsLocked();
  /// Shared tail of both AdaptiveDelta forms: the smallest d with
  /// P[Binomial(k + d, p) > d] <= epsilon, capped. Handles the off/LB
  /// gates; `p` is whichever straggler fraction the caller derived.
  std::uint32_t DeltaForStragglerFraction(double p) const;
  /// Brownout L2+: background work (ILP refinement, movement, promotion)
  /// yields its capacity to admitted client reads.
  bool BackgroundPaused() const {
    return overload_ && overload_->brownout_level() >= 2;
  }
  /// Rewrites `id` from `info` to `spec` on sites disjoint from its
  /// current layout; true when the rewrite committed.
  bool RewriteLayout(BlockId id, const BlockInfo& info, const CodecSpec& spec,
                     const LayoutRewrite& rewrite);
  /// Breaker-aware demand filter (DESIGN.md §14): drops candidates on
  /// sites whose breaker says avoid — but only while a demand keeps at
  /// least `needed` candidates, so a plan never becomes infeasible on
  /// the breaker's account (a tripped site every block needs is still
  /// read: soft failure, not hard). Returns true when anything was
  /// dropped; `filtered` then holds the reduced demands.
  bool FilterDemandsForBreakers(std::span<const BlockDemand> demands,
                                std::vector<BlockDemand>& filtered);
  /// Adds the tail term (DESIGN.md §13) to a per-site overhead vector:
  /// o_j += tail_weight * tail_excess_ms(j). No-op at tail_weight 0 —
  /// values untouched, no extra work, bit-identical planning. `tracker`
  /// is either the live tracker (caller holds load_mu_) or a snapshot.
  void ApplyTailTerm(std::vector<double>& overheads,
                     const LoadTracker& tracker) const;

  const ECStoreConfig* config_;
  ClusterState* state_;
  Rng* rng_;
  Executor defer_solve_;
  const CodecSpec default_spec_;
  const std::shared_ptr<const CodecFamily> default_family_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Load statistics: shared for read-mostly cost snapshots.
  mutable std::shared_mutex load_mu_;
  LoadTracker load_tracker_;
  std::vector<double> overheads_at_epoch_;

  // The embodiment's single seeded RNG stream.
  mutable std::mutex rng_mu_;

  mutable std::mutex detector_mu_;
  FailureDetector detector_;

  PlanObserver plan_observer_;

  // Latency tier and overload control: each null when its feature is off
  // — no extra work, no RNG draws, bit-identical timelines.
  std::unique_ptr<BlockCache> cache_;
  std::unique_ptr<ReplicaPromoter> promoter_;
  std::unique_ptr<OverloadControl> overload_;

  // Resource counters (Table III) — monotonic, lock-free.
  std::atomic<std::uint64_t> stats_network_bytes_{0};
  std::atomic<std::uint64_t> mover_network_bytes_{0};
  std::atomic<std::uint64_t> ilp_solves_{0};
  std::atomic<std::uint64_t> moves_executed_{0};
  std::atomic<std::uint64_t> chunks_repaired_{0};
  std::atomic<std::uint64_t> sites_marked_dead_{0};
  std::atomic<std::uint64_t> repair_bytes_read_{0};
  std::atomic<std::uint64_t> repair_chunks_read_{0};
};

}  // namespace ecstore
