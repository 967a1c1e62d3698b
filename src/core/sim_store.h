// SimECStore: the complete EC-Store system (Fig. 3's control and data
// planes) running against the discrete-event cluster simulator.
//
// The data plane is a set of SimSite FIFO servers; the control plane is
// the shared ControlPlane component (statistics service, chunk read
// optimizer with plan cache + background ILP worker, chunk mover and
// repair policy) plus the metadata service (ClusterState + modeled
// lookup latency); each read's decisions come from the shared ReadRequest
// core. This embodiment contributes only the timing model: message
// latencies, site queueing, and the event-queue executor that runs
// deferred ILP solves after the modeled solve latency. All six of
// the paper's techniques (R, EC, EC+LB, EC+C, EC+C+M, EC+C+M+LB) are
// configurations of this one system, exactly as in Section VI-A.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cluster/state.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/control_plane.h"
#include "core/read_request.h"
#include "fault/injector.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/site.h"

namespace ecstore {

// --- The simulator's fixed cost model, in simulated microseconds.
/// o_j probe period (Section V-B3).
inline constexpr SimTime kProbeInterval = 1 * kSecond;
/// Access planning by source: plan-cache lookup, greedy fallback, random
/// baseline (the paper measures sub-millisecond planning, Section V-B1).
inline constexpr SimTime kPlanLookupCost = 60;   // 0.06 ms
inline constexpr SimTime kGreedyPlanCost = 250;  // 0.25 ms
inline constexpr SimTime kRandomPlanCost = 120;  // 0.12 ms
/// Background ILP solve ("order of tens of milliseconds", Section V-B1).
inline constexpr SimTime kIlpSolveLatency = 20 * kMillisecond;
/// Metadata service work behind the control-plane round trip: per
/// request, plus a lookup per requested block.
inline constexpr SimTime kMetadataBaseLatency = 300;  // 0.3 ms
inline constexpr SimTime kMetadataPerBlock = 25;
/// Cache hit: client memory read + coherence version check, no site I/O
/// and no decode (DESIGN.md §12).
inline constexpr SimTime kCacheHitCost = 20;  // 0.02 ms
/// Delay until a prefetch fill lands in the cache.
inline constexpr SimTime kPrefetchFillLatency = 5 * kMillisecond;
/// An admission-control shed (DESIGN.md §14): a fast-fail two orders of
/// magnitude under a served request.
inline constexpr SimTime kShedPenalty = 50;  // 0.05 ms

/// Per-request latency breakdown in simulated microseconds — the four
/// categories of Fig. 1 / Fig. 4b.
struct RequestBreakdown {
  SimTime metadata = 0;
  SimTime planning = 0;
  SimTime retrieval = 0;
  SimTime decode = 0;
  SimTime total = 0;
  bool ok = true;            // false when a block was unreadable
  bool plan_cache_hit = false;
  std::uint32_t sites_accessed = 0;  // distinct sites in the access plan
  /// Blocks of the request served from the decoded-block cache
  /// (DESIGN.md §12). A fully cached request skips the metadata trip,
  /// planning, fan-out, and decode entirely.
  std::uint32_t cached_blocks = 0;
  /// Rejected by admission control (DESIGN.md §14): a cheap, deliberate
  /// fast-fail, not data loss. `ok` is false; total is the modeled shed
  /// penalty. Drivers count sheds apart from failures.
  bool shed = false;
  /// The request's end-to-end deadline expired before its blocks were
  /// assembled; `ok` is false and total ≈ the deadline.
  bool deadline_hit = false;
};

/// The simulated EC-Store deployment.
class SimECStore {
 public:
  using GetCallback = std::function<void(const RequestBreakdown&)>;

  explicit SimECStore(ECStoreConfig config);
  ~SimECStore();

  SimECStore(const SimECStore&) = delete;
  SimECStore& operator=(const SimECStore&) = delete;

  sim::EventQueue& queue() { return queue_; }
  const ECStoreConfig& config() const { return config_; }
  ClusterState& state() { return state_; }
  const ClusterState& state() const { return state_; }

  /// The shared planning/stats/mover/repair path (exposed for the repair
  /// service, parity tests, and benches).
  ControlPlane& control_plane() { return control_plane_; }
  const ControlPlane& control_plane() const { return control_plane_; }

  /// Bulk-loads a block with random chunk placement (the paper's load
  /// phase). Costs no simulated time.
  void LoadBlock(BlockId id, std::uint64_t block_bytes);

  /// Bulk-loads a block at explicit sites (chunk i at sites[i]): used to
  /// reproduce one embodiment's placement in the other for parity tests.
  void LoadBlockAt(BlockId id, std::uint64_t block_bytes,
                   std::span<const SiteId> sites);

  /// Loads `count` blocks with ids [first, first + count).
  void LoadBlocks(BlockId first, std::uint64_t count, std::uint64_t block_bytes);

  /// Starts the periodic control-plane services (stats reports, probes,
  /// chunk mover). Call once, before running the event queue.
  void Start();

  /// Asynchronous multiget: reconstructs every block and reports the
  /// latency breakdown. Drives the full R1-R3 path of Fig. 3.
  void Get(std::vector<BlockId> blocks, GetCallback done);

  /// Outcome of a write (the W1-W3 path of Fig. 3).
  struct PutResult {
    SimTime total = 0;
    bool ok = true;
  };
  using PutCallback = std::function<void(const PutResult&)>;

  /// Asynchronous put: W1 decide placement (load-aware under the cost
  /// model, random otherwise), W2 encode + write all k+r chunks, W3
  /// commit metadata. Completion requires every chunk durable.
  void Put(BlockId id, std::uint64_t block_bytes, PutCallback done);

  /// Asynchronous delete: removes the metadata entry immediately (no
  /// future plan can reach the chunks) and lazily discards chunk data.
  void Delete(BlockId id, PutCallback done);

  /// W1's placement decision, exposed for tests: one distinct available
  /// site per chunk of the configured codec — the least-loaded ones under
  /// the cost model, random for the baseline techniques.
  std::vector<SiteId> ChooseWriteSites();

  /// Fails/recovers a site (Section VI-C4). Failed sites finish queued
  /// work but receive no new requests. FailSite is the *manual* path: it
  /// updates belief (cluster state) and ground truth together.
  void FailSite(SiteId site);
  void RecoverSite(SiteId site);

  /// Silent crash/heal (DESIGN.md §9): flips only the simulated site's
  /// ground truth. The cluster state still believes the site is up until
  /// the failure detector notices the missed stats windows — requests
  /// routed there meanwhile bounce and re-plan, exactly as against a real
  /// unannounced crash.
  void CrashSite(SiteId site);
  void HealSite(SiteId site);

  /// Slow-site fault: service times at `site` multiplied by `factor`.
  void SetSiteDegrade(SiteId site, double factor);

  /// Injection hooks for fault/injector.h: crash/heal/degrade are wired
  /// (the DES has no real bytes, so fetch-error and corruption hooks are
  /// left empty). Schedule the expanded actions on queue() at
  /// FromMillis(action.at_ms).
  FaultActions MakeFaultActions();

  // --- Introspection for benches and tests (forwarded to the shared
  // control plane).
  const PlanCache& plan_cache() const { return control_plane_.plan_cache(); }
  const CoAccessTracker& co_access() const { return control_plane_.co_access(); }
  const LoadTracker& load_tracker() const { return control_plane_.load_tracker(); }
  std::uint64_t requests_completed() const { return requests_completed_; }

  /// The embodiment's seeded RNG stream. Exposed so parity tests can
  /// align both embodiments' planning draws from a known state.
  Rng& rng() { return rng_; }

  /// Cumulative bytes served by reads, per site (Fig. 4d).
  std::vector<std::uint64_t> SiteBytesRead() const;

  /// The paper's I/O imbalance metric (Table II):
  /// lambda = (Lmax - Lavg) / Lavg * 100 over per-site bytes read since
  /// the `baseline` snapshot. Only available sites participate.
  double ImbalanceLambda(const std::vector<std::uint64_t>& baseline) const;

  /// The control plane's latency tier and overload subsystem (DESIGN.md
  /// §12, §14; the cache holds metadata-only entries in this embodiment).
  /// Each is null when its feature is off.
  BlockCache* block_cache() const { return control_plane_.block_cache(); }
  ReplicaPromoter* promoter() const { return control_plane_.promoter(); }
  OverloadControl* overload() const { return control_plane_.overload(); }

  /// Control-plane usage plus this embodiment's robustness counter
  /// (failure-triggered replans and hedge fetches surface as
  /// retried_fetches).
  ControlPlaneUsage Usage() const {
    ControlPlaneUsage u = control_plane_.Usage();
    u.retried_fetches = retried_fetches_;
    return u;
  }

  /// Current cost parameters (o_j from probes, m_j from media model).
  CostParams CurrentCostParams() const {
    return control_plane_.CurrentCostParams();
  }

  /// Estimated request arrival rate (requests/second), as the statistics
  /// service sees it.
  double RequestRate() const { return request_rate_per_sec_; }

 private:
  struct PendingRequest;

  // The read transport around the shared ReadRequest core: DES timing,
  // per-site batched RPCs, generation poisoning and the deadline timer.
  void PlanPhase(std::shared_ptr<PendingRequest> req);
  void IssueReads(const std::shared_ptr<PendingRequest>& req);
  /// Sends `fetches` as one batched RPC per site; returns the site count.
  std::uint32_t Dispatch(const std::shared_ptr<PendingRequest>& req,
                         std::span<const ChunkFetch> fetches);
  void OnBatchArrived(const std::shared_ptr<PendingRequest>& req,
                      std::uint32_t generation,
                      std::span<const std::pair<std::size_t, ChunkIndex>> items);
  void RetryAfterFailure(const std::shared_ptr<PendingRequest>& req,
                         std::uint32_t generation);
  void FinishRetrieval(const std::shared_ptr<PendingRequest>& req);
  void Complete(const std::shared_ptr<PendingRequest>& req, bool ok);
  /// Releases the admission token and answers the client.
  void Respond(PendingRequest& req, const RequestBreakdown& out);

  void StatsTick();
  void ProbeTick();
  void MoverTick();
  SimTime MoverPeriod() const;
  /// The promotion round's layout rewrite (ControlPlane::LayoutRewrite):
  /// a catalog swap to `spec` at `sites` plus site chunk-count updates.
  bool RewriteBlock(BlockId id, const BlockInfo& info, const CodecSpec& spec,
                    std::span<const SiteId> sites);

  ECStoreConfig config_;
  sim::EventQueue queue_;
  Rng rng_;
  std::vector<std::unique_ptr<sim::SimSite>> sites_;
  sim::Network net_;
  ClusterState state_;
  ControlPlane control_plane_;

  bool started_ = false;
  bool mover_busy_ = false;

  std::uint64_t requests_completed_ = 0;
  std::uint64_t completed_at_last_stats_tick_ = 0;
  double request_rate_per_sec_ = 0;
  std::uint64_t retried_fetches_ = 0;  // replans + hedge fetches
};

}  // namespace ecstore
