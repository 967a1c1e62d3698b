// LocalECStore: the real-bytes embodiment of EC-Store.
//
// Where SimECStore models timing, LocalECStore moves actual data: blocks
// are Reed–Solomon encoded into real chunks stored on in-process storage
// nodes, reads execute genuine access plans against those nodes, decoding
// runs the GF(2^8) arithmetic, chunk movement copies real bytes, and
// repair reconstructs lost chunks from k survivors. Every policy decision
// comes from the same shared ControlPlane the simulator drives, and every
// read decision from the same ReadRequest core — this class contributes
// only the data plane.
//
// The data plane is concurrent (DESIGN.md §8): FetchChunks fans the
// core's planned fetches out to a per-site worker pool
// (core/data_plane.h), and each block completes on its first decodable
// arrivals — stragglers are cancelled or ignored, which is the paper's
// EC+LB technique running on real bytes. A block still incomplete (a
// deadline expired, or fetches came back as misses — failed nodes,
// corrupt chunks, injected I/O errors) gets one hedge round over its
// untried chunks before the degraded-read path takes over.
//
// Robustness (DESIGN.md §9): every chunk read is CRC32C-verified at the
// node, so corruption surfaces as an erasure and is decoded around; an
// optional maintenance thread (StartMaintenance) drives heartbeats into
// the ControlPlane's failure detector, polls the generalized
// RepairService (rebuilding real bytes through RepairSite's logic), and
// periodically scrubs nodes, rewriting chunks whose bytes no longer match
// their checksum. CrashNode/HealNode and MakeFaultActions expose the
// silent ground-truth fault hooks the fault/ scheduler drives.
//
// Thread-safety (DESIGN.md §10): MultiGet/Put/Remove/FailSite/
// RecoverSite/RepairSite/RunMovementRound may be called from multiple
// threads. The read path — MultiGet planning, demand building, the
// catalog snapshot, the fetch fan-out — takes NO store-wide lock at all:
// the ControlPlane is internally sharded/synchronized and the
// ClusterState is stripe-locked, so concurrent readers only contend on
// the shards their blocks hash to. meta_mu_ remains as the *catalog
// writer lock*: Put/Remove/FailSite/RecoverSite, the mover, repair, and
// the scrubber serialize against each other under it (they compose
// multi-step catalog+node mutations that must not interleave), and the
// degraded-read fallback takes it so its survivor scan sees a consistent
// catalog. Readers racing a writer are safe without it — they plan from
// an atomic snapshot and absorb staleness through the hedge round and
// the degraded path.
// Lock order: meta_mu_ -> refresh_mu_ -> control-plane internal locks ->
// defer_mu_ / pool queue; fetch workers take only per-fetch-context and
// per-node locks.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "cluster/state.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/config.h"
#include "core/control_plane.h"
#include "core/data_plane.h"
#include "core/read_request.h"
#include "core/repair.h"
#include "core/storage_node.h"
#include "erasure/codec_family.h"
#include "fault/injector.h"
#include "placement/mover.h"
#include "stats/co_access.h"
#include "stats/load_tracker.h"

namespace ecstore {

/// Concurrent EC-Store over in-process nodes.
class LocalECStore {
 public:
  explicit LocalECStore(ECStoreConfig config);
  ~LocalECStore();  // Stops the maintenance thread before teardown.

  const ECStoreConfig& config() const { return config_; }
  /// Direct cluster-state access for tests. Not synchronized: use only
  /// while no concurrent store operations are running.
  ClusterState& state() { return state_; }
  const ClusterState& state() const { return state_; }
  StorageNode& node(SiteId site) { return *nodes_[site]; }

  /// The shared planning/stats/mover/repair path (exposed for parity
  /// tests and benches). Internally synchronized; its *reference*
  /// accessors (co_access(), plan_cache(), ...) still must not race
  /// store operations.
  ControlPlane& control_plane() { return control_plane_; }
  const ControlPlane& control_plane() const { return control_plane_; }

  /// The concurrent fetch engine (exposed for tests and benches).
  const DataPlane& data_plane() const { return *data_plane_; }

  /// The repair service polled by the maintenance thread (exposed so
  /// tests can Poll it directly and read chunks_rebuilt()).
  RepairService& repair_service() { return *repair_; }

  /// The control plane's latency tier and overload subsystem (DESIGN.md
  /// §12, §14); each null when its feature is off.
  BlockCache* block_cache() const { return control_plane_.block_cache(); }
  ReplicaPromoter* promoter() const { return control_plane_.promoter(); }
  OverloadControl* overload() const { return control_plane_.overload(); }

  /// Blocks until every in-flight prefetch has completed (tests).
  void WaitForPrefetches();

  // Introspection forwarded to the shared control plane.
  const CoAccessTracker& co_access() const { return control_plane_.co_access(); }
  const LoadTracker& load_tracker() const {
    return control_plane_.load_tracker();
  }
  const PlanCache& plan_cache() const { return control_plane_.plan_cache(); }
  /// Control-plane usage overlaid with this embodiment's data-plane
  /// counters (degraded reads, retried fetches, cancelled fetch jobs,
  /// checksum failures, chunks scrubbed, queue-expired jobs).
  ControlPlaneUsage Usage() const;

  /// The embodiment's seeded RNG stream. Exposed so parity tests can
  /// align both embodiments' planning draws from a known state.
  Rng& rng() { return rng_; }

  /// Stores a block: encode, place chunks on control-plane-chosen sites
  /// (least-loaded under the cost model, random otherwise).
  void Put(BlockId id, std::span<const std::uint8_t> data);

  /// Stores a block under an explicit codec family (DESIGN.md §11), so
  /// families coexist per block in one cluster: an LRC archive tier next
  /// to RS hot data. Placement is group-aware when failure_domains > 0.
  void Put(BlockId id, std::span<const std::uint8_t> data,
           const CodecSpec& spec);

  /// Stores a block at explicit sites (chunk i at sites[i]): used to
  /// reproduce one embodiment's placement in the other for parity tests.
  void Put(BlockId id, std::span<const std::uint8_t> data,
           std::span<const SiteId> sites);

  /// Reads and reconstructs one block. Throws std::runtime_error when
  /// fewer than k chunks are reachable.
  std::vector<std::uint8_t> Get(BlockId id);

  /// Multi-block read through one shared access plan — the co-located
  /// access path the paper optimizes. Planning takes only the control
  /// plane's per-shard locks (no store-wide lock); the chunk fetches fan
  /// out in parallel (first k of k+delta win under late binding); ILP
  /// refinement runs in the background queue, drained off the request
  /// path after the response is assembled (or on the executor pool when
  /// config.ilp_executor_threads > 0). Results align with `ids`. Safe to
  /// call from multiple threads.
  std::vector<std::vector<std::uint8_t>> MultiGet(std::span<const BlockId> ids);

  /// Deletes a block's chunks everywhere.
  bool Remove(BlockId id);

  bool Contains(BlockId id) const;

  /// Fails / recovers a site. Chunks survive on disk across recovery.
  /// This is the *manual* path: belief (cluster state) and ground truth
  /// (the node) flip together.
  void FailSite(SiteId site);
  void RecoverSite(SiteId site);

  /// Silent crash/heal (DESIGN.md §9): flips only the node's ground
  /// truth. Planning still routes reads there — they come back as misses
  /// and hedge/degrade — until the failure detector notices the missed
  /// heartbeats and marks the site dead; HealNode lets the next heartbeat
  /// revive the belief.
  void CrashNode(SiteId site);
  void HealNode(SiteId site);

  /// Silently corrupts ~`fraction` of the chunks stored at `site`
  /// (deterministically from `seed`). Returns chunks corrupted.
  std::uint64_t CorruptSiteChunks(SiteId site, double fraction,
                                  std::uint64_t seed);

  /// Injection hooks for fault/injector.h: crash/heal flip node ground
  /// truth, degrade adds injected fetch latency, fetch errors and chunk
  /// corruption hit the named node. Drive them with an InjectionThread.
  FaultActions MakeFaultActions();

  /// Rebuilds every chunk the failed `site` held, from k surviving
  /// CRC-valid chunks, onto load-chosen destinations. Blocks without k
  /// valid survivors right now are skipped (a later pass can still heal
  /// them). Returns chunks rebuilt.
  std::uint64_t RepairSite(SiteId site);

  /// One scrubber pass (DESIGN.md §9): every available node's chunks are
  /// checksum-probed; chunks that are corrupt — or missing although the
  /// catalog places them there — are rebuilt from k valid survivors and
  /// rewritten in place. Returns chunks rewritten.
  std::uint64_t ScrubOnce();

  /// Starts/stops the background maintenance thread: every
  /// config.maintenance_tick_ms it refreshes load, heartbeats live nodes
  /// into the failure detector, marks silent sites dead, polls the repair
  /// service, and (every scrub_every_ticks ticks) scrubs. Idempotent.
  void StartMaintenance();
  void StopMaintenance();

  /// Milliseconds of wall clock since construction: the store's timeline
  /// for the failure detector and repair grace periods.
  double NowMs() const;

  /// Runs one chunk-mover round: select the best movement plan from the
  /// live statistics and execute it with a real data copy. Returns the
  /// executed plan, if any.
  std::optional<MovementPlan> RunMovementRound();

  /// Runs every piece of queued background work (ILP refinements) to
  /// completion. MultiGet calls this after responding; tests call it to
  /// reach a quiescent control-plane state.
  void DrainBackgroundWork();

  /// Total bytes held by every node (storage-overhead accounting).
  std::uint64_t TotalStoredBytes() const;

  CostParams CurrentCostParams() const;

 private:
  /// Serialized internally by refresh_mu_; callable with or without
  /// meta_mu_ held (lock order: meta_mu_ before refresh_mu_).
  void RefreshLoadFromCounters();
  void StoreEncoded(BlockId id, std::span<const std::uint8_t> data,
                    const CodecSpec& spec, std::span<const SiteId> sites);
  /// RepairSite/ScrubOnce bodies; require meta_mu_ held (the maintenance
  /// tick and the RepairService reconstructor call them under the lock).
  std::uint64_t RepairSiteLocked(SiteId site);
  std::uint64_t ScrubLocked();
  /// Rebuilds one lost/corrupt chunk of `block` by asking its codec
  /// family for the cheapest RepairPlan over the reachable survivors and
  /// reading ONLY the plan's chunks via verified GetChunk (never the
  /// error-injected fetch path) — a local group for LRC, half-chunk
  /// sources for piggyback, k survivors for RS. A source failing
  /// verification is dropped and the family re-plans. Charges the plan's
  /// bytes-on-wire to the repair-traffic counters. Returns the rebuilt
  /// chunk, or nullopt when no decodable plan remains. Requires meta_mu_
  /// held.
  std::optional<ChunkData> RebuildChunk(BlockId block, const BlockInfo& info,
                                        ChunkIndex target,
                                        SiteId exclude_site);
  void MaintenanceLoop();
  /// Delivers verified chunks of `b` from its reachable locations
  /// (bypassing injected latency/errors) until it completes; true when it
  /// did. Requires meta_mu_ held.
  bool GatherReachableLocked(BlockRead& b, std::vector<IndexedChunk>& got);
  /// Reads + decodes one whole block through GatherReachableLocked.
  /// Requires meta_mu_ held.
  std::optional<std::vector<std::uint8_t>> ReadBlockBytesLocked(
      BlockId id, const BlockInfo& info);
  /// One prefetch fill claimed by the control plane: fetch + decode,
  /// then FinishPrefetch. Runs on prefetch_pool_; honors prefetch_cancel_.
  void PrefetchBlock(BlockId id);
  /// The promotion round's layout rewrite (ControlPlane::LayoutRewrite):
  /// reads and re-encodes a live block under `spec`, writes the new
  /// chunks to `sites` (disjoint from the old layout), swaps the catalog
  /// entry in one stripe-locked step (ClusterState::ReplaceBlock — the id
  /// never vanishes), then retires the old chunks. False when the block
  /// is not decodable right now. A reader that planned against the old
  /// layout either completes from its surviving chunks or re-resolves in
  /// the degraded path's version refresh. Requires meta_mu_ held.
  bool RewriteBlockLocked(BlockId id, const BlockInfo& old_info,
                          const CodecSpec& spec, std::span<const SiteId> sites);
  /// The read transport around the shared ReadRequest core: fans the
  /// core's planned fetches out to the data plane, where workers apply
  /// its completion rule (stragglers cancelled or ignored); issues one
  /// hedge round over the core's HedgeCandidates once the fetches settle
  /// or data_plane.fetch_deadline_ms expires; then tops up any block
  /// still incomplete from whatever reachable chunks remain (the
  /// degraded-read path, under the metadata lock),
  /// re-snapshotting a block a promotion/demotion rewrote mid-fetch so
  /// old-encoding chunks are never mixed with the new layout. Throws when
  /// a block stays incomplete. Called WITHOUT meta_mu_ held. Returns the
  /// delivered chunks per block, parallel to read.blocks(). `deadline`
  /// (steady-clock absolute; max() = none) is the request's end-to-end
  /// budget: fetch jobs enqueue with it (expiring at the per-site queue
  /// once it passes), and no hedge is issued after it.
  std::vector<std::vector<IndexedChunk>> FetchChunks(
      ReadRequest& read, std::chrono::steady_clock::time_point deadline);

  ECStoreConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  ClusterState state_;
  ControlPlane control_plane_;
  std::unique_ptr<RepairService> repair_;

  /// The catalog WRITER lock (DESIGN.md §10): serializes the multi-step
  /// catalog+node mutations (Put/Remove/FailSite/RecoverSite, mover,
  /// repair, scrub) and the degraded-read survivor scan against each
  /// other. The MultiGet planning/fetch path does NOT take it. Never held
  /// across the parallel fetch wait.
  mutable std::mutex meta_mu_;

  // Deferred control-plane work (background ILP solves). With
  // ilp_executor_threads == 0 the executor seam appends here under
  // defer_mu_ and DrainBackgroundWork pops and runs each unit after the
  // response (the unit self-synchronizes through the control plane's
  // shard locks). With ilp_executor_threads > 0 the seam submits to
  // bg_pool_ instead and DrainBackgroundWork waits for pool idle.
  std::mutex defer_mu_;
  std::deque<ControlPlane::Deferred> deferred_;

  // Serializes load refreshes (the in-process stats reporting cycle) and
  // guards reads_at_last_refresh_. gets_since_refresh_ is a monotonic
  // request counter; every 64th MultiGet triggers a refresh.
  std::mutex refresh_mu_;
  std::vector<std::uint64_t> reads_at_last_refresh_;
  std::atomic<std::uint64_t> gets_since_refresh_{0};

  // Robustness counters (DESIGN.md §9). Bumped outside meta_mu_, hence
  // atomics.
  std::atomic<std::uint64_t> degraded_reads_{0};
  std::atomic<std::uint64_t> retried_fetches_{0};
  std::atomic<std::uint64_t> chunks_scrubbed_{0};

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  // Maintenance thread (StartMaintenance). Joined by StopMaintenance /
  // the destructor before the nodes and data plane go away.
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  bool maint_stop_ = false;
  std::uint64_t maint_ticks_ = 0;
  std::thread maint_thread_;

  // Cooperative cancel for prefetch jobs still queued at teardown.
  std::shared_ptr<std::atomic<bool>> prefetch_cancel_;

  // Background ILP executor pool (config.ilp_executor_threads > 0).
  // Declared after control_plane_/state_: its jobs reference both, and
  // its destructor drains them before those members die.
  std::unique_ptr<WorkerPool> bg_pool_;

  // Prefetch fill pool: jobs reference nodes_/state_ and the control
  // plane's cache, so it is declared after them (destroyed — drained and
  // joined — first).
  std::unique_ptr<WorkerPool> prefetch_pool_;

  // Declared last: its destructor joins the workers, whose queued jobs
  // reference the nodes above (and whose sojourn observer references the
  // control plane's OverloadControl), before anything else is torn down.
  std::unique_ptr<DataPlane> data_plane_;
};

}  // namespace ecstore
