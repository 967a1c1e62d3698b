// System-level configuration: the six techniques the paper evaluates and
// the tunables that benches, workloads and tests set (Section V-B3
// parameter choices). Values nothing varies are named constants at their
// point of use, e.g. the simulator's cost model in core/sim_store.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/promoter.h"
#include "common/codec_spec.h"
#include "common/types.h"
#include "overload/overload.h"
#include "placement/mover.h"
#include "sim/site.h"

namespace ecstore {

/// The six configurations of Section VI-A.
enum class Technique {
  kReplication,  // R:          3-way replication, random placement/access
  kEc,           // EC:         RS(k,r), random placement/access
  kEcLb,         // EC+LB:      EC with late binding (delta extra chunks)
  kEcC,          // EC+C:       EC with the cost-model access strategy
  kEcCM,         // EC+C+M:     EC+C plus dynamic chunk movement
  kEcCMLb,       // EC+C+M+LB:  everything combined
};

/// Short names used in benchmark tables ("R", "EC", "EC+LB", ...).
std::string TechniqueName(Technique t);

/// Parses a technique name; throws std::invalid_argument on junk.
Technique ParseTechnique(const std::string& name);

/// True when the technique plans reads with the Eq. 1-3 cost model.
bool UsesCostModel(Technique t);

/// True when the technique runs the chunk mover.
bool UsesMover(Technique t);

/// Late-binding delta for the technique (0 or the configured delta).
std::uint32_t LateBindingDelta(Technique t, std::uint32_t delta);

/// Concurrent data plane of the real-bytes embodiment (LocalECStore,
/// DESIGN.md §8): a per-site worker pool that executes chunk fetches in
/// parallel, with configurable injected service latency so stragglers are
/// reproducible on real bytes (the testbed's heavy-tailed service times,
/// without the testbed).
struct DataPlaneParams {
  /// Worker threads per storage site (the site's service concurrency).
  std::size_t workers_per_site = 2;
  /// Injected base service latency per fetch, in milliseconds (0 = none).
  double base_latency_ms = 0.0;
  /// Uniform extra latency in [0, jitter_ms) added per fetch.
  double jitter_ms = 0.0;
  /// Additive per-site latency: site j pays site_extra_latency_ms[j] extra
  /// when j < size(). Models persistently slow sites (aging disks).
  std::vector<double> site_extra_latency_ms;
  /// Probability that a fetch straggles; a straggler's injected latency is
  /// multiplied by straggler_factor (the "tail at scale" knob).
  double straggler_probability = 0.0;
  double straggler_factor = 10.0;
  /// Per-fetch deadline in milliseconds: when > 0 and a block is still
  /// short of k when it expires, the store issues one hedge round over the
  /// block's untried chunks before falling into the degraded-read path
  /// (DESIGN.md §9). 0 waits for every planned fetch before hedging.
  double fetch_deadline_ms = 0.0;
  /// Seed for the data plane's latency draws. Deliberately independent of
  /// ECStoreConfig::seed so planning parity with the simulator embodiment
  /// is unaffected by fetch timing.
  std::uint64_t seed = 1;
};

/// Full system configuration with the paper's defaults.
struct ECStoreConfig {
  Technique technique = Technique::kEcCM;

  // --- Coding scheme (Section V-B3: RS(2,2) vs three-way replication).
  std::uint32_t k = 2;
  std::uint32_t r = 2;
  /// Codec family for newly written blocks (DESIGN.md §11). kRs keeps the
  /// paper's RS(k, r); kAzureLrc adds `codec_locals` local XOR parities
  /// (r becomes the global-parity count); kPiggybackRs sub-packetizes for
  /// half-chunk repair. Replication baselines ignore this (the technique
  /// decides). Per-block specs may still differ via the spec-aware Put.
  CodecFamilyId codec_family = CodecFamilyId::kRs;
  std::uint32_t codec_locals = 2;
  /// Failure domains for group-aware placement: 0 (default) disables the
  /// constraint entirely — placement draws stay bit-identical to the
  /// pre-codec-family planner. > 0 assigns site j to domain j % domains
  /// and keeps chunks of the same placement group (an LRC local group, a
  /// piggyback group) on distinct domains, so one domain failure costs a
  /// group at most one chunk and cheap repair plans survive.
  std::size_t failure_domains = 0;

  // --- Cluster shape (Section VI-A: 32 storage sites).
  std::size_t num_sites = 32;

  // --- Late binding (Section IV-B1: 0 < delta <= r; experiments use 1).
  std::uint32_t late_binding_delta = 1;

  // --- Statistics service (Section V-A).
  SimTime stats_report_interval = 5 * kSecond;
  std::size_t co_access_window = 5000;

  // --- Chunk mover (Sections IV-D, V-B2, VI-C5: <= 1 chunk/second).
  double mover_chunks_per_sec = 1.0;
  MoverParams mover;

  // --- Plan cache + planners (Section V-B1).
  std::size_t plan_cache_capacity = 200000;
  /// Uniform tie-break noise added to o_j per planning decision, as a
  /// fraction of the mean overhead. Prevents equal-cost solves from all
  /// picking the same (lowest-indexed) sites and herding load.
  double cost_tiebreak_noise = 0.25;

  // --- Client-side decode model: throughput of the RS decode when parity
  // chunks are involved (calibrated by bench_micro_erasure; pure
  // reassembly is charged at memcpy speed).
  double decode_bytes_per_ms = 1.2e6;
  double reassemble_bytes_per_ms = 2.0e7;
  /// Client-side encode throughput for puts (parity generation).
  double encode_bytes_per_ms = 1.0e6;

  // --- Physical models.
  sim::SiteParams site;
  /// Heterogeneity: these sites run with their media and overhead slowed
  /// by `slow_factor` (e.g. aging disks, background batch jobs). The
  /// dynamic o_j estimation discovers them; static baselines cannot.
  std::vector<SiteId> slow_sites;
  double slow_factor = 3.0;

  // --- Real-bytes data plane (LocalECStore only; the DES models its own
  // service times through sim::SiteParams above).
  DataPlaneParams data_plane;

  // --- Repair service (Section V-C: mark dead, wait 15 min, rebuild).
  SimTime repair_poll_interval = 5 * kSecond;
  SimTime repair_wait = 15 * kMinute;

  // --- Failure detection (DESIGN.md §9): a site silent for this long is
  // suspected / declared dead by the ControlPlane's detector. 0 derives
  // the thresholds from stats_report_interval (~2.5 and ~4.5 missed
  // reporting windows respectively).
  SimTime detector_suspect_after = 0;
  SimTime detector_dead_after = 0;

  // --- Real-bytes maintenance loop (LocalECStore::StartMaintenance):
  // wall-clock tick driving heartbeats, failure checks, and repair polls;
  // the scrubber runs every scrub_every_ticks ticks (0 disables it).
  double maintenance_tick_ms = 50.0;
  std::size_t scrub_every_ticks = 5;

  // --- Latency-aware block cache + λ-driven prefetch (DESIGN.md §12).
  // Defaults keep both tiers off: no cache object behaviour, no extra RNG
  // draws, bit-identical fig4b.
  /// Decoded-block cache capacity in bytes; 0 disables the cache.
  std::uint64_t cache_capacity_bytes = 0;
  /// Co-access prefetch: on a cache hit, asynchronously warm the anchor's
  /// likeliest co-access partners (requires the cache).
  bool cache_prefetch = false;

  // --- Dynamic hybrid redundancy (DESIGN.md §12): the movement round
  // promotes the hottest EC blocks to full replicas and demotes cooled
  // ones back, within promotion.budget_bytes of extra storage (0, the
  // default, disables promotion). See ReplicaPromoter::Params.
  ReplicaPromoter::Params promotion;

  // --- Tail model + adaptive late binding (DESIGN.md §13). Defaults keep
  // both off: no cost-value change, no extra RNG draws, bit-identical
  // fig4b and embodiment parity.
  /// Weight of the tail term added to Eq. 1's per-site overhead:
  /// o_j += tail_weight * max(0, p99(j) − mean(j)), so planning steers
  /// around high-variance sites, not just loaded ones. 0 disables the
  /// term entirely (o_j untouched). The quantile and the straggler cut
  /// (5x the site mean) are LoadTrackerParams defaults.
  double tail_weight = 0.0;
  /// Adaptive late binding: derive δ per request from the predicted
  /// straggler probability instead of the static late_binding_delta.
  /// Only meaningful for the LB techniques (others keep δ = 0). δ is the
  /// smallest d with P[Binomial(k + d, p) > d] <= adaptive_delta_epsilon,
  /// where p is the cluster straggler fraction — 0 on quiet clusters,
  /// rising to adaptive_delta_max under variance.
  bool adaptive_delta = false;
  /// Target probability that a planned read set still comes up short of k
  /// fast chunks (the straggler-coverage miss rate).
  double adaptive_delta_epsilon = 1e-3;
  /// Cap on the per-request δ; 0 means "up to r" (every parity chunk).
  std::uint32_t adaptive_delta_max = 0;
  /// Service-time samples per LoadTracker rotation window. Estimates read
  /// the merged previous+current window, so a load regime is fully
  /// forgotten after two rotations. Smaller windows track regime changes
  /// faster — circuit breakers (DESIGN.md §14) recover sooner after a
  /// degraded site heals — at the cost of noisier tail estimates.
  std::uint64_t latency_window = 1024;

  // --- Sharded control plane (DESIGN.md §10). Block metadata statistics,
  // the plan cache, and the deferred-ILP queues are partitioned into this
  // many independently locked shards (hash of block id -> shard). 1 keeps
  // the single-shard layout — required for the simulator's bit-identical
  // determinism and the embodiment-parity test; LocalECStore benches and
  // stress tests raise it so concurrent clients stop serializing on one
  // lock.
  std::size_t control_plane_shards = 1;
  // Background ILP executor threads (LocalECStore only). 0 preserves the
  // legacy behavior — deferred solves drain synchronously after each
  // MultiGet response and on the maintenance tick, keeping the request
  // thread's RNG draw order deterministic for parity tests. > 0 drains
  // the per-shard queues on a small worker pool instead, fully off every
  // request path.
  std::size_t ilp_executor_threads = 0;

  // --- Overload control (DESIGN.md §14): end-to-end deadlines, per-site
  // circuit breakers, CoDel-style admission control, and the brownout
  // shed ladder. All default-off: with OverloadParams::Enabled() false
  // neither embodiment constructs an OverloadControl and the request
  // path (RNG draws, planning, timing) is bit-identical to a build
  // without the subsystem.
  OverloadParams overload;

  std::uint64_t seed = 1;

  /// Applies the technique's flags and returns the adjusted config.
  static ECStoreConfig ForTechnique(Technique t);
  static ECStoreConfig ForTechnique(Technique t, ECStoreConfig base);

  std::uint32_t EffectiveDelta() const {
    return LateBindingDelta(technique, late_binding_delta);
  }
  bool CostModelEnabled() const { return UsesCostModel(technique); }
  bool MoverEnabled() const { return UsesMover(technique); }
  bool IsReplication() const { return technique == Technique::kReplication; }

  /// The codec spec new blocks are written with: replication when the
  /// technique is the R baseline, else the configured codec family.
  CodecSpec BlockCodec() const {
    if (IsReplication()) return CodecSpec{CodecFamilyId::kReplication, 1, r, 0};
    return CodecSpec{codec_family, k, r,
                     codec_family == CodecFamilyId::kAzureLrc ? codec_locals
                                                              : 0};
  }

  /// Chunks per block under this configuration's coding scheme.
  std::uint32_t ChunksPerBlock() const { return SpecTotalChunks(BlockCodec()); }
  /// Chunks needed to reconstruct a block.
  std::uint32_t RequiredChunks() const { return SpecDataChunks(BlockCodec()); }
  /// Chunk size for a block of `block_bytes`.
  std::uint64_t ChunkBytes(std::uint64_t block_bytes) const {
    return SpecChunkBytes(BlockCodec(), block_bytes);
  }
};

}  // namespace ecstore
