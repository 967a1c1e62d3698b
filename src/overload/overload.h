// Overload control (DESIGN.md §14): the machinery that keeps the store
// *stable* when offered load exceeds capacity, instead of merely fast
// when it does not.
//
// Four cooperating pieces, each individually default-off:
//
//  - End-to-end deadlines (`deadline_ms`): every request carries an
//    absolute budget. Work that can no longer complete in time is
//    cancelled at the per-site queue (before service, where it is
//    cheap), not after.
//  - Per-site circuit breakers (`breakers`): a site whose p99 crosses
//    `breaker_p99_ms` trips open and planning treats it like a soft
//    failure; after `breaker_open_ms` the breaker goes half-open and
//    grants a bounded number of probe requests — the first window of
//    healthy p99 closes it, so recovery never arrives as a thundering
//    herd.
//  - Admission control (`admission`): a token gate in front of
//    MultiGet/Put sheds excess requests fast-fail. The shed decision
//    uses a CoDel-style signal — the windowed *minimum* sojourn of
//    per-site queue jobs — so a briefly deep queue that still drains is
//    tolerated while standing queues halve the admitted concurrency.
//  - Brownout (`brownout`): under sustained pressure the store sheds
//    optional work in a ladder — L1 prefetch off, L2 mover/ILP rounds
//    paused, L3 cache-only answers where a valid cached block exists,
//    L4 late-binding δ forced to 0 — and restores the stages in reverse
//    order as pressure drops, with hysteresis and a dwell time so the
//    ladder never flaps.
//
// Everything here is clock-agnostic: methods take an explicit `now_ms`
// so the DES embodiment drives them with simulated time (keeping runs
// deterministic) and the real-bytes embodiment with wall clock. The
// library depends only on ec_common; the ControlPlane owns the one
// OverloadControl and applies its planning-side gates itself.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "common/types.h"

namespace ecstore {

/// Tuning for the overload subsystem. All features default off; with
/// the defaults the stores construct no OverloadControl at all and the
/// request path is bit-identical to a build without this subsystem.
struct OverloadParams {
  // --- End-to-end deadline ---
  /// Per-request budget in milliseconds; 0 disables deadlines.
  double deadline_ms = 0.0;

  // --- Admission control ---
  bool admission = false;
  /// Hard cap on concurrently admitted requests.
  std::uint32_t admission_max_in_flight = 64;
  /// CoDel target: a window whose *minimum* queue sojourn exceeds this
  /// indicates a standing queue, not a burst.
  double codel_target_ms = 5.0;
  /// CoDel observation window length.
  double codel_interval_ms = 100.0;

  // --- Per-site circuit breakers ---
  bool breakers = false;
  /// p99 service time that trips a site's breaker open.
  double breaker_p99_ms = 50.0;
  /// Time a breaker stays open before going half-open; also the length
  /// of the half-open evaluation period before re-opening.
  double breaker_open_ms = 250.0;
  /// Requests allowed through per half-open episode.
  std::uint32_t breaker_half_open_probes = 3;
  /// Minimum latency samples before a site can trip (cold sites with a
  /// few unlucky fetches must not flap).
  std::uint64_t breaker_min_samples = 64;

  // --- Brownout ---
  bool brownout = false;
  /// Pressure (0..1) above which the ladder escalates one level.
  double brownout_high_pressure = 0.7;
  /// Pressure below which the ladder de-escalates one level.
  double brownout_low_pressure = 0.3;
  /// Minimum time between level changes (hysteresis dwell).
  double brownout_dwell_ms = 150.0;

  bool Enabled() const {
    return deadline_ms > 0.0 || admission || breakers || brownout;
  }
};

/// Thrown by the real-bytes store when admission control sheds a
/// request. Distinct from std::runtime_error so callers can tell a
/// cheap, deliberate rejection from data loss.
class RequestShedError : public std::runtime_error {
 public:
  RequestShedError() : std::runtime_error("request shed by admission control") {}
};

/// Thrown by the real-bytes store when a request's end-to-end deadline
/// expires before its blocks could be assembled.
class DeadlineExceededError : public std::runtime_error {
 public:
  DeadlineExceededError() : std::runtime_error("request deadline exceeded") {}
};

/// Per-site breaker state machine: closed → open on bad p99 →
/// half-open after a cool-off → closed on the first healthy window (or
/// back to open when the probes still look bad). Internally locked;
/// callable from any thread.
class CircuitBreakerSet {
 public:
  CircuitBreakerSet(std::size_t num_sites, const OverloadParams& params);

  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// Feeds one site's current p99 estimate (and how many samples back
  /// it) and advances the state machine. Call periodically from the
  /// stats refresh path.
  void Evaluate(SiteId site, double p99_ms, std::uint64_t samples,
                double now_ms);

  /// True when planning should avoid the site (open, or half-open with
  /// its probe budget exhausted).
  bool ShouldAvoid(SiteId site) const;

  /// Half-open probe grant: consumes one of the episode's
  /// `breaker_half_open_probes` passes. Returns true when this request
  /// may use the site. Closed sites always pass; open sites never do.
  bool AllowProbe(SiteId site);

  /// Fast gate: false means every breaker is closed and the planning
  /// filter can be skipped entirely.
  bool AnyNotClosed() const {
    return not_closed_.load(std::memory_order_acquire) > 0;
  }

  State StateOf(SiteId site) const;

  std::uint64_t opens() const {
    return opens_.load(std::memory_order_relaxed);
  }
  std::uint64_t half_open_probes() const {
    return probes_granted_.load(std::memory_order_relaxed);
  }

 private:
  struct Breaker {
    State state = State::kClosed;
    double opened_at_ms = 0;     // entry time of the current open episode
    double half_open_at_ms = 0;  // entry time of the current half-open episode
    std::uint32_t probes_used = 0;
  };

  const OverloadParams params_;
  mutable std::mutex mu_;
  std::vector<Breaker> sites_;
  std::atomic<std::uint32_t> not_closed_{0};
  std::atomic<std::uint64_t> opens_{0};
  std::atomic<std::uint64_t> probes_granted_{0};
};

/// Token gate + CoDel sojourn signal. The gate itself only bites when
/// `params.admission` is set, but the sojourn/pressure tracking also
/// runs for brownout-only configurations (brownout derives its pressure
/// from this controller).
class AdmissionController {
 public:
  explicit AdmissionController(const OverloadParams& params);

  /// Takes an admission token. Returns false — and counts a shed — when
  /// the store is past its admitted-concurrency cap (halved while the
  /// CoDel signal reports a standing queue). Pair with Release().
  bool TryAdmit(double now_ms);

  /// Returns the token taken by a successful TryAdmit.
  void Release();

  /// Feeds one per-site queue sojourn (pickup − enqueue) into the CoDel
  /// window. Thread-safe; called from data-plane workers.
  void RecordSojourn(double sojourn_ms, double now_ms);

  /// Load pressure in [0, 1]: the max of admitted-concurrency
  /// utilization and the last window's min-sojourn ratio against twice
  /// the CoDel target. Brownout's input signal.
  double Pressure() const;

  /// True while the last completed CoDel window saw min sojourn above
  /// target (a standing queue).
  bool overloaded() const {
    return overloaded_.load(std::memory_order_acquire);
  }

  std::uint64_t requests_shed() const {
    return shed_.load(std::memory_order_relaxed);
  }
  std::int64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

 private:
  const OverloadParams params_;
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<bool> overloaded_{false};
  /// Ratio of the last completed window's min sojourn to 2× target,
  /// clamped to [0, 1]; the smooth half of Pressure().
  std::atomic<double> sojourn_pressure_{0.0};

  std::mutex window_mu_;
  double window_min_ms_ = -1.0;  // <0: no sample yet this window
  double window_end_ms_ = 0.0;   // 0: first sample starts the window
};

/// The shed ladder. Level 0 is normal operation; each level adds one
/// degradation on top of the previous ones:
///   L1: prefetch off; L2: mover/ILP rounds paused; L3: cache-only
///   answers where valid; L4: late-binding δ forced to 0.
/// Escalates/de-escalates one level at a time with hysteresis + dwell.
class BrownoutController {
 public:
  explicit BrownoutController(const OverloadParams& params);

  /// Advances the ladder from the current pressure reading. Call
  /// periodically from the stats refresh path.
  void Update(double pressure, double now_ms);

  int level() const { return level_.load(std::memory_order_acquire); }

  static constexpr int kMaxLevel = 4;

 private:
  const OverloadParams params_;
  std::atomic<int> level_{0};
  std::mutex mu_;
  double last_change_ms_ = 0.0;
  bool changed_once_ = false;
};

/// Snapshot of the subsystem's counters for Usage()/--usage-json.
/// All monotonic except brownout_level (a gauge: the current ladder
/// level).
struct OverloadCounters {
  std::uint64_t requests_shed = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_open_probes = 0;
  std::uint64_t brownout_level = 0;
  std::uint64_t expired_jobs_cancelled = 0;
};

/// The aggregate the ControlPlane owns (only when
/// OverloadParams::Enabled(); a null OverloadControl* everywhere means
/// the feature set is off and no behavior changes). The individual
/// controllers are null when their feature flag is off — except the
/// admission controller, which also exists for brownout-only configs
/// (it is brownout's pressure source).
class OverloadControl {
 public:
  OverloadControl(std::size_t num_sites, const OverloadParams& params);

  const OverloadParams& params() const { return params_; }
  double deadline_ms() const { return params_.deadline_ms; }

  AdmissionController* admission() { return admission_.get(); }
  CircuitBreakerSet* breakers() { return breakers_.get(); }
  BrownoutController* brownout() { return brownout_.get(); }
  const CircuitBreakerSet* breakers() const { return breakers_.get(); }

  /// True when the admission *gate* should bite (admission enabled, not
  /// merely constructed as brownout's signal source).
  bool gate_enabled() const { return params_.admission; }

  /// Current shed-ladder level; 0 when brownout is off.
  int brownout_level() const {
    return brownout_ ? brownout_->level() : 0;
  }

  /// Updates breaker state for one site; ControlPlane::EvaluateOverload
  /// calls this for every site on each periodic stats refresh.
  void EvaluateSite(SiteId site, double p99_ms, std::uint64_t samples,
                    double now_ms) {
    if (breakers_) breakers_->Evaluate(site, p99_ms, samples, now_ms);
  }
  void UpdateBrownout(double now_ms) {
    if (brownout_ && admission_) brownout_->Update(admission_->Pressure(), now_ms);
  }

  /// Counter snapshot, including per-controller counters.
  OverloadCounters Counters() const;

  // Counters owned here (the controllers own their own). Monotonic.
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> expired_jobs_cancelled{0};

 private:
  const OverloadParams params_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<CircuitBreakerSet> breakers_;
  std::unique_ptr<BrownoutController> brownout_;
};

}  // namespace ecstore
