#include "overload/overload.h"

#include <algorithm>

namespace ecstore {

// ---------------------------------------------------------------------------
// CircuitBreakerSet

CircuitBreakerSet::CircuitBreakerSet(std::size_t num_sites,
                                     const OverloadParams& params)
    : params_(params), sites_(num_sites) {}

void CircuitBreakerSet::Evaluate(SiteId site, double p99_ms,
                                 std::uint64_t samples, double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (site >= sites_.size()) return;
  Breaker& b = sites_[site];
  const bool bad =
      samples >= params_.breaker_min_samples && p99_ms > params_.breaker_p99_ms;
  switch (b.state) {
    case State::kClosed:
      if (bad) {
        b.state = State::kOpen;
        b.opened_at_ms = now_ms;
        opens_.fetch_add(1, std::memory_order_relaxed);
        not_closed_.fetch_add(1, std::memory_order_release);
      }
      break;
    case State::kOpen:
      if (now_ms - b.opened_at_ms >= params_.breaker_open_ms) {
        b.state = State::kHalfOpen;
        b.half_open_at_ms = now_ms;
        b.probes_used = 0;
      }
      break;
    case State::kHalfOpen:
      // The first healthy window closes the breaker. Re-open only after
      // a full half-open period: the histogram still remembers the bad
      // episode when half-open begins, and the probes need time to land
      // before their verdict means anything.
      if (!bad) {
        b.state = State::kClosed;
        not_closed_.fetch_sub(1, std::memory_order_release);
      } else if (now_ms - b.half_open_at_ms >= params_.breaker_open_ms) {
        b.state = State::kOpen;
        b.opened_at_ms = now_ms;
        opens_.fetch_add(1, std::memory_order_relaxed);
      }
      break;
  }
}

bool CircuitBreakerSet::ShouldAvoid(SiteId site) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (site >= sites_.size()) return false;
  const Breaker& b = sites_[site];
  if (b.state == State::kOpen) return true;
  if (b.state == State::kHalfOpen) {
    return b.probes_used >= params_.breaker_half_open_probes;
  }
  return false;
}

bool CircuitBreakerSet::AllowProbe(SiteId site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (site >= sites_.size()) return true;
  Breaker& b = sites_[site];
  switch (b.state) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (b.probes_used < params_.breaker_half_open_probes) {
        ++b.probes_used;
        probes_granted_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      return false;
  }
  return true;
}

CircuitBreakerSet::State CircuitBreakerSet::StateOf(SiteId site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return site < sites_.size() ? sites_[site].state : State::kClosed;
}

// ---------------------------------------------------------------------------
// AdmissionController

AdmissionController::AdmissionController(const OverloadParams& params)
    : params_(params) {}

bool AdmissionController::TryAdmit(double now_ms) {
  (void)now_ms;
  std::int64_t cap = static_cast<std::int64_t>(
      std::max<std::uint32_t>(params_.admission_max_in_flight, 1));
  // A standing queue halves the admitted concurrency until it drains:
  // CoDel's "drop until the minimum sojourn returns under target",
  // expressed as a concurrency cut rather than per-packet drops.
  if (overloaded_.load(std::memory_order_acquire)) {
    cap = std::max<std::int64_t>(1, cap / 2);
  }
  const std::int64_t occupied =
      in_flight_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (occupied > cap) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void AdmissionController::Release() {
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void AdmissionController::RecordSojourn(double sojourn_ms, double now_ms) {
  std::lock_guard<std::mutex> lock(window_mu_);
  if (window_end_ms_ <= 0.0) {
    window_end_ms_ = now_ms + params_.codel_interval_ms;
  }
  if (window_min_ms_ < 0.0 || sojourn_ms < window_min_ms_) {
    window_min_ms_ = sojourn_ms;
  }
  if (now_ms >= window_end_ms_) {
    const double min_ms = window_min_ms_;
    overloaded_.store(min_ms > params_.codel_target_ms,
                      std::memory_order_release);
    const double denom = std::max(params_.codel_target_ms * 2.0, 1e-9);
    sojourn_pressure_.store(std::clamp(min_ms / denom, 0.0, 1.0),
                            std::memory_order_release);
    window_min_ms_ = -1.0;
    window_end_ms_ = now_ms + params_.codel_interval_ms;
  }
}

double AdmissionController::Pressure() const {
  const double cap =
      std::max<double>(params_.admission_max_in_flight, 1.0);
  const double util =
      static_cast<double>(
          std::max<std::int64_t>(in_flight_.load(std::memory_order_relaxed),
                                 0)) /
      cap;
  return std::clamp(
      std::max(util, sojourn_pressure_.load(std::memory_order_acquire)), 0.0,
      1.0);
}

// ---------------------------------------------------------------------------
// BrownoutController

BrownoutController::BrownoutController(const OverloadParams& params)
    : params_(params) {}

void BrownoutController::Update(double pressure, double now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  if (changed_once_ && now_ms - last_change_ms_ < params_.brownout_dwell_ms) {
    return;  // Inside the dwell window: the ladder holds its level.
  }
  const int level = level_.load(std::memory_order_relaxed);
  if (pressure >= params_.brownout_high_pressure && level < kMaxLevel) {
    level_.store(level + 1, std::memory_order_release);
    last_change_ms_ = now_ms;
    changed_once_ = true;
  } else if (pressure <= params_.brownout_low_pressure && level > 0) {
    level_.store(level - 1, std::memory_order_release);
    last_change_ms_ = now_ms;
    changed_once_ = true;
  }
}

// ---------------------------------------------------------------------------
// OverloadControl

OverloadControl::OverloadControl(std::size_t num_sites,
                                 const OverloadParams& params)
    : params_(params) {
  if (params_.admission || params_.brownout) {
    admission_ = std::make_unique<AdmissionController>(params_);
  }
  if (params_.breakers) {
    breakers_ = std::make_unique<CircuitBreakerSet>(num_sites, params_);
  }
  if (params_.brownout) {
    brownout_ = std::make_unique<BrownoutController>(params_);
  }
}

OverloadCounters OverloadControl::Counters() const {
  OverloadCounters c;
  if (admission_) c.requests_shed = admission_->requests_shed();
  c.deadline_exceeded = deadline_exceeded.load(std::memory_order_relaxed);
  if (breakers_) {
    c.breaker_opens = breakers_->opens();
    c.breaker_half_open_probes = breakers_->half_open_probes();
  }
  c.brownout_level = static_cast<std::uint64_t>(brownout_level());
  c.expired_jobs_cancelled =
      expired_jobs_cancelled.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ecstore
