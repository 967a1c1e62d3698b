#include "fault/fault_schedule.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"

namespace ecstore {

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kFlap:
      return "flap";
    case FaultKind::kSlowSite:
      return "slow";
    case FaultKind::kFetchError:
      return "fetch-error";
    case FaultKind::kCorruptChunks:
      return "corrupt";
  }
  return "unknown";
}

std::vector<FaultEvent> GenerateFaultSchedule(const FaultScheduleParams& params,
                                              std::uint64_t seed) {
  Rng rng(SplitMix64(seed ^ 0xFA5C4EDu).Next());
  std::vector<FaultEvent> events;

  // Crash/flap/slow victims must be distinct: concurrent unreachability is
  // then bounded by crashes + flaps, which callers size against r.
  std::vector<SiteId> sites(params.num_sites);
  for (std::size_t j = 0; j < params.num_sites; ++j) {
    sites[j] = static_cast<SiteId>(j);
  }
  for (std::size_t i = 0; i + 1 < sites.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.NextBounded(sites.size() - i));
    std::swap(sites[i], sites[j]);
  }
  std::size_t next_victim = 0;
  const auto draw_victim = [&]() -> SiteId {
    return sites[next_victim++ % sites.size()];
  };

  for (std::size_t i = 0; i < params.crashes; ++i) {
    FaultEvent e;
    // First half of the horizon: detection + grace + rebuild fit inside.
    e.at_ms = (0.05 + 0.45 * rng.NextDouble()) * params.horizon_ms;
    e.kind = FaultKind::kCrash;
    e.site = draw_victim();
    events.push_back(e);
  }
  for (std::size_t i = 0; i < params.flaps; ++i) {
    FaultEvent e;
    e.at_ms = (0.05 + 0.75 * rng.NextDouble()) * params.horizon_ms;
    e.kind = FaultKind::kFlap;
    e.site = draw_victim();
    e.duration_ms = params.flap_duration_ms;
    events.push_back(e);
  }
  for (std::size_t i = 0; i < params.slow_sites; ++i) {
    FaultEvent e;
    e.at_ms = (0.05 + 0.75 * rng.NextDouble()) * params.horizon_ms;
    e.kind = FaultKind::kSlowSite;
    e.site = draw_victim();
    e.duration_ms = params.slow_duration_ms;
    e.magnitude = params.slow_factor;
    events.push_back(e);
  }
  // Error/corruption victims may coincide with any site: these faults do
  // not take the site down, they exercise the checksum and hedge paths.
  for (std::size_t i = 0; i < params.fetch_error_sites; ++i) {
    FaultEvent e;
    e.at_ms = (0.05 + 0.75 * rng.NextDouble()) * params.horizon_ms;
    e.kind = FaultKind::kFetchError;
    e.site = static_cast<SiteId>(rng.NextBounded(params.num_sites));
    e.duration_ms = params.fetch_error_duration_ms;
    e.magnitude = params.fetch_error_probability;
    events.push_back(e);
  }
  for (std::size_t i = 0; i < params.corrupt_sites; ++i) {
    FaultEvent e;
    e.at_ms = (0.05 + 0.45 * rng.NextDouble()) * params.horizon_ms;
    e.kind = FaultKind::kCorruptChunks;
    e.site = static_cast<SiteId>(rng.NextBounded(params.num_sites));
    e.magnitude = params.corrupt_fraction;
    events.push_back(e);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at_ms < b.at_ms;
                   });
  return events;
}

std::string DescribeFaultEvent(const FaultEvent& event) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "t=%.0fms %s site %u dur=%.0fms mag=%.3f", event.at_ms,
                FaultKindName(event.kind), event.site, event.duration_ms,
                event.magnitude);
  return buf;
}

}  // namespace ecstore
