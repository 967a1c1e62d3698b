// Overload-control bench (DESIGN.md §14): goodput and admitted-tail
// latency at ~2x the store's saturation throughput, with and without the
// overload subsystem (admission + breakers + brownout + deadlines).
//
// Method: a short zero-think closed-loop calibration run measures the
// saturation throughput T_sat and the unloaded mean service time. The
// main runs then offer `--overload-factor` x T_sat through think-time
// clients and compare:
//   uncontrolled  — no overload features; every request is served, the
//                   site queues grow, and "goodput" counts only the
//                   requests that happened to finish inside the deadline
//                   budget (a late answer is a useless answer);
//   controlled    — admission gate + per-site breakers + brownout ladder
//                   + end-to-end deadline. Excess requests shed in
//                   ~kShedPenalty; admitted ones run on short queues.
//
// The interesting comparison is goodput (in-deadline completions/s) and
// the p99 of *admitted* requests — overload control trades refused
// requests for the admitted ones actually meeting their budget.
//
// Flags: harness flags (--sites, --blocks, --clients, --runs, ...) plus
//   --overload-factor=2.0    offered load as a multiple of T_sat
//   --deadline-ms=0          per-request budget; 0 derives one from the
//                            calibrated mean (3x unloaded mean service)
//   --admission-in-flight=0  admitted-concurrency cap; 0 derives it from
//                            the calibration client count
//   --strict                 enforce the acceptance bars (goodput >= 1.5x
//                            uncontrolled, admitted p99 <= 0.5x) and exit
//                            non-zero when they fail
//   --json=PATH              writes {"bench":"overload","rows":[...]}
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"

namespace {

using namespace ecstore;
using namespace ecstore::bench;

struct Row {
  std::string label;
  double offered_rps = 0;    // think-time offered load
  double goodput_rps = 0;    // ok completions inside the deadline, per second
  double admitted_p99_ms = 0;
  double mean_ms = 0;        // mean of admitted, in-histogram requests
  double mean_shed_ms = 0;   // mean shed turnaround (0 when none shed)
  std::uint64_t requests = 0;
  std::uint64_t sheds = 0;
  std::uint64_t deadline_hits = 0;
  std::uint64_t failures = 0;
  ControlPlaneUsage usage;
};

Row RunConfig(const ExperimentParams& p, std::string label, double offered_rps,
              double deadline_ms) {
  std::vector<RunResult> runs = RunSeedsRaw(Technique::kEcCMLb, p);
  Histogram merged;
  Row row;
  row.label = std::move(label);
  row.offered_rps = offered_rps;
  double measure_s = 0;
  for (const RunResult& r : runs) {
    merged.Merge(r.metrics.total);
    row.requests += r.metrics.requests;
    row.sheds += r.metrics.sheds;
    row.deadline_hits += r.metrics.deadline_hits;
    row.failures += r.metrics.failures;
    row.mean_shed_ms += r.metrics.MeanShedMs() * static_cast<double>(r.metrics.sheds);
    measure_s += r.measure_seconds;
  }
  if (row.sheds) row.mean_shed_ms /= static_cast<double>(row.sheds);
  row.usage = SumUsage(runs);
  row.mean_ms = ToMillis(static_cast<SimTime>(merged.Mean()));
  row.admitted_p99_ms = ToMillis(merged.Percentile(99));
  // Goodput: completions whose end-to-end time fit the budget. The
  // controlled rows enforce this in-store (deadline hits never reach the
  // histogram); the uncontrolled row is classified post-hoc so both are
  // judged by the same yardstick.
  const double in_deadline =
      static_cast<double>(merged.count()) *
      (1.0 - merged.FractionAbove(FromMillis(deadline_ms)));
  row.goodput_rps = measure_s > 0 ? in_deadline / measure_s : 0;
  return row;
}

void WriteJson(const std::string& path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"bench\":\"overload\",\"rows\":[");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "%s{\"label\":\"%s\",\"offered_rps\":%.1f,\"goodput_rps\":%.1f,"
        "\"admitted_p99_ms\":%.2f,\"mean_ms\":%.2f,\"mean_shed_ms\":%.4f,"
        "\"requests\":%llu,\"sheds\":%llu,\"deadline_hits\":%llu,"
        "\"failures\":%llu,\"requests_shed\":%llu,\"deadline_exceeded\":%llu,"
        "\"breaker_opens\":%llu,\"breaker_half_open_probes\":%llu,"
        "\"brownout_level\":%llu,\"expired_jobs_cancelled\":%llu}",
        i ? "," : "", r.label.c_str(), r.offered_rps, r.goodput_rps,
        r.admitted_p99_ms, r.mean_ms, r.mean_shed_ms,
        static_cast<unsigned long long>(r.requests),
        static_cast<unsigned long long>(r.sheds),
        static_cast<unsigned long long>(r.deadline_hits),
        static_cast<unsigned long long>(r.failures),
        static_cast<unsigned long long>(r.usage.requests_shed),
        static_cast<unsigned long long>(r.usage.deadline_exceeded),
        static_cast<unsigned long long>(r.usage.breaker_opens),
        static_cast<unsigned long long>(r.usage.breaker_half_open_probes),
        static_cast<unsigned long long>(r.usage.brownout_level),
        static_cast<unsigned long long>(r.usage.expired_jobs_cancelled));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  ExperimentParams params = ExperimentParams::FromFlags(flags);
  // Scaled-down defaults so the bench (3 full runs) finishes in seconds.
  if (!flags.Has("runs")) params.runs = 1;
  if (!flags.Has("warmup")) params.warmup_s = 5;
  if (!flags.Has("measure")) params.measure_s = 15;
  if (!flags.Has("sites")) params.num_sites = 16;
  if (!flags.Has("blocks")) params.num_blocks = 4000;
  const double factor = flags.GetDouble("overload-factor", 2.0);
  const bool strict = flags.GetBool("strict", false);

  // --- Calibration: zero-think saturation throughput and unloaded mean.
  ExperimentParams calib = params;
  calib.think_ms = 0;
  calib.runs = 1;
  calib.deadline_ms = 0;
  calib.admission = calib.breakers = calib.brownout = false;
  const RunResult cal = RunOnce(Technique::kEcCMLb, calib, calib.base_seed);
  const double t_sat =
      static_cast<double>(cal.metrics.total.count()) / cal.measure_seconds;
  const double mean_service_ms =
      ToMillis(static_cast<SimTime>(cal.metrics.total.Mean()));
  if (t_sat <= 0) {
    std::fprintf(stderr, "calibration produced no completions\n");
    return 1;
  }

  const double offered_rps = factor * t_sat;
  double deadline_ms = params.deadline_ms;
  // 3x the unloaded mean: comfortably met on short queues (the admitted
  // cap pins the controlled run near calibration latency) and badly
  // missed once uncontrolled queues stack tens of requests deep.
  if (deadline_ms <= 0) deadline_ms = std::max(3.0 * mean_service_ms, 5.0);
  std::uint32_t in_flight = flags.Has("admission-in-flight")
                                ? params.admission_max_in_flight
                                : calib.clients;

  // Offered load through think-time clients, think sized to the rate.
  // The client pool is much larger than the saturation concurrency so the
  // closed loop approximates an open arrival process: response-time
  // growth barely dents the arrival rate, and an uncontrolled store
  // genuinely drowns instead of self-throttling.
  ExperimentParams loaded = params;
  if (!flags.Has("clients")) loaded.clients = 10 * calib.clients;
  loaded.think_ms = 1000.0 * static_cast<double>(loaded.clients) / offered_rps;

  std::printf("Overload bench — %s\n", params.Describe().c_str());
  std::printf(
      "calibration: T_sat=%.0f req/s, unloaded mean=%.2f ms; offering "
      "%.1fx (%.0f req/s) via %u clients, deadline=%.1f ms, "
      "admitted in-flight cap=%u\n\n",
      t_sat, mean_service_ms, factor, offered_rps, loaded.clients, deadline_ms,
      in_flight);

  ExperimentParams uncontrolled = loaded;
  uncontrolled.deadline_ms = 0;
  uncontrolled.admission = uncontrolled.breakers = uncontrolled.brownout = false;

  ExperimentParams controlled = loaded;
  controlled.deadline_ms = deadline_ms;
  controlled.admission = true;
  controlled.breakers = true;
  controlled.brownout = true;
  controlled.admission_max_in_flight = in_flight;

  std::vector<Row> rows;
  rows.push_back(
      RunConfig(uncontrolled, "uncontrolled", offered_rps, deadline_ms));
  rows.push_back(RunConfig(controlled, "controlled", offered_rps, deadline_ms));

  std::printf("%-14s %10s %12s %12s %10s %12s %8s %10s\n", "config",
              "offered/s", "goodput/s", "adm p99(ms)", "mean(ms)", "shed(ms)",
              "sheds", "ddl hits");
  for (const Row& r : rows) {
    std::printf("%-14s %10.0f %12.1f %12.2f %10.2f %12.4f %8llu %10llu\n",
                r.label.c_str(), r.offered_rps, r.goodput_rps,
                r.admitted_p99_ms, r.mean_ms, r.mean_shed_ms,
                static_cast<unsigned long long>(r.sheds),
                static_cast<unsigned long long>(r.deadline_hits));
  }

  const Row& un = rows[0];
  const Row& ctl = rows[1];
  const double goodput_ratio =
      un.goodput_rps > 0 ? ctl.goodput_rps / un.goodput_rps : 0;
  const double p99_ratio =
      un.admitted_p99_ms > 0 ? ctl.admitted_p99_ms / un.admitted_p99_ms : 0;
  std::printf(
      "\ncontrolled vs uncontrolled: goodput %.2fx, admitted p99 %.2fx, "
      "mean shed %.4f ms (%.1f%% of unloaded mean service)\n",
      goodput_ratio, p99_ratio, ctl.mean_shed_ms,
      mean_service_ms > 0 ? 100.0 * ctl.mean_shed_ms / mean_service_ms : 0);

  if (flags.Has("json")) {
    WriteJson(flags.GetString("json", "overload.json"), rows);
  }

  // Counter sanity — always enforced: the controlled run at 2x saturation
  // must actually shed, and every overload counter must flow through
  // Usage(). (Breaker counters only move when a site degrades, so only
  // their *plumbing* is checked here; the chaos storm exercises them.)
  bool ok = true;
  if (ctl.usage.requests_shed == 0 || ctl.sheds == 0) {
    std::fprintf(stderr, "FAIL: controlled run at %.1fx saturation shed "
                         "nothing (requests_shed=%llu driver sheds=%llu)\n",
                 factor, static_cast<unsigned long long>(ctl.usage.requests_shed),
                 static_cast<unsigned long long>(ctl.sheds));
    ok = false;
  }
  if (ctl.sheds && mean_service_ms > 0 &&
      ctl.mean_shed_ms > 0.1 * mean_service_ms) {
    std::fprintf(stderr, "FAIL: sheds are not fast-fail: %.4f ms vs 10%% of "
                         "mean service %.4f ms\n",
                 ctl.mean_shed_ms, 0.1 * mean_service_ms);
    ok = false;
  }
  if (strict) {
    if (goodput_ratio < 1.5) {
      std::fprintf(stderr, "FAIL(strict): goodput ratio %.2f < 1.5\n",
                   goodput_ratio);
      ok = false;
    }
    if (p99_ratio > 0.5) {
      std::fprintf(stderr, "FAIL(strict): admitted p99 ratio %.2f > 0.5\n",
                   p99_ratio);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
