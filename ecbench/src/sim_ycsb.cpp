// sim-ycsb: the discrete-event SimECStore at the Fig. 4b defaults.
//
// The closed loop mirrors the repository's ClosedLoopDriver (same
// scheduling order and client RNG streams, so a seed gives the figure's
// own numbers) but drives the event queue one Step at a time, so the
// benchmark can count events and time the loop. A run pools kSims such
// simulations. Latencies are simulated and deterministic for a seed; the
// wall time of the loop is the simulator's own speed.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "core/sim_store.h"
#include "placement/cost_model.h"
#include "placement/planner.h"
#include "spans.h"
#include "workload/workload.h"
#include "workloads.h"

namespace ecbench {
namespace {

using namespace ecstore;
using Clock = std::chrono::steady_clock;

/// A set-up (construction + bulk load) takes a few milliseconds. Set-ups
/// are timed in batches of kSetupsPerBatch, one batch per simulated
/// second of the loop, so the batches sample the whole run; setup_s is
/// the fastest batch's mean (see RunSimYcsb).
constexpr int kSetupsPerBatch = 10;
/// Independent simulations pooled per run (seeds --seed, --seed +
/// kSimSeedStride, ...): the simulated tail varies from seed to seed, and
/// pooling narrows it without leaving the Fig. 4b set-up.
constexpr int kSims = 2;
constexpr std::uint64_t kSimSeedStride = 1000003;
constexpr SimTime kWarmup = 15 * kSecond;
constexpr SimTime kMeasure = 30 * kSecond;
constexpr std::uint32_t kClients = 24;
/// Every kIlpSampleEvery-th request's blocks are kept (up to
/// kIlpSamples) to time IlpPlan after the run.
constexpr std::uint64_t kIlpSampleEvery = 64;
constexpr std::size_t kIlpSamples = 256;
constexpr int kMoverSelects = 50;
/// The loop's wall speed is sampled once per simulated second.
constexpr SimTime kSpeedWindow = kSecond;

YcsbEWorkload::Params WorkloadParams() {
  YcsbEWorkload::Params p;
  p.num_blocks = 10000;
  p.block_bytes = 100 * 1024;
  p.max_scan_length = 19;
  p.zipf_exponent = 1.0;
  return p;
}

/// The bench harness's Fig. 4b configuration for EC+C+M+LB.
ECStoreConfig SimConfig(std::uint64_t seed) {
  ECStoreConfig c = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  c.num_sites = 32;
  c.seed = seed;
  c.mover_chunks_per_sec = 8.0;
  c.mover.w1 = 1.0;
  c.mover.w2 = 1000.0;
  c.late_binding_delta = 1;
  c.site.disk_bytes_per_sec = 140.0 * 1024 * 1024;
  c.site.concurrency = 6;
  c.k = 2;
  c.r = 2;
  return c;
}

/// The simulated store and its workload, built and bulk-loaded.
struct SetUp {
  explicit SetUp(std::uint64_t seed)
      : store(std::make_unique<SimECStore>(SimConfig(seed))),
        workload(std::make_unique<YcsbEWorkload>(WorkloadParams())) {
    for (const BlockSpec& b : workload->Blocks()) store->LoadBlock(b.id, b.bytes);
  }
  std::unique_ptr<SimECStore> store;
  std::unique_ptr<YcsbEWorkload> workload;
};

/// A completed request of the measurement window.
struct Measured {
  SimTime sent = 0;
  RequestBreakdown r;
};

class SimLoop {
 public:
  SimLoop(SimECStore& store, YcsbEWorkload& workload)
      : store_(store), workload_(workload) {}

  /// Runs warm-up + measurement; returns the events fired. At the end of
  /// each speed window the loop calls `pause`, whose wall time is left
  /// out of the speed windows and counted in paused_s().
  std::uint64_t Run(const std::function<void()>& pause) {
    sim::EventQueue& queue = store_.queue();
    measure_start_ = queue.Now() + kWarmup;
    measure_end_ = measure_start_ + kMeasure;
    store_.Start();
    queue.ScheduleAt(measure_start_, [this] { workload_.OnMeasurementStart(); });
    queue.ScheduleAt(measure_end_, [this] { stop_issuing_ = true; });
    Rng root(store_.config().seed ^ 0xC11E27);
    for (std::uint32_t c = 0; c < kClients; ++c) {
      Launch(std::make_shared<Rng>(root.Split()));
    }
    std::uint64_t events = 0;
    SimTime next_mark = queue.Now() + kSpeedWindow;
    std::uint64_t completed_at_mark = 0;
    auto wall_at_mark = Clock::now();
    while (queue.Now() <= measure_end_ && queue.Step()) {
      ++events;
      if (queue.Now() < next_mark) continue;
      const auto wall = Clock::now();
      const std::uint64_t completed = store_.requests_completed();
      window_speed_.push_back(static_cast<double>(completed - completed_at_mark) /
                              std::chrono::duration<double>(wall - wall_at_mark).count());
      completed_at_mark = completed;
      next_mark += kSpeedWindow;
      pause();
      wall_at_mark = Clock::now();
      paused_ += wall_at_mark - wall;
    }
    return events;
  }

  /// Wall time spent in `pause` calls.
  double paused_s() const { return std::chrono::duration<double>(paused_).count(); }

  /// Requests completed per wall second, one value per simulated second.
  const std::vector<double>& window_speed() const { return window_speed_; }

  const std::vector<Measured>& measured() const { return measured_; }
  std::uint64_t window_requests() const { return window_requests_; }
  std::uint64_t failures() const { return failures_; }
  const std::vector<std::vector<BlockId>>& ilp_samples() const { return ilp_samples_; }

 private:
  void Launch(std::shared_ptr<Rng> rng) {
    if (stop_issuing_) return;
    std::vector<BlockId> request = workload_.NextRequest(*rng);
    if (launched_++ % kIlpSampleEvery == 0 && ilp_samples_.size() < kIlpSamples) {
      ilp_samples_.push_back(request);
    }
    const SimTime sent_at = store_.queue().Now();
    store_.Get(std::move(request), [this, rng, sent_at](const RequestBreakdown& r) {
      const SimTime now = store_.queue().Now();
      if (sent_at >= measure_start_ && now <= measure_end_) {
        ++window_requests_;
        if (r.ok) {
          measured_.push_back({sent_at, r});
        } else {
          ++failures_;
        }
      }
      Launch(rng);
    });
  }

  SimECStore& store_;
  YcsbEWorkload& workload_;
  SimTime measure_start_ = 0;
  SimTime measure_end_ = 0;
  bool stop_issuing_ = false;
  std::uint64_t launched_ = 0;
  std::uint64_t window_requests_ = 0;
  std::uint64_t failures_ = 0;
  std::vector<Measured> measured_;
  std::vector<std::vector<BlockId>> ilp_samples_;
  std::vector<double> window_speed_;
  Clock::duration paused_{0};
};

/// One request as spans in simulated microseconds, for the spans file:
/// the root covers the request, and its four Fig. 1 stages follow each
/// other from its start. They are derived from the RequestBreakdown, so
/// the per-layer metrics read the breakdown's means directly.
void AddRequestSpans(SpanLog& log, const Measured& m) {
  const std::uint64_t request = log.NewId();
  const std::uint64_t root = log.NewId();
  log.Add({request, root, 0, "sim.request", m.sent, m.sent + m.r.total});
  SimTime t = m.sent;
  const std::pair<const char*, SimTime> stages[] = {
      {"sim.metadata", m.r.metadata},
      {"sim.planning", m.r.planning},
      {"sim.retrieval", m.r.retrieval},
      {"sim.decode", m.r.decode}};
  for (const auto& [name, d] : stages) {
    log.Add({request, log.NewId(), root, name, t, t + d});
    t += d;
  }
}

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

}  // namespace

Report RunSimYcsb(const RunOptions& opt) {
  Report rep;
  std::vector<double> setup_s;
  std::unique_ptr<SimECStore> store;  // the last simulation's, probed after the run
  std::vector<Measured> measured;
  std::vector<double> window_speed;
  std::vector<std::vector<BlockId>> ilp_samples;
  std::uint64_t events = 0, completed = 0, moves = 0, ilp_solves = 0;
  double wall_s = 0;
  for (int k = 0; k < kSims; ++k) {
    const std::uint64_t seed = opt.seed + k * kSimSeedStride;
    store.reset();
    SetUp sim(seed);
    store = std::move(sim.store);
    const auto time_setups = [&] {
      const auto t0 = Clock::now();
      for (int i = 0; i < kSetupsPerBatch; ++i) SetUp discarded(seed);
      setup_s.push_back(Seconds(Clock::now() - t0) / kSetupsPerBatch);
    };
    SimLoop loop(*store, *sim.workload);
    const auto t0 = Clock::now();
    events += loop.Run(time_setups);
    wall_s += Seconds(Clock::now() - t0) - loop.paused_s();
    completed += store->requests_completed();
    const ControlPlaneUsage usage = store->Usage();
    moves += usage.moves_executed;
    ilp_solves += usage.ilp_solves;
    rep.attempted += loop.window_requests();
    rep.failed += loop.failures();
    measured.insert(measured.end(), loop.measured().begin(), loop.measured().end());
    window_speed.insert(window_speed.end(), loop.window_speed().begin(),
                        loop.window_speed().end());
    ilp_samples = loop.ilp_samples();
  }

  rep.Check(rep.failed == 0 && rep.attempted > 0,
            RatioBase(rep.attempted - rep.failed, rep.attempted, "requests ok"));

  std::vector<double> total_us;
  double stage_means[4] = {0, 0, 0, 0};
  std::uint64_t plan_hits = 0;
  double sites = 0;
  for (const Measured& m : measured) {
    total_us.push_back(static_cast<double>(m.r.total));
    stage_means[0] += static_cast<double>(m.r.metadata);
    stage_means[1] += static_cast<double>(m.r.planning);
    stage_means[2] += static_cast<double>(m.r.retrieval);
    stage_means[3] += static_cast<double>(m.r.decode);
    plan_hits += m.r.plan_cache_hit;
    sites += m.r.sites_accessed;
  }
  const LatencySummary lat = Summarize(total_us);
  const double n = static_cast<double>(std::max<std::size_t>(lat.n, 1));
  double stage_sum = 0;
  for (double& s : stage_means) stage_sum += (s /= n);
  rep.Check(lat.mean > 0 && std::abs(stage_sum - lat.mean) <= 0.01 * lat.mean,
            "sim stage means sum to the mean within 1% (" + std::to_string(stage_sum) +
                " vs " + std::to_string(lat.mean) + " us)",
            /*fatal=*/false);

  if (!opt.trace) {
    auto& m = rep.end_to_end;
    // The fastest batch: on a shared machine, interference from other
    // tenants comes in bursts of a second or so and only ever adds time;
    // the median of the batches moved by a quarter between runs of the
    // same code.
    rep.Add(m, "setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s",
            "per set-up, fastest of " + std::to_string(setup_s.size()) + " batch means of " +
                std::to_string(kSetupsPerBatch));
    rep.Add(m, "get_ops_per_s", Quantile(window_speed, 0.9), "ops/s",
            "simulated requests per wall second, " + SampleBase(completed) + " in " +
                std::to_string(wall_s) + " s, 90th percentile of " +
                std::to_string(window_speed.size()) + " simulated seconds");
    rep.Add(m, "get_mean_us", lat.mean, "us", "simulated, " + SampleBase(lat.n));
    rep.Add(m, "get_p50_us", lat.p50, "us", "simulated, " + SampleBase(lat.n));
    rep.Add(m, "get_p90_us", lat.p90, "us", "simulated, " + SampleBase(lat.n));
    rep.Add(rep.extra, "get_p99_us", lat.p99, "us", "simulated (Fig. 4c tail), " + SampleBase(lat.n));
    const YcsbEWorkload::Params wp = WorkloadParams();
    rep.Add(m, "storage_overhead",
            static_cast<double>(store->state().total_bytes()) /
                static_cast<double>(wp.num_blocks * wp.block_bytes),
            "bytes/byte", "stored/user bytes");
    rep.Add(m, "peak_rss_mb", PeakRssMb(), "MiB");
    rep.Add(rep.extra, "sim_window_req_per_sim_s",
            static_cast<double>(rep.attempted) / (kSims * static_cast<double>(kMeasure) / kSecond),
            "req/s", "simulated throughput, " + SampleBase(rep.attempted));
    return rep;
  }

  // --- Traced run: per-layer metrics.
  auto& m = rep.per_layer;
  if (!opt.spans_path.empty()) {
    SpanLog log(1);
    for (const Measured& r : measured) AddRequestSpans(log, r);
    rep.Check(WriteSpans(opt.spans_path, log.spans(), "sim_us"),
              "spans written to " + opt.spans_path);
  }
  const std::string base = "per request, simulated, " + SampleBase(lat.n);
  rep.Add(m, "sim.metadata_ms", stage_means[0] / 1e3, "ms", base);
  rep.Add(m, "sim.planning_ms", stage_means[1] / 1e3, "ms", base);
  rep.Add(m, "sim.retrieval_ms", stage_means[2] / 1e3, "ms", base);
  rep.Add(m, "sim.decode_ms", stage_means[3] / 1e3, "ms", base);
  rep.Add(m, "sim.sites_per_request", sites / n, "count", base);
  rep.Add(m, "sim.events_per_request",
          static_cast<double>(events) / static_cast<double>(std::max<std::uint64_t>(completed, 1)),
          "count", RatioBase(events, completed, "events per request"));
  rep.Add(m, "sim.wall_us_per_event", wall_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(events, 1)),
          "us", SampleBase(events) + " events");
  rep.Add(m, "placement.plan_cache_hit_ratio", static_cast<double>(plan_hits) / n, "ratio",
          RatioBase(plan_hits, lat.n, "plan lookups hit"));

  rep.Add(m, "placement.moves", static_cast<double>(moves) / kSims, "count",
          "chunk moves executed per simulation");
  rep.Add(m, "lp.ilp_solves_per_kreq",
          1e3 * static_cast<double>(ilp_solves) / static_cast<double>(std::max<std::uint64_t>(completed, 1)),
          "1/kreq", RatioBase(ilp_solves, completed, "solves per request"));

  // Control-plane calls timed on the warmed store after the run.
  std::vector<double> select_us;
  for (int i = 0; i < kMoverSelects; ++i) {
    const auto t = Clock::now();
    (void)store->control_plane().SelectMovement(store->RequestRate());
    select_us.push_back(Seconds(Clock::now() - t) * 1e6);
  }
  const LatencySummary select = Summarize(select_us);
  rep.Add(m, "placement.mover_select_us", select.mean, "us",
          SampleBase(select.n) + " SelectMovement calls");

  const CostParams params = store->CurrentCostParams();
  std::vector<double> ilp_us;
  for (const std::vector<BlockId>& blocks : ilp_samples) {
    const DemandResult dr =
        BuildDemands(store->state(), blocks, store->config().EffectiveDelta());
    const auto t = Clock::now();
    if (!IlpPlan(dr.demands, params)) rep.Check(false, "IlpPlan found no plan");
    ilp_us.push_back(Seconds(Clock::now() - t) * 1e6);
  }
  const LatencySummary ilp = Summarize(ilp_us);
  rep.Add(m, "lp.ilp_us", ilp.mean, "us", SampleBase(ilp.n) + " sampled demand sets");

  // Spans here are taken from the simulated clock after each request
  // completes, so they cannot change simulated latency.
  rep.Add(m, "trace.overhead_ratio", 1.0, "ratio",
          "simulated latency is independent of tracing");
  return rep;
}

}  // namespace ecbench
