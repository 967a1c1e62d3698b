#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/repair.h"

namespace ecstore::bench {

ExperimentParams ExperimentParams::FromFlags(const Flags& flags) {
  // Benches stream progress lines; line-buffer stdout so redirected runs
  // (tee, CI logs) show progress as it happens.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  ExperimentParams p;
  p.num_sites = static_cast<std::size_t>(flags.GetInt("sites", p.num_sites));
  p.num_blocks = static_cast<std::uint64_t>(flags.GetInt("blocks", p.num_blocks));
  p.block_bytes =
      static_cast<std::uint64_t>(flags.GetInt("block-bytes", p.block_bytes));
  p.clients = static_cast<std::uint32_t>(flags.GetInt("clients", p.clients));
  p.warmup_s = flags.GetDouble("warmup", p.warmup_s);
  p.measure_s = flags.GetDouble("measure", p.measure_s);
  p.zipf_exponent = flags.GetDouble("zipf", p.zipf_exponent);
  p.max_scan_length =
      static_cast<std::uint32_t>(flags.GetInt("scan-length", p.max_scan_length));
  p.runs = static_cast<std::uint32_t>(flags.GetInt("runs", p.runs));
  p.base_seed = static_cast<std::uint64_t>(flags.GetInt("seed", p.base_seed));
  p.workload = flags.GetString("workload", p.workload);
  p.wiki_pages = static_cast<std::uint64_t>(flags.GetInt("pages", p.wiki_pages));
  p.flash_fraction = flags.GetDouble("flash-fraction", p.flash_fraction);
  p.flash_hot_blocks =
      static_cast<std::uint64_t>(flags.GetInt("flash-hot", p.flash_hot_blocks));
  p.flash_period =
      static_cast<std::uint64_t>(flags.GetInt("flash-period", p.flash_period));
  p.flash_duty = flags.GetDouble("flash-duty", p.flash_duty);
  p.tail_weight = flags.GetDouble("tail-weight", p.tail_weight);
  p.adaptive_delta = flags.GetBool("adaptive-delta", p.adaptive_delta);
  p.stall_prob = flags.GetDouble("stall-prob", p.stall_prob);
  p.stall_mult = flags.GetDouble("stall-mult", p.stall_mult);
  p.mover_rate = flags.GetDouble("mover-rate", p.mover_rate);
  p.mover_w1 = flags.GetDouble("w1", p.mover_w1);
  p.mover_w2 = flags.GetDouble("w2", p.mover_w2);
  p.late_binding_delta =
      static_cast<std::uint32_t>(flags.GetInt("delta", p.late_binding_delta));
  p.disk_mb_per_sec = flags.GetDouble("disk-mb", p.disk_mb_per_sec);
  p.site_concurrency =
      static_cast<std::uint32_t>(flags.GetInt("site-concurrency", p.site_concurrency));
  p.k = static_cast<std::uint32_t>(flags.GetInt("k", p.k));
  p.r = static_cast<std::uint32_t>(flags.GetInt("r", p.r));
  p.codec = flags.GetString("codec", p.codec);
  p.slow_sites = static_cast<std::uint32_t>(flags.GetInt("slow-sites", p.slow_sites));
  p.slow_factor = flags.GetDouble("slow-factor", p.slow_factor);
  p.enable_repair = flags.GetBool("repair", p.enable_repair);
  p.repair_wait_s = flags.GetDouble("repair-wait", p.repair_wait_s);
  p.cache_mb = flags.GetDouble("cache-mb", p.cache_mb);
  p.prefetch = flags.GetBool("prefetch", p.prefetch);
  p.replica_budget_mb = flags.GetDouble("replica-budget", p.replica_budget_mb);
  p.think_ms = flags.GetDouble("think-ms", p.think_ms);
  p.deadline_ms = flags.GetDouble("deadline-ms", p.deadline_ms);
  p.admission = flags.GetBool("admission", p.admission);
  p.breakers = flags.GetBool("breakers", p.breakers);
  p.brownout = flags.GetBool("brownout", p.brownout);
  p.admission_max_in_flight = static_cast<std::uint32_t>(
      flags.GetInt("admission-in-flight", p.admission_max_in_flight));
  p.breaker_p99_ms = flags.GetDouble("breaker-p99-ms", p.breaker_p99_ms);
  return p;
}

std::string ExperimentParams::Describe() const {
  std::ostringstream os;
  os << "sites=" << num_sites << " clients=" << clients;
  if (workload == "wiki") {
    os << " workload=wikipedia pages=" << wiki_pages;
  } else if (workload == "flash") {
    os << " workload=flash blocks=" << num_blocks << " hot=" << flash_hot_blocks
       << " frac=" << flash_fraction << " duty=" << flash_duty;
  } else {
    os << " workload=ycsb-e blocks=" << num_blocks
       << " block=" << block_bytes / 1024 << "KB zipf=" << zipf_exponent;
  }
  os << " warmup=" << warmup_s << "s measure=" << measure_s << "s runs=" << runs;
  if (!codec.empty()) os << " codec=" << codec;
  if (tail_weight > 0) os << " tail-weight=" << tail_weight;
  if (adaptive_delta) os << " adaptive-delta";
  if (stall_prob >= 0) os << " stall-prob=" << stall_prob;
  if (stall_mult >= 0) os << " stall-mult=" << stall_mult;
  if (cache_mb > 0) {
    os << " cache=" << cache_mb << "MB" << (prefetch ? "+prefetch" : "");
  }
  if (replica_budget_mb > 0) os << " replica-budget=" << replica_budget_mb << "MB";
  if (think_ms > 0) os << " think=" << think_ms << "ms";
  if (deadline_ms > 0) os << " deadline=" << deadline_ms << "ms";
  if (admission) os << " admission";
  if (breakers) os << " breakers";
  if (brownout) os << " brownout";
  return os.str();
}

namespace {

std::unique_ptr<WorkloadGenerator> MakeWorkload(const ExperimentParams& p,
                                                std::uint64_t seed) {
  if (p.workload == "wiki") {
    WikipediaWorkload::Params wp;
    wp.num_pages = p.wiki_pages;
    wp.seed = seed ^ 0x77696B69;
    return std::make_unique<WikipediaWorkload>(wp);
  }
  if (p.workload == "flash") {
    FlashCrowdWorkload::Params fp;
    fp.num_blocks = p.num_blocks;
    fp.block_bytes = p.block_bytes;
    fp.max_scan_length = p.max_scan_length;
    fp.zipf_exponent = p.zipf_exponent;
    fp.flash_fraction = p.flash_fraction;
    fp.hot_blocks = p.flash_hot_blocks;
    fp.period_requests = p.flash_period;
    fp.flash_duty = p.flash_duty;
    return std::make_unique<FlashCrowdWorkload>(fp);
  }
  if (p.workload != "ycsb") {
    throw std::invalid_argument("unknown workload: " + p.workload);
  }
  YcsbEWorkload::Params yp;
  yp.num_blocks = p.num_blocks;
  yp.block_bytes = p.block_bytes;
  yp.max_scan_length = p.max_scan_length;
  yp.zipf_exponent = p.zipf_exponent;
  return std::make_unique<YcsbEWorkload>(yp);
}

}  // namespace

RunResult RunOnce(Technique technique, const ExperimentParams& params,
                  std::uint64_t seed, const StoreSetupHook& setup) {
  ECStoreConfig config = ECStoreConfig::ForTechnique(technique);
  config.num_sites = params.num_sites;
  config.seed = seed;
  config.mover_chunks_per_sec = params.mover_rate;
  config.mover.w1 = params.mover_w1;
  config.mover.w2 = params.mover_w2;
  config.late_binding_delta = params.late_binding_delta;
  if (params.disable_plan_cache) config.plan_cache_capacity = 1;
  config.site.disk_bytes_per_sec = params.disk_mb_per_sec * 1024 * 1024;
  config.site.concurrency = params.site_concurrency;
  if (params.stall_prob >= 0) config.site.stall_probability = params.stall_prob;
  if (params.stall_mult >= 0) config.site.stall_multiplier = params.stall_mult;
  config.tail_weight = params.tail_weight;
  config.adaptive_delta = params.adaptive_delta;
  config.k = params.k;
  config.r = params.r;
  if (!params.codec.empty()) {
    const CodecSpec spec = ParseCodecSpec(params.codec);
    config.codec_family = spec.family;
    config.k = spec.k;
    config.r = spec.r;
    config.codec_locals = spec.l;
  }
  for (std::uint32_t s = 0; s < params.slow_sites; ++s) {
    config.slow_sites.push_back(static_cast<SiteId>(s * 5 % params.num_sites));
  }
  config.slow_factor = params.slow_factor;
  if (params.enable_repair) config.repair_wait = FromSeconds(params.repair_wait_s);
  config.cache_capacity_bytes =
      static_cast<std::uint64_t>(params.cache_mb * 1024 * 1024);
  config.cache_prefetch = params.prefetch;
  config.promotion.budget_bytes =
      static_cast<std::uint64_t>(params.replica_budget_mb * 1024 * 1024);
  config.overload.deadline_ms = params.deadline_ms;
  config.overload.admission = params.admission;
  config.overload.breakers = params.breakers;
  config.overload.brownout = params.brownout;
  config.overload.admission_max_in_flight = params.admission_max_in_flight;
  config.overload.breaker_p99_ms = params.breaker_p99_ms;

  SimECStore store(config);
  auto workload = MakeWorkload(params, seed);
  for (const BlockSpec& b : workload->Blocks()) store.LoadBlock(b.id, b.bytes);

  if (setup) setup(store);

  std::unique_ptr<RepairService> repair;
  if (params.enable_repair) {
    repair = std::make_unique<RepairService>(&store);
    repair->Start();
  }

  ClosedLoopDriver::Params dp;
  dp.clients = params.clients;
  dp.warmup = FromSeconds(params.warmup_s);
  dp.measure = FromSeconds(params.measure_s);
  dp.think = FromMillis(params.think_ms);
  ClosedLoopDriver driver(&store, workload.get(), dp);
  driver.Run();

  RunResult result;
  result.metrics = driver.metrics();
  result.timeline = driver.Timeline();
  result.site_bytes_start = driver.measure_start_bytes();
  result.site_bytes_end = store.SiteBytesRead();
  result.imbalance_lambda = store.ImbalanceLambda(result.site_bytes_start);
  result.cache_hit_rate =
      result.metrics.cache_lookups
          ? static_cast<double>(result.metrics.cache_hits) /
                static_cast<double>(result.metrics.cache_lookups)
          : 0.0;
  result.usage = store.Usage();
  result.measure_seconds = params.measure_s;
  result.requests = result.metrics.requests;
  return result;
}

std::vector<RunResult> RunSeedsRaw(Technique technique,
                                   const ExperimentParams& params,
                                   const StoreSetupHook& setup) {
  std::vector<RunResult> results;
  results.reserve(params.runs);
  for (std::uint32_t run = 0; run < params.runs; ++run) {
    results.push_back(RunOnce(technique, params, params.base_seed + run, setup));
  }
  return results;
}

AggregateBreakdown RunSeeds(Technique technique, const ExperimentParams& params,
                            const StoreSetupHook& setup) {
  return Aggregate(RunSeedsRaw(technique, params, setup));
}

AggregateBreakdown Aggregate(const std::vector<RunResult>& runs) {
  AggregateBreakdown agg;
  for (const RunResult& r : runs) {
    agg.total.Add(r.metrics.total.Mean() / kMillisecond);
    agg.metadata.Add(r.metrics.metadata.Mean() / kMillisecond);
    agg.planning.Add(r.metrics.planning.Mean() / kMillisecond);
    agg.retrieval.Add(r.metrics.retrieval.Mean() / kMillisecond);
    agg.decode.Add(r.metrics.decode.Mean() / kMillisecond);
    agg.imbalance.Add(r.imbalance_lambda);
    agg.cache_hit_rate.Add(r.cache_hit_rate);
    agg.throughput.Add(static_cast<double>(r.requests) / r.measure_seconds);
    agg.sites_per_request.Add(r.metrics.sites_per_request.Mean());
  }
  return agg;
}

ControlPlaneUsage SumUsage(const std::vector<RunResult>& runs) {
  ControlPlaneUsage sum;
  for (const RunResult& r : runs) {
    sum.degraded_reads += r.usage.degraded_reads;
    sum.retried_fetches += r.usage.retried_fetches;
    sum.cancelled_fetch_jobs += r.usage.cancelled_fetch_jobs;
    sum.checksum_failures += r.usage.checksum_failures;
    sum.chunks_scrubbed += r.usage.chunks_scrubbed;
    sum.chunks_repaired += r.usage.chunks_repaired;
    sum.sites_marked_dead += r.usage.sites_marked_dead;
    sum.repair_bytes_read += r.usage.repair_bytes_read;
    sum.repair_chunks_read += r.usage.repair_chunks_read;
    sum.cache_hits += r.usage.cache_hits;
    sum.cache_misses += r.usage.cache_misses;
    sum.cache_evictions += r.usage.cache_evictions;
    sum.cache_invalidations += r.usage.cache_invalidations;
    sum.prefetch_issued += r.usage.prefetch_issued;
    sum.prefetch_hits += r.usage.prefetch_hits;
    sum.cache_bytes += r.usage.cache_bytes;
    sum.blocks_promoted += r.usage.blocks_promoted;
    sum.blocks_demoted += r.usage.blocks_demoted;
    sum.replica_extra_bytes += r.usage.replica_extra_bytes;
    sum.requests_shed += r.usage.requests_shed;
    sum.deadline_exceeded += r.usage.deadline_exceeded;
    sum.breaker_opens += r.usage.breaker_opens;
    sum.breaker_half_open_probes += r.usage.breaker_half_open_probes;
    // brownout_level is a gauge: take the max observed across seeds so a
    // summed row still answers "did the ladder engage?".
    sum.brownout_level = std::max(sum.brownout_level, r.usage.brownout_level);
    sum.expired_jobs_cancelled += r.usage.expired_jobs_cancelled;
  }
  return sum;
}

std::string UsageJson(
    const std::string& bench,
    const std::vector<std::pair<std::string, ControlPlaneUsage>>& rows) {
  std::ostringstream os;
  os << "{\"bench\":\"" << bench << "\",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ControlPlaneUsage& u = rows[i].second;
    if (i) os << ",";
    os << "{\"label\":\"" << rows[i].first << "\""
       << ",\"degraded_reads\":" << u.degraded_reads
       << ",\"retried_fetches\":" << u.retried_fetches
       << ",\"cancelled_fetch_jobs\":" << u.cancelled_fetch_jobs
       << ",\"checksum_failures\":" << u.checksum_failures
       << ",\"chunks_scrubbed\":" << u.chunks_scrubbed
       << ",\"chunks_repaired\":" << u.chunks_repaired
       << ",\"sites_marked_dead\":" << u.sites_marked_dead
       << ",\"repair_bytes_read\":" << u.repair_bytes_read
       << ",\"repair_chunks_read\":" << u.repair_chunks_read
       << ",\"cache_hits\":" << u.cache_hits
       << ",\"cache_misses\":" << u.cache_misses
       << ",\"cache_evictions\":" << u.cache_evictions
       << ",\"prefetch_issued\":" << u.prefetch_issued
       << ",\"prefetch_hits\":" << u.prefetch_hits
       << ",\"cache_bytes\":" << u.cache_bytes
       << ",\"blocks_promoted\":" << u.blocks_promoted
       << ",\"blocks_demoted\":" << u.blocks_demoted
       << ",\"replica_extra_bytes\":" << u.replica_extra_bytes
       << ",\"requests_shed\":" << u.requests_shed
       << ",\"deadline_exceeded\":" << u.deadline_exceeded
       << ",\"breaker_opens\":" << u.breaker_opens
       << ",\"breaker_half_open_probes\":" << u.breaker_half_open_probes
       << ",\"brownout_level\":" << u.brownout_level
       << ",\"expired_jobs_cancelled\":" << u.expired_jobs_cancelled << "}";
  }
  os << "]}\n";
  return os.str();
}

void MaybeWriteUsageJson(
    const Flags& flags, const std::string& bench,
    const std::vector<std::pair<std::string, ControlPlaneUsage>>& rows) {
  const std::string path = flags.GetString("usage-json", "");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write --usage-json=" + path);
  out << UsageJson(bench, rows);
  std::printf("robustness counters -> %s\n", path.c_str());
}

std::vector<Technique> AllTechniques() {
  return {Technique::kReplication, Technique::kEc,   Technique::kEcLb,
          Technique::kEcC,         Technique::kEcCM, Technique::kEcCMLb};
}

std::vector<Technique> TechniquesFromFlags(const Flags& flags) {
  const std::string list = flags.GetString("techniques", "");
  if (list.empty()) return AllTechniques();
  std::vector<Technique> out;
  std::stringstream ss(list);
  std::string token;
  while (std::getline(ss, token, ',')) out.push_back(ParseTechnique(token));
  return out;
}

std::string WithCi(const RunningStat& stat) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f ±%.1f", stat.Mean(),
                stat.ConfidenceHalfWidth95());
  return buf;
}

void PrintBreakdownTable(const std::string& title,
                         const std::vector<Technique>& techniques,
                         const std::vector<AggregateBreakdown>& rows) {
  std::printf("\n%s\n", title.c_str());
  std::printf("%-12s %14s %14s %14s %14s %14s %9s %7s %7s %7s\n", "technique",
              "metadata(ms)", "planning(ms)", "retrieval(ms)", "decode(ms)",
              "total(ms)", "req/s", "hit%", "imbal", "sites");
  for (std::size_t i = 0; i < techniques.size(); ++i) {
    const AggregateBreakdown& a = rows[i];
    std::printf("%-12s %14s %14s %14s %14s %14s %9.0f %7.0f %7.1f %7.1f\n",
                TechniqueName(techniques[i]).c_str(), WithCi(a.metadata).c_str(),
                WithCi(a.planning).c_str(), WithCi(a.retrieval).c_str(),
                WithCi(a.decode).c_str(), WithCi(a.total).c_str(),
                a.throughput.Mean(), 100 * a.cache_hit_rate.Mean(),
                a.imbalance.Mean(), a.sites_per_request.Mean());
  }
}

}  // namespace ecstore::bench
