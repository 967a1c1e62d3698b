// scan-small: YCSB-E closed loops against the threaded real-bytes
// LocalECStore. Each of kClients threads scans (Zipf start, 1-8 blocks)
// or, for kInsertShare of its operations, inserts a fresh block and
// removes its own oldest one beyond kWriterWindow, so stored bytes stay
// level and scans never meet a removed id.
//
// The untraced run times whole MultiGet/Put/Remove calls. The traced run
// first repeats that for part of its time (the baseline of
// trace.overhead_ratio), then replaces every kTraceEvery-th operation
// with a traced one: a scan becomes the same public call sequence
// MultiGet makes (ReplicaMultiGet below), each call a span whose parent
// is the request span; an insert times CodecFamily::Encode beside its Put
// and Remove. The other scans stay real MultiGet calls, timed as
// core.multiget spans; their mean minus the replica's stage means is the
// data plane's own cost (thread handoffs, waits, load refresh, copy-out).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/local_store.h"
#include "placement/cost_model.h"
#include "placement/planner.h"
#include "spans.h"
#include "workload/workload.h"
#include "workloads.h"

namespace ecbench {
namespace {

using namespace ecstore;

// The data set: 8192 x 16 KiB blocks (128 MiB) under RS(2,2) on 16 sites,
// 8x the decoded-block cache.
constexpr std::size_t kSites = 16;
constexpr std::uint64_t kBlocks = 8192;
constexpr std::size_t kBlockBytes = 16 * 1024;
constexpr std::uint64_t kCacheBytes = 16ull << 20;
// The load: YCSB-E's 95% scans / 5% inserts from two closed-loop clients.
constexpr int kClients = 2;
constexpr double kZipf = 0.99;
constexpr std::uint32_t kMaxScan = 8;
constexpr double kInsertShare = 0.05;
/// Blocks a client keeps live; beyond this it removes its oldest.
constexpr std::size_t kWriterWindow = 16;
/// Client c writes ids from kBlocks + c * kWriteIdStride upward.
constexpr BlockId kWriteIdStride = BlockId{1} << 40;

constexpr int kSetupRepeats = 5;
/// Traced run: every kTraceEvery-th operation of a client is traced, up
/// to kMaxTracedPerThread of them (bounds span memory).
constexpr std::uint64_t kTraceEvery = 4;
constexpr std::uint64_t kMaxTracedPerThread = 4096;
/// Demand sets kept for timing IlpPlan after the run.
constexpr std::size_t kIlpSamplesPerThread = 128;

enum Phase : int { kWarmup, kMeasure, kTraced, kStop };
/// Samples are kept per measured phase: [0] untraced, [1] traced.
int Slot(Phase p) { return p == kTraced ? 1 : 0; }

ECStoreConfig MakeConfig(std::uint64_t seed) {
  // EC+C+M+LB: cost-model planning, plan cache, δ=1 late binding. The
  // mover is never driven (no maintenance thread, no movement rounds).
  ECStoreConfig c = ECStoreConfig::ForTechnique(Technique::kEcCMLb);
  c.num_sites = kSites;
  c.k = 2;
  c.r = 2;
  c.late_binding_delta = 1;
  c.control_plane_shards = 8;
  c.cache_capacity_bytes = kCacheBytes;
  c.seed = seed;
  return c;
}

std::unique_ptr<LocalECStore> LoadStore(std::uint64_t seed) {
  auto store = std::make_unique<LocalECStore>(MakeConfig(seed));
  std::vector<std::uint8_t> block(kBlockBytes);
  for (BlockId id = 0; id < kBlocks; ++id) {
    FillBlock(seed, id, 0, block);
    store->Put(id, block);
  }
  return store;
}

/// Store counters read at phase boundaries; ratios use their deltas.
struct Counters {
  std::uint64_t jobs_run = 0, jobs_cancelled = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t plan_hits = 0, plan_misses = 0;
  std::uint64_t ilp_solves = 0, moves = 0;

  static Counters Read(const LocalECStore& store) {
    Counters c;
    c.jobs_run = store.data_plane().jobs_run();
    c.jobs_cancelled = store.data_plane().jobs_cancelled();
    const ControlPlaneUsage u = store.Usage();
    c.cache_hits = u.cache_hits;
    c.cache_misses = u.cache_misses;
    c.cache_evictions = u.cache_evictions;
    c.ilp_solves = u.ilp_solves;
    c.moves = u.moves_executed;
    const auto totals = store.control_plane().CacheTotals();
    c.plan_hits = totals.hits;
    c.plan_misses = totals.misses;
    return c;
  }
  Counters Minus(const Counters& o) const {
    return {jobs_run - o.jobs_run,         jobs_cancelled - o.jobs_cancelled,
            cache_hits - o.cache_hits,     cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions, plan_hits - o.plan_hits,
            plan_misses - o.plan_misses,   ilp_solves - o.ilp_solves,
            moves - o.moves};
  }
};

/// What one client observed. Owned by that thread until it joins.
struct ThreadStats {
  explicit ThreadStats(std::uint32_t index) : log(index) {}

  std::vector<Timed> gets[2], puts[2], removes[2];
  std::uint64_t attempted = 0;  // every operation, warm-up included
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;   // reads whose bytes differ from those written
  std::uint64_t verified = 0;     // blocks whose bytes were checked
  // Traced-operation counters.
  std::uint64_t traced = 0;
  std::uint64_t decodes = 0, parity_decodes = 0;
  SpanLog log;
  std::vector<std::vector<BlockDemand>> ilp_samples;
  std::deque<BlockId> live_written;  // this client's inserted ids still stored
  std::string error;                 // why the thread stopped early, if it did
};

/// MultiGet's call sequence through public functions, one span per call.
/// Fetches run inline in plan order; a block completes on its first k
/// chunks, and its remaining late-binding reads are skipped as the data
/// plane would cancel or ignore them.
std::vector<std::vector<std::uint8_t>> ReplicaMultiGet(
    LocalECStore& store, std::span<const BlockId> ids, ThreadStats& st,
    std::uint64_t request) {
  SpanLog& log = st.log;
  ScopedSpan root(log, request, 0, "core.multiget.replica");
  const std::uint64_t p = root.id();
  ControlPlane& cp = store.control_plane();
  {
    ScopedSpan s(log, request, p, "stats.record");
    cp.RecordRequest(ids);
  }

  BlockCache* cache = store.block_cache();
  std::vector<std::shared_ptr<const std::vector<std::uint8_t>>> blocks(ids.size());
  std::vector<BlockId> miss_ids;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ScopedSpan s(log, request, p, "cache.lookup");
    if (cache->Lookup(ids[i], store.state().BlockVersion(ids[i]), &blocks[i]) &&
        blocks[i] != nullptr) {
      cache->UpdateWeight(ids[i], cp.BlockAccessFrequency(ids[i]));
    } else {
      blocks[i].reset();
      miss_ids.push_back(ids[i]);
    }
  }

  if (!miss_ids.empty()) {
    std::uint32_t delta = 0;
    {
      ScopedSpan s(log, request, p, "placement.adaptive_delta");
      delta = cp.AdaptiveDelta(miss_ids);
    }
    DemandResult dr;
    {
      ScopedSpan s(log, request, p, "placement.build_demands");
      dr = BuildDemands(store.state(), miss_ids, delta);
    }
    for (bool readable : dr.readable) {
      if (!readable) throw std::runtime_error("replica: block unreadable");
    }
    PlanDecision decision;
    {
      ScopedSpan s(log, request, p, "placement.plan");
      decision = cp.SelectAccessPlan(miss_ids, dr.demands, delta);
    }
    if (st.ilp_samples.size() < kIlpSamplesPerThread && st.traced % 8 == 0) {
      st.ilp_samples.push_back(dr.demands);
    }

    const std::size_t n = dr.demands.size();
    std::vector<BlockInfo> info(n);
    for (std::size_t i = 0; i < n; ++i) {
      ScopedSpan s(log, request, p, "cluster.read_block");
      if (!store.state().ReadBlock(dr.demands[i].block, &info[i])) {
        throw std::runtime_error("replica: block vanished");
      }
    }

    std::vector<std::vector<IndexedChunk>> got(n);
    for (const ChunkRead& read : decision.plan.reads) {
      std::size_t i = 0;
      while (dr.demands[i].block != read.block) ++i;  // plans read only demanded blocks
      if (got[i].size() >= info[i].k) continue;
      ScopedSpan s(log, request, p, "core.storage_node.fetch");
      const auto data = store.node(read.site).FetchChunk(read.block, read.chunk);
      if (data != nullptr) got[i].push_back({read.chunk, *data});
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (got[i].size() < info[i].k) throw std::runtime_error("replica: short of k");
      const auto family = GetCodecFamily(info[i].codec);
      std::vector<ChunkIndex> have;
      for (const IndexedChunk& c : got[i]) have.push_back(c.index);
      ++st.decodes;
      if (!family->IsTrivialDecode(have)) ++st.parity_decodes;
      std::shared_ptr<const std::vector<std::uint8_t>> decoded;
      {
        ScopedSpan s(log, request, p, "erasure.decode");
        decoded = std::make_shared<const std::vector<std::uint8_t>>(
            family->Decode(got[i], info[i].block_bytes));
      }
      {
        ScopedSpan s(log, request, p, "cache.insert");
        cache->Insert(dr.demands[i].block, decoded, decoded->size(),
                      info[i].version, cp.BlockAccessFrequency(dr.demands[i].block));
      }
      for (std::size_t pos = 0; pos < ids.size(); ++pos) {
        if (ids[pos] == dr.demands[i].block && blocks[pos] == nullptr) blocks[pos] = decoded;
      }
    }
  }

  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(ids.size());
  for (const auto& b : blocks) out.push_back(*b);
  {
    ScopedSpan s(log, request, p, "lp.drain");
    store.DrainBackgroundWork();
  }
  return out;
}

struct Shared {
  std::uint64_t seed;
  LocalECStore& store;
  std::atomic<int> phase{kWarmup};
};

void Scan(Shared& sh, ThreadStats& st, const std::vector<BlockId>& ids,
          Phase phase, bool traced) {
  const std::uint64_t request = st.log.NewId();
  std::vector<std::vector<std::uint8_t>> out;
  const std::int64_t t0 = NowNs();
  try {
    out = traced ? ReplicaMultiGet(sh.store, ids, st, request) : sh.store.MultiGet(ids);
  } catch (const std::exception&) {
    ++st.attempted;
    ++st.failed;
    return;
  }
  const std::int64_t t1 = NowNs();
  if (phase == kTraced && !traced) {
    st.log.Add({request, st.log.NewId(), 0, "core.multiget", t0, t1});
  }
  ++st.attempted;
  if (phase != kWarmup) st.gets[Slot(phase)].push_back({t1, static_cast<double>(t1 - t0) / 1e3});
  if (out.size() != ids.size()) {
    ++st.mismatched;
    return;
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ++st.verified;
    if (!BlockMatches(sh.seed, ids[i], 0, kBlockBytes, out[i])) ++st.mismatched;
  }
}

/// Put of a fresh block, then Remove of the client's oldest beyond
/// kWriterWindow.
void Insert(Shared& sh, ThreadStats& st, BlockId id, const CodecFamily& family,
            std::vector<std::uint8_t>& block, Phase phase, bool traced) {
  FillBlock(sh.seed, id, 0, block);
  const std::uint64_t request = st.log.NewId();
  std::optional<ScopedSpan> root;
  if (traced) {
    root.emplace(st.log, request, 0, "core.write");
    // Put encodes inside the store; the same Encode is timed here on its
    // own, beside the Put span.
    ScopedSpan s(st.log, request, root->id(), "erasure.encode");
    if (family.Encode(block).empty()) throw std::logic_error("empty encode");
  }
  const std::uint64_t parent = root ? root->id() : 0;
  const bool counted = phase != kWarmup;  // latency samples skip the warm-up
  const std::int64_t t0 = NowNs();
  try {
    sh.store.Put(id, block);
  } catch (const std::exception&) {
    ++st.attempted;
    ++st.failed;
    return;
  }
  const std::int64_t t1 = NowNs();
  if (traced) st.log.Add({request, st.log.NewId(), parent, "core.put", t0, t1});
  ++st.attempted;
  if (counted) st.puts[Slot(phase)].push_back({t1, static_cast<double>(t1 - t0) / 1e3});
  st.live_written.push_back(id);
  if (st.live_written.size() <= kWriterWindow) return;

  const BlockId victim = st.live_written.front();
  st.live_written.pop_front();
  const std::int64_t t2 = NowNs();
  const bool removed = sh.store.Remove(victim);
  const std::int64_t t3 = NowNs();
  if (traced) st.log.Add({request, st.log.NewId(), parent, "core.remove", t2, t3});
  ++st.attempted;
  if (!removed) ++st.failed;
  if (counted) st.removes[Slot(phase)].push_back({t3, static_cast<double>(t3 - t2) / 1e3});
}

void ClientLoop(Shared& sh, Rng rng, ThreadStats& st, BlockId first_write_id) {
  YcsbEWorkload::Params wp;
  wp.num_blocks = kBlocks;
  wp.block_bytes = kBlockBytes;
  wp.max_scan_length = kMaxScan;
  wp.zipf_exponent = kZipf;
  YcsbEWorkload workload(wp);
  workload.OnMeasurementStart();  // Zipf scan starts from the first request
  const auto family = GetCodecFamily(sh.store.config().BlockCodec());
  std::vector<std::uint8_t> block(kBlockBytes);
  BlockId next_write = first_write_id;
  std::uint64_t count = 0;
  for (;;) {
    const auto phase = static_cast<Phase>(sh.phase.load(std::memory_order_acquire));
    if (phase == kStop) break;
    const bool traced = phase == kTraced && count++ % kTraceEvery == 0 &&
                        st.traced < kMaxTracedPerThread;
    st.traced += traced;
    if (rng.NextDouble() < kInsertShare) {
      Insert(sh, st, next_write++, *family, block, phase, traced);
    } else {
      Scan(sh, st, workload.NextRequest(rng), phase, traced);
    }
  }
}

/// Runs a client's loop, keeping any escaping exception as its error.
void GuardedClient(Shared& sh, Rng rng, ThreadStats& st, BlockId first_write_id) {
  try {
    ClientLoop(sh, rng, st, first_write_id);
  } catch (const std::exception& e) {
    st.error = e.what();
  }
}

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// part / whole, or 0 when nothing was counted.
double Ratio(double part, double whole) { return whole == 0 ? 0 : part / whole; }

}  // namespace

Report RunScanSmall(const RunOptions& opt) {
  using Clock = std::chrono::steady_clock;
  Report rep;

  // Set-up (construction + bulk load) runs several times; the fastest is
  // reported (interference from other tenants of a shared machine only
  // ever adds time) and the last store is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<LocalECStore> store;
  for (int i = 0; i < kSetupRepeats; ++i) {
    store.reset();
    const auto t0 = Clock::now();
    store = LoadStore(opt.seed);
    setup_s.push_back(Seconds(Clock::now() - t0));
  }

  Shared sh{opt.seed, *store};
  std::vector<ThreadStats> stats;
  stats.reserve(kClients);
  for (int t = 0; t < kClients; ++t) stats.emplace_back(static_cast<std::uint32_t>(t + 1));
  Rng root(opt.seed ^ 0x5CA11E5ULL);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(GuardedClient, std::ref(sh), root.Split(), std::ref(stats[t]),
                         kBlocks + static_cast<BlockId>(t) * kWriteIdStride);
  }

  // Phases: warm-up (cache fills, plan cache and ILP refinements settle),
  // then the measured window; a traced run splits it into an untraced
  // baseline and the traced part.
  const double warmup_s = std::min(2.0, 0.2 * opt.seconds);
  const double measure_s = opt.trace ? 0.4 * opt.seconds : opt.seconds;
  const double traced_s = opt.trace ? opt.seconds - measure_s : 0;
  const auto sleep = [](double s) {
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
  };
  sleep(warmup_s);
  const Counters c0 = Counters::Read(*store);
  const std::int64_t measure_begin = NowNs();
  sh.phase.store(kMeasure, std::memory_order_release);
  sleep(measure_s);
  const Counters c1 = Counters::Read(*store);
  const std::int64_t measure_end = NowNs();
  if (opt.trace) {
    sh.phase.store(kTraced, std::memory_order_release);
    sleep(traced_s);
  }
  sh.phase.store(kStop, std::memory_order_release);
  for (auto& c : clients) c.join();

  // Merge the per-client observations.
  std::vector<Timed> gets[2], puts[2], removes[2];
  std::uint64_t mismatched = 0, verified = 0, decodes = 0, parity_decodes = 0;
  std::vector<BlockId> live_written;
  for (ThreadStats& st : stats) {
    for (int s = 0; s < 2; ++s) {
      gets[s].insert(gets[s].end(), st.gets[s].begin(), st.gets[s].end());
      puts[s].insert(puts[s].end(), st.puts[s].begin(), st.puts[s].end());
      removes[s].insert(removes[s].end(), st.removes[s].begin(), st.removes[s].end());
    }
    rep.attempted += st.attempted;
    rep.failed += st.failed;
    mismatched += st.mismatched;
    verified += st.verified;
    decodes += st.decodes;
    parity_decodes += st.parity_decodes;
    live_written.insert(live_written.end(), st.live_written.begin(), st.live_written.end());
    if (!st.error.empty()) rep.Check(false, "client stopped: " + st.error);
  }

  // Output checks: every scan was compared as it returned; the inserted
  // blocks still live are read back once now.
  const auto got = store->MultiGet(live_written);
  for (std::size_t i = 0; i < live_written.size(); ++i) {
    ++verified;
    if (!BlockMatches(opt.seed, live_written[i], 0, kBlockBytes, got[i])) ++mismatched;
  }
  rep.Check(mismatched == 0,
            RatioBase(verified - mismatched, verified, "blocks read back as written"));
  rep.Check(rep.failed == 0,
            RatioBase(rep.failed, rep.attempted, "operations failed or refused"));

  // End-to-end figures come from 1 s windows of the measured phase.
  const std::size_t windows = std::max<std::size_t>(1, std::lround(measure_s));
  const auto windowed = [&](const std::vector<Timed>& ops) {
    return SummarizeWindows(ops, measure_begin, measure_end, windows);
  };
  const WindowedSummary get = windowed(gets[0]);

  if (!opt.trace) {
    auto& m = rep.end_to_end;
    const std::string base = SampleBase(get.n) + ", fastest tenth of " +
                             std::to_string(windows) + " windows";
    rep.Add(m, "setup_s", *std::min_element(setup_s.begin(), setup_s.end()), "s",
            "fastest of " + std::to_string(kSetupRepeats));
    rep.Add(m, "get_ops_per_s", get.ops_per_s, "ops/s", base);
    rep.Add(m, "get_mean_us", get.mean, "us", base);
    rep.Add(m, "get_p50_us", get.p50, "us", base);
    rep.Add(m, "get_p90_us", get.p90, "us", base);
    const double live_user_bytes =
        static_cast<double>((kBlocks + live_written.size()) * kBlockBytes);
    rep.Add(m, "storage_overhead",
            static_cast<double>(store->TotalStoredBytes()) / live_user_bytes,
            "bytes/byte", "stored/live user bytes");
    rep.Add(m, "peak_rss_mb", PeakRssMb(), "MiB");
    auto& x = rep.extra;
    rep.Add(x, "get_p99_us", get.p99, "us", base);
    const LatencySummary put = Summarize(Latencies(puts[0]));
    rep.Add(x, "put_ops_per_s", static_cast<double>(put.n) / measure_s, "ops/s",
            SampleBase(put.n));
    rep.Add(x, "put_p50_us", put.p50, "us", SampleBase(put.n));
    rep.Add(x, "put_p99_us", put.p99, "us", SampleBase(put.n));
    const LatencySummary remove = Summarize(Latencies(removes[0]));
    rep.Add(x, "remove_p50_us", remove.p50, "us", SampleBase(remove.n));
    return rep;
  }

  // --- Traced run: per-layer metrics.
  std::vector<Span> spans;
  for (const ThreadStats& st : stats) {
    spans.insert(spans.end(), st.log.spans().begin(), st.log.spans().end());
  }
  if (!opt.spans_path.empty()) {
    rep.Check(WriteSpans(opt.spans_path, spans, "ns"), "spans written to " + opt.spans_path);
  }
  const std::map<std::string, SelfTime> self = SelfTimes(spans);
  const auto total_us = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.total / 1e3;
  };
  const auto count = [&self](const char* name) -> std::uint64_t {
    const auto it = self.find(name);
    return it == self.end() ? 0 : it->second.count;
  };
  const std::uint64_t replicas = count("core.multiget.replica");
  const std::string per_replica = "per request, " + SampleBase(replicas) + " traced";
  auto& m = rep.per_layer;
  double stage_sum = 0;
  const auto stage = [&](const char* metric, std::initializer_list<const char*> names) {
    double t = 0;
    std::uint64_t calls = 0;
    for (const char* n : names) {
      t += total_us(n);
      calls += count(n);
    }
    const double v = Ratio(t, replicas);
    stage_sum += v;
    rep.Add(m, metric, v, "us", per_replica + ", " + std::to_string(calls) + " calls");
  };
  stage("stats.record_us", {"stats.record"});
  stage("cache.lookup_us", {"cache.lookup"});
  stage("placement.demands_us", {"placement.adaptive_delta", "placement.build_demands"});
  stage("placement.plan_us", {"placement.plan"});
  stage("cluster.read_block_us", {"cluster.read_block"});
  stage("core.storage_node.fetch_us", {"core.storage_node.fetch"});
  stage("erasure.decode_us", {"erasure.decode"});
  stage("cache.insert_us", {"cache.insert"});
  stage("lp.drain_us", {"lp.drain"});

  const std::uint64_t real = count("core.multiget");
  const double multiget_us = Ratio(total_us("core.multiget"), real);
  rep.Add(m, "core.multiget_us", multiget_us, "us", SampleBase(real));
  const double overhead = multiget_us - stage_sum;
  rep.Add(m, "core.data_plane.overhead_us", overhead, "us",
          "core.multiget_us - sum of traced stages");
  rep.Check(overhead >= 0,
            "core.data_plane.overhead_us >= 0 (MultiGet " + std::to_string(multiget_us) +
                " us, stages " + std::to_string(stage_sum) + " us)",
            /*fatal=*/false);
  rep.Add(rep.extra, "core.multiget.replica_self_us",
          Ratio(total_us("core.multiget.replica"), replicas), "us",
          per_replica + " (benchmark glue and copy-out)");

  for (const char* name : {"core.put", "core.remove", "erasure.encode"}) {
    rep.Add(m, std::string(name) + "_us", Ratio(total_us(name), count(name)), "us",
            SampleBase(count(name)) + " calls");
  }
  rep.Add(m, "erasure.parity_decode_ratio", Ratio(parity_decodes, decodes), "ratio",
          RatioBase(parity_decodes, decodes, "decodes used parity"));

  // Counter ratios over the untraced part of the run.
  const Counters d = c1.Minus(c0);
  const std::uint64_t measured_gets = get.n;
  const std::uint64_t plan_lookups = d.plan_hits + d.plan_misses;
  rep.Add(m, "placement.plan_cache_hit_ratio", Ratio(d.plan_hits, plan_lookups), "ratio",
          RatioBase(d.plan_hits, plan_lookups, "plan lookups hit"));
  rep.Add(m, "placement.moves", static_cast<double>(d.moves), "count",
          "moves executed (mover not driven)");
  rep.Add(m, "lp.ilp_solves_per_kreq", Ratio(1e3 * d.ilp_solves, measured_gets), "1/kreq",
          RatioBase(d.ilp_solves, measured_gets, "solves per MultiGet"));
  const std::uint64_t lookups = d.cache_hits + d.cache_misses;
  rep.Add(m, "cache.hit_ratio", Ratio(d.cache_hits, lookups), "ratio",
          RatioBase(d.cache_hits, lookups, "block lookups hit"));
  rep.Add(m, "cache.evictions_per_kreq", Ratio(1e3 * d.cache_evictions, measured_gets), "1/kreq",
          RatioBase(d.cache_evictions, measured_gets, "evictions per MultiGet"));
  rep.Add(m, "core.data_plane.jobs_per_request", Ratio(d.jobs_run, measured_gets), "count",
          RatioBase(d.jobs_run, measured_gets, "fetch jobs per MultiGet"));
  rep.Add(m, "core.data_plane.cancelled_ratio", Ratio(d.jobs_cancelled, d.jobs_run), "ratio",
          RatioBase(d.jobs_cancelled, d.jobs_run, "fetch jobs cancelled"));

  // IlpPlan on demand sets sampled from the traced requests.
  const CostParams params = store->CurrentCostParams();
  std::vector<double> ilp_us;
  for (const ThreadStats& st : stats) {
    for (const auto& demands : st.ilp_samples) {
      const std::int64_t t0 = NowNs();
      if (!IlpPlan(demands, params)) rep.Check(false, "IlpPlan found no plan");
      ilp_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  const LatencySummary ilp = Summarize(ilp_us);
  rep.Add(m, "lp.ilp_us", ilp.mean, "us", SampleBase(ilp.n) + " sampled demand sets");

  const LatencySummary untraced = Summarize(Latencies(gets[0]));
  const LatencySummary traced = Summarize(Latencies(gets[1]));
  rep.Add(m, "trace.overhead_ratio", Ratio(traced.p50, untraced.p50), "ratio",
          "traced p50 " + std::to_string(traced.p50) + " us (" + SampleBase(traced.n) +
              ") / untraced p50 " + std::to_string(untraced.p50) + " us (" +
              SampleBase(untraced.n) + ")");
  return rep;
}

}  // namespace ecbench
