#include "core/sim_store.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>

namespace ecstore {

namespace {

constexpr std::size_t kStatsReportMsgBytes = 64;
constexpr std::size_t kProbeMsgBytes = 32;

}  // namespace

/// In-flight multiget: the shared read core plus this transport's timing
/// state. Shared by the chunk-arrival events.
struct SimECStore::PendingRequest {
  PendingRequest(ControlPlane& cp, std::span<const BlockId> ids, SimTime now)
      : read(cp.BeginRead(ids, ToMillis(now))), start(now) {}

  ReadRequest read;
  GetCallback done;

  SimTime start = 0;
  SimTime metadata = 0;
  SimTime planning = 0;
  SimTime retrieval_start = 0;
  SimTime retrieval = 0;
  std::uint32_t sites_accessed = 0;
  std::size_t outstanding = 0;  // issued reads of this generation in flight
  bool finished = false;  // retrieval barrier passed (late chunks ignored)
  // Bumped on every (re)issue; in-flight chunk events from an older
  // generation are ignored after a failure-triggered re-plan.
  std::uint32_t generation = 0;
  // Overload control (DESIGN.md §14): absolute deadline in simulated
  // time (0 = none). A scheduled timeout event completes the request at
  // the deadline; the guarded phases check `finished` on entry so no
  // work continues past it.
  SimTime deadline = 0;
  bool deadline_hit = false;
};

SimECStore::SimECStore(ECStoreConfig config)
    : config_(config),
      rng_(config.seed),
      net_(sim::NetworkParams{}, Rng(config.seed ^ 0x6E65745F726E67ULL)),
      state_(config.num_sites),
      control_plane_(
          &config_, &state_, &rng_,
          // Executor seam: deferred ILP solves run on the DES event
          // queue after the modeled solve latency (Section V-B1 "order
          // of tens of milliseconds"), preserving simulated-time
          // semantics for every background refinement.
          [this](ControlPlane::Deferred work) {
            queue_.ScheduleAfter(kIlpSolveLatency, std::move(work));
          },
          [&] {
            LoadTrackerParams p;
            p.reference_io_bytes_per_sec = config.site.disk_bytes_per_sec;
            return p;
          }()) {
  sites_.reserve(config.num_sites);
  for (std::size_t j = 0; j < config.num_sites; ++j) {
    sim::SiteParams site_params = config.site;
    if (std::find(config.slow_sites.begin(), config.slow_sites.end(),
                  static_cast<SiteId>(j)) != config.slow_sites.end()) {
      site_params.disk_bytes_per_sec /= config.slow_factor;
      site_params.request_overhead = static_cast<SimTime>(
          static_cast<double>(site_params.request_overhead) * config.slow_factor);
    }
    sites_.push_back(std::make_unique<sim::SimSite>(
        static_cast<SiteId>(j), &queue_, site_params, rng_.Split()));
  }
}

SimECStore::~SimECStore() = default;

void SimECStore::LoadBlock(BlockId id, std::uint64_t block_bytes) {
  const std::vector<SiteId> sites =
      state_.PickRandomSites(rng_, config_.ChunksPerBlock());
  LoadBlockAt(id, block_bytes, sites);
}

void SimECStore::LoadBlockAt(BlockId id, std::uint64_t block_bytes,
                             std::span<const SiteId> sites) {
  const std::uint64_t chunk_bytes = config_.ChunkBytes(block_bytes);
  state_.AddBlock(id, block_bytes, chunk_bytes, config_.BlockCodec(), sites);
  for (SiteId s : sites) {
    sites_[s]->set_chunk_count(state_.site_chunk_counts()[s]);
  }
}

void SimECStore::LoadBlocks(BlockId first, std::uint64_t count,
                            std::uint64_t block_bytes) {
  for (std::uint64_t i = 0; i < count; ++i) LoadBlock(first + i, block_bytes);
}

void SimECStore::Start() {
  assert(!started_);
  started_ = true;
  queue_.ScheduleAfter(config_.stats_report_interval, [this] { StatsTick(); });
  queue_.ScheduleAfter(kProbeInterval, [this] { ProbeTick(); });
  if (config_.MoverEnabled()) {
    queue_.ScheduleAfter(MoverPeriod(), [this] { MoverTick(); });
  }
}

void SimECStore::Get(std::vector<BlockId> blocks, GetCallback done) {
  const SimTime start = queue_.Now();
  auto req = std::make_shared<PendingRequest>(control_plane_, blocks, start);
  if (req->read.admission() != ReadRequest::Admission::kAdmitted) {
    // Refused at the gate: a brownout-L3 cache-only answer, or the
    // fast-fail shed's modeled rejection cost.
    const bool cached =
        req->read.admission() == ReadRequest::Admission::kCachedOnly;
    const auto n = static_cast<std::uint32_t>(blocks.size());
    const SimTime serve =
        cached ? kCacheHitCost * static_cast<SimTime>(n) : kShedPenalty;
    queue_.ScheduleAfter(serve, [this, start, cached, n,
                                 done = std::move(done)] {
      RequestBreakdown out;
      out.total = queue_.Now() - start;
      out.ok = cached;
      out.shed = !cached;
      if (cached) {
        out.cached_blocks = n;
        ++requests_completed_;
      }
      done(out);
    });
    return;
  }

  req->done = std::move(done);
  OverloadControl* const overload = control_plane_.overload();
  if (overload && overload->deadline_ms() > 0) {
    // End-to-end deadline: a timeout event completes the request at the
    // budget's edge; the phase entry guards on `finished` stop all
    // further work for it.
    req->deadline = start + FromMillis(overload->deadline_ms());
    queue_.ScheduleAfter(FromMillis(overload->deadline_ms()),
                         [this, overload, req] {
      if (req->finished) return;
      overload->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      req->deadline_hit = true;
      Complete(req, /*ok=*/false);
    });
  }

  // Statistics sampling, then the client-side cache check (DESIGN.md
  // §12): version-valid hits skip the rest of the control plane; only the
  // misses continue down R1-R3. Each claimed prefetch fill is one deferred
  // event after the modeled fetch+decode delay; it re-reads the catalog
  // at fill time so a concurrent rewrite or delete simply drops the fill.
  for (BlockId block : req->read.RecordAndSplit()) {
    queue_.ScheduleAfter(kPrefetchFillLatency, [this, block] {
      BlockInfo info;
      const bool live = state_.ReadBlock(block, &info);
      control_plane_.FinishPrefetch(block, live ? &info : nullptr, nullptr);
    });
  }
  if (req->read.AllCached()) {
    // Fully cached: no metadata trip, no fan-out, no decode — just the
    // modeled per-block hit cost.
    const SimTime serve =
        kCacheHitCost * static_cast<SimTime>(req->read.cached_blocks());
    queue_.ScheduleAfter(serve, [this, req] {
      if (req->finished) return;  // The deadline fired first.
      req->finished = true;       // Disarms the deadline timer.
      RequestBreakdown out;
      out.total = queue_.Now() - req->start;
      out.cached_blocks = req->read.cached_blocks();
      Respond(*req, out);
    });
    return;
  }

  // R1: metadata access — a control-plane round trip plus lookup work.
  req->metadata =
      net_.RoundTrip() + kMetadataBaseLatency +
      kMetadataPerBlock *
          static_cast<SimTime>(blocks.size() - req->read.cached_blocks());
  queue_.ScheduleAfter(req->metadata, [this, req] { PlanPhase(req); });
}

void SimECStore::PlanPhase(std::shared_ptr<PendingRequest> req) {
  if (req->finished) return;  // Deadline fired while this was in flight.
  // R2 in the shared read core; this transport charges the decision's
  // modeled cost before the reads go out.
  if (!req->read.Plan()) {
    Complete(req, /*ok=*/false);
    return;
  }
  switch (req->read.plan_source()) {
    case PlanSource::kCacheHit:
      req->planning = kPlanLookupCost;
      break;
    case PlanSource::kGreedy:
      req->planning = kGreedyPlanCost;
      break;
    case PlanSource::kRandom:
      req->planning = kRandomPlanCost;
      break;
  }
  queue_.ScheduleAfter(req->planning, [this, req] { IssueReads(req); });
}

void SimECStore::IssueReads(const std::shared_ptr<PendingRequest>& req) {
  if (req->finished) return;  // Deadline fired while this was in flight.
  if (req->retrieval_start == 0) req->retrieval_start = queue_.Now();
  ++req->generation;
  if (req->read.complete()) {  // Nothing to fetch.
    FinishRetrieval(req);
    return;
  }
  req->outstanding = req->read.planned().size();
  req->sites_accessed = Dispatch(req, req->read.planned());
}

std::uint32_t SimECStore::Dispatch(const std::shared_ptr<PendingRequest>& req,
                                   std::span<const ChunkFetch> fetches) {
  const std::uint32_t generation = req->generation;
  // One storage-service request per accessed site: all chunks the plan
  // takes from a site travel in a single RPC, so the per-request
  // overhead o_j is paid once per site — the structure Eq. 1 models and
  // the reason co-located placement reduces retrieval cost.
  struct SiteBatch {
    std::vector<std::pair<std::size_t, ChunkIndex>> items;  // (block idx, chunk)
    std::vector<std::uint64_t> sizes;
    std::uint64_t bytes = 0;
  };
  std::map<SiteId, SiteBatch> batches;
  for (const ChunkFetch& f : fetches) {
    const std::uint64_t chunk_bytes =
        req->read.blocks()[f.block_index].info.chunk_bytes;
    SiteBatch& batch = batches[f.site];
    batch.items.emplace_back(f.block_index, f.chunk);
    batch.sizes.push_back(chunk_bytes);
    batch.bytes += chunk_bytes;
  }

  const auto sites = static_cast<std::uint32_t>(batches.size());
  for (auto& [site, batch] : batches) {
    const SimTime arrival = net_.RequestDelay();
    queue_.ScheduleAfter(arrival, [this, req, generation, site = site,
                                   batch = std::move(batch)] {
      if (req->finished) return;  // Deadline fired before dispatch.
      sim::SimSite& s = *sites_[site];
      if (!s.available()) {
        // The site failed while the request was in flight: the client
        // detects the failure and re-plans against the surviving sites
        // (Section VI-C4 "requests are routed to only the available
        // nodes").
        RetryAfterFailure(req, generation);
        return;
      }
      OverloadControl* const overload = control_plane_.overload();
      if (overload && overload->admission()) {
        // CoDel signal (DESIGN.md §14): the site's backlog delay at
        // submit time is the DES analogue of a queue sojourn.
        overload->admission()->RecordSojourn(
            ToMillis(std::max<SimTime>(s.busy_until() - queue_.Now(), 0)),
            ToMillis(queue_.Now()));
      }
      if (req->deadline > 0 &&
          std::max(s.busy_until(), queue_.Now()) >= req->deadline) {
        // Cancelled at the per-site queue (DESIGN.md §14): the site's
        // standing backlog alone pushes this batch past the request's
        // deadline — enqueueing it would burn service time on an answer
        // nobody is waiting for. The deadline timeout event completes
        // the request.
        overload->expired_jobs_cancelled.fetch_add(1,
                                                   std::memory_order_relaxed);
        return;
      }
      const SimTime submitted = queue_.Now();
      s.SubmitBatchRead(batch.sizes, [this, req, generation, site, submitted,
                                      batch](SimTime done_at) {
        // Feed the tail model: the site's service time for this batch
        // (queueing + media + NIC), exactly what a storage service would
        // self-report. Record-only — planning is unaffected until the
        // tail weight / adaptive δ knobs are turned on.
        control_plane_.RecordServiceTime(site, ToMillis(done_at - submitted));
        const SimTime back = net_.ResponseDelay(batch.bytes);
        queue_.ScheduleAfter(back, [this, req, generation, batch] {
          OnBatchArrived(req, generation, batch.items);
        });
      });
    });
  }
  return sites;
}

void SimECStore::RetryAfterFailure(const std::shared_ptr<PendingRequest>& req,
                                   std::uint32_t generation) {
  if (req->finished || req->generation != generation) return;
  if (req->deadline > 0 &&
      queue_.Now() + kMetadataBaseLatency >= req->deadline) {
    // The re-plan's earliest completion already misses the deadline: do
    // not issue it. The timeout event completes the request, so
    // retried_fetches_ counts only retries actually taken.
    return;
  }
  ++req->generation;  // Poison outstanding chunk events immediately.
  ++retried_fetches_;
  queue_.ScheduleAfter(kMetadataBaseLatency, [this, req] {
    if (req->finished) return;
    PlanPhase(req);
  });
}

void SimECStore::OnBatchArrived(
    const std::shared_ptr<PendingRequest>& req, std::uint32_t generation,
    std::span<const std::pair<std::size_t, ChunkIndex>> items) {
  // Late-binding stragglers and superseded plans are ignored.
  if (req->finished || req->generation != generation) return;
  for (const auto& [block_index, chunk] : items) {
    req->read.block(block_index).Deliver(chunk);
  }
  if (req->read.complete()) {
    FinishRetrieval(req);
    return;
  }
  req->outstanding -= items.size();
  if (req->outstanding > 0) return;
  // Every issued read arrived and a block still does not decode (an LRC
  // plan over a non-decodable chunk set): hedge with its untried chunks,
  // or fail when none are left.
  const std::vector<ChunkFetch> hedge = req->read.HedgeCandidates();
  if (hedge.empty()) {
    Complete(req, /*ok=*/false);
    return;
  }
  retried_fetches_ += hedge.size();
  req->outstanding = hedge.size();
  Dispatch(req, hedge);
}

void SimECStore::FinishRetrieval(const std::shared_ptr<PendingRequest>& req) {
  if (req->finished) return;  // Deadline fired first: already completed.
  req->finished = true;
  req->retrieval = queue_.Now() - req->retrieval_start;

  // R3: decode at the rate the read core's decode kind selects; the
  // client decodes blocks sequentially.
  SimTime decode_total = 0;
  for (const BlockRead& b : req->read.blocks()) {
    const DecodeKind kind = b.Decode();
    if (kind == DecodeKind::kNone) continue;
    const double rate = kind == DecodeKind::kReassemble
                            ? config_.reassemble_bytes_per_ms
                            : config_.decode_bytes_per_ms;
    decode_total += static_cast<SimTime>(
        static_cast<double>(b.info.block_bytes) / rate * kMillisecond);
  }
  queue_.ScheduleAfter(decode_total, [this, req, decode_total] {
    for (std::size_t i = 0; i < req->read.blocks().size(); ++i) {
      req->read.FillCache(i, nullptr);
    }
    RequestBreakdown out;
    out.metadata = req->metadata;
    out.planning = req->planning;
    out.retrieval = req->retrieval;
    out.decode = decode_total;
    out.total = queue_.Now() - req->start;
    out.plan_cache_hit = req->read.plan_source() == PlanSource::kCacheHit;
    out.sites_accessed = req->sites_accessed;
    out.cached_blocks = req->read.cached_blocks();
    Respond(*req, out);
  });
}

void SimECStore::Complete(const std::shared_ptr<PendingRequest>& req, bool ok) {
  if (req->finished) return;  // Deadline timeout and failure can race.
  req->finished = true;
  ++req->generation;  // Poison any in-flight chunk events.
  RequestBreakdown out;
  out.metadata = req->metadata;
  out.total = queue_.Now() - req->start;
  out.ok = ok;
  out.cached_blocks = req->read.cached_blocks();
  out.deadline_hit = req->deadline_hit;
  Respond(*req, out);
}

void SimECStore::Respond(PendingRequest& req, const RequestBreakdown& out) {
  req.read.Release();  // Exactly once: every path funnels through here.
  ++requests_completed_;
  req.done(out);
}

std::vector<SiteId> SimECStore::ChooseWriteSites() {
  return control_plane_.SelectWriteSites(config_.BlockCodec());
}

void SimECStore::Put(BlockId id, std::uint64_t block_bytes, PutCallback done) {
  const SimTime start = queue_.Now();
  // Admission gate (DESIGN.md §14): writes compete for the same tokens
  // as reads — under overload a shed Put fast-fails like a shed Get.
  AdmissionTicket ticket = control_plane_.Admit(ToMillis(start));
  if (ticket.shed()) {
    queue_.ScheduleAfter(kShedPenalty, [this, start, done = std::move(done)] {
      done(PutResult{queue_.Now() - start, false});
    });
    return;
  }
  if (ticket.held()) {
    done = [t = std::make_shared<AdmissionTicket>(std::move(ticket)),
            inner = std::move(done)](const PutResult& r) {
      t->Release();
      inner(r);
    };
  }
  // W1: placement decision at the chunk placement service.
  const SimTime control = net_.RoundTrip() + kMetadataBaseLatency;
  queue_.ScheduleAfter(control, [this, id, block_bytes, start,
                                 done = std::move(done)]() mutable {
    const std::vector<SiteId> sites = ChooseWriteSites();
    if (sites.empty() || state_.Contains(id)) {
      done(PutResult{queue_.Now() - start, false});
      return;
    }
    const std::uint64_t chunk_bytes = config_.ChunkBytes(block_bytes);

    // Client-side encode (parity generation) before chunks go out.
    const SimTime encode = static_cast<SimTime>(
        static_cast<double>(block_bytes) / config_.encode_bytes_per_ms *
        kMillisecond);
    queue_.ScheduleAfter(encode, [this, id, block_bytes, chunk_bytes, sites,
                                  start, done = std::move(done)]() mutable {
      // W2: write all k+r chunks in parallel; durable once ALL land. If a
      // target site fails in flight, the writer re-places that chunk on a
      // healthy site before committing.
      auto final_sites = std::make_shared<std::vector<SiteId>>(sites);
      auto remaining = std::make_shared<std::size_t>(sites.size());
      auto commit = [this, id, block_bytes, chunk_bytes, final_sites, start,
                     done = std::move(done), remaining]() {
        if (--*remaining > 0) return;
        // W3: metadata commit.
        queue_.ScheduleAfter(kMetadataBaseLatency,
                             [this, id, block_bytes, chunk_bytes, final_sites,
                              start, done] {
          PutResult result;
          result.ok = !state_.Contains(id);
          if (result.ok) {
            state_.AddBlock(id, block_bytes, chunk_bytes, config_.BlockCodec(),
                            *final_sites);
            for (SiteId s : *final_sites) {
              sites_[s]->set_chunk_count(state_.site_chunk_counts()[s]);
            }
          }
          result.total = queue_.Now() - start;
          done(result);
        });
      };

      // Writes one chunk, substituting a healthy site on failure.
      std::function<void(std::size_t)> write_chunk =
          [this, final_sites, chunk_bytes, commit](std::size_t index) {
            const SiteId s = (*final_sites)[index];
            if (!sites_[s]->available()) {
              SiteId substitute = kInvalidSite;
              for (SiteId j = 0; j < state_.num_sites(); ++j) {
                if (!state_.IsSiteAvailable(j)) continue;
                if (std::find(final_sites->begin(), final_sites->end(), j) !=
                    final_sites->end()) {
                  continue;
                }
                substitute = j;
                break;
              }
              if (substitute == kInvalidSite) {
                commit();  // No healthy site left; count the chunk lost.
                return;
              }
              (*final_sites)[index] = substitute;
              sites_[substitute]->SubmitWrite(chunk_bytes,
                                              [commit](SimTime) { commit(); });
              return;
            }
            sites_[s]->SubmitWrite(chunk_bytes, [commit](SimTime) { commit(); });
          };

      for (std::size_t i = 0; i < sites.size(); ++i) {
        // Upload: request dispatch plus payload transfer to the site.
        const SimTime arrival = net_.ResponseDelay(chunk_bytes);
        queue_.ScheduleAfter(std::max<SimTime>(arrival, 1),
                             [write_chunk, i] { write_chunk(i); });
      }
    });
  });
}

void SimECStore::Delete(BlockId id, PutCallback done) {
  const SimTime start = queue_.Now();
  const SimTime control = net_.RoundTrip() + kMetadataBaseLatency;
  queue_.ScheduleAfter(control, [this, id, start, done = std::move(done)] {
    PutResult result;
    result.ok = state_.Contains(id);
    if (result.ok) {
      control_plane_.InvalidateBlock(id);
      const BlockInfo info = state_.GetBlock(id);
      state_.RemoveBlock(id);
      for (const ChunkLocation& loc : info.locations) {
        sites_[loc.site]->set_chunk_count(state_.site_chunk_counts()[loc.site]);
      }
    }
    result.total = queue_.Now() - start;
    done(result);
  });
}

void SimECStore::FailSite(SiteId site) {
  state_.SetSiteAvailable(site, false);
  sites_[site]->set_available(false);
  control_plane_.OnSiteFailed(site);
}

void SimECStore::RecoverSite(SiteId site) {
  state_.SetSiteAvailable(site, true);
  sites_[site]->set_available(true);
}

void SimECStore::CrashSite(SiteId site) {
  // Ground truth only: belief (cluster state) catches up when the failure
  // detector notices the missed stats windows.
  sites_[site]->set_available(false);
}

void SimECStore::HealSite(SiteId site) {
  sites_[site]->set_available(true);
  // Belief recovers at the next stats heartbeat the site produces.
}

void SimECStore::SetSiteDegrade(SiteId site, double factor) {
  sites_[site]->set_degrade(factor);
}

FaultActions SimECStore::MakeFaultActions() {
  FaultActions actions;
  actions.crash = [this](SiteId s) { CrashSite(s); };
  actions.heal = [this](SiteId s) { HealSite(s); };
  actions.degrade = [this](SiteId s, double f) { SetSiteDegrade(s, f); };
  // No fetch-error / corruption hooks: the DES carries no chunk bytes.
  return actions;
}

std::vector<std::uint64_t> SimECStore::SiteBytesRead() const {
  std::vector<std::uint64_t> out;
  out.reserve(sites_.size());
  for (const auto& s : sites_) out.push_back(s->total_bytes_read());
  return out;
}

double SimECStore::ImbalanceLambda(const std::vector<std::uint64_t>& baseline) const {
  double max_load = 0, sum = 0;
  std::size_t n = 0;
  for (std::size_t j = 0; j < sites_.size(); ++j) {
    if (!state_.IsSiteAvailable(static_cast<SiteId>(j))) continue;
    const double delta = static_cast<double>(
        sites_[j]->total_bytes_read() - (j < baseline.size() ? baseline[j] : 0));
    max_load = std::max(max_load, delta);
    sum += delta;
    ++n;
  }
  if (n == 0 || sum <= 0) return 0;
  const double avg = sum / static_cast<double>(n);
  return (max_load - avg) / avg * 100.0;
}

void SimECStore::StatsTick() {
  for (auto& site : sites_) {
    // A crashed site produces no report: its silence is what the failure
    // detector converts into a suspect -> dead transition below.
    if (!site->available()) continue;
    const sim::LoadReport report = site->CollectReport();
    control_plane_.RecordLoadReport(report.site, report.cpu_utilization,
                                    report.io_bytes_per_sec, report.chunk_count,
                                    kStatsReportMsgBytes);
    control_plane_.NoteHeartbeat(report.site, ToMillis(queue_.Now()));
  }
  control_plane_.CheckFailures(ToMillis(queue_.Now()));
  control_plane_.EvaluateOverload(ToMillis(queue_.Now()));
  // Request-rate estimate for the mover's load-shift model.
  const double interval_s =
      static_cast<double>(config_.stats_report_interval) / kSecond;
  request_rate_per_sec_ =
      static_cast<double>(requests_completed_ - completed_at_last_stats_tick_) /
      interval_s;
  completed_at_last_stats_tick_ = requests_completed_;

  control_plane_.ReloadPlansOnDrift();

  queue_.ScheduleAfter(config_.stats_report_interval, [this] { StatsTick(); });
}

void SimECStore::ProbeTick() {
  for (std::size_t j = 0; j < sites_.size(); ++j) {
    sim::SimSite& site = *sites_[j];
    if (!site.available()) continue;
    const SimTime sent = queue_.Now();
    const SimTime rtt_net = net_.RoundTrip();
    site.SubmitProbe([this, j, sent, rtt_net](SimTime done_at) {
      const SimTime rtt = (done_at - sent) + rtt_net;
      control_plane_.RecordProbe(static_cast<SiteId>(j), ToMillis(rtt),
                                 /*msg_bytes=*/0);
    });
    control_plane_.ChargeStatsNetwork(kProbeMsgBytes);
  }
  queue_.ScheduleAfter(kProbeInterval, [this] { ProbeTick(); });
}

SimTime SimECStore::MoverPeriod() const {
  return static_cast<SimTime>(kSecond / std::max(config_.mover_chunks_per_sec, 1e-3));
}

void SimECStore::MoverTick() {
  queue_.ScheduleAfter(MoverPeriod(), [this] { MoverTick(); });
  if (mover_busy_) return;  // Throttle: one in-flight movement at a time.

  // The mover's round also drives dynamic hybrid redundancy: hot EC
  // blocks promote to full replicas, cooled ones demote (DESIGN.md §12).
  // Under brownout L2 (DESIGN.md §14) the control plane pauses both.
  control_plane_.RunPromotionRound(
      std::bind_front(&SimECStore::RewriteBlock, this));

  const auto plan = control_plane_.SelectMovement(request_rate_per_sec_);
  if (!plan) return;

  mover_busy_ = true;
  const std::uint64_t chunk_bytes = state_.GetBlock(plan->block).chunk_bytes;
  // Copy: read the chunk at the source, write it at the destination, then
  // commit the metadata update; reads of the old location remain valid
  // until the commit (Section V-B2).
  sites_[plan->source]->SubmitRead(chunk_bytes, [this, plan = *plan,
                                                 chunk_bytes](SimTime) {
    const SimTime transfer = net_.ResponseDelay(chunk_bytes);
    queue_.ScheduleAfter(transfer, [this, plan, chunk_bytes] {
      if (!sites_[plan.destination]->available()) {
        mover_busy_ = false;
        return;
      }
      sites_[plan.destination]->SubmitWrite(chunk_bytes, [this, plan,
                                                          chunk_bytes](SimTime) {
        if (state_.MoveChunk(plan.block, plan.source, plan.destination)) {
          control_plane_.RecordMoveExecuted(plan.block, chunk_bytes);
          sites_[plan.source]->set_chunk_count(
              state_.site_chunk_counts()[plan.source]);
          sites_[plan.destination]->set_chunk_count(
              state_.site_chunk_counts()[plan.destination]);
        }
        mover_busy_ = false;
      });
    });
  });
}

bool SimECStore::RewriteBlock(BlockId id, const BlockInfo& info,
                              const CodecSpec& spec,
                              std::span<const SiteId> sites) {
  // Metadata rewrite: the DES carries no chunk bytes, so the redundancy
  // change is one catalog swap (the id never leaves the catalog; the
  // coherence version bumps) plus per-site chunk-count updates.
  if (!state_.ReplaceBlock(id, info.block_bytes,
                           SpecChunkBytes(spec, info.block_bytes), spec,
                           sites)) {
    return false;
  }
  for (const ChunkLocation& loc : info.locations) {
    sites_[loc.site]->set_chunk_count(state_.site_chunk_counts()[loc.site]);
  }
  for (SiteId s : sites) {
    sites_[s]->set_chunk_count(state_.site_chunk_counts()[s]);
  }
  return true;
}

}  // namespace ecstore
