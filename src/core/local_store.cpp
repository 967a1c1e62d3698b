#include "core/local_store.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <stdexcept>
#include <utility>

namespace ecstore {

namespace {

/// Prefetch fill workers (DESIGN.md §12).
constexpr std::size_t kPrefetchThreads = 2;

/// Shared between the requesting thread and the fetch workers. Jobs hold
/// a shared_ptr so the context (and its mutex) outlives an abandoned
/// request with stragglers still queued. Workers apply the read core's
/// completion rule under `mu`; blocks are indexed by demand order.
struct FetchContext {
  std::mutex mu;
  std::condition_variable cv;
  ReadRequest* read = nullptr;  // null once harvested: late arrivals dropped
  std::vector<std::vector<IndexedChunk>> got;  // delivered, per block
  std::size_t outstanding = 0;  // fetches not yet completed
  DataPlane::CancelToken cancel =
      std::make_shared<std::atomic<bool>>(false);
};

/// Detaches a fetch context from its request on every exit from the
/// fetch phase, exceptional ones too: workers that outlive it then drop
/// their arrivals instead of touching the request.
struct Harvest {
  FetchContext& ctx;
  ~Harvest() {
    std::lock_guard<std::mutex> lock(ctx.mu);
    ctx.read = nullptr;
    ctx.cancel->store(true, std::memory_order_release);
  }
};

}  // namespace

// ---------------------------------------------------------------------------

LocalECStore::LocalECStore(ECStoreConfig config)
    : config_(config),
      rng_(config.seed),
      state_(config.num_sites),
      control_plane_(
          &config_, &state_, &rng_,
          // Executor seam: deferred ILP solves queue up and run once the
          // request has been answered — never on the MultiGet fast path.
          // May fire while a control-plane shard lock is held, so it only
          // touches the queue lock (or the pool's): the unit itself runs
          // later and self-synchronizes.
          [this](ControlPlane::Deferred work) {
            if (bg_pool_) {
              bg_pool_->Submit(std::move(work));
              return;
            }
            std::lock_guard<std::mutex> lock(defer_mu_);
            deferred_.push_back(std::move(work));
          }),
      reads_at_last_refresh_(config.num_sites, 0) {
  nodes_.reserve(config_.num_sites);
  for (std::size_t j = 0; j < config_.num_sites; ++j) {
    nodes_.push_back(std::make_unique<StorageNode>());
  }
  // The maintenance tick polls this under meta_mu_; its reconstructor
  // rebuilds real bytes through the same logic RepairSite exposes.
  repair_ = std::make_unique<RepairService>(
      &config_, &state_, &control_plane_,
      [this](SiteId site) { return RepairSiteLocked(site); });
  if (config_.ilp_executor_threads > 0) {
    bg_pool_ = std::make_unique<WorkerPool>(config_.ilp_executor_threads);
  }
  // Prefetch fills for the control plane's cache (DESIGN.md §12) run on
  // their own pool, so warming never sits on a request path.
  if (control_plane_.block_cache() && config_.cache_prefetch) {
    prefetch_cancel_ = std::make_shared<std::atomic<bool>>(false);
    prefetch_pool_ = std::make_unique<WorkerPool>(kPrefetchThreads);
  }
  DataPlane::SojournObserver sojourn;
  OverloadControl* const overload = control_plane_.overload();
  if (overload && overload->admission()) {
    // Per-site queue sojourns feed the CoDel admission signal. The
    // observer outlives every worker call: data_plane_ is declared after
    // control_plane_ and torn down first.
    sojourn = [this, admission = overload->admission()](double sojourn_ms) {
      admission->RecordSojourn(sojourn_ms, NowMs());
    };
  }
  data_plane_ = std::make_unique<DataPlane>(
      config_.num_sites, config_.data_plane, std::move(sojourn));
}

LocalECStore::~LocalECStore() {
  StopMaintenance();
  // Queued prefetch fills drain in the pool destructor; the cancel flag
  // turns each into a no-op so teardown is prompt.
  if (prefetch_cancel_) prefetch_cancel_->store(true, std::memory_order_release);
}

void LocalECStore::WaitForPrefetches() {
  if (prefetch_pool_) prefetch_pool_->WaitIdle();
}

void LocalECStore::StoreEncoded(BlockId id, std::span<const std::uint8_t> data,
                                const CodecSpec& spec,
                                std::span<const SiteId> sites) {
  const auto family = control_plane_.FamilyFor(spec);
  std::vector<ChunkData> chunks = family->Encode(data);
  if (sites.size() != chunks.size()) {
    throw std::runtime_error("LocalECStore::Put: wrong site count");
  }
  state_.AddBlock(id, data.size(), family->ChunkSize(data.size()), spec, sites);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    // A node that crashed after planning drops the write (returns false):
    // the block is committed with a redundancy hole at that site, which
    // the scrubber or repair service heals once the failure is detected.
    nodes_[sites[i]]->PutChunk(id, static_cast<ChunkIndex>(i),
                               std::move(chunks[i]));
  }
}

void LocalECStore::Put(BlockId id, std::span<const std::uint8_t> data) {
  Put(id, data, config_.BlockCodec());
}

void LocalECStore::Put(BlockId id, std::span<const std::uint8_t> data,
                       const CodecSpec& spec) {
  // Admission gate (DESIGN.md §14): writes compete for the same tokens
  // as reads. The explicit-sites Put overload stays ungated — it is the
  // bulk-load/parity seam, not client traffic.
  const AdmissionTicket ticket = control_plane_.Admit(NowMs());
  if (ticket.shed()) throw RequestShedError();
  std::lock_guard<std::mutex> lock(meta_mu_);
  const std::vector<SiteId> sites = control_plane_.SelectWriteSites(spec);
  if (sites.empty()) {
    throw std::runtime_error("LocalECStore::Put: not enough available sites");
  }
  StoreEncoded(id, data, spec, sites);
}

void LocalECStore::Put(BlockId id, std::span<const std::uint8_t> data,
                       std::span<const SiteId> sites) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  StoreEncoded(id, data, config_.BlockCodec(), sites);
}

std::vector<std::uint8_t> LocalECStore::Get(BlockId id) {
  const std::vector<BlockId> one = {id};
  return std::move(MultiGet(one)[0]);
}

std::vector<std::vector<IndexedChunk>> LocalECStore::FetchChunks(
    ReadRequest& read, std::chrono::steady_clock::time_point deadline) {
  auto ctx = std::make_shared<FetchContext>();

  // Enqueue one data-plane job per fetch. The caller must hold ctx->mu
  // and have bumped `outstanding` beforehand. Workers touch only the
  // context, the node, and their own queue — never the store's metadata
  // lock. The node read goes through FetchChunk: the error-injected,
  // checksum-verified data path, where a corrupt chunk or a transient
  // I/O error surfaces as a miss.
  const auto issue = [this, &ctx, &read, deadline](const ChunkFetch& f) {
    StorageNode* node = nodes_[f.site].get();
    const BlockId block = read.blocks()[f.block_index].block;
    data_plane_->Submit(
        f.site,
        [ctx, node, gi = f.block_index, block,
         chunk = f.chunk](bool cancelled) {
          std::shared_ptr<const ChunkData> data;
          if (!cancelled) {
            bool skip;  // Block already complete: ignore the straggler.
            {
              std::lock_guard<std::mutex> lock(ctx->mu);
              skip = ctx->read == nullptr || ctx->read->blocks()[gi].complete;
            }
            // A failed node, a moved/deleted chunk, a checksum mismatch,
            // or an injected I/O error answers nullptr — a miss, routed
            // into the hedge round / degraded top-up, not an error.
            if (!skip) data = node->FetchChunk(block, chunk);
          }
          std::lock_guard<std::mutex> lock(ctx->mu);
          if (data != nullptr && ctx->read != nullptr &&
              ctx->read->block(gi).Deliver(chunk)) {
            ctx->got[gi].push_back({chunk, *data});
            // Every block is complete: still-queued fetches are
            // stragglers — cancel them at the queue.
            if (ctx->read->complete()) {
              ctx->cancel->store(true, std::memory_order_release);
            }
          }
          --ctx->outstanding;
          ctx->cv.notify_all();
        },
        ctx->cancel, deadline);
  };

  const Harvest harvest{*ctx};  // Destroyed after `lock`.
  std::unique_lock<std::mutex> lock(ctx->mu);
  ctx->read = &read;
  ctx->got.resize(read.blocks().size());
  for (std::size_t i = 0; i < ctx->got.size(); ++i) {
    ctx->got[i].reserve(read.blocks()[i].info.k);
  }
  for (const ChunkFetch& f : read.planned()) {
    ++ctx->outstanding;
    issue(f);
  }

  // Wait for the race to settle — up to the per-fetch deadline when one
  // is set — then hedge once (DESIGN.md §9): every untried chunk of a
  // block still short of k, unless the request's end-to-end deadline
  // (DESIGN.md §14) has already passed. Whatever is in flight then
  // settles, and blocks still short fall into the degraded path below.
  const auto settled = [&] { return read.complete() || ctx->outstanding == 0; };
  const double deadline_ms = config_.data_plane.fetch_deadline_ms;
  if (deadline_ms > 0) {
    ctx->cv.wait_for(lock, std::chrono::duration<double, std::milli>(deadline_ms),
                     settled);
  } else {
    ctx->cv.wait(lock, settled);
  }
  if (!read.complete() && std::chrono::steady_clock::now() < deadline) {
    const std::vector<ChunkFetch> hedge = read.HedgeCandidates();
    for (const ChunkFetch& f : hedge) {
      ++ctx->outstanding;
      issue(f);
    }
    retried_fetches_.fetch_add(hedge.size(), std::memory_order_relaxed);
  }
  ctx->cv.wait(lock, settled);

  ctx->read = nullptr;
  ctx->cancel->store(true, std::memory_order_release);
  std::vector<std::vector<IndexedChunk>> fetched = std::move(ctx->got);
  lock.unlock();

  if (read.complete()) return fetched;

  // Degraded read: the plan could not complete some block. Its cached
  // form is stale, and any decodable reachable chunks will do — the
  // client-side rerouting of Section VI-C4. Runs under the metadata lock
  // so the catalog, site availability, and node contents are consistent
  // (no mover/repair can commit mid-scan); the direct GetChunk reads
  // bypass injected data-plane latency and error injection (they are
  // still checksum-verified), keeping the fallback deterministic.
  std::lock_guard<std::mutex> meta_lock(meta_mu_);
  for (std::size_t i = 0; i < fetched.size(); ++i) {
    const BlockId block = read.blocks()[i].block;
    const BlockInfo& info = state_.GetBlock(block);
    if (info.version != read.blocks()[i].info.version) {
      // The block was rewritten after our snapshot — a promotion or
      // demotion swapped its codec, so chunks fetched against the old
      // layout are from a different encoding and must not be mixed with
      // (or decoded as) the new one. Drop them and re-read below against
      // the committed layout, whose family and version the caller then
      // decodes and fills with.
      fetched[i].clear();
      read.Resnapshot(i, info);
    }
    if (read.blocks()[i].complete) continue;

    degraded_reads_.fetch_add(1, std::memory_order_relaxed);
    control_plane_.InvalidateBlock(block);
    if (!GatherReachableLocked(read.block(i), fetched[i])) {
      throw std::runtime_error(
          "LocalECStore::MultiGet: block unreadable after degraded replan");
    }
  }
  return fetched;
}

std::vector<std::vector<std::uint8_t>> LocalECStore::MultiGet(
    std::span<const BlockId> ids) {
  // Admission gate (DESIGN.md §14): refuse excess requests before any
  // planning work is spent on them; the token returns when `read` dies.
  ReadRequest read = control_plane_.BeginRead(ids, NowMs());
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(ids.size());
  if (read.admission() == ReadRequest::Admission::kShed) {
    throw RequestShedError();
  }
  if (read.admission() == ReadRequest::Admission::kCachedOnly) {
    for (std::size_t pos = 0; pos < ids.size(); ++pos) {
      out.push_back(*read.cached(pos));
    }
    return out;
  }
  // End-to-end deadline (DESIGN.md §14): the absolute budget flows into
  // the fetch fan-out (per-site queue expiry) and gates the hedge round.
  OverloadControl* const overload = control_plane_.overload();
  const auto deadline =
      overload && overload->deadline_ms() > 0
          ? std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(
                        overload->deadline_ms()))
          : std::chrono::steady_clock::time_point::max();

  // Planning takes no store-wide lock (DESIGN.md §10): the control plane
  // synchronizes itself per shard and the catalog per stripe. A write
  // racing this path is absorbed downstream — a chunk that moved after
  // the snapshot comes back as a miss and the hedge round / degraded
  // path re-resolve it against the committed catalog.
  const std::uint64_t seq =
      gets_since_refresh_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (seq % 64 == 0) RefreshLoadFromCounters();

  // Statistics sampling, then the cache tier (DESIGN.md §12): serve
  // version-valid decoded blocks from memory and plan/fetch only the
  // misses. The λ-driven prefetch fires off each hit's co-access partners
  // before the miss fan-out starts, so warming overlaps the fetch.
  for (BlockId block : read.RecordAndSplit()) {
    prefetch_pool_->Submit([this, block] { PrefetchBlock(block); });
  }
  std::vector<std::vector<IndexedChunk>> fetched;
  if (!read.AllCached()) {
    if (!read.Plan()) {
      throw std::runtime_error("LocalECStore::MultiGet: block unreadable");
    }
    fetched = FetchChunks(read, deadline);
    if (deadline != std::chrono::steady_clock::time_point::max() &&
        std::chrono::steady_clock::now() >= deadline) {
      // The budget is spent: the caller has given up, so decoding now
      // would only deliver a late answer. Distinct from data loss — every
      // chunk fetched above remains durable.
      overload->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      throw DeadlineExceededError();
    }
  }

  const bool cache_on = control_plane_.block_cache() != nullptr;
  for (std::size_t pos = 0; pos < ids.size(); ++pos) {
    if (const auto& hit = read.cached(pos)) {
      out.push_back(*hit);
      continue;
    }
    const std::size_t i = read.IndexOf(ids[pos]);
    const BlockRead& b = read.blocks()[i];
    if (cache_on) {
      // Fill through a shared buffer tagged with the snapshot version.
      auto decoded = std::make_shared<const std::vector<std::uint8_t>>(
          b.family->Decode(fetched[i], b.info.block_bytes));
      read.FillCache(i, decoded);
      out.push_back(*decoded);
    } else {
      out.push_back(b.family->Decode(fetched[i], b.info.block_bytes));
    }
  }

  // The response is assembled; with the synchronous executor (no pool),
  // run any queued background refinement off the request's critical
  // path. With an executor pool the solves are already draining on their
  // own threads — waiting here would put them back ON the request path.
  if (!bg_pool_) DrainBackgroundWork();
  return out;
}

void LocalECStore::DrainBackgroundWork() {
  if (bg_pool_) {
    bg_pool_->WaitIdle();
    return;
  }
  // Each unit can enqueue its successor (the worker pump), so loop until
  // the queue is truly empty. Units self-synchronize: a deferred solve
  // takes the control plane's shard/rng/load locks itself.
  for (;;) {
    ControlPlane::Deferred work;
    {
      std::lock_guard<std::mutex> lock(defer_mu_);
      if (deferred_.empty()) return;
      work = std::move(deferred_.front());
      deferred_.pop_front();
    }
    work();
  }
}

bool LocalECStore::Contains(BlockId id) const {
  // The catalog is stripe-locked internally; no store-wide lock needed.
  return state_.Contains(id);
}

ControlPlaneUsage LocalECStore::Usage() const {
  // The control plane aggregates shard by shard; everything overlaid
  // here is atomic. No store-wide lock (see ControlPlaneUsage for the
  // monotonic-vs-snapshot contract).
  ControlPlaneUsage u = control_plane_.Usage();
  u.degraded_reads = degraded_reads_.load(std::memory_order_relaxed);
  u.retried_fetches = retried_fetches_.load(std::memory_order_relaxed);
  u.cancelled_fetch_jobs = data_plane_->jobs_cancelled();
  u.chunks_scrubbed = chunks_scrubbed_.load(std::memory_order_relaxed);
  for (const auto& node : nodes_) u.checksum_failures += node->checksum_failures();
  if (control_plane_.overload()) {
    // Jobs the data plane expired at pickup belong to the same
    // "expired work cancelled at the queue" counter as the sim's.
    u.expired_jobs_cancelled += data_plane_->jobs_expired();
  }
  return u;
}

CostParams LocalECStore::CurrentCostParams() const {
  return control_plane_.CurrentCostParams();
}

bool LocalECStore::Remove(BlockId id) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  if (!state_.Contains(id)) return false;
  control_plane_.InvalidateBlock(id);
  const BlockInfo info = state_.GetBlock(id);
  for (const ChunkLocation& loc : info.locations) {
    nodes_[loc.site]->DeleteChunk(id, loc.chunk);
  }
  return state_.RemoveBlock(id);
}

void LocalECStore::FailSite(SiteId site) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  state_.SetSiteAvailable(site, false);
  nodes_[site]->set_available(false);
  control_plane_.OnSiteFailed(site);
}

void LocalECStore::RecoverSite(SiteId site) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  state_.SetSiteAvailable(site, true);
  nodes_[site]->set_available(true);
}

void LocalECStore::CrashNode(SiteId site) {
  // Ground truth only: the cluster state still believes the site is up
  // until the failure detector notices the missed heartbeats.
  nodes_[site]->set_available(false);
}

void LocalECStore::HealNode(SiteId site) {
  // Belief recovers at the node's next heartbeat (NoteHeartbeat revival).
  nodes_[site]->set_available(true);
}

std::uint64_t LocalECStore::CorruptSiteChunks(SiteId site, double fraction,
                                              std::uint64_t seed) {
  StorageNode& n = *nodes_[site];
  std::uint64_t corrupted = 0;
  std::uint64_t i = 0;
  for (const auto& [block, chunk] : n.ChunkKeys()) {
    const std::uint64_t h = SplitMix64(seed + i++).Next();
    if (static_cast<double>(h >> 11) * 0x1.0p-53 < fraction &&
        n.CorruptChunk(block, chunk)) {
      ++corrupted;
    }
  }
  return corrupted;
}

FaultActions LocalECStore::MakeFaultActions() {
  FaultActions actions;
  actions.crash = [this](SiteId site) { CrashNode(site); };
  actions.heal = [this](SiteId site) { HealNode(site); };
  // A degraded site serves every fetch `factor` times slower. The data
  // plane realizes that as extra injected latency on top of the
  // configured base (with no base configured, a nominal 1 ms stands in
  // for the healthy service time).
  actions.degrade = [this](SiteId site, double factor) {
    const double base = config_.data_plane.base_latency_ms > 0
                            ? config_.data_plane.base_latency_ms
                            : 1.0;
    data_plane_->SetSiteExtraLatency(site,
                                     factor > 1.0 ? base * (factor - 1.0) : 0.0);
  };
  actions.set_fetch_error = [this](SiteId site, double p) {
    nodes_[site]->set_fetch_error(p, config_.seed ^ (site + 1));
  };
  actions.corrupt = [this](SiteId site, double fraction) {
    CorruptSiteChunks(site, fraction, config_.seed ^ (0xC0F000ull + site));
  };
  return actions;
}

std::optional<ChunkData> LocalECStore::RebuildChunk(BlockId block,
                                                    const BlockInfo& info,
                                                    ChunkIndex target,
                                                    SiteId exclude_site) {
  const auto family = control_plane_.FamilyFor(info.codec);

  // Reachable survivor pool: each chunk index the family may plan over,
  // with the site the catalog places it at.
  std::vector<ChunkIndex> avail;
  std::vector<SiteId> site_of;  // Parallel to avail.
  avail.reserve(info.locations.size());
  site_of.reserve(info.locations.size());
  for (const ChunkLocation& loc : info.locations) {
    if (loc.site == exclude_site || loc.chunk == target) continue;
    if (!state_.IsSiteAvailable(loc.site)) continue;
    if (std::find(avail.begin(), avail.end(), loc.chunk) != avail.end()) {
      continue;
    }
    avail.push_back(loc.chunk);
    site_of.push_back(loc.site);
  }

  // Ask the family for its cheapest plan over the pool and read ONLY the
  // plan's chunks — a local group for LRC, half-chunk sources for the
  // piggyback family, the first k survivors for RS. Verified GetChunk
  // skips corrupt or missing copies (they are erasures too), so
  // reconstruction never launders bad bytes back into the cluster; a
  // source failing verification is dropped from the pool and the family
  // re-plans over the rest.
  for (;;) {
    const auto plan = family->PlanRepair(target, avail);
    if (!plan) return std::nullopt;
    std::vector<IndexedChunk> gathered;
    gathered.reserve(plan->reads.size());
    bool replanned = false;
    for (const RepairRead& read : plan->reads) {
      const std::size_t pos = static_cast<std::size_t>(
          std::find(avail.begin(), avail.end(), read.chunk) - avail.begin());
      const auto data = nodes_[site_of[pos]]->GetChunk(block, read.chunk);
      if (data == nullptr) {
        avail.erase(avail.begin() + static_cast<std::ptrdiff_t>(pos));
        site_of.erase(site_of.begin() + static_cast<std::ptrdiff_t>(pos));
        replanned = true;
        break;
      }
      gathered.push_back({read.chunk, *data});
    }
    if (replanned) continue;
    // Bytes-on-wire accounting charges the plan, not the whole chunks the
    // in-process nodes hand back (RepairRead's sub-chunk model).
    control_plane_.RecordRepairTraffic(plan->reads.size(),
                                       plan->BytesToRead(info.chunk_bytes));
    return family->RepairChunk(target, gathered, info.block_bytes);
  }
}

std::uint64_t LocalECStore::RepairSite(SiteId site) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return RepairSiteLocked(site);
}

std::uint64_t LocalECStore::RepairSiteLocked(SiteId site) {
  std::uint64_t rebuilt = 0;
  for (BlockId block : state_.BlocksWithChunkAt(site)) {
    const BlockInfo& info = state_.GetBlock(block);

    // The lost chunk's index is recorded in the catalog.
    const auto lost = std::find_if(
        info.locations.begin(), info.locations.end(),
        [site](const ChunkLocation& l) { return l.site == site; });
    const ChunkIndex lost_index = lost->chunk;

    // No decodable repair plan reachable right now (concurrent outages,
    // corruption): skip — a later pass can still heal the block.
    auto chunk = RebuildChunk(block, info, lost_index, site);
    if (!chunk) continue;

    const SiteId best = control_plane_.SelectRepairDestination(block, lost_index);
    if (best == kInvalidSite) continue;
    if (!nodes_[best]->PutChunk(block, lost_index, std::move(*chunk))) {
      continue;  // Destination crashed since planning; try again later.
    }
    state_.MoveChunk(block, site, best);
    control_plane_.RecordRepair(block);
    nodes_[site]->DeleteChunk(block, lost_index);
    ++rebuilt;
  }
  return rebuilt;
}

std::uint64_t LocalECStore::ScrubOnce() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  const std::uint64_t fixed = ScrubLocked();
  chunks_scrubbed_.fetch_add(fixed, std::memory_order_relaxed);
  return fixed;
}

std::uint64_t LocalECStore::ScrubLocked() {
  // Walk the catalog site by site, checksum-probing each chunk where the
  // catalog says it lives. A chunk that is corrupt — or missing entirely
  // (a write raced a crash) — is rebuilt from k valid survivors and
  // rewritten in place, restoring full redundancy without moving it.
  std::uint64_t fixed = 0;
  for (SiteId j = 0; j < state_.num_sites(); ++j) {
    if (!state_.IsSiteAvailable(j)) continue;
    if (!nodes_[j]->available()) continue;  // Silently crashed: repair's job.
    for (BlockId block : state_.BlocksWithChunkAt(j)) {
      const BlockInfo& info = state_.GetBlock(block);
      const auto loc = std::find_if(
          info.locations.begin(), info.locations.end(),
          [j](const ChunkLocation& l) { return l.site == j; });
      if (loc == info.locations.end()) continue;
      if (nodes_[j]->HasValidChunk(block, loc->chunk)) continue;

      auto chunk = RebuildChunk(block, info, loc->chunk, kInvalidSite);
      if (!chunk) continue;  // Not enough valid survivors right now.
      if (nodes_[j]->PutChunk(block, loc->chunk, std::move(*chunk))) {
        // In-place rewrite: the chunk's bytes at this site changed even
        // though the catalog layout did not. Bump the block's coherence
        // version and push the invalidation through the control-plane
        // seam so cached decoded bytes re-validate (DESIGN.md §12).
        state_.BumpBlockVersion(block);
        control_plane_.InvalidateBlock(block);
        ++fixed;
      }
    }
  }
  return fixed;
}

void LocalECStore::StartMaintenance() {
  std::lock_guard<std::mutex> lock(maint_mu_);
  if (maint_thread_.joinable()) return;
  maint_stop_ = false;
  maint_thread_ = std::thread([this] { MaintenanceLoop(); });
}

void LocalECStore::StopMaintenance() {
  {
    std::lock_guard<std::mutex> lock(maint_mu_);
    if (!maint_thread_.joinable()) return;
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
  maint_thread_.join();
  maint_thread_ = std::thread();
}

double LocalECStore::NowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void LocalECStore::MaintenanceLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(maint_mu_);
      maint_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(config_.maintenance_tick_ms),
          [this] { return maint_stop_; });
      if (maint_stop_) return;
      ++maint_ticks_;
    }
    const bool scrub_tick =
        config_.scrub_every_ticks > 0 &&
        maint_ticks_ % config_.scrub_every_ticks == 0;
    {
      std::lock_guard<std::mutex> lock(meta_mu_);
      const double now_ms = NowMs();
      // Heartbeats (live nodes' load reports) feed the failure detector;
      // silent sites transition suspect -> dead and enter repair's grace.
      RefreshLoadFromCounters();
      control_plane_.CheckFailures(now_ms);
      repair_->Poll(FromMillis(now_ms));
      if (scrub_tick) {
        chunks_scrubbed_.fetch_add(ScrubLocked(), std::memory_order_relaxed);
      }
    }
    // Deferred control-plane work queued by the tick (plan reloads after
    // drift) runs outside the tick's critical section.
    DrainBackgroundWork();
  }
}

bool LocalECStore::GatherReachableLocked(BlockRead& b,
                                         std::vector<IndexedChunk>& got) {
  for (const ChunkLocation& loc : b.info.locations) {
    if (b.complete) break;
    if (b.Has(loc.chunk) || !state_.IsSiteAvailable(loc.site)) continue;
    const auto data = nodes_[loc.site]->GetChunk(b.block, loc.chunk);
    if (data != nullptr && b.Deliver(loc.chunk)) {
      got.push_back({loc.chunk, *data});
    }
  }
  return b.complete;
}

std::optional<std::vector<std::uint8_t>> LocalECStore::ReadBlockBytesLocked(
    BlockId id, const BlockInfo& info) {
  BlockRead b(id, info, control_plane_.FamilyFor(info.codec));
  std::vector<IndexedChunk> got;
  if (!GatherReachableLocked(b, got)) return std::nullopt;
  return b.family->Decode(got, info.block_bytes);
}

void LocalECStore::PrefetchBlock(BlockId id) {
  // Fill reads run under the catalog writer lock like the degraded path:
  // a consistent snapshot, verified GetChunk (no injected latency — the
  // warm path must not add site load), never on the request path. A
  // cancelled (teardown), deleted or unreadable block fills nothing;
  // FinishPrefetch releases the claim either way.
  BlockInfo info;
  std::optional<std::vector<std::uint8_t>> decoded;
  if (!prefetch_cancel_->load(std::memory_order_acquire) &&
      state_.ReadBlock(id, &info)) {
    std::lock_guard<std::mutex> lock(meta_mu_);
    decoded = ReadBlockBytesLocked(id, info);
  }
  if (!decoded) {
    control_plane_.FinishPrefetch(id, nullptr, nullptr);
    return;
  }
  control_plane_.FinishPrefetch(
      id, &info,
      std::make_shared<const std::vector<std::uint8_t>>(std::move(*decoded)));
}

bool LocalECStore::RewriteBlockLocked(BlockId id, const BlockInfo& old_info,
                                      const CodecSpec& spec,
                                      std::span<const SiteId> sites) {
  // Write-first discipline (the mover's, extended to whole layouts): the
  // new encoding lands on sites disjoint from the old one, the catalog
  // entry swaps in a single stripe-locked step, and only then do the old
  // chunks retire. A reader that planned against the old layout either
  // harvested k old chunks before the retirement (same bytes — the
  // rewrite never changes content) or comes up short and re-resolves in
  // the degraded path, whose version check drops old-encoding chunks and
  // re-reads the committed layout. At no point is the id absent from the
  // catalog or its only readable copy gone.
  const auto data = ReadBlockBytesLocked(id, old_info);
  if (!data) return false;  // Not decodable right now; retry next round.
  const auto family = control_plane_.FamilyFor(spec);
  std::vector<ChunkData> chunks = family->Encode(*data);
  if (sites.size() != chunks.size()) {
    throw std::runtime_error("LocalECStore::RewriteBlockLocked: wrong site count");
  }
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    // As with Put: a site that crashed since selection drops the write,
    // leaving a redundancy hole for the scrubber/repair to heal.
    nodes_[sites[i]]->PutChunk(id, static_cast<ChunkIndex>(i),
                               std::move(chunks[i]));
  }
  // The swap bumps the coherence version: cached decodes of the old
  // layout never validate again.
  state_.ReplaceBlock(id, data->size(), family->ChunkSize(data->size()), spec,
                      sites);
  for (const ChunkLocation& loc : old_info.locations) {
    nodes_[loc.site]->DeleteChunk(id, loc.chunk);
  }
  return true;
}

std::optional<MovementPlan> LocalECStore::RunMovementRound() {
  std::lock_guard<std::mutex> lock(meta_mu_);
  RefreshLoadFromCounters();
  // Hybrid-redundancy round (DESIGN.md §12) rides the movement round:
  // promote this window's hottest EC blocks to replicas, demote cooled
  // ones, all within the storage budget. Under brownout L2 (DESIGN.md
  // §14) the control plane pauses it and the movement below; the refresh
  // above still ran, so stats (and the ladder itself) stay live.
  control_plane_.RunPromotionRound(
      std::bind_front(&LocalECStore::RewriteBlockLocked, this));
  const auto plan = control_plane_.SelectMovement(
      static_cast<double>(control_plane_.TotalRequestsInWindow()));
  if (!plan) return std::nullopt;

  // Execute with a real data copy: read at source, write at destination,
  // commit metadata, delete the old copy. All under the metadata lock, so
  // a concurrent fetch either sees the chunk at its old site (until the
  // delete) or replans against the committed new location.
  const BlockInfo& info = state_.GetBlock(plan->block);
  const auto loc = std::find_if(
      info.locations.begin(), info.locations.end(),
      [&](const ChunkLocation& l) { return l.site == plan->source; });
  if (loc == info.locations.end()) return std::nullopt;
  const ChunkIndex chunk = loc->chunk;
  const auto data = nodes_[plan->source]->GetChunk(plan->block, chunk);
  if (data == nullptr) return std::nullopt;
  const std::uint64_t chunk_bytes = data->size();
  if (!nodes_[plan->destination]->PutChunk(plan->block, chunk, *data)) {
    return std::nullopt;  // Destination crashed since the plan was chosen.
  }
  if (!state_.MoveChunk(plan->block, plan->source, plan->destination)) {
    nodes_[plan->destination]->DeleteChunk(plan->block, chunk);
    return std::nullopt;
  }
  control_plane_.RecordMoveExecuted(plan->block, chunk_bytes);
  nodes_[plan->source]->DeleteChunk(plan->block, chunk);
  return plan;
}

std::uint64_t LocalECStore::TotalStoredBytes() const {
  std::uint64_t total = 0;
  for (const auto& node : nodes_) total += node->bytes_stored();
  return total;
}

void LocalECStore::RefreshLoadFromCounters() {
  // Derive site load from reads served since the last refresh: the
  // in-process analogue of the periodic load reports. Counters are
  // atomics bumped by fetch workers; refresh_mu_ serializes concurrent
  // refreshes (a MultiGet hitting its 64th request can race the
  // maintenance tick). Crashed nodes produce no report — and therefore
  // no heartbeat, which is exactly how the failure detector learns of an
  // unannounced crash.
  std::lock_guard<std::mutex> refresh_lock(refresh_mu_);
  std::uint64_t total = 0;
  std::vector<std::uint64_t> deltas(nodes_.size(), 0);
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    deltas[j] = nodes_[j]->reads_served() - reads_at_last_refresh_[j];
    reads_at_last_refresh_[j] = nodes_[j]->reads_served();
    total += deltas[j];
  }
  const double now_ms = NowMs();
  // An idle window still records reports and probes (with zero
  // utilization, decaying o_j toward the idle baseline) so drift
  // detection sees recovery instead of freezing at the last busy epoch.
  for (std::size_t j = 0; j < nodes_.size(); ++j) {
    if (!nodes_[j]->available()) continue;  // Crashed: silent.
    control_plane_.NoteHeartbeat(static_cast<SiteId>(j), now_ms);
    const double util =
        total == 0 ? 0.0
                   : static_cast<double>(deltas[j]) / static_cast<double>(total);
    control_plane_.RecordLoadReport(static_cast<SiteId>(j), util, 0,
                                    nodes_[j]->chunk_count(), /*msg_bytes=*/0);
    // Probe overhead estimate. When the data plane injects real latency,
    // the measured per-fetch service time IS the probe signal — the cost
    // model then discovers genuinely slow sites. Otherwise fall back to a
    // synthetic load-proportional estimate: busy nodes answer probes
    // slower, with a moderate swing (1-5 ms) so load awareness tempers,
    // rather than dominates, co-location decisions.
    double rtt_ms = 1.0 + util * 4.0;
    if (data_plane_->InjectsLatency()) {
      const auto measured = data_plane_->HarvestLatency(static_cast<SiteId>(j));
      if (measured.samples > 0) rtt_ms = measured.MeanMs();
    }
    control_plane_.RecordProbe(static_cast<SiteId>(j), rtt_ms,
                               /*msg_bytes=*/0);
    // Tail model feed (DESIGN.md §13): hand the raw per-fetch service
    // times to the per-site latency histograms. Distinct from the probe
    // above, which collapses the window to a mean.
    const auto samples =
        data_plane_->DrainServiceSamples(static_cast<SiteId>(j));
    control_plane_.RecordServiceSamples(static_cast<SiteId>(j), samples);
  }
  control_plane_.EvaluateOverload(now_ms);
  control_plane_.ReloadPlansOnDrift();
}

}  // namespace ecstore
