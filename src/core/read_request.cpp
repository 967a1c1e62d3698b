#include "core/read_request.h"

#include <algorithm>

namespace ecstore {

namespace {

/// Co-access partners warmed per cache hit, and the λ floor below which a
/// partner is not worth warming (DESIGN.md §12).
constexpr std::size_t kPrefetchMaxPartners = 4;
constexpr double kPrefetchMinLambda = 0.2;

}  // namespace

AdmissionTicket ControlPlane::Admit(double now_ms) {
  if (!overload_ || !overload_->gate_enabled()) return {nullptr, false};
  AdmissionController* const gate = overload_->admission();
  return gate->TryAdmit(now_ms) ? AdmissionTicket(gate, false)
                                : AdmissionTicket(nullptr, true);
}

ReadRequest ControlPlane::BeginRead(std::span<const BlockId> ids,
                                    double now_ms) {
  return ReadRequest(this, state_, ids, now_ms);
}

bool BlockRead::Has(ChunkIndex c) const {
  return std::find(have.begin(), have.end(), c) != have.end();
}

bool BlockRead::Deliver(ChunkIndex chunk) {
  if (complete || Has(chunk)) return false;
  have.push_back(chunk);
  complete = have.size() >= info.k &&
             (family->AnyKDecodes() || family->CanDecode(have));
  return true;
}

DecodeKind BlockRead::Decode() const {
  if (info.codec.family == CodecFamilyId::kReplication) {
    return DecodeKind::kNone;
  }
  return family->IsTrivialDecode(have) ? DecodeKind::kReassemble
                                       : DecodeKind::kDecode;
}

ReadRequest::ReadRequest(ControlPlane* cp, ClusterState* state,
                         std::span<const BlockId> ids, double now_ms)
    : cp_(cp), state_(state), ticket_(cp->Admit(now_ms)),
      misses_(ids.begin(), ids.end()) {
  if (!ticket_.shed()) return;
  admission_ = Admission::kShed;
  // Brownout L3: a refused request is still served, free of fan-out,
  // when every block sits validly in the decoded-block cache.
  BlockCache* const cache = cp_->block_cache();
  if (cache == nullptr || cp_->overload()->brownout_level() < 3) return;
  cached_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!cache->Lookup(ids[i], state_->BlockVersion(ids[i]), &cached_[i])) {
      cached_.clear();
      return;
    }
  }
  admission_ = Admission::kCachedOnly;
}

const ControlPlane::CachedBytes& ReadRequest::cached(std::size_t pos) const {
  static const ControlPlane::CachedBytes kMiss;
  return pos < cached_.size() ? cached_[pos] : kMiss;
}

std::vector<BlockId> ReadRequest::RecordAndSplit() {
  cp_->RecordRequest(misses_);
  BlockCache* const cache = cp_->block_cache();
  if (cache == nullptr) return {};
  split_ = true;
  const ECStoreConfig& config = cp_->config();
  // Prefetch is the cheapest optional work and the first rung of the
  // brownout ladder to go under pressure.
  OverloadControl* const overload = cp_->overload();
  const bool prefetch = config.cache_prefetch &&
                        !(overload && overload->brownout_level() >= 1);
  const std::vector<BlockId> ids = std::move(misses_);
  misses_.clear();
  cached_.resize(ids.size());
  std::vector<BlockId> fills;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const BlockId id = ids[i];
    if (!cache->Lookup(id, state_->BlockVersion(id), &cached_[i])) {
      misses_.push_back(id);
      continue;
    }
    ++cached_blocks_;
    cache->UpdateWeight(id, cp_->BlockAccessFrequency(id));
    if (!prefetch) continue;
    // Claim fills for the hit's co-access partners, λ descending, not in
    // this request; BeginPrefetch dedups against resident entries and
    // fills already in flight — at most one fill per block.
    for (const CoAccessPartner& p : cp_->CoAccessPartnersOf(id, kPrefetchMaxPartners)) {
      if (p.lambda < kPrefetchMinLambda) break;
      if (std::find(ids.begin(), ids.end(), p.block) != ids.end()) continue;
      if (cache->BeginPrefetch(p.block)) fills.push_back(p.block);
    }
  }
  return fills;
}

bool ReadRequest::Plan() {
  const std::uint32_t delta = cp_->AdaptiveDelta(misses_);
  const DemandResult dr = BuildDemands(*state_, misses_, delta);
  if (std::find(dr.readable.begin(), dr.readable.end(), false) !=
      dr.readable.end()) {
    return false;
  }
  // R2: cached plan, greedy fallback, or the random baseline — never an
  // inline ILP solve.
  const PlanDecision decision =
      cp_->SelectAccessPlan(misses_, dr.demands, delta);
  source_ = decision.source;
  blocks_.clear();
  index_.clear();
  planned_.clear();
  blocks_.reserve(dr.demands.size());
  index_.reserve(dr.demands.size());
  planned_.reserve(decision.plan.reads.size());
  BlockInfo info;
  for (const BlockDemand& d : dr.demands) {
    if (!state_->ReadBlock(d.block, &info)) return false;  // Deleted since.
    index_.emplace_back(d.block, blocks_.size());
    auto family = cp_->FamilyFor(info.codec);
    blocks_.emplace_back(d.block, std::move(info), std::move(family));
  }
  std::sort(index_.begin(), index_.end());
  for (const ChunkRead& read : decision.plan.reads) {
    const std::size_t i = IndexOf(read.block);
    blocks_[i].tried.set(read.chunk);
    planned_.push_back({i, read.chunk, read.site});
  }
  return true;
}

std::size_t ReadRequest::IndexOf(BlockId id) const {
  // Plan reads and assembled results only reference demanded blocks.
  return std::lower_bound(index_.begin(), index_.end(), id,
                          [](const auto& e, BlockId b) { return e.first < b; })
      ->second;
}

bool ReadRequest::complete() const {
  return std::all_of(blocks_.begin(), blocks_.end(),
                     [](const BlockRead& b) { return b.complete; });
}

std::vector<ChunkFetch> ReadRequest::HedgeCandidates() {
  std::vector<ChunkFetch> out;
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    BlockRead& b = blocks_[i];
    if (b.complete) continue;
    for (const ChunkLocation& loc : b.info.locations) {
      if (b.tried.test(loc.chunk) || !state_->IsSiteAvailable(loc.site)) {
        continue;
      }
      b.tried.set(loc.chunk);
      out.push_back({i, loc.chunk, loc.site});
    }
  }
  return out;
}

void ReadRequest::Resnapshot(std::size_t i, const BlockInfo& info) {
  blocks_[i] = BlockRead(blocks_[i].block, info, cp_->FamilyFor(info.codec));
}

void ReadRequest::FillCache(std::size_t i, ControlPlane::CachedBytes data) {
  BlockCache* const cache = cp_->block_cache();
  const BlockRead& b = blocks_[i];
  if (cache == nullptr || state_->BlockVersion(b.block) != b.info.version) {
    return;
  }
  cache->Insert(b.block, std::move(data), b.info.block_bytes, b.info.version,
                cp_->BlockAccessFrequency(b.block));
}

}  // namespace ecstore
