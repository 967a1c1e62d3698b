#include "stats/co_access.h"

#include <algorithm>
#include <cassert>

namespace ecstore {

CoAccessTracker::CoAccessTracker(std::size_t window) : window_(window) {
  assert(window_ > 0);
}

void CoAccessTracker::RecordRequest(std::span<const BlockId> blocks) {
  std::vector<BlockId> unique(blocks.begin(), blocks.end());
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  if (unique.empty()) return;

  Add(unique);
  requests_.push_back(std::move(unique));
  if (requests_.size() > window_) {
    Remove(requests_.front());
    requests_.pop_front();
  }
}

// `blocks` is sorted and distinct, and each partner list is sorted by id,
// so one linear pass per block increments the listed partners and appends
// the new ones, and a merge restores the order.
void CoAccessTracker::Add(const std::vector<BlockId>& blocks) {
  for (BlockId b : blocks) {
    Entry& entry = entries_[b];
    ++entry.count;
    auto& partners = entry.partners;
    const std::size_t listed = partners.size();
    std::size_t i = 0;
    for (BlockId other : blocks) {
      if (other == b) continue;
      while (i < listed && partners[i].first < other) ++i;
      if (i < listed && partners[i].first == other) {
        ++partners[i].second;
      } else {
        partners.push_back({other, 1});
      }
    }
    std::inplace_merge(partners.begin(), partners.begin() + listed, partners.end());
  }
}

void CoAccessTracker::Remove(const std::vector<BlockId>& blocks) {
  for (BlockId b : blocks) {
    const auto it = entries_.find(b);
    assert(it != entries_.end() && it->second.count > 0);
    Entry& entry = it->second;
    if (--entry.count == 0) {
      // Every remaining co-count came from this request alone.
      assert(entry.partners.size() + 1 == blocks.size());
      entries_.erase(it);
      continue;
    }
    auto p = entry.partners.begin();
    for (BlockId other : blocks) {
      if (other == b) continue;
      while (p != entry.partners.end() && p->first < other) ++p;
      assert(p != entry.partners.end() && p->first == other && p->second > 0);
      --p->second;
      ++p;
    }
    std::erase_if(entry.partners, [](const auto& pc) { return pc.second == 0; });
  }
}

const CoAccessTracker::Entry* CoAccessTracker::Find(BlockId b) const {
  const auto it = entries_.find(b);
  return it == entries_.end() ? nullptr : &it->second;
}

std::uint64_t CoAccessTracker::Count(BlockId b) const {
  const Entry* entry = Find(b);
  return entry == nullptr ? 0 : entry->count;
}

double CoAccessTracker::Lambda(BlockId b, BlockId i) const {
  const Entry* entry = Find(b);
  if (entry == nullptr) return 0;
  const auto p = std::lower_bound(
      entry->partners.begin(), entry->partners.end(), i,
      [](const auto& pc, BlockId id) { return pc.first < id; });
  if (p == entry->partners.end() || p->first != i) return 0;
  return static_cast<double>(p->second) / static_cast<double>(entry->count);
}

std::vector<CoAccessPartner> CoAccessTracker::Partners(
    BlockId b, std::size_t max_partners) const {
  std::vector<CoAccessPartner> out;
  const Entry* entry = Find(b);
  if (entry == nullptr) return out;
  const auto cb = static_cast<double>(entry->count);
  out.reserve(entry->partners.size());
  for (const auto& [partner, count] : entry->partners) {
    out.push_back({partner, static_cast<double>(count) / cb});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const CoAccessPartner& a, const CoAccessPartner& c) {
                     return a.lambda > c.lambda;
                   });
  if (out.size() > max_partners) out.resize(max_partners);
  return out;
}

std::vector<BlockId> CoAccessTracker::SampleCandidateBlocks(
    Rng& rng, std::size_t count) const {
  std::vector<BlockId> ids;
  std::vector<double> weights;
  ids.reserve(entries_.size());
  weights.reserve(entries_.size());
  for (const auto& [block, entry] : entries_) {
    ids.push_back(block);
    weights.push_back(static_cast<double>(entry.count));
  }
  const auto picked = WeightedSampleWithoutReplacement(rng, weights, count);
  std::vector<BlockId> out;
  out.reserve(picked.size());
  for (std::size_t idx : picked) out.push_back(ids[idx]);
  return out;
}

std::vector<CoAccessPartner> CoAccessTracker::TopBlocks(std::size_t n) const {
  std::vector<CoAccessPartner> out;
  if (requests_.empty() || n == 0) return out;
  const double window = static_cast<double>(requests_.size());
  out.reserve(entries_.size());
  for (const auto& [block, entry] : entries_) {
    out.push_back({block, static_cast<double>(entry.count) / window});
  }
  // entries_ iterates ascending block id, so stable_sort leaves ties in
  // ascending-id order — deterministic promotion sweeps.
  std::stable_sort(out.begin(), out.end(),
                   [](const CoAccessPartner& a, const CoAccessPartner& b) {
                     return a.lambda > b.lambda;
                   });
  if (out.size() > n) out.resize(n);
  return out;
}

double CoAccessTracker::AccessFrequency(BlockId b) const {
  if (requests_.empty()) return 0;
  return static_cast<double>(Count(b)) / static_cast<double>(requests_.size());
}

std::size_t CoAccessTracker::ApproxMemoryBytes() const {
  // Window entries.
  std::size_t bytes = 0;
  for (const auto& q : requests_) {
    bytes += sizeof(q) + q.capacity() * sizeof(BlockId);
  }
  // Red-black tree nodes: payload + ~3 pointers + color word each, plus
  // each partner list's heap block.
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  for (const auto& [block, entry] : entries_) {
    (void)block;
    bytes += sizeof(std::pair<const BlockId, Entry>) + kNodeOverhead;
    bytes += entry.partners.capacity() * sizeof(entry.partners[0]);
  }
  return bytes;
}

}  // namespace ecstore
