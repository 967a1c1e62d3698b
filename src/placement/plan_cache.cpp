#include "placement/plan_cache.h"

#include <algorithm>

namespace ecstore {

PlanCache::PlanCache(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::vector<BlockId> PlanCache::CanonicalKey(std::span<const BlockId> blocks) {
  std::vector<BlockId> key(blocks.begin(), blocks.end());
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

std::optional<AccessPlan> PlanCache::Lookup(std::span<const BlockId> blocks,
                                            std::uint32_t delta) {
  Key key{CanonicalKey(blocks), delta};
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  Touch(it->first, it->second);
  return it->second.plan;
}

std::optional<AccessPlan> PlanCache::LookupSatisfying(
    std::span<const BlockId> blocks, std::uint32_t delta) {
  const std::vector<BlockId> wanted = CanonicalKey(blocks);
  if (wanted.empty()) return std::nullopt;

  // Exact match first (cheapest, and most common for recurring sets).
  {
    Key key{wanted, delta};
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++hits_;
      Touch(it->first, it->second);
      return it->second.plan;
    }
  }

  // Superset search: scan cached sets containing the first wanted block;
  // bounded so a very hot block cannot make lookups expensive.
  constexpr std::size_t kMaxCandidates = 32;
  const auto [begin, end] = block_index_.equal_range(wanted.front());
  std::size_t scanned = 0;
  for (auto it = begin; it != end && scanned < kMaxCandidates; ++it, ++scanned) {
    const Key& key = it->second;
    if (key.delta != delta) continue;
    if (!std::includes(key.blocks.begin(), key.blocks.end(), wanted.begin(),
                       wanted.end())) {
      continue;
    }
    const auto entry = entries_.find(key);
    if (entry == entries_.end()) continue;
    ++hits_;
    Touch(entry->first, entry->second);
    if (key.blocks.size() == wanted.size()) return entry->second.plan;
    AccessPlan restricted;
    restricted.optimal = false;  // Optimal for the superset, not this subset.
    for (const ChunkRead& read : entry->second.plan.reads) {
      if (std::binary_search(wanted.begin(), wanted.end(), read.block)) {
        restricted.reads.push_back(read);
      }
    }
    restricted.estimated_cost_ms = entry->second.plan.estimated_cost_ms;
    return restricted;
  }
  ++misses_;
  return std::nullopt;
}

void PlanCache::Insert(std::span<const BlockId> blocks, std::uint32_t delta,
                       AccessPlan plan) {
  Key key{CanonicalKey(blocks), delta};
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.plan = std::move(plan);
    Touch(it->first, it->second);
    return;
  }
  lru_.push_front(key);
  Entry entry{std::move(plan), lru_.begin()};
  entries_.emplace(key, std::move(entry));
  for (BlockId b : key.blocks) block_index_.emplace(b, key);
  EvictIfNeeded();
}

void PlanCache::InvalidateBlock(BlockId block) {
  const auto [begin, end] = block_index_.equal_range(block);
  // Collect first: Erase mutates block_index_.
  std::vector<Key> keys;
  for (auto it = begin; it != end; ++it) keys.push_back(it->second);
  for (const Key& key : keys) Erase(key);
}

void PlanCache::BumpEpoch() {
  entries_.clear();
  lru_.clear();
  block_index_.clear();
}

double PlanCache::HitRate() const {
  const std::uint64_t total = hits_ + misses_;
  return total ? static_cast<double>(hits_) / static_cast<double>(total) : 0.0;
}

std::size_t PlanCache::ApproxMemoryBytes() const {
  std::size_t bytes = 0;
  constexpr std::size_t kNodeOverhead = 4 * sizeof(void*);
  for (const auto& [key, entry] : entries_) {
    bytes += kNodeOverhead + sizeof(Key) + key.blocks.capacity() * sizeof(BlockId);
    bytes += sizeof(Entry) + entry.plan.reads.capacity() * sizeof(ChunkRead);
    // LRU node + block-index nodes.
    bytes += kNodeOverhead + sizeof(Key) + key.blocks.size() * sizeof(BlockId);
    bytes += key.blocks.size() * (kNodeOverhead + sizeof(std::pair<BlockId, Key>));
  }
  return bytes;
}

void PlanCache::Touch(const Key& key, Entry& entry) {
  lru_.erase(entry.lru_it);
  lru_.push_front(key);
  entry.lru_it = lru_.begin();
}

void PlanCache::EvictIfNeeded() {
  while (entries_.size() > capacity_) {
    Erase(lru_.back());
  }
}

void PlanCache::Erase(const Key& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  // `key` may be the LRU node itself (eviction), so read the entry's own
  // key and drop the LRU node last.
  const Key& owned = it->first;
  for (BlockId b : owned.blocks) {
    const auto [begin, end] = block_index_.equal_range(b);
    for (auto bit = begin; bit != end; ++bit) {
      if (bit->second == owned) {
        block_index_.erase(bit);
        break;
      }
    }
  }
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

}  // namespace ecstore
