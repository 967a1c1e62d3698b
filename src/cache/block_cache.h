// Latency-aware decoded-block cache (DESIGN.md §12): a bounded cache of
// whole decoded blocks sitting in front of MultiGet in both embodiments.
//
// Admission and eviction are λ-weighted, not plain LRU: every entry
// carries the stats service's access likelihood for its block, eviction
// removes the lowest-weight entry first (oldest-use breaks ties), and a
// candidate colder than the coldest resident entry is rejected outright —
// a one-shot scan cannot flush the hot set.
//
// Coherence is version-checked: entries record the block's ClusterState
// coherence version at fill time, and Lookup revalidates against the live
// version — a Put/Delete/move/repair/scrub rewrite bumps the version and
// the stale entry self-invalidates on its next touch. The owning
// ControlPlane additionally evicts eagerly on every plan invalidation so
// stale bytes don't linger against the capacity budget.
//
// Thread-safety: every operation takes one internal mutex; handed-out
// block bytes are shared_ptr<const vector> so a hit survives concurrent
// invalidation. The in-flight prefetch set (Begin/EndPrefetch) shares the
// mutex, giving dedup between racing hits on the same anchor block.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace ecstore {

/// Counter snapshot for Usage() / --usage-json.
struct BlockCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;       // capacity evictions only
  std::uint64_t invalidations = 0;   // version-check or explicit evictions
  std::uint64_t admission_rejects = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_hits = 0;   // hits whose entry was prefetched
  std::uint64_t bytes = 0;           // resident decoded bytes right now
};

class BlockCache {
 public:
  /// A zero capacity constructs a valid cache that rejects every insert —
  /// embodiments can keep an unconditional member and stay disabled.
  explicit BlockCache(std::uint64_t capacity_bytes);

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Hit iff the block is resident AND its fill-time version equals
  /// `live_version` (the catalog's current BlockVersion). A version
  /// mismatch erases the stale entry and reports a miss. The simulator
  /// embodiment caches metadata only — its entries carry null data, and a
  /// version-valid null-data entry still counts as a hit (out_data left
  /// null).
  bool Lookup(BlockId id, std::uint64_t live_version,
              std::shared_ptr<const std::vector<std::uint8_t>>* out_data);

  /// λ-weighted admission. `bytes` is the decoded size charged against
  /// capacity (data may be null for the metadata embodiment), `version`
  /// the catalog coherence version at fill time, `weight` the stats
  /// service's access likelihood. Evicts lowest-weight entries to make
  /// room, but refuses (returns false) when doing so would evict an entry
  /// strictly hotter than the candidate. Re-inserting a resident block
  /// replaces it (fresh bytes/version win).
  bool Insert(BlockId id, std::shared_ptr<const std::vector<std::uint8_t>> data,
              std::uint64_t bytes, std::uint64_t version, double weight,
              bool prefetched = false);

  /// Refreshes an entry's eviction weight as its λ drifts. No-op when the
  /// block is not resident.
  void UpdateWeight(BlockId id, double weight);

  /// Explicit eager eviction (ControlPlane::InvalidateBlock).
  /// Returns true if the block was resident.
  bool Invalidate(BlockId id);

  void Clear();

  /// Prefetch dedup: claims `id` for an in-flight prefetch. Returns false
  /// — do not issue — when the block is already resident or already being
  /// prefetched. A successful claim counts toward prefetch_issued and
  /// must be released with EndPrefetch (whether or not the fill landed).
  bool BeginPrefetch(BlockId id);
  void EndPrefetch(BlockId id);

  bool Contains(BlockId id) const;
  std::size_t entries() const;
  std::uint64_t resident_bytes() const;
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  bool enabled() const { return capacity_bytes_ > 0; }

  BlockCacheStats Stats() const;

 private:
  struct Entry {
    std::shared_ptr<const std::vector<std::uint8_t>> data;
    std::uint64_t bytes = 0;
    std::uint64_t version = 0;
    double weight = 0;
    std::uint64_t seq = 0;  // last-touch stamp; LRU tie-break within a weight
    bool prefetched = false;
  };
  /// Eviction order: coldest weight first, then least recently touched.
  using EvictKey = std::tuple<double, std::uint64_t, BlockId>;

  EvictKey KeyOf(BlockId id, const Entry& e) const {
    return {e.weight, e.seq, id};
  }
  void EraseLocked(BlockId id, std::unordered_map<BlockId, Entry>::iterator it);

  const std::uint64_t capacity_bytes_;
  mutable std::mutex mu_;
  std::unordered_map<BlockId, Entry> entries_;
  std::set<EvictKey> order_;
  std::unordered_set<BlockId> inflight_prefetch_;
  std::uint64_t seq_ = 0;
  BlockCacheStats stats_;
};

}  // namespace ecstore
