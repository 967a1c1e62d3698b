// StorageNode: one in-process storage site of the real-bytes data plane —
// a keyed chunk store with an availability switch and end-to-end data
// integrity (DESIGN.md §9).
//
// Every chunk's CRC32C is computed when it is stored and verified on
// every read, so silently corrupted bytes surface as a miss (an erasure
// the degraded-read path routes around) and never reach a client. The
// fetch path additionally supports injected transient I/O errors, which
// exercise the hedge and degraded paths without taking the node down.
//
// Thread-safe: the concurrent data plane (core/data_plane.h) reads chunks
// from pool workers while writers (Put, movement, repair, scrub) and the
// failure-injection API run on other threads. The chunk map is guarded by
// a per-node mutex; the hot counters are atomics so concurrent GetChunk
// calls never corrupt the load-refresh deltas derived from them. Chunks
// are handed out as shared_ptrs, so a reader keeps its bytes alive even
// when the chunk is concurrently deleted or overwritten.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "common/types.h"
#include "erasure/codec_family.h"

namespace ecstore {

class StorageNode {
 public:
  bool available() const { return available_.load(std::memory_order_acquire); }
  void set_available(bool a) { available_.store(a, std::memory_order_release); }

  /// Stores a chunk, computing its CRC32C. Returns false — dropping the
  /// write — when the node is failed: a write raced a crash, and the
  /// resulting redundancy hole is what repair and the scrubber heal.
  bool PutChunk(BlockId block, ChunkIndex chunk, ChunkData data);

  /// Verified read: returns the chunk bytes, or nullptr when the chunk is
  /// missing, the node is failed, or the bytes no longer match their
  /// stored checksum (silent corruption becomes an erasure, not bad
  /// data). A failed node answering nullptr (a miss) instead of throwing
  /// matters under concurrency: FailSite can land between planning and
  /// fetch, and a miss routes the read into the degraded top-up path
  /// where an exception would escape FetchChunks.
  std::shared_ptr<const ChunkData> GetChunk(BlockId block,
                                            ChunkIndex chunk) const;

  /// The data-plane fetch path: GetChunk plus injected transient I/O
  /// errors (see set_fetch_error). Direct authoritative reads — degraded
  /// top-up, scrub, repair, movement — use GetChunk and bypass injection.
  std::shared_ptr<const ChunkData> FetchChunk(BlockId block,
                                              ChunkIndex chunk) const;

  bool DeleteChunk(BlockId block, ChunkIndex chunk);
  bool HasChunk(BlockId block, ChunkIndex chunk) const;

  /// Presence + checksum validity without counting a read or rolling the
  /// error injector: the scrubber's probe.
  bool HasValidChunk(BlockId block, ChunkIndex chunk) const;

  /// Silently flips bits in the stored bytes of `chunk`, keeping its
  /// recorded checksum — the fault the scrubber exists for. Readers
  /// holding the old shared_ptr are unaffected (the corrupted copy
  /// replaces the map entry). Returns false when the chunk is absent.
  bool CorruptChunk(BlockId block, ChunkIndex chunk);

  /// Snapshot of the keys currently stored (fault injection / scrub).
  std::vector<std::pair<BlockId, ChunkIndex>> ChunkKeys() const;

  /// FetchChunk fails with probability `p` (deterministically, from
  /// `seed` and a per-node draw counter). p = 0 switches injection off.
  void set_fetch_error(double p, std::uint64_t seed = 0);

  std::uint64_t bytes_stored() const {
    return bytes_stored_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunk_count() const;
  std::uint64_t reads_served() const {
    return reads_served_.load(std::memory_order_relaxed);
  }
  /// CRC mismatches caught by reads (each failing read counts once).
  std::uint64_t checksum_failures() const {
    return checksum_failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t injected_fetch_errors() const {
    return injected_fetch_errors_.load(std::memory_order_relaxed);
  }

 private:
  struct StoredChunk {
    std::shared_ptr<const ChunkData> data;
    std::uint32_t crc = 0;
  };

  /// Shared lookup + verification for GetChunk/FetchChunk.
  std::shared_ptr<const ChunkData> VerifiedLookup(BlockId block,
                                                  ChunkIndex chunk) const;

  mutable std::mutex mu_;  // guards chunks_
  std::map<std::pair<BlockId, ChunkIndex>, StoredChunk> chunks_;
  std::atomic<std::uint64_t> bytes_stored_{0};
  mutable std::atomic<std::uint64_t> reads_served_{0};
  mutable std::atomic<std::uint64_t> checksum_failures_{0};
  mutable std::atomic<std::uint64_t> injected_fetch_errors_{0};
  std::atomic<bool> available_{true};

  // Injected fetch-error state. The probability/seed pair is written
  // under mu_ and read with atomics so in-flight fetches see a coherent
  // toggle without locking on the hot path.
  std::atomic<double> fetch_error_p_{0.0};
  std::atomic<std::uint64_t> fetch_error_seed_{0};
  mutable std::atomic<std::uint64_t> fetch_error_seq_{0};
};

}  // namespace ecstore
