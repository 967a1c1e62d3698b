// ReadRequest: one read's shared state and every decision of its
// lifecycle (DESIGN.md §5), made once for both embodiments — Fig. 3's
// R1-R3 path as admission, cache split, plan snapshot, first-k
// completion, hedge choice and cache fill. The embodiments keep only the
// transport: DES events in SimECStore, DataPlane jobs and a condvar wait
// in LocalECStore. Not synchronized; LocalECStore guards its fetch-phase
// calls with the fetch context's mutex.
#pragma once

#include <bitset>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cluster/state.h"
#include "core/control_plane.h"
#include "erasure/codec_family.h"

namespace ecstore {

/// One admission token (DESIGN.md §14), from ControlPlane::Admit. An
/// ungated store admits without a token. A held token returns exactly
/// once: at Release() or at destruction, whichever comes first.
class AdmissionTicket {
 public:
  AdmissionTicket(AdmissionTicket&& o) noexcept
      : admission_(std::exchange(o.admission_, nullptr)), shed_(o.shed_) {}
  AdmissionTicket& operator=(AdmissionTicket&&) = delete;
  ~AdmissionTicket() { Release(); }

  bool shed() const { return shed_; }
  bool held() const { return admission_ != nullptr; }
  void Release() {
    if (admission_ != nullptr) std::exchange(admission_, nullptr)->Release();
  }

 private:
  friend class ControlPlane;
  AdmissionTicket(AdmissionController* admission, bool shed)
      : admission_(admission), shed_(shed) {}

  AdmissionController* admission_;
  bool shed_;
};

/// How a block's delivered chunks turn back into the block.
enum class DecodeKind { kNone, kReassemble, kDecode };

/// One block of a read: the catalog entry snapshotted at plan time and
/// the chunks delivered against it.
struct BlockRead {
  BlockRead(BlockId id, BlockInfo snapshot,
            std::shared_ptr<const CodecFamily> codec)
      : block(id), info(std::move(snapshot)), family(std::move(codec)) {
    have.reserve(info.k);
  }

  BlockId block = kInvalidBlock;
  /// Its version tags any cache fill of this read's decode.
  BlockInfo info;
  /// Shared so straggler fetch workers may outlive the request.
  std::shared_ptr<const CodecFamily> family;
  std::vector<ChunkIndex> have;  // distinct delivered chunks
  std::bitset<256> tried;        // chunks ever issued (codecs cap at 256)
  bool complete = false;

  bool Has(ChunkIndex c) const;
  /// The completion rule: records `chunk` unless the block is complete or
  /// already has it (true: the transport keeps the chunk). The block
  /// completes on at least k distinct chunks that decode — any k for MDS
  /// families, a pattern check (CanDecode) for LRC.
  bool Deliver(ChunkIndex chunk);
  /// None for replicas, reassembly when the delivered set is systematic.
  DecodeKind Decode() const;
};

/// One chunk fetch for the transport to issue.
struct ChunkFetch {
  std::size_t block_index = 0;  // into ReadRequest::blocks()
  ChunkIndex chunk = 0;
  SiteId site = kInvalidSite;
};

class ReadRequest {
 public:
  enum class Admission { kAdmitted, kCachedOnly, kShed };

  /// Use ControlPlane::BeginRead. Fetch workers may hold its address, so
  /// it never moves.
  ReadRequest(ControlPlane* cp, ClusterState* state,
              std::span<const BlockId> ids, double now_ms);
  ReadRequest(const ReadRequest&) = delete;
  ReadRequest& operator=(const ReadRequest&) = delete;

  /// A shed request is still answered from the cache alone at brownout
  /// L3 (kCachedOnly, bytes in cached()).
  Admission admission() const { return admission_; }
  /// Cached bytes for request position `pos` (null on a miss).
  const ControlPlane::CachedBytes& cached(std::size_t pos) const;

  /// The first step of an admitted read: samples it into the statistics
  /// service (Section V-A; a hit's cache weight then counts it), splits
  /// it at the decoded-block cache, if any, and returns the prefetch fills
  /// claimed for the hits' co-access partners.
  std::vector<BlockId> RecordAndSplit();
  bool AllCached() const { return split_ && misses_.empty(); }
  std::uint32_t cached_blocks() const { return cached_blocks_; }

  /// The plan step over the misses: AdaptiveDelta -> BuildDemands ->
  /// SelectAccessPlan -> per-demand catalog snapshot. Resets delivery
  /// progress (a re-plan starts over). False when a block is unreadable.
  bool Plan();
  PlanSource plan_source() const { return source_; }
  const std::vector<ChunkFetch>& planned() const { return planned_; }
  const std::vector<BlockRead>& blocks() const { return blocks_; }
  BlockRead& block(std::size_t i) { return blocks_[i]; }
  std::size_t IndexOf(BlockId id) const;
  /// Every block complete.
  bool complete() const;

  /// The one hedge round's fetches: every untried chunk of an incomplete
  /// block on a site believed up, now marked tried.
  std::vector<ChunkFetch> HedgeCandidates();

  /// Re-snapshots block `i` from `info` (a rewrite changed its layout),
  /// dropping its progress.
  void Resnapshot(std::size_t i, const BlockInfo& info);

  /// Caches block `i`'s decode under its snapshot version, unless a
  /// rewrite made it stale already. No-op without the cache.
  void FillCache(std::size_t i, ControlPlane::CachedBytes data);

  /// Returns the admission token (idempotent; also at destruction).
  void Release() { ticket_.Release(); }

 private:
  ControlPlane* cp_;
  ClusterState* state_;
  AdmissionTicket ticket_;
  Admission admission_ = Admission::kAdmitted;
  std::vector<ControlPlane::CachedBytes> cached_;  // parallel to the ids
  std::vector<BlockId> misses_;
  bool split_ = false;
  std::uint32_t cached_blocks_ = 0;
  PlanSource source_ = PlanSource::kRandom;
  std::vector<BlockRead> blocks_;
  std::vector<std::pair<BlockId, std::size_t>> index_;  // sorted by id
  std::vector<ChunkFetch> planned_;
};

}  // namespace ecstore
