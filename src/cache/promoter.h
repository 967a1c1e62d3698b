// Dynamic hybrid redundancy (DESIGN.md §12): per-block promotion of the
// hottest erasure-coded blocks to full replicas, and demotion back to the
// block's original codec family once it cools — the mover's movement
// round turns the R-vs-EC choice into a per-block dynamic decision under
// an explicit storage-overhead budget.
//
// The promoter is pure policy + budget bookkeeping: it decides *which*
// blocks change redundancy and accounts the extra bytes. The owning
// ControlPlane runs the round (RunPromotionRound) from the movement round;
// the embodiment executes only the catalog/data rewrite (decode k chunks,
// re-store as rep(r)). Promotion state:
//
//     EC ──(freq ≥ promote_min_frequency, budget room)──▶ replicated
//     replicated ──(freq < demote_frequency)──▶ EC (original spec)
//
// The hysteresis gap between the two thresholds stops a block oscillating
// at a single cut-off. `replica_extra_bytes` is the promoted layout's
// byte cost over the original EC layout summed across promoted blocks; it
// never exceeds budget_bytes, which is what makes cached-vs-uncached
// benchmark comparisons equal-storage.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/codec_spec.h"
#include "common/types.h"

namespace ecstore {

struct PromoterStats {
  std::uint64_t blocks_promoted = 0;   // cumulative promotions
  std::uint64_t blocks_demoted = 0;    // cumulative demotions
  std::uint64_t replica_extra_bytes = 0;  // current extra storage in use
  std::uint64_t promoted_now = 0;      // blocks currently replicated
};

class ReplicaPromoter {
 public:
  struct Params {
    /// Storage-overhead budget in bytes; 0 disables promotion entirely.
    std::uint64_t budget_bytes = 0;
    /// Total copies a promoted block is replicated to (rep(copies - 1)).
    std::uint32_t replica_copies = 3;
    /// Access frequency (fraction of windowed requests) at or above which
    /// an EC block qualifies for promotion.
    double promote_min_frequency = 0.01;
    /// Frequency below which a promoted block demotes. Must sit below
    /// promote_min_frequency for hysteresis.
    double demote_frequency = 0.002;
    /// Blocks larger than this never promote (0 = no size gate). A
    /// replica is read as ONE whole-block fetch from a single site,
    /// while EC reads k chunks in parallel — so promotion pays off for
    /// latency-bound small blocks (per-fetch overhead dominates) and
    /// *hurts* bandwidth-bound large ones, which keep their parallel
    /// EC fetch instead.
    std::uint64_t max_block_bytes = 256 * 1024;
  };

  explicit ReplicaPromoter(Params params) : params_(params) {}

  ReplicaPromoter(const ReplicaPromoter&) = delete;
  ReplicaPromoter& operator=(const ReplicaPromoter&) = delete;

  bool enabled() const { return params_.budget_bytes > 0; }
  const Params& params() const { return params_; }

  /// The replicated layout's spec: 1 data copy + (copies - 1) extras.
  CodecSpec ReplicaSpec() const {
    return CodecSpec{CodecFamilyId::kReplication, 1,
                     params_.replica_copies - 1, 0};
  }

  /// True when `id` should promote this round: not already promoted,
  /// hot enough, within the size gate, and `extra_bytes` (replica layout
  /// cost minus the current EC layout cost) fits the remaining budget.
  /// `block_bytes = 0` skips the size gate (unit-test convenience).
  bool ShouldPromote(BlockId id, double frequency, std::uint64_t extra_bytes,
                     std::uint64_t block_bytes = 0) const;

  /// Commits a promotion the embodiment just executed.
  void RecordPromoted(BlockId id, const CodecSpec& original_spec,
                      std::uint64_t extra_bytes);

  bool IsPromoted(BlockId id) const;

  /// The original codec spec a promoted block demotes back to; nullopt
  /// when `id` is not currently promoted.
  std::optional<CodecSpec> OriginalSpec(BlockId id) const;

  /// Extra bytes the replicated layout costs over the block's current
  /// layout (never negative — a replica cheaper than the EC layout
  /// charges zero against the budget).
  static std::uint64_t ReplicaExtraBytes(std::uint64_t block_bytes,
                                         std::uint64_t current_stored_bytes,
                                         std::uint32_t copies) {
    const std::uint64_t replicated =
        static_cast<std::uint64_t>(copies) * block_bytes;
    return replicated > current_stored_bytes ? replicated - current_stored_bytes
                                             : 0;
  }

  /// Promoted blocks whose current frequency fell below the demote
  /// threshold, ascending block id (deterministic round order).
  std::vector<BlockId> SelectDemotions(
      const std::function<double(BlockId)>& frequency_of) const;

  /// Commits a demotion; returns the original codec spec to restore.
  /// Throws std::out_of_range if `id` was never promoted.
  CodecSpec RecordDemoted(BlockId id);

  PromoterStats Stats() const;

 private:
  struct Promoted {
    CodecSpec original_spec;
    std::uint64_t extra_bytes = 0;
  };

  const Params params_;
  mutable std::mutex mu_;
  std::map<BlockId, Promoted> promoted_;  // ordered: deterministic sweeps
  PromoterStats stats_;
};

}  // namespace ecstore
