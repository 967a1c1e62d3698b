#include "erasure/codec_family.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <stdexcept>

#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "gf/matrix.h"

namespace ecstore {

std::vector<std::uint8_t> CodecFamily::Decode(
    std::span<const IndexedChunk> chunks, std::size_t block_size) const {
  auto block = TryDecode(chunks, block_size);
  if (!block) {
    throw std::invalid_argument(Name() + ": chunks do not decode the block");
  }
  return std::move(*block);
}

namespace {

/// A 256-bit set of chunk indices (every index is < 256): O(1) duplicate
/// screening without an allocation.
class IndexSet {
 public:
  /// Adds `i`; false when it was already present.
  bool Insert(std::uint32_t i) {
    std::uint64_t& word = bits_[i >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  }
  bool Contains(std::uint32_t i) const {
    return (bits_[i >> 6] >> (i & 63)) & 1;
  }

 private:
  std::array<std::uint64_t, 4> bits_{};
};

/// One available chunk (or the same-sized piece of one) a decode reads.
/// `data` is null when only the index matters (CanDecode, repair plans).
struct ChunkView {
  ChunkIndex index;
  const gf::Elem* data;
};

/// Chunks of `chunks` with distinct indices below `n`, in arrival order.
/// A decode throws on a chunk of the wrong size. A repair passes its
/// target, which is skipped along with wrong-sized sources: repair reads
/// are best effort.
std::vector<ChunkView> Scan(std::span<const IndexedChunk> chunks,
                            std::uint32_t n, std::size_t chunk_size,
                            std::optional<ChunkIndex> repair_target = {}) {
  std::vector<ChunkView> views;
  views.reserve(std::min<std::size_t>(chunks.size(), n));
  IndexSet seen;
  for (const IndexedChunk& c : chunks) {
    if (c.index >= n || c.index == repair_target) continue;
    if (c.data.size() != chunk_size) {
      if (repair_target) continue;
      throw std::invalid_argument("CodecFamily: chunk size mismatch");
    }
    if (seen.Insert(c.index)) views.push_back({c.index, c.data.data()});
  }
  return views;
}

/// The distinct indices below `n` in `available`, less a repair target.
IndexSet Survivors(std::span<const ChunkIndex> available, std::uint32_t n,
                   ChunkIndex target) {
  IndexSet have;
  for (const ChunkIndex c : available) {
    if (c < n && c != target) have.Insert(c);
  }
  return have;
}

// ---------------------------------------------------------------------------
// The generator-matrix core every family runs on: chunks = G * data over
// GF(2^8), G an n x k matrix whose unit rows (a single 1) store a data
// split verbatim. Every G here is systematic: each data column has a
// unit row.
// ---------------------------------------------------------------------------

class GeneratorCore {
 public:
  static constexpr std::uint32_t kNotUnit = ~0u;

  explicit GeneratorCore(gf::Matrix generator)
      : g_(std::move(generator)),
        k_(static_cast<std::uint32_t>(g_.cols())),
        n_(static_cast<std::uint32_t>(g_.rows())),
        unit_col_(n_, kNotUnit),
        data_row_(k_, kNotUnit),
        row_tabs_(n_) {
    for (std::uint32_t r = 0; r < n_; ++r) {
      std::uint32_t nonzero = 0, col = 0;
      for (std::uint32_t j = 0; j < k_; ++j) {
        if (g_.At(r, j) != 0) {
          ++nonzero;
          col = j;
        }
      }
      if (nonzero == 1 && g_.At(r, col) == 1) {
        unit_col_[r] = col;
        if (data_row_[col] == kNotUnit) data_row_[col] = r;
        continue;
      }
      // Split-nibble product tables for the row, built once per family
      // instead of once per Encode call.
      row_tabs_[r].resize(k_);
      for (std::uint32_t j = 0; j < k_; ++j) {
        gf::BuildMulTable(g_.At(r, j), row_tabs_[r][j]);
      }
    }
    if (std::find(data_row_.begin(), data_row_.end(), kNotUnit) !=
        data_row_.end()) {
      throw std::invalid_argument("GeneratorCore: generator is not systematic");
    }
  }

  std::size_t ChunkSize(std::size_t block_size) const {
    return (block_size + k_ - 1) / k_;
  }

  /// out[0, len) = row `row` of G applied to the k data splits `data`: a
  /// copy for a unit row, otherwise one fused pass over all k sources.
  void ApplyRow(ChunkIndex row, const gf::Elem* const* data, gf::Elem* out,
                std::size_t len) const {
    if (unit_col_[row] != kNotUnit) {
      if (len != 0) std::memcpy(out, data[unit_col_[row]], len);
      return;
    }
    // The kernel overwrites its destination (accumulate=false), so `out`
    // is never read.
    gf::ActiveKernels().mul_add_multi(row_tabs_[row].data(), data, k_, out,
                                      len, /*accumulate=*/false);
  }

  std::vector<ChunkData> Encode(std::span<const std::uint8_t> block) const {
    const std::size_t chunk_size = ChunkSize(block.size());
    std::vector<ChunkData> chunks(n_);
    // Unit rows: a straight split of the block, zero-padded at the tail,
    // copy-constructed from the block range in one pass.
    for (std::uint32_t r = 0; r < n_; ++r) {
      if (unit_col_[r] == kNotUnit) continue;
      const std::size_t offset = std::min(
          static_cast<std::size_t>(unit_col_[r]) * chunk_size, block.size());
      const std::size_t count = std::min(chunk_size, block.size() - offset);
      chunks[r].reserve(chunk_size);
      chunks[r].assign(block.begin() + offset, block.begin() + offset + count);
      chunks[r].resize(chunk_size, 0);
    }
    std::vector<const gf::Elem*> data(k_);
    for (std::uint32_t j = 0; j < k_; ++j) data[j] = chunks[data_row_[j]].data();
    for (std::uint32_t r = 0; r < n_; ++r) {
      if (unit_col_[r] != kNotUnit) continue;
      chunks[r].resize(chunk_size);
      ApplyRow(r, data.data(), chunks[r].data(), chunk_size);
    }
    return chunks;
  }

  /// True when the distinct unit rows among `rows` cover every column.
  bool CoveredByUnitRows(std::span<const ChunkIndex> rows) const {
    IndexSet covered;
    std::uint32_t count = 0;
    for (const ChunkIndex r : rows) {
      if (r < n_ && unit_col_[r] != kNotUnit && covered.Insert(unit_col_[r])) {
        ++count;
      }
    }
    return count == k_;
  }

  /// The k views (of distinct in-range rows) a decode reads: one unit
  /// row per column when they cover every column (reassembly, in column
  /// order), otherwise the first linearly independent rows in scan
  /// order. Empty when `views` do not span the data.
  std::vector<ChunkView> Select(std::span<const ChunkView> views) const {
    std::vector<ChunkView> out(k_);
    IndexSet placed;
    std::uint32_t covered = 0;
    for (const ChunkView& v : views) {
      const std::uint32_t col = unit_col_[v.index];
      if (col != kNotUnit && placed.Insert(col)) {
        out[col] = v;
        ++covered;
      }
    }
    if (covered == k_) return out;
    // Greedy rank building: reduce each candidate row against the basis
    // so far (rows normalized to pivot 1, each with zeros at every
    // earlier pivot) and keep it when something is left.
    out.clear();
    std::vector<gf::Elem> basis;  // Accepted reduced rows, k_ each.
    std::vector<std::uint32_t> pivots;
    basis.reserve(static_cast<std::size_t>(k_) * k_);
    pivots.reserve(k_);
    std::vector<gf::Elem> row(k_);
    for (const ChunkView& v : views) {
      for (std::uint32_t j = 0; j < k_; ++j) row[j] = g_.At(v.index, j);
      for (std::size_t b = 0; b < pivots.size(); ++b) {
        const gf::Elem f = row[pivots[b]];
        if (f == 0) continue;
        for (std::uint32_t j = 0; j < k_; ++j) {
          row[j] = gf::Add(row[j], gf::Mul(f, basis[b * k_ + j]));
        }
      }
      const auto pivot = std::find_if(row.begin(), row.end(),
                                      [](gf::Elem e) { return e != 0; });
      if (pivot == row.end()) continue;  // Dependent row.
      const gf::Elem inv = gf::Inverse(*pivot);
      for (gf::Elem& e : row) e = gf::Mul(e, inv);
      pivots.push_back(static_cast<std::uint32_t>(pivot - row.begin()));
      basis.insert(basis.end(), row.begin(), row.end());
      out.push_back(v);
      if (out.size() == k_) return out;
    }
    out.clear();
    return out;
  }

  /// Recovers the data splits from `selected` (a Select result) into
  /// out[0, out_len), where out_len <= k * chunk_size; a split past
  /// out_len is dropped and one straddling it is truncated.
  void Recover(std::span<const ChunkView> selected, std::size_t chunk_size,
               gf::Elem* out, std::size_t out_len) const {
    const bool reassembly =
        std::all_of(selected.begin(), selected.end(), [&](const ChunkView& v) {
          return unit_col_[v.index] != kNotUnit;
        });
    if (reassembly) {
      for (const ChunkView& v : selected) {
        const std::size_t offset =
            static_cast<std::size_t>(unit_col_[v.index]) * chunk_size;
        if (offset >= out_len) continue;
        std::memcpy(out + offset, v.data, std::min(chunk_size, out_len - offset));
      }
      return;
    }
    // Invert the k x k submatrix of the selected rows; the product
    // (inverse * selected chunks) yields the data splits.
    std::vector<std::size_t> rows(k_);
    std::vector<const gf::Elem*> srcs(k_);
    for (std::uint32_t i = 0; i < k_; ++i) {
      rows[i] = selected[i].index;
      srcs[i] = selected[i].data;
    }
    gf::Matrix inverse = g_.SelectRows(rows);
    if (!inverse.Invert()) {
      // Select only returns independent rows; guard anyway.
      throw std::runtime_error("GeneratorCore: singular decode matrix");
    }
    // Product tables for the inverse, built once per decode, then one
    // fused pass per recovered data split.
    std::vector<gf::MulTable> tabs(static_cast<std::size_t>(k_) * k_);
    for (std::uint32_t i = 0; i < k_; ++i) {
      for (std::uint32_t j = 0; j < k_; ++j) {
        gf::BuildMulTable(inverse.At(i, j),
                          tabs[static_cast<std::size_t>(i) * k_ + j]);
      }
    }
    const auto& kernels = gf::ActiveKernels();
    std::vector<gf::Elem> bounce;
    for (std::uint32_t col = 0; col < k_; ++col) {
      const std::size_t offset = static_cast<std::size_t>(col) * chunk_size;
      if (offset >= out_len) continue;
      const std::size_t count = std::min(chunk_size, out_len - offset);
      // Splits that fit decode straight into `out`; only a truncated
      // tail split needs the bounce buffer.
      if (count != chunk_size) bounce.resize(chunk_size);
      gf::Elem* dst = count == chunk_size ? out + offset : bounce.data();
      kernels.mul_add_multi(tabs.data() + static_cast<std::size_t>(col) * k_,
                            srcs.data(), k_, dst, chunk_size,
                            /*accumulate=*/false);
      if (count != chunk_size) std::memcpy(out + offset, bounce.data(), count);
    }
  }

 private:
  gf::Matrix g_;
  std::uint32_t k_, n_;
  std::vector<std::uint32_t> unit_col_;  // Per row: its column, or kNotUnit.
  std::vector<std::uint32_t> data_row_;  // Per column: its first unit row.
  std::vector<std::vector<gf::MulTable>> row_tabs_;  // Per non-unit row.
};

// ---------------------------------------------------------------------------
// LinearFamily: RS, replication and Azure-LRC — whole-chunk linear codes
// that differ only in their generator. LRC adds one repair step: a chunk
// in a placement group rebuilds from its group-mates, whose local parity
// is their XOR.
// ---------------------------------------------------------------------------

class LinearFamily : public CodecFamily {
 public:
  LinearFamily(const CodecSpec& spec, gf::Matrix generator)
      : CodecFamily(spec), core_(std::move(generator)) {
    fault_tolerance_ = AnyKDecodes() ? TotalChunks() - DataChunks()
                                     : WorstCaseFaultTolerance();
  }

  std::uint32_t FaultTolerance() const override { return fault_tolerance_; }

  std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const override {
    return core_.Encode(block);
  }

  bool CanDecode(std::span<const ChunkIndex> indices) const override {
    IndexSet seen;
    std::vector<ChunkView> views;
    for (const ChunkIndex c : indices) {
      if (c < TotalChunks() && seen.Insert(c)) views.push_back({c, nullptr});
    }
    return !core_.Select(views).empty();
  }

  std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks,
      std::size_t block_size) const override {
    const std::size_t chunk_size = ChunkSize(block_size);
    const auto selected =
        core_.Select(Scan(chunks, TotalChunks(), chunk_size));
    if (selected.empty()) return std::nullopt;
    std::vector<std::uint8_t> block(block_size);
    core_.Recover(selected, chunk_size, block.data(), block_size);
    return block;
  }

  bool IsTrivialDecode(std::span<const ChunkIndex> indices) const override {
    return core_.CoveredByUnitRows(indices);
  }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    if (const auto mates = GroupMates(target)) {
      const IndexSet have = Survivors(available, TotalChunks(), target);
      if (std::all_of(mates->begin(), mates->end(),
                      [&](ChunkIndex m) { return have.Contains(m); })) {
        RepairPlan plan;
        for (const ChunkIndex m : *mates) plan.reads.push_back({m, 1});
        return plan;
      }
    }
    return DecodePlan(target, available, 1);
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    if (target >= TotalChunks()) return std::nullopt;
    const std::size_t chunk_size = ChunkSize(block_size);
    const auto views = Scan(sources, TotalChunks(), chunk_size, target);
    if (const auto mates = GroupMates(target)) {
      ChunkData out(chunk_size, 0);
      std::size_t found = 0;
      for (const ChunkView& v : views) {
        if (std::find(mates->begin(), mates->end(), v.index) == mates->end()) {
          continue;
        }
        gf::AddRegion(std::span<const gf::Elem>(v.data, chunk_size), out);
        ++found;
      }
      if (found == mates->size()) return out;
    }
    // Decode the padded data splits, then re-encode the target row.
    const auto selected = core_.Select(views);
    if (selected.empty()) return std::nullopt;
    std::vector<gf::Elem> splits(chunk_size * DataChunks());
    core_.Recover(selected, chunk_size, splits.data(), splits.size());
    std::vector<const gf::Elem*> data(DataChunks());
    for (std::uint32_t j = 0; j < DataChunks(); ++j) {
      data[j] = splits.data() + j * chunk_size;
    }
    ChunkData out(chunk_size);
    core_.ApplyRow(target, data.data(), out.data(), chunk_size);
    return out;
  }

 protected:
  /// The plan a full decode of the survivors reads (the spanning set
  /// Select picks over them in ascending order), each read `subchunks`
  /// of `subchunks` pieces — a whole chunk.
  std::optional<RepairPlan> DecodePlan(ChunkIndex target,
                                       std::span<const ChunkIndex> available,
                                       std::uint32_t subchunks) const {
    if (target >= TotalChunks()) return std::nullopt;
    const IndexSet have = Survivors(available, TotalChunks(), target);
    std::vector<ChunkView> survivors;
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      if (have.Contains(c)) survivors.push_back({c, nullptr});
    }
    const auto selected = core_.Select(survivors);
    if (selected.empty()) return std::nullopt;
    RepairPlan plan;
    plan.chunk_subchunks = subchunks;
    plan.reads.reserve(selected.size());
    for (const ChunkView& v : selected) plan.reads.push_back({v.index, subchunks});
    return plan;
  }

  GeneratorCore core_;

 private:
  /// The other members of `target`'s placement group (ascending: data,
  /// then the local parity), or nullopt when it has none.
  std::optional<std::vector<ChunkIndex>> GroupMates(ChunkIndex target) const {
    const auto group = PlacementGroupOf(spec_, target);
    if (!group) return std::nullopt;
    std::vector<ChunkIndex> mates;
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      if (c != target && PlacementGroupOf(spec_, c) == group) mates.push_back(c);
    }
    return mates;
  }

  /// Worst-case tolerated erasures of a non-MDS code, found by erasing
  /// every t-subset until some pattern stops decoding. LRC is small
  /// (k+l+g is tens of chunks), so this stays cheap; absurd specs fall
  /// back to the guaranteed r.
  std::uint32_t WorstCaseFaultTolerance() const {
    const std::uint32_t n = TotalChunks();
    const std::uint32_t max_t = n - DataChunks();
    double combos = 0, c = 1;
    for (std::uint32_t t = 1; t <= max_t; ++t) {
      c = c * (n - t + 1) / t;
      combos += c;
    }
    if (combos > 2e5) return spec_.r;

    std::vector<ChunkIndex> survivors;
    for (std::uint32_t t = 1; t <= max_t; ++t) {
      std::vector<std::uint32_t> pick(t);
      std::iota(pick.begin(), pick.end(), 0u);
      while (true) {
        survivors.clear();
        for (ChunkIndex i = 0; i < n; ++i) {
          if (std::find(pick.begin(), pick.end(), i) == pick.end()) {
            survivors.push_back(i);
          }
        }
        if (!CanDecode(survivors)) return t - 1;
        int i = static_cast<int>(t) - 1;
        while (i >= 0 && pick[i] == n - t + i) --i;
        if (i < 0) break;
        ++pick[i];
        for (std::size_t j = i + 1; j < t; ++j) pick[j] = pick[j - 1] + 1;
      }
    }
    return max_t;
  }

  std::uint32_t fault_tolerance_ = 0;
};

/// Azure-LRC(k, l, g): RS(k, g)'s generator with one XOR row per local
/// group inserted after the identity. The global rows' evaluation points
/// are disjoint from the data points, so any g x g (and smaller) global
/// submatrix is regular.
gf::Matrix LrcGenerator(const CodecSpec& spec) {
  const std::uint32_t k = spec.k, l = spec.l;
  const gf::Matrix rs = gf::BuildSystematicCauchy(k, spec.r);
  gf::Matrix m(k + l + spec.r, k);
  for (std::uint32_t r = 0; r < rs.rows(); ++r) {
    for (std::uint32_t j = 0; j < k; ++j) m.At(r < k ? r : r + l, j) = rs.At(r, j);
  }
  const std::uint32_t group = k / l;
  for (std::uint32_t i = 0; i < l; ++i) {
    for (std::uint32_t j = i * group; j < (i + 1) * group; ++j) m.At(k + i, j) = 1;
  }
  return m;
}

/// (r+1)-way replication: every row copies the single data column.
gf::Matrix ReplicationGenerator(std::uint32_t r) {
  gf::Matrix m(r + 1, 1);
  for (std::uint32_t i = 0; i <= r; ++i) m.At(i, 0) = 1;
  return m;
}

// ---------------------------------------------------------------------------
// Piggybacked RS(k, r), sub-packetization 2 (Rashmi et al.'s piggyback
// framework): two RS(k, r) substripes A and B share the stripe, each
// chunk holding its A-half then its B-half; parity j >= 1's B-half
// additionally absorbs the XOR of the A-halves of piggy group j-1 (data
// chunk i rides group i % (r-1)). MDS on whole chunks; a lost data chunk
// repairs from k-1 B-halves + the clean parity's B-half + its group's
// A-halves + its piggy parity's B-half — (k + group) half-chunks instead
// of 2k. Whole-chunk decodability and trivial decodes are the base RS
// code's.
// ---------------------------------------------------------------------------

class PiggybackRsFamily final : public LinearFamily {
 public:
  explicit PiggybackRsFamily(const CodecSpec& spec)
      : LinearFamily(spec, gf::BuildSystematicCauchy(spec.k, spec.r)) {}

  std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const override {
    const std::size_t sub = ChunkSize(block.size()) / 2;
    // Substripe A carries block bytes [0, k*sub), B the rest (padded).
    std::vector<gf::Elem> stripe(2 * k() * sub, 0);
    if (!block.empty()) std::memcpy(stripe.data(), block.data(), block.size());
    std::vector<ChunkData> out(TotalChunks());
    for (ChunkIndex c = 0; c < TotalChunks(); ++c) {
      out[c] = EncodeChunk(c, stripe.data(), sub);
    }
    return out;
  }

  std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks,
      std::size_t block_size) const override {
    const std::size_t cs = ChunkSize(block_size);
    const auto selected = core_.Select(Scan(chunks, TotalChunks(), cs));
    if (selected.empty()) return std::nullopt;
    std::vector<std::uint8_t> stripe(k() * cs);
    RecoverStripe(selected, cs / 2, stripe.data());
    stripe.resize(block_size);
    return stripe;
  }

  std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const override {
    if (target >= TotalChunks()) return std::nullopt;
    const IndexSet have = Survivors(available, TotalChunks(), target);
    if (CheapRepairable(target, [&](ChunkIndex c) { return have.Contains(c); })) {
      const std::uint32_t group = PiggyGroupOf(target);
      RepairPlan plan;
      plan.chunk_subchunks = 2;
      plan.reads.reserve(k() + 1);
      for (std::uint32_t d = 0; d < k(); ++d) {
        if (d == target) continue;
        // Group-mates contribute both halves (their A-half feeds the
        // piggyback peel, their B-half the substripe-B decode); the rest
        // only their B-half.
        plan.reads.push_back({d, PiggyGroupOf(d) == group ? 2u : 1u});
      }
      plan.reads.push_back({k(), 1});
      plan.reads.push_back({PiggyParityOf(target), 1});
      return plan;
    }
    // Parity repair, or a missing cheap source: whole-chunk MDS rebuild.
    return DecodePlan(target, available, 2);
  }

  std::optional<ChunkData> RepairChunk(ChunkIndex target,
                                       std::span<const IndexedChunk> sources,
                                       std::size_t block_size) const override {
    if (target >= TotalChunks()) return std::nullopt;
    const std::size_t cs = ChunkSize(block_size);
    const std::size_t sub = cs / 2;
    const auto views = Scan(sources, TotalChunks(), cs, target);
    std::vector<const gf::Elem*> by_index(TotalChunks(), nullptr);
    for (const ChunkView& v : views) by_index[v.index] = v.data;

    if (!CheapRepairable(target,
                         [&](ChunkIndex c) { return by_index[c] != nullptr; })) {
      // Whole-chunk decode, then re-encode the target.
      const auto selected = core_.Select(views);
      if (selected.empty()) return std::nullopt;
      std::vector<gf::Elem> stripe(k() * cs);
      RecoverStripe(selected, sub, stripe.data());
      return EncodeChunk(target, stripe.data(), sub);
    }

    // Substripe B decodes from k clean B-halves: the other data chunks'
    // plus the un-piggybacked parity k's.
    std::vector<ChunkView> b_views;
    b_views.reserve(k());
    for (std::uint32_t d = 0; d < k(); ++d) {
      if (d != target) b_views.push_back({d, by_index[d] + sub});
    }
    b_views.push_back({k(), by_index[k()] + sub});
    std::vector<gf::Elem> b(k() * sub);
    core_.Recover(b_views, sub, b.data(), b.size());
    const std::uint32_t group = PiggyGroupOf(target);
    const ChunkIndex piggy = PiggyParityOf(target);

    ChunkData out(cs);
    if (sub != 0) std::memcpy(out.data() + sub, b.data() + target * sub, sub);
    // The piggy parity's stored B-half is P^b + piggyback: re-encode P^b
    // from the decoded substripe, add the stored half, then peel the
    // group-mates' A-halves to leave the target's A-half.
    std::vector<const gf::Elem*> b_splits(k());
    for (std::uint32_t j = 0; j < k(); ++j) b_splits[j] = b.data() + j * sub;
    core_.ApplyRow(piggy, b_splits.data(), out.data(), sub);
    const std::span<gf::Elem> a_target(out.data(), sub);
    gf::AddRegion(std::span<const gf::Elem>(by_index[piggy] + sub, sub),
                  a_target);
    for (std::uint32_t d = 0; d < k(); ++d) {
      if (d == target || PiggyGroupOf(d) != group) continue;
      gf::AddRegion(std::span<const gf::Elem>(by_index[d], sub), a_target);
    }
    return out;
  }

 private:
  std::uint32_t k() const { return spec_.k; }
  std::uint32_t PiggyGroupOf(ChunkIndex data) const {
    return data % (spec_.r - 1);
  }
  /// The parity whose B-half carries data chunk `data`'s piggyback.
  ChunkIndex PiggyParityOf(ChunkIndex data) const {
    return k() + 1 + PiggyGroupOf(data);
  }

  /// True when `target` is a data chunk and `has` holds every source of
  /// its half-chunk repair: the other data chunks, the clean parity k and
  /// the target's piggy parity.
  template <typename Has>
  bool CheapRepairable(ChunkIndex target, Has has) const {
    if (target >= k() || !has(k()) || !has(PiggyParityOf(target))) {
      return false;
    }
    for (std::uint32_t d = 0; d < k(); ++d) {
      if (d != target && !has(d)) return false;
    }
    return true;
  }

  /// Chunk `c` of the padded 2k-split stripe: its A-half from substripe
  /// A, its B-half from substripe B plus any piggyback.
  ChunkData EncodeChunk(ChunkIndex c, const gf::Elem* stripe,
                        std::size_t sub) const {
    std::vector<const gf::Elem*> a(k()), b(k());
    for (std::uint32_t j = 0; j < k(); ++j) {
      a[j] = stripe + j * sub;
      b[j] = stripe + (k() + j) * sub;
    }
    ChunkData chunk(2 * sub);
    core_.ApplyRow(c, a.data(), chunk.data(), sub);
    core_.ApplyRow(c, b.data(), chunk.data() + sub, sub);
    if (c <= k()) return chunk;  // Data or the clean parity: no piggyback.
    const std::span<gf::Elem> b_half(chunk.data() + sub, sub);
    for (std::uint32_t d = 0; d < k(); ++d) {
      if (PiggyParityOf(d) == c) {
        gf::AddRegion(std::span<const gf::Elem>(a[d], sub), b_half);
      }
    }
    return chunk;
  }

  /// Recovers the padded stripe [A | B] (2k * sub bytes) from the k
  /// whole chunks Select chose.
  void RecoverStripe(std::span<const ChunkView> selected, std::size_t sub,
                     gf::Elem* stripe) const {
    const std::size_t half = k() * sub;
    // Substripe A decodes straight from the A-halves.
    core_.Recover(selected, sub, stripe, half);
    // Substripe B: peel each selected piggy parity's piggyback (now
    // computable from the decoded A-halves) before decoding.
    std::vector<ChunkData> peeled;
    peeled.reserve(selected.size());
    std::vector<ChunkView> b_views;
    b_views.reserve(selected.size());
    for (const ChunkView& v : selected) {
      if (v.index <= k()) {  // Data or the clean parity: no piggyback.
        b_views.push_back({v.index, v.data + sub});
        continue;
      }
      ChunkData& b = peeled.emplace_back(v.data + sub, v.data + 2 * sub);
      for (std::uint32_t d = 0; d < k(); ++d) {
        if (PiggyParityOf(d) != v.index) continue;
        gf::AddRegion(std::span<const gf::Elem>(stripe + d * sub, sub), b);
      }
      b_views.push_back({v.index, b.data()});
    }
    core_.Recover(b_views, sub, stripe + half, half);
  }
};

}  // namespace

std::unique_ptr<CodecFamily> MakeCodecFamily(const CodecSpec& spec) {
  ValidateCodecSpec(spec);
  switch (spec.family) {
    case CodecFamilyId::kReplication:
      return std::make_unique<LinearFamily>(spec, ReplicationGenerator(spec.r));
    case CodecFamilyId::kRs:
      return std::make_unique<LinearFamily>(
          spec, gf::BuildSystematicCauchy(spec.k, spec.r));
    case CodecFamilyId::kAzureLrc:
      return std::make_unique<LinearFamily>(spec, LrcGenerator(spec));
    case CodecFamilyId::kPiggybackRs:
      return std::make_unique<PiggybackRsFamily>(spec);
  }
  throw std::invalid_argument("MakeCodecFamily: unknown family");
}

std::shared_ptr<const CodecFamily> GetCodecFamily(const CodecSpec& spec) {
  static std::mutex mu;
  static std::map<std::uint64_t, std::shared_ptr<const CodecFamily>> cache;
  const std::uint64_t key = static_cast<std::uint64_t>(spec.family) |
                            (static_cast<std::uint64_t>(spec.k) << 8) |
                            (static_cast<std::uint64_t>(spec.r) << 24) |
                            (static_cast<std::uint64_t>(spec.l) << 40);
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock (the LRC constructor enumerates erasure
  // patterns); first insertion wins on a race.
  std::shared_ptr<const CodecFamily> fam = MakeCodecFamily(spec);
  std::lock_guard<std::mutex> lock(mu);
  return cache.try_emplace(key, std::move(fam)).first->second;
}

}  // namespace ecstore
