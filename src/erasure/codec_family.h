// CodecFamily: the pluggable codec-family abstraction (DESIGN.md §11).
//
// One interface encodes, decodes and repairs every family. Its core
// addition over plain encode/decode is the RepairPlan query: given the
// surviving chunk indices and a rebuild target, return the minimal set
// of chunks (and fractions of chunks) a reconstruction must read.
// Full-k for Reed-Solomon, local-group-only for Azure-LRC, and a
// sub-packetized half-chunk plan for the piggybacked-RS regenerating
// family. RepairService, the scrubber, and degraded reads all consume
// the plan instead of assuming MDS.
//
// Every family runs on one generator-matrix core (codec_family.cpp):
// chunks = G * data over GF(2^8), with G built from
// gf::BuildSystematicCauchy (replication's G is a column of ones).
//
// Implementations are stateless after construction and thread-compatible
// (one instance may serve every thread); GetCodecFamily memoizes them so
// per-block lookups on the read path cost one map probe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/codec_spec.h"
#include "common/types.h"

namespace ecstore {

/// Bytes of a single encoded chunk.
using ChunkData = std::vector<std::uint8_t>;

/// A chunk paired with its index within the block's encoding.
struct IndexedChunk {
  ChunkIndex index = 0;
  ChunkData data;
};

/// One read a repair plan asks for: `subchunks` of the chunk's
/// RepairPlan::chunk_subchunks equal-sized pieces (whole chunk when they
/// match). Sub-chunk reads model the regenerating family's bandwidth
/// savings; in-process nodes still hand back whole chunks, and the wire
/// accounting (repair_bytes_read) charges only the plan's bytes.
struct RepairRead {
  ChunkIndex chunk = 0;
  std::uint32_t subchunks = 1;

  friend bool operator==(const RepairRead&, const RepairRead&) = default;
};

/// The minimal surviving-chunk reads that rebuild one target chunk.
struct RepairPlan {
  std::vector<RepairRead> reads;
  std::uint32_t chunk_subchunks = 1;

  /// Bytes-on-wire of the plan for chunks of `chunk_bytes` bytes.
  std::uint64_t BytesToRead(std::uint64_t chunk_bytes) const {
    std::uint64_t total = 0;
    for (const RepairRead& read : reads) {
      total += (chunk_bytes * read.subchunks + chunk_subchunks - 1) /
               chunk_subchunks;
    }
    return total;
  }

  /// The distinct chunk indices the plan touches, in plan order.
  std::vector<ChunkIndex> Chunks() const {
    std::vector<ChunkIndex> out;
    out.reserve(reads.size());
    for (const RepairRead& read : reads) out.push_back(read.chunk);
    return out;
  }
};

/// A codec family: everything the store needs to encode, decode, and
/// repair blocks of one CodecSpec.
class CodecFamily {
 public:
  explicit CodecFamily(const CodecSpec& spec) : spec_(spec) {}
  virtual ~CodecFamily() = default;

  CodecFamily(const CodecFamily&) = delete;
  CodecFamily& operator=(const CodecFamily&) = delete;

  const CodecSpec& spec() const { return spec_; }
  std::string Name() const { return CodecSpecName(spec_); }
  std::uint32_t DataChunks() const { return SpecDataChunks(spec_); }
  std::uint32_t TotalChunks() const { return SpecTotalChunks(spec_); }
  std::size_t ChunkSize(std::size_t block_size) const {
    return SpecChunkBytes(spec_, block_size);
  }
  double StorageOverhead() const {
    return static_cast<double>(TotalChunks()) /
           static_cast<double>(DataChunks());
  }
  /// MDS on whole chunks: any DataChunks() distinct chunks decode.
  bool AnyKDecodes() const { return SpecAnyKDecodes(spec_); }

  /// Erasures the family tolerates in the worst case (minimum distance
  /// minus one): r for RS/piggyback/replication; computed exhaustively
  /// for LRC.
  virtual std::uint32_t FaultTolerance() const = 0;

  /// Encodes a block into TotalChunks() chunks of ChunkSize(n) bytes.
  virtual std::vector<ChunkData> Encode(
      std::span<const std::uint8_t> block) const = 0;

  /// True iff the given chunk indices determine the block. Duplicate
  /// and out-of-range indices are ignored.
  virtual bool CanDecode(std::span<const ChunkIndex> indices) const = 0;

  /// Reconstructs the block, or nullopt when the chunks do not span it.
  /// Duplicate and out-of-range chunks are skipped; a chunk of the wrong
  /// size throws std::invalid_argument.
  virtual std::optional<std::vector<std::uint8_t>> TryDecode(
      std::span<const IndexedChunk> chunks, std::size_t block_size) const = 0;

  /// TryDecode that throws std::invalid_argument on an undecodable set.
  std::vector<std::uint8_t> Decode(std::span<const IndexedChunk> chunks,
                                   std::size_t block_size) const;

  /// True when decoding this chunk set is pure reassembly (no field
  /// arithmetic): its distinct systematic chunks cover every data chunk.
  /// Decode takes its reassembly path exactly when this holds.
  virtual bool IsTrivialDecode(std::span<const ChunkIndex> indices) const = 0;

  /// The cheapest plan that rebuilds `target` from (a subset of) the
  /// `available` surviving chunk indices, or nullopt when they cannot.
  /// `available` must not contain `target`; duplicates are ignored.
  virtual std::optional<RepairPlan> PlanRepair(
      ChunkIndex target, std::span<const ChunkIndex> available) const = 0;

  /// Rebuilds chunk `target` from source chunks covering one of its
  /// repair plans (extra sources, the target itself and sources of the
  /// wrong size are ignored). nullopt when the sources are insufficient.
  virtual std::optional<ChunkData> RepairChunk(
      ChunkIndex target, std::span<const IndexedChunk> sources,
      std::size_t block_size) const = 0;

 protected:
  CodecSpec spec_;
};

/// Builds a family for `spec` (validating it). Prefer GetCodecFamily.
std::unique_ptr<CodecFamily> MakeCodecFamily(const CodecSpec& spec);

/// Memoized, thread-safe registry: one shared immutable family instance
/// per spec, so the per-block lookup on the read path is a map probe.
std::shared_ptr<const CodecFamily> GetCodecFamily(const CodecSpec& spec);

}  // namespace ecstore
