#include "core/calibrate.h"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "erasure/codec_family.h"
#include "gf/gf256_kernels.h"

namespace ecstore {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Runs `body` until both `min_measure_ms` elapsed and 3 iterations, then
// returns throughput in bytes per millisecond.
template <typename Body>
double MeasureBytesPerMs(std::size_t bytes_per_iter, double min_measure_ms,
                         Body body) {
  // One untimed warm-up to fault in buffers and build cached tables.
  body();
  int iters = 0;
  const auto start = Clock::now();
  double elapsed;
  do {
    body();
    ++iters;
    elapsed = ElapsedMs(start);
  } while (elapsed < min_measure_ms || iters < 3);
  return static_cast<double>(bytes_per_iter) * iters / elapsed;
}

}  // namespace

CodingCalibration MeasureCodingThroughput(std::uint32_t k, std::uint32_t r,
                                          std::size_t block_bytes,
                                          double min_measure_ms) {
  if (block_bytes == 0) {
    throw std::invalid_argument("MeasureCodingThroughput: block_bytes == 0");
  }
  const auto codec = GetCodecFamily(CodecSpec{CodecFamilyId::kRs, k, r, 0});
  Rng rng(42);
  std::vector<std::uint8_t> block(block_bytes);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));

  CodingCalibration out;
  out.kernel = gf::ActiveKernels().name;

  out.encode_bytes_per_ms = MeasureBytesPerMs(
      block_bytes, min_measure_ms, [&] { codec->Encode(block); });

  const auto chunks = codec->Encode(block);

  // Parity-involving decode: take all r parity chunks plus the trailing
  // systematic chunks needed to reach k, so the general (matrix-inverse)
  // path runs for every data row.
  std::vector<IndexedChunk> parity_set;
  for (std::uint32_t p = 0; p < r && parity_set.size() < k; ++p) {
    parity_set.push_back({static_cast<ChunkIndex>(k + p), chunks[k + p]});
  }
  for (std::uint32_t i = k; i-- > 0 && parity_set.size() < k;) {
    parity_set.push_back({static_cast<ChunkIndex>(i), chunks[i]});
  }
  out.decode_bytes_per_ms = MeasureBytesPerMs(
      block_bytes, min_measure_ms,
      [&] { codec->Decode(parity_set, block_bytes); });

  // All-systematic reassembly (pure memcpy path).
  std::vector<IndexedChunk> systematic_set;
  for (std::uint32_t i = 0; i < k; ++i) {
    systematic_set.push_back({static_cast<ChunkIndex>(i), chunks[i]});
  }
  out.reassemble_bytes_per_ms = MeasureBytesPerMs(
      block_bytes, min_measure_ms,
      [&] { codec->Decode(systematic_set, block_bytes); });

  return out;
}

CodingCalibration CalibrateCodingCosts(ECStoreConfig& config,
                                       std::size_t block_bytes) {
  CodingCalibration cal =
      MeasureCodingThroughput(config.k, config.r, block_bytes);
  config.encode_bytes_per_ms = cal.encode_bytes_per_ms;
  config.decode_bytes_per_ms = cal.decode_bytes_per_ms;
  config.reassemble_bytes_per_ms = cal.reassemble_bytes_per_ms;
  return cal;
}

}  // namespace ecstore
