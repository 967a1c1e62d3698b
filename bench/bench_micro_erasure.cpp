// Micro-benchmarks for the GF(2^8) + Reed–Solomon substrate.
//
// Besides regression tracking, the decode numbers calibrate the DES
// decode-cost constant (ECStoreConfig::decode_bytes_per_ms): the paper's
// Fig. 1 charges ~0.8 ms of decode for a multiget of 100 KB blocks.
// BM_CodingCalibration reports the exact constants CalibrateCodingCosts
// derives. Pin a kernel path with ECSTORE_GF_KERNEL=scalar|ssse3|avx2;
// the per-path BM_GfMulAddRegionPath variants cover all paths in one run.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/calibrate.h"
#include "erasure/codec_family.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"

namespace ecstore {
namespace {

std::vector<std::uint8_t> RandomBlock(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> block(n);
  for (auto& b : block) b = static_cast<std::uint8_t>(rng.NextBounded(256));
  return block;
}

void BM_GfMulAddRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = RandomBlock(n, 1);
  std::vector<std::uint8_t> dst(n, 0);
  for (auto _ : state) {
    gf::MulAddRegion(0x57, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAddRegion)->Arg(4 * 1024)->Arg(64 * 1024)->Arg(1024 * 1024);

// Same loop pinned to one dispatch path (0=scalar, 1=ssse3, 2=avx2), so a
// single run compares every kernel this CPU can execute.
void BM_GfMulAddRegionPath(benchmark::State& state) {
  const auto path = static_cast<gf::KernelPath>(state.range(0));
  if (!gf::ForceKernelPath(path)) {
    state.SkipWithError("kernel path unsupported on this CPU");
    return;
  }
  state.SetLabel(gf::KernelPathName(path));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  const auto src = RandomBlock(n, 1);
  std::vector<std::uint8_t> dst(n, 0);
  for (auto _ : state) {
    gf::MulAddRegion(0x57, src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  gf::ResetKernelPath();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAddRegionPath)
    ->ArgsProduct({{0, 1, 2}, {64 * 1024, 1024 * 1024}});

// The fused multi-source kernel the RS codec runs on: one pass computing
// dst = sum of c_j * src_j over k sources.
void BM_GfMulAddRegionMulti(benchmark::State& state) {
  const std::size_t nsrc = static_cast<std::size_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<const std::uint8_t*> srcs;
  std::vector<gf::Elem> consts;
  for (std::size_t j = 0; j < nsrc; ++j) {
    bufs.push_back(RandomBlock(n, 10 + j));
    srcs.push_back(bufs.back().data());
    consts.push_back(static_cast<gf::Elem>(3 + 7 * j));
  }
  std::vector<std::uint8_t> dst(n, 0);
  for (auto _ : state) {
    gf::MulAddRegionMulti(consts, srcs.data(), dst, /*accumulate=*/false);
    benchmark::DoNotOptimize(dst.data());
  }
  // All nsrc sources are streamed per fused pass.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * nsrc));
}
BENCHMARK(BM_GfMulAddRegionMulti)
    ->Args({4, 64 * 1024})
    ->Args({10, 64 * 1024})
    ->Args({4, 1024 * 1024});

void BM_GfAddRegion(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto src = RandomBlock(n, 2);
  std::vector<std::uint8_t> dst(n, 0);
  for (auto _ : state) {
    gf::AddRegion(src, dst);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfAddRegion)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_RsEncode(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t r = static_cast<std::uint32_t>(state.range(1));
  const std::size_t block_size = static_cast<std::size_t>(state.range(2));
  const auto codec = GetCodecFamily(CodecSpec{CodecFamilyId::kRs, k, r, 0});
  const auto block = RandomBlock(block_size, 3);
  for (auto _ : state) {
    auto chunks = codec->Encode(block);
    benchmark::DoNotOptimize(chunks.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
}
BENCHMARK(BM_RsEncode)
    ->Args({2, 2, 100 * 1024})
    ->Args({2, 2, 1024 * 1024})
    ->Args({4, 2, 1024 * 1024})
    ->Args({10, 4, 1024 * 1024});

void BM_RsDecodeSystematic(benchmark::State& state) {
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  const auto codec = GetCodecFamily(ParseCodecSpec("rs(2,2)"));
  const auto block = RandomBlock(block_size, 4);
  const auto chunks = codec->Encode(block);
  const std::vector<IndexedChunk> use = {{0, chunks[0]}, {1, chunks[1]}};
  for (auto _ : state) {
    auto decoded = codec->Decode(use, block_size);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
}
BENCHMARK(BM_RsDecodeSystematic)->Arg(100 * 1024)->Arg(1024 * 1024);

void BM_RsDecodeWithParity(benchmark::State& state) {
  // The decode path that involves matrix inversion + GF arithmetic; its
  // MB/s calibrates ECStoreConfig::decode_bytes_per_ms.
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  const auto codec = GetCodecFamily(ParseCodecSpec("rs(2,2)"));
  const auto block = RandomBlock(block_size, 5);
  const auto chunks = codec->Encode(block);
  const std::vector<IndexedChunk> use = {{2, chunks[2]}, {3, chunks[3]}};
  for (auto _ : state) {
    auto decoded = codec->Decode(use, block_size);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
}
BENCHMARK(BM_RsDecodeWithParity)->Arg(100 * 1024)->Arg(1024 * 1024);

void BM_ReplicationEncode(benchmark::State& state) {
  const std::size_t block_size = static_cast<std::size_t>(state.range(0));
  const auto codec = GetCodecFamily(ParseCodecSpec("rep(2)"));
  const auto block = RandomBlock(block_size, 6);
  for (auto _ : state) {
    auto copies = codec->Encode(block);
    benchmark::DoNotOptimize(copies.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block_size));
}
BENCHMARK(BM_ReplicationEncode)->Arg(1024 * 1024);

// Reports the simulator constants CalibrateCodingCosts would install on
// this machine, as counters in the JSON output (units: bytes per ms).
void BM_CodingCalibration(benchmark::State& state) {
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t r = static_cast<std::uint32_t>(state.range(1));
  CodingCalibration cal;
  for (auto _ : state) {
    cal = MeasureCodingThroughput(k, r, 1 << 20, /*min_measure_ms=*/20.0);
  }
  state.SetLabel(cal.kernel);
  state.counters["encode_bytes_per_ms"] = cal.encode_bytes_per_ms;
  state.counters["decode_bytes_per_ms"] = cal.decode_bytes_per_ms;
  state.counters["reassemble_bytes_per_ms"] = cal.reassemble_bytes_per_ms;
}
BENCHMARK(BM_CodingCalibration)->Args({2, 2})->Iterations(1);

}  // namespace
}  // namespace ecstore

BENCHMARK_MAIN();
