#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace ecbench {

void Report::Check(bool ok, const std::string& what, bool fatal) {
  checks.push_back(std::string(ok ? "ok        " : "VIOLATION ") + what);
  if (!ok && fatal) correct = false;
}

namespace {

/// Nearest-rank percentile of sorted samples (p in [0, 100]).
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;
  return sorted[std::min(i, sorted.size() - 1)];
}

std::uint64_t SplitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t StreamStart(std::uint64_t seed, ecstore::BlockId id,
                          std::uint32_t generation) {
  std::uint64_t s = seed;
  std::uint64_t mixed = SplitMix(s) ^ id;
  mixed = SplitMix(mixed) ^ generation;
  return SplitMix(mixed);
}

}  // namespace

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
  s.p50 = Percentile(samples, 50);
  s.p90 = Percentile(samples, 90);
  s.p99 = Percentile(samples, 99);
  return s;
}

std::vector<double> Latencies(const std::vector<Timed>& ops) {
  std::vector<double> us;
  us.reserve(ops.size());
  for (const Timed& op : ops) us.push_back(op.us);
  return us;
}

WindowedSummary SummarizeWindows(const std::vector<Timed>& ops,
                                 std::int64_t begin_ns, std::int64_t end_ns,
                                 std::size_t windows) {
  WindowedSummary out;
  out.n = ops.size();
  out.windows = windows;
  if (windows == 0 || end_ns <= begin_ns) return out;
  const double span = static_cast<double>(end_ns - begin_ns);
  std::vector<std::vector<double>> slices(windows);
  for (const Timed& op : ops) {
    const double at = static_cast<double>(op.done_ns - begin_ns) / span;
    const auto w = static_cast<std::size_t>(std::clamp(at, 0.0, 1.0) * windows);
    slices[std::min(w, windows - 1)].push_back(op.us);
  }
  const double window_s = span / 1e9 / static_cast<double>(windows);
  std::vector<double> rate, mean, p50, p90, p99;
  for (std::vector<double>& slice : slices) {
    rate.push_back(static_cast<double>(slice.size()) / window_s);
    const LatencySummary s = Summarize(std::move(slice));
    mean.push_back(s.mean);
    p50.push_back(s.p50);
    p90.push_back(s.p90);
    p99.push_back(s.p99);
  }
  out.ops_per_s = Quantile(std::move(rate), 0.9);
  out.mean = Quantile(std::move(mean), 0.1);
  out.p50 = Quantile(std::move(p50), 0.1);
  out.p90 = Quantile(std::move(p90), 0.1);
  out.p99 = Quantile(std::move(p99), 0.1);
  return out;
}

double Quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 100 * q);
}

std::string SampleBase(std::size_t n) { return "n=" + std::to_string(n); }

std::string RatioBase(std::uint64_t part, std::uint64_t whole,
                      const char* what) {
  return std::to_string(part) + "/" + std::to_string(whole) + " " + what;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void FillBlock(std::uint64_t seed, ecstore::BlockId id, std::uint32_t generation,
               std::span<std::uint8_t> out) {
  std::uint64_t state = StreamStart(seed, id, generation);
  std::size_t i = 0;
  for (; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, 8);
  }
  if (i < out.size()) {
    const std::uint64_t word = SplitMix(state);
    std::memcpy(out.data() + i, &word, out.size() - i);
  }
}

bool BlockMatches(std::uint64_t seed, ecstore::BlockId id,
                  std::uint32_t generation, std::size_t expected_bytes,
                  std::span<const std::uint8_t> got) {
  if (got.size() != expected_bytes) return false;
  std::uint64_t state = StreamStart(seed, id, generation);
  std::size_t i = 0;
  for (; i + 8 <= got.size(); i += 8) {
    const std::uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, 8) != 0) return false;
  }
  if (i < got.size()) {
    const std::uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, got.size() - i) != 0) return false;
  }
  return true;
}

}  // namespace ecbench
