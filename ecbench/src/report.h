// Shared pieces of the benchmark: the metric/report model that main.cpp
// prints, exact-sample latency summaries, peak RSS, and the seeded block
// contents every workload writes and every read is checked against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace ecbench {

/// One named measurement. `base` says what a ratio or mean was computed
/// over ("812/1024 lookups", "n=4096"); it is printed, never parsed.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;
};

/// Everything one workload run produces. `end_to_end` is reported by the
/// untraced run, `per_layer` by the traced run. `extra` metrics are
/// printed for people but stay out of the result line; `checks` are the
/// outcomes of the output and stage-sum checks.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;
  std::vector<std::string> checks;

  void Add(std::vector<Metric>& to, std::string name, double value,
           std::string unit, std::string base = "") {
    to.push_back({std::move(name), value, std::move(unit), std::move(base)});
  }
  /// Records a check outcome; a failed check clears `correct`.
  void Check(bool ok, const std::string& what, bool fatal = true);
};

/// Latency samples of one operation type, summarised exactly (no
/// histogram buckets).
struct LatencySummary {
  std::size_t n = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
LatencySummary Summarize(std::vector<double> samples);

/// One timed operation: when it completed (steady-clock ns) and how long
/// it took (µs).
struct Timed {
  std::int64_t done_ns = 0;
  double us = 0;
};
std::vector<double> Latencies(const std::vector<Timed>& ops);

/// Throughput and latencies over `windows` equal slices of
/// [begin_ns, end_ns), each taken from the fastest tenth of the slices:
/// the throughput at the 90th percentile of the slices, each latency at
/// the 10th. Interference from other tenants of a shared machine comes in
/// bursts and only slows a slice; the median slice moved by a fifth
/// between runs of the same code under such bursts, the fastest tenth by
/// a fortieth. `n` counts every operation.
struct WindowedSummary {
  std::size_t n = 0;
  std::size_t windows = 0;
  double ops_per_s = 0;
  double mean = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};
WindowedSummary SummarizeWindows(const std::vector<Timed>& ops,
                                 std::int64_t begin_ns, std::int64_t end_ns,
                                 std::size_t windows);

/// The q-quantile (nearest rank, q in [0, 1]); 0 if empty.
double Quantile(std::vector<double> v, double q);

/// "n=1234" for latency bases, "a/b" for ratio bases.
std::string SampleBase(std::size_t n);
std::string RatioBase(std::uint64_t part, std::uint64_t whole,
                      const char* what);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Block contents are a pure function of (seed, id, generation), so the
/// benchmark regenerates the expected bytes of any read instead of
/// keeping a second copy of the data set.
void FillBlock(std::uint64_t seed, ecstore::BlockId id, std::uint32_t generation,
               std::span<std::uint8_t> out);
bool BlockMatches(std::uint64_t seed, ecstore::BlockId id,
                  std::uint32_t generation, std::size_t expected_bytes,
                  std::span<const std::uint8_t> got);

}  // namespace ecbench
