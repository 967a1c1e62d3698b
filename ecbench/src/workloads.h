// The benchmark's workloads. Each builds its store from the seed,
// drives it for the run, checks every output, and fills a Report:
// end-to-end metrics when untraced, per-layer metrics when traced.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace ecbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (CSV).
  std::string spans_path;
};

/// LocalECStore, RS(2,2), 16 KiB blocks, decoded-block cache, two
/// closed-loop YCSB-E clients (95% scans, 5% inserts).
Report RunScanSmall(const RunOptions& options);

/// SimECStore at the Fig. 4b defaults, 24 simulated YCSB-E clients.
Report RunSimYcsb(const RunOptions& options);

}  // namespace ecbench
