// EC-Store benchmark program: runs one workload and prints every metric it
// measures by name, unit and base, then one JSON result line (a value that
// is not finite prints as null). ecbench/run.py checks that line against
// BENCHMARK.json.
//
//   ecbench --workload scan-small|sim-ycsb --seed N
//           --seconds S --trace 0|1 [--spans PATH]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (writing the run's spans to PATH). Exit status is 0 only when every
// output check passed.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using ecbench::Metric;
using ecbench::Report;

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ecbench: %s\nusage: ecbench --workload scan-small|sim-ycsb "
               "--seed N --seconds S --trace 0|1 [--spans PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  ecbench::RunOptions opt;
  std::string workload;
  try {
    workload = args.at("workload");
    opt.seed = std::stoull(args.at("seed"));
    opt.seconds = std::stod(args.at("seconds"));
    opt.trace = std::stoi(args.at("trace")) != 0;
  } catch (const std::exception&) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
  if (args.count("spans")) opt.spans_path = args["spans"];

  using Runner = Report (*)(const ecbench::RunOptions&);
  const std::map<std::string, Runner> runners = {
      {"scan-small", ecbench::RunScanSmall},
      {"sim-ycsb", ecbench::RunSimYcsb},
  };
  const auto runner = runners.find(workload);
  if (runner == runners.end()) return Usage("unknown workload");

  Report rep;
  try {
    rep = runner->second(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ecbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  const std::vector<Metric>& metrics = opt.trace ? rep.per_layer : rep.end_to_end;

  std::printf("== %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& c : rep.checks) std::printf("check  %s\n", c.c_str());
  const auto line = [](const char* kind, const Metric& m) {
    std::printf("%-6s %-34s %14.6g %-10s %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  };
  for (const Metric& m : metrics) line("metric", m);
  for (const Metric& m : rep.extra) line("info", m);

  std::string json = "{\"correct\": " + std::string(rep.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(rep.attempted) +
                     ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return rep.correct ? 0 : 1;
}
