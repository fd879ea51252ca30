// The benchmark workloads and the code that runs and measures them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1;
  bool trace = false;
  /// Scratch directory for disk caches and JIT work files; the run leaves
  /// nothing outside it.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = false;
  long long attempted = 0;
  long long failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Sample counts and other facts reported beside the metrics.
  std::vector<std::pair<std::string, double>> detail;
};

/// Runs one workload end to end: set-up, the benchmark's self-test, the
/// measured phase with its interleaved set-up probes and warm restarts,
/// then oracle verification. Throws std::invalid_argument on an unknown
/// workload.
Outcome run_workload(const Config& cfg);

}  // namespace perfbench
