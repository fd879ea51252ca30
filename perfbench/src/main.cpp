// vdep_perfbench: one workload of the end-to-end benchmark in one process.
//
//   vdep_perfbench --workload exec_large --seed 7 --seconds 15 --trace 0
//                  --work-dir <scratch dir>
//
// Prints a detail line ({"detail": {...}}: sample counts, fail_frac, the
// build stamp) and, as the last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 means the
// run completed (correct may still be false); 2 means bad arguments or a
// run that could not complete.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

/// JSON number with every digit kept; non-finite values are not JSON and
/// never expected, so they print as null and fail the caller's parse.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "vdep_perfbench: %s\nusage: vdep_perfbench --workload "
               "<exec_large|batch_small|compile_cold> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  bool have_workload = false;
  for (int k = 1; k < argc; ++k) {
    std::string a = argv[k];
    if (k + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++k];
    try {
      if (a == "--workload") {
        cfg.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else if (a == "--work-dir") {
        cfg.work_dir = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_workload || cfg.work_dir.empty() || !(cfg.seconds > 0))
    return usage(
        "--workload, --work-dir and a positive --seconds are required");

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vdep_perfbench: run failed: %s\n", e.what());
    return 2;
  }

  std::string detail = "{\"detail\": {\"compiler\": \"" PERFBENCH_COMPILER
                       "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  for (const auto& [name, value] : out.detail)
    detail += ", \"" + name + "\": " + json_num(value);
  std::printf("%s}}\n", detail.c_str());

  std::string metrics;
  for (const perfbench::Metric& m : out.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + json_num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      out.correct ? "true" : "false", out.attempted, out.failed,
      metrics.c_str());
  return 0;
}
