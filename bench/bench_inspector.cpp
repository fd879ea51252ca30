// Inspector–executor cost model: what runtime inspection costs and what
// the dynamic partition buys on nests the static pipeline cannot analyze.
//
// Scenario "sparse_scatter" is the inspector's home turf: a scatter-
// accumulate A[B[i]] = A[B[i]] + C[i] with a duplicate-heavy index array
// (mean chain length ~4), the access pattern of sparse assembly. The PDM
// rejects the nest, sequential execution is the only static option, and
// the inspector's components are exactly the per-target-cell chains.
// Scenario "permutation" is the degenerate best case — B a permutation, so
// every class is a singleton and the space is fully parallel.
//
// Two sequential baselines: the tree-walking interpreter and the same
// nest through one exec::CompiledKernel (with its gather terms). The
// executor runs both leaf kinds at 1 and nproc workers, and the summary
// reports speedups and the amortized speedup (inspection included) against
// each baseline.
//
// Output is one JSON object per line (scraped into BENCH_runtime.json):
//   {"bench":"inspector","name":"sparse_scatter","mode":"sequential",...}
//   {"bench":"inspector","name":...,"mode":"sequential_compiled",...}
//   {"bench":"inspector","name":...,"mode":"inspect","threads":1,
//    "n":...,"seconds":...,"classes":...,"chains":...,"max_component":...}
//   {"bench":"inspector","name":...,"mode":"executor_interpreter" or
//    "executor_compiled","threads":...,"seconds":...,"bit_identical":...}
//   {"bench":"inspector","name":...,"mode":"summary","threads":nproc,
//    "amortized_speedup":...,"amortized_speedup_vs_compiled":...}
//
// `--gate` (CI bench-smoke leg) re-runs both scenarios and fails unless
// every parallel store — interpreter and compiled leaves alike — and the
// compiled sequential baseline are bit-identical to the interpreter's
// sequential reference. Speedup is reported, never gated (inspection
// amortizes over re-execution and CI machines vary), but correctness is
// absolute.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>

#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "inspect/executor.h"
#include "inspect/inspector.h"
#include "loopir/builder.h"

using namespace vdep;
using intlin::i64;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t hw_threads() {
  static const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

double best_of(int reps, const std::function<double()>& fn) {
  double best = fn();
  for (int k = 1; k < reps; ++k) best = std::min(best, fn());
  return best;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// A[B[i]] = A[B[i]] + C[i] over i in [0, n-1], A sized [0, a_hi].
loopir::LoopNest scatter_nest(i64 n, i64 a_hi) {
  loopir::LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, a_hi}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  loopir::ArrayRef a_ind;
  a_ind.array = "A";
  a_ind.subscripts = {b.cst(0)};
  a_ind.indirect = {loopir::IndirectSubscript{"B", b.idx(0)}};
  b.assign(a_ind, loopir::Expr::add(loopir::Expr::read(a_ind),
                                    loopir::Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

struct Scenario {
  const char* name;
  i64 a_hi;                       ///< target extent (conflict density knob)
  std::function<i64(i64)> index;  ///< i -> B[i]
};

/// Prints one sequential-baseline row and returns its time.
double sequential_row(const Scenario& sc, const char* mode, i64 n,
                      const std::function<void()>& run) {
  auto t0 = std::chrono::steady_clock::now();
  run();
  const double t = seconds_since(t0);
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"%s\","
      "\"threads\":1,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
      "\"iters_per_sec\":%.0f}\n",
      sc.name, mode, hw_threads(), static_cast<long long>(n), t,
      ratio(static_cast<double>(n), t));
  return t;
}

int run_scenario(const Scenario& sc, i64 n, int reps) {
  loopir::LoopNest nest = scatter_nest(n, sc.a_hi);
  exec::ArrayStore init(nest);
  init.fill_pattern();
  for (i64 i = 0; i < n; ++i) init.write("B", intlin::Vec{i}, sc.index(i));

  int failures = 0;
  auto expect_identical = [&](bool identical, const std::string& what) {
    if (identical) return;
    std::fprintf(stderr, "FAIL: %s %s diverged from sequential\n", sc.name,
                 what.c_str());
    ++failures;
  };

  // Sequential baselines: the interpreter (the reference store) and one
  // CompiledKernel replaying the nest in lexicographic order.
  exec::ArrayStore ref = init;
  const double t_seq = sequential_row(
      sc, "sequential", n, [&] { exec::run_sequential(nest, ref); });
  exec::ArrayStore seq_compiled = init;
  const double t_seq_compiled =
      sequential_row(sc, "sequential_compiled", n, [&] {
        exec::CompiledKernel(nest, seq_compiled).run_sequential();
      });
  expect_identical(seq_compiled == ref, "sequential CompiledKernel");

  // Inspection (one thread): timed separately (best-of), stats from the
  // last run.
  inspect::DynamicPartition part = inspect::inspect(nest, init);
  const double t_inspect = best_of(reps, [&] {
    auto t0 = std::chrono::steady_clock::now();
    part = inspect::inspect(nest, init);
    return seconds_since(t0);
  });
  const inspect::InspectStats& st = part.stats();
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"inspect\","
      "\"threads\":1,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
      "\"iterations_per_sec\":%.0f,\"classes\":%lld,\"chains\":%lld,"
      "\"max_component\":%lld,\"dependent\":%lld,\"written_cells\":%lld}\n",
      sc.name, hw_threads(), static_cast<long long>(n),
      t_inspect, ratio(static_cast<double>(n), t_inspect),
      static_cast<long long>(st.classes), static_cast<long long>(st.chains),
      static_cast<long long>(st.max_component),
      static_cast<long long>(st.dependent_iterations),
      static_cast<long long>(st.written_cells));

  // Executor: both leaf kinds at 1 and nproc workers.
  double t_wide_interpreter = 0, t_wide_compiled = 0;
  for (bool interpret : {true, false}) {
    for (std::size_t threads : {std::size_t{1}, hw_threads()}) {
      inspect::InspectorExecOptions io;
      io.drive.threads = threads;
      io.force_interpreter = interpret;
      inspect::InspectorExecutor ex(nest, part, io);
      exec::ArrayStore got(nest);
      runtime::RuntimeStats rs;
      const double t_exec = best_of(reps, [&] {
        got = init;
        auto t0 = std::chrono::steady_clock::now();
        rs = ex.run(got);
        return seconds_since(t0);
      });
      (interpret ? t_wide_interpreter : t_wide_compiled) = t_exec;
      const char* mode = interpret ? "executor_interpreter" : "executor_compiled";
      const bool identical = got == ref;
      expect_identical(identical, std::string(mode) + " at " +
                                      std::to_string(threads) + " worker(s)");
      std::printf(
          "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"%s\","
          "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,\"seconds\":%.6f,"
          "\"iters_per_sec\":%.0f,\"tasks\":%lld,\"steals\":%lld,"
          "\"bit_identical\":%s}\n",
          sc.name, mode, threads, hw_threads(), static_cast<long long>(n),
          t_exec, ratio(static_cast<double>(n), t_exec),
          static_cast<long long>(rs.total_tasks()),
          static_cast<long long>(rs.total_steals()),
          identical ? "true" : "false");
    }
  }

  // Amortized: one inspection plus one compiled-leaf execution at nproc
  // workers, against each sequential baseline.
  std::printf(
      "{\"bench\":\"inspector\",\"name\":\"%s\",\"mode\":\"summary\","
      "\"threads\":%zu,\"hw_threads\":%zu,\"n\":%lld,"
      "\"speedup_vs_seq\":%.3f,\"speedup_vs_seq_compiled\":%.3f,"
      "\"interpreter_leaf_speedup_vs_seq\":%.3f,"
      "\"inspect_overhead_pct\":%.2f,\"inspect_overhead_pct_compiled\":%.2f,"
      "\"amortized_speedup\":%.3f,\"amortized_speedup_vs_compiled\":%.3f}\n",
      sc.name, hw_threads(), hw_threads(), static_cast<long long>(n),
      ratio(t_seq, t_wide_compiled), ratio(t_seq_compiled, t_wide_compiled),
      ratio(t_seq, t_wide_interpreter), ratio(t_inspect, t_seq) * 100.0,
      ratio(t_inspect, t_seq_compiled) * 100.0,
      ratio(t_seq, t_inspect + t_wide_compiled),
      ratio(t_seq_compiled, t_inspect + t_wide_compiled));
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate = argc > 1 && std::strcmp(argv[1], "--gate") == 0;
  const i64 n = gate ? i64{1} << 18 : i64{1} << 20;
  const int reps = gate ? 2 : 3;

  const Scenario scenarios[] = {
      // ~4 iterations per target cell: sparse-assembly conflict density.
      {"sparse_scatter", n / 4 - 1,
       [n](i64 i) { return (i * 2654435761ll) % (n / 4); }},
      // Bijective: every class a singleton, fully parallel space.
      // 7919 is odd and n a power of two, so i*7919+13 mod n is a bijection.
      {"permutation", n - 1, [n](i64 i) { return (i * 7919 + 13) % n; }},
  };

  int failures = 0;
  for (const Scenario& sc : scenarios) failures += run_scenario(sc, n, reps);
  return failures == 0 ? 0 : 1;
}
