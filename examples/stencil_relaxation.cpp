// A realistic scenario: a sweep of kernels (stencils, blocked updates,
// variable-distance loops) compiled once each and run on the streaming
// runtime, with wall-clock timing of sequential vs. parallel execution — the "automatic
// parallelization in an FPT-like compiler" use case from the paper's
// introduction.
#include <chrono>
#include <iomanip>
#include <iostream>

#include "api/vdep.h"
#include "core/suite.h"
#include "exec/interpreter.h"

using namespace vdep;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main() {
  const intlin::i64 n = 60;  // ~14k iterations per 2-deep kernel
  ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  // One Compiler session across the sweep: every kernel is analyzed once,
  // no matter how many sizes would be run through it.
  Compiler compiler;

  std::cout << std::left << std::setw(22) << "kernel" << std::setw(9)
            << "doall" << std::setw(9) << "classes" << std::setw(11)
            << "items" << std::setw(12) << "t_seq(ms)" << std::setw(12)
            << "t_par(ms)" << "speedup\n";

  for (const core::NamedNest& c : core::paper_suite(n)) {
    CompiledLoop loop = compiler.compile(c.nest).value();
    exec::RunStats measured = loop.measure();

    exec::ArrayStore ref(c.nest);
    ref.fill_pattern();
    exec::ArrayStore par = ref;

    // Exact arithmetic: kernels whose values outgrow int64 at this size
    // (the wavefront is binomial in n) refuse to wrap. The overflow comes
    // back as a typed kOverflow diagnostic — print it and move on; any
    // other error kind is a real failure.
    auto t0 = Clock::now();
    Expected<exec::ArrayStore*> seq = try_invoke([&] {
      exec::run_sequential(c.nest, ref);
      return &ref;
    });
    if (!seq) {
      if (seq.error().kind != ErrorKind::kOverflow) {
        std::cerr << "FATAL: " << c.name << ": " << seq.error().to_string()
                  << "\n";
        return 1;
      }
      std::cout << std::left << std::setw(22) << c.name
                << "checked-overflow diagnostic at n=" << n << ": "
                << seq.error().message << "\n";
      continue;
    }
    double t_seq = seconds_since(t0);

    t0 = Clock::now();
    loop.execute(ExecPolicy{}, par, pool).value();
    double t_par = seconds_since(t0);

    if (!(ref == par)) {
      std::cerr << "FATAL: " << c.name << " diverged!\n";
      return 1;
    }

    std::cout << std::left << std::setw(22) << c.name << std::setw(9)
              << loop.plan().doall_loops << std::setw(9)
              << loop.plan().partition_classes << std::setw(11)
              << measured.work_items << std::setw(12) << std::fixed
              << std::setprecision(2) << t_seq * 1e3 << std::setw(12)
              << t_par * 1e3 << std::setprecision(2) << t_seq / t_par << "\n";
  }
  std::cout << "\nall kernels verified against sequential execution.\n";
  return 0;
}
