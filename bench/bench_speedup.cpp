// E8 (extension): wall-clock speedup of the generated parallel structure.
//
// The paper reports no absolute machine numbers; the reproducible *shape*
// is: kernels whose plan carries parallelism (DOALL width x classes) scale
// with the thread count, the sequential chain does not. Interpreted
// execution on the host (2 cores here) — expect saturation at ~cores.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "exec/runner.h"
#include "runtime/stream_executor.h"
#include "trans/planner.h"

using namespace vdep;

namespace {

void print_report() {
  std::cout << "=== E8: parallel execution speedup (interpreter) ===\n";
  std::cout << "items/steps per kernel at N=60:\n";
  for (const core::NamedNest& c : core::paper_suite(60)) {
    trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(c.nest));
    exec::Schedule sched = exec::build_schedule(c.nest, plan);
    std::cout << "  " << c.name << ": items " << sched.parallelism()
              << ", longest " << sched.max_item_size() << " of "
              << sched.total_iterations() << "\n";
  }
  std::cout << std::endl;
}

void run_kernel(benchmark::State& state, loopir::LoopNest nest) {
  trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
  // Executor construction (rewrite + hull) is a one-time compile step:
  // built outside the timed region so the loop body execution itself is
  // what scales. Leaves run through compiled kernels.
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  runtime::StreamOptions so;
  so.drive.threads = pool.size();
  runtime::StreamExecutor ex(nest, plan, so);
  for (auto _ : state) {
    state.PauseTiming();
    exec::ArrayStore store(nest);
    store.fill_pattern();
    state.ResumeTiming();
    ex.run(store, nullptr, &pool);
    benchmark::DoNotOptimize(store.checksum());
  }
  state.SetItemsProcessed(state.iterations() * nest.iteration_count());
}

void BM_Example41(benchmark::State& state) {
  run_kernel(state, core::example41(220));
}
void BM_Example42(benchmark::State& state) {
  run_kernel(state, core::example42(400));
}
void BM_UniformBlocked(benchmark::State& state) {
  run_kernel(state, core::uniform_blocked(600));
}
void BM_SequentialChain(benchmark::State& state) {
  run_kernel(state, core::sequential_chain(200000));
}
BENCHMARK(BM_Example41)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_Example42)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_UniformBlocked)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();
BENCHMARK(BM_SequentialChain)->Arg(1)->Arg(2)->UseRealTime();

void BM_SequentialReference41(benchmark::State& state) {
  loopir::LoopNest nest = core::example41(60);
  for (auto _ : state) {
    exec::ArrayStore store(nest);
    store.fill_pattern();
    exec::run_sequential(nest, store);
    benchmark::DoNotOptimize(store.checksum());
  }
}
BENCHMARK(BM_SequentialReference41);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
