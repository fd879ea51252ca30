// Tests for the streaming runtime: the Chase-Lev deque, the descriptor
// splitting policy, and end-to-end semantics of the StreamExecutor against
// the sequential reference over the whole paper suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "exec/interpreter.h"
#include "runtime/stream_executor.h"
#include "runtime/work_queue.h"
#include "trans/planner.h"

namespace vdep::runtime {
namespace {

using intlin::i64;
using intlin::Vec;

trans::TransformPlan plan_for(const loopir::LoopNest& nest) {
  return trans::plan_transform(dep::compute_pdm(nest));
}

/// 1-axis box (the legacy rectangle shape) over classes [clo, chi).
TaskDescriptor task(i64 olo, i64 ohi, i64 clo, i64 chi) {
  TaskDescriptor t;
  t.ndims = 1;
  t.lo[0] = olo;
  t.hi[0] = ohi;
  t.class_lo = clo;
  t.class_hi = chi;
  return t;
}

/// N-axis box from (lo, hi) pairs over classes [clo, chi).
TaskDescriptor box(std::vector<std::pair<i64, i64>> dims, i64 clo, i64 chi) {
  TaskDescriptor t;
  t.ndims = static_cast<int>(dims.size());
  for (int d = 0; d < t.ndims; ++d) {
    t.lo[d] = dims[static_cast<std::size_t>(d)].first;
    t.hi[d] = dims[static_cast<std::size_t>(d)].second;
  }
  t.class_lo = clo;
  t.class_hi = chi;
  return t;
}

// ------------------------------------------------------------- work queue

TEST(WorkQueue, OwnerPopIsLifo) {
  WorkStealingDeque q;
  for (i64 k = 0; k < 10; ++k) q.push(task(k, k, 0, 1));
  TaskDescriptor t;
  for (i64 k = 9; k >= 0; --k) {
    ASSERT_TRUE(q.pop(t));
    EXPECT_EQ(t.lo[0], k);
  }
  EXPECT_FALSE(q.pop(t));
}

TEST(WorkQueue, StealIsFifo) {
  WorkStealingDeque q;
  for (i64 k = 0; k < 10; ++k) q.push(task(k, k, 0, 1));
  TaskDescriptor t;
  for (i64 k = 0; k < 10; ++k) {
    ASSERT_TRUE(q.steal(t));
    EXPECT_EQ(t.lo[0], k);
  }
  EXPECT_FALSE(q.steal(t));
}

TEST(WorkQueue, GrowsPastInitialCapacity) {
  WorkStealingDeque q(2);
  for (i64 k = 0; k < 1000; ++k) q.push(task(k, k, 0, 1));
  EXPECT_EQ(q.size_estimate(), 1000);
  TaskDescriptor t;
  for (i64 k = 999; k >= 0; --k) {
    ASSERT_TRUE(q.pop(t));
    EXPECT_EQ(t.lo[0], k);
  }
}

TEST(WorkQueue, ConcurrentStealsConsumeEachTaskOnce) {
  // One owner interleaves pushes and pops; thieves hammer steal. Every id
  // pushed must be consumed exactly once across all parties.
  constexpr i64 kTasks = 20000;
  constexpr int kThieves = 4;
  WorkStealingDeque q(8);
  std::vector<std::atomic<int>> seen(kTasks);
  for (auto& s : seen) s.store(0);
  std::atomic<bool> done{false};

  auto consume = [&](const TaskDescriptor& t) {
    seen[static_cast<std::size_t>(t.lo[0])].fetch_add(1);
  };

  std::vector<std::thread> thieves;
  for (int k = 0; k < kThieves; ++k) {
    thieves.emplace_back([&] {
      TaskDescriptor t;
      while (!done.load(std::memory_order_acquire)) {
        if (q.steal(t)) consume(t);
      }
      while (q.steal(t)) consume(t);  // drain the tail
    });
  }

  TaskDescriptor t;
  for (i64 k = 0; k < kTasks; ++k) {
    q.push(task(k, k, 0, 1));
    if (k % 3 == 0 && q.pop(t)) consume(t);
  }
  while (q.pop(t)) consume(t);
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  for (i64 k = 0; k < kTasks; ++k)
    ASSERT_EQ(seen[static_cast<std::size_t>(k)].load(), 1) << "task " << k;
}

// ----------------------------------------------------------- descriptors

// Recursively splits like a worker would and collects the leaves.
void collect_leaves(TaskDescriptor t, i64 grain,
                    std::vector<TaskDescriptor>& out) {
  while (can_split(t, grain)) {
    TaskDescriptor high = split(t, grain);
    collect_leaves(high, grain, out);
  }
  out.push_back(t);
}

TEST(TaskSplit, LeavesCoverRootExactlyOnce) {
  for (i64 grain : {1, 3, 7, 100}) {
    TaskDescriptor root = task(-17, 41, 0, 6);
    std::vector<TaskDescriptor> leaves;
    collect_leaves(root, grain, leaves);
    // Every (outer value, class) cell of the rectangle exactly once.
    std::vector<std::pair<i64, i64>> cells;
    for (const TaskDescriptor& l : leaves) {
      EXPECT_LE(l.lo[0], l.hi[0]);
      EXPECT_LT(l.class_lo, l.class_hi);
      EXPECT_LE(l.cells(), std::max<i64>(grain, 1));
      for (i64 v = l.lo[0]; v <= l.hi[0]; ++v)
        for (i64 c = l.class_lo; c < l.class_hi; ++c) cells.push_back({v, c});
    }
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << "duplicated cell at grain " << grain;
    ASSERT_EQ(static_cast<i64>(cells.size()), root.cells())
        << "dropped cells at grain " << grain;
    EXPECT_EQ(cells.front(), (std::pair<i64, i64>{-17, 0}));
    EXPECT_EQ(cells.back(), (std::pair<i64, i64>{41, 5}));
  }
}

TEST(TaskSplit, ThreeAxisSplitsCoverDisjointly) {
  // The disjoint-cover property of recursive splits must hold over a full
  // 3-axis box x class range, not just the legacy rectangle.
  for (i64 grain : {1, 4, 17}) {
    TaskDescriptor root = box({{0, 5}, {-3, 4}, {2, 9}}, 0, 3);
    std::vector<TaskDescriptor> leaves;
    collect_leaves(root, grain, leaves);
    std::vector<std::array<i64, 4>> cells;
    for (const TaskDescriptor& l : leaves) {
      EXPECT_FALSE(l.empty());
      EXPECT_LE(l.cells(), std::max<i64>(grain, 1));
      for (i64 a = l.lo[0]; a <= l.hi[0]; ++a)
        for (i64 b = l.lo[1]; b <= l.hi[1]; ++b)
          for (i64 c = l.lo[2]; c <= l.hi[2]; ++c)
            for (i64 k = l.class_lo; k < l.class_hi; ++k)
              cells.push_back({a, b, c, k});
    }
    std::sort(cells.begin(), cells.end());
    ASSERT_EQ(std::adjacent_find(cells.begin(), cells.end()), cells.end())
        << "duplicated cell at grain " << grain;
    ASSERT_EQ(static_cast<i64>(cells.size()), root.cells())
        << "dropped cells at grain " << grain;
  }
}

TEST(TaskSplit, RespectsGrainAlongOuter) {
  TaskDescriptor root = task(0, 1023, 0, 1);
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 16, leaves);
  for (const TaskDescriptor& l : leaves) {
    EXPECT_LE(l.extent(0), 16);
    EXPECT_GT(l.extent(0), 16 / 2 - 1);  // halving never undershoots much
    EXPECT_EQ(l.class_extent(), 1);
  }
}

TEST(TaskSplit, LongestAxisWinsOutermostFirstOnTies) {
  // The longest axis is halved first...
  TaskDescriptor t = box({{0, 3}, {0, 15}, {0, 3}}, 0, 2);
  EXPECT_EQ(pick_split_axis(t, 1), 1);
  int axis = -1;
  TaskDescriptor high = split(t, 1, &axis);
  EXPECT_EQ(axis, 1);
  EXPECT_EQ(t.extent(1), 8);
  EXPECT_EQ(high.extent(1), 8);
  // ...ties go to the outermost dimension...
  EXPECT_EQ(pick_split_axis(box({{0, 7}, {0, 7}}, 0, 1), 1), 0);
  // ...and the class range only wins when strictly longest.
  EXPECT_EQ(pick_split_axis(box({{0, 3}}, 0, 4), 1), 0);
  EXPECT_EQ(pick_split_axis(box({{0, 3}}, 0, 5), 1),
            TaskDescriptor::kClassAxis);
}

TEST(TaskSplit, DegenerateAxesNeverSplit) {
  // Extent-1 axes must never be chosen, whatever the other axes do.
  TaskDescriptor root = box({{7, 7}, {0, 63}, {-2, -2}}, 0, 1);
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 1, leaves);
  EXPECT_EQ(leaves.size(), 64u);
  for (const TaskDescriptor& l : leaves) {
    EXPECT_EQ(l.extent(0), 1);
    EXPECT_EQ(l.extent(1), 1);
    EXPECT_EQ(l.extent(2), 1);
    EXPECT_EQ(l.class_extent(), 1);
  }
  // A fully degenerate box is a leaf even at grain 0.
  EXPECT_FALSE(can_split(box({{3, 3}, {5, 5}}, 2, 3), 0));
}

TEST(TaskSplit, NoDimensionsSplitsClassesOnly) {
  TaskDescriptor root;
  root.class_lo = 0;
  root.class_hi = 8;
  EXPECT_TRUE(can_split(root, 1));
  std::vector<TaskDescriptor> leaves;
  collect_leaves(root, 1, leaves);
  EXPECT_EQ(leaves.size(), 8u);
  for (const TaskDescriptor& l : leaves) EXPECT_EQ(l.class_extent(), 1);
}

TEST(TaskSplit, SingleCellIsNotSplittable) {
  EXPECT_FALSE(can_split(task(3, 3, 2, 3), 1));
  // A multi-cell box splits while it is over the grain, whichever axis
  // carries the extent...
  EXPECT_TRUE(can_split(task(0, 7, 0, 4), 8));
  // ...and is a leaf once cells() fits the grain.
  EXPECT_FALSE(can_split(task(0, 7, 2, 3), 8));
}

TEST(TaskDescriptorIo, ToStringRoundTripsAThreeAxisBox) {
  TaskDescriptor t = box({{-4, 17}, {0, 511}, {2, 2}}, 1, 5);
  std::optional<TaskDescriptor> back = TaskDescriptor::from_string(t.to_string());
  ASSERT_TRUE(back.has_value()) << t.to_string();
  EXPECT_EQ(*back, t);

  // Source tags survive, and dimension-free descriptors round-trip too.
  t.source = 42;
  back = TaskDescriptor::from_string(t.to_string());
  ASSERT_TRUE(back.has_value()) << t.to_string();
  EXPECT_EQ(*back, t);

  TaskDescriptor classes_only;
  classes_only.class_hi = 6;
  back = TaskDescriptor::from_string(classes_only.to_string());
  ASSERT_TRUE(back.has_value()) << classes_only.to_string();
  EXPECT_EQ(*back, classes_only);

  EXPECT_FALSE(TaskDescriptor::from_string("task{box [1, 2}").has_value());
  EXPECT_FALSE(TaskDescriptor::from_string("nonsense").has_value());
}

// ------------------------------------------------- streaming == reference

TEST(Streaming, BitIdenticalToSequentialAcrossPaperSuite) {
  for (std::size_t threads : {1u, 2u, 8u}) {
    for (const core::NamedNest& c : core::paper_suite(6)) {
      exec::ArrayStore ref(c.nest);
      ref.fill_pattern();
      exec::ArrayStore got = ref;
      exec::run_sequential(c.nest, ref);

      StreamOptions so;
      so.drive.threads = threads;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      RuntimeStats rs = ex.run(got);
      EXPECT_EQ(ref, got) << c.name << " with " << threads << " thread(s)";
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
    }
  }
}

TEST(Streaming, RunsOnACallerProvidedThreadPool) {
  // The pool overload distributes worker contexts over existing pool
  // threads instead of spawning fresh ones; results stay bit-identical,
  // including when the pool is smaller than the configured worker count.
  ThreadPool pool(2);
  for (std::size_t contexts : {1u, 2u, 6u}) {
    for (const core::NamedNest& c : core::paper_suite(5)) {
      exec::ArrayStore ref(c.nest);
      ref.fill_pattern();
      exec::ArrayStore got = ref;
      exec::run_sequential(c.nest, ref);

      StreamOptions so;
      so.drive.threads = contexts;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      RuntimeStats rs = ex.run(got, nullptr, &pool);
      EXPECT_EQ(ref, got) << c.name << " with " << contexts << " context(s)";
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
    }
  }
}

TEST(Streaming, InterpreterFallbackAlsoBitIdentical) {
  for (const core::NamedNest& c : core::paper_suite(5)) {
    exec::ArrayStore ref(c.nest);
    ref.fill_pattern();
    exec::ArrayStore got = ref;
    exec::run_sequential(c.nest, ref);

    StreamOptions so;
    so.drive.threads = 2;
    so.force_interpreter = true;
    StreamExecutor ex(c.nest, plan_for(c.nest), so);
    ex.run(got);
    EXPECT_EQ(ref, got) << c.name;
  }
}

TEST(Streaming, TraceCoversIterationSpaceExactlyOnce) {
  for (const core::NamedNest& c : core::paper_suite(5)) {
    StreamOptions so;
    so.drive.threads = 4;
    so.grain = 1;  // maximal splitting: the sharpest coverage stress
    StreamExecutor ex(c.nest, plan_for(c.nest), so);

    std::mutex mu;
    std::vector<Vec> streamed;
    ex.run_trace([&](int, const Vec& it) {
      std::lock_guard<std::mutex> lock(mu);
      streamed.push_back(it);
    });

    std::vector<Vec> expected = c.nest.iterations();
    std::sort(streamed.begin(), streamed.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(streamed, expected) << c.name;
  }
}

// ------------------------------------------------- skewed-extent splitting

TEST(Streaming, SkewedNestSplitsInnerAxesBitIdentically) {
  // Outer extent 2, inner DOALL extent 601: the legacy outer-only splitter
  // produced at most two unsplittable leaves here. N-D boxes must split the
  // inner axis (nonzero inner-axis split counters, many leaves) and still
  // match the sequential reference bit for bit.
  loopir::LoopNest nest = core::skewed_extent(600);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_EQ(plan.num_doall, 2);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore init = ref;
  exec::run_sequential(nest, ref);

  StreamOptions so;
  so.drive.threads = 8;
  StreamExecutor ex(nest, plan, so);
  EXPECT_EQ(ex.boxed_dims(), 2);
  exec::ArrayStore got = init;
  RuntimeStats rs = ex.run(got);
  EXPECT_EQ(ref, got);
  EXPECT_EQ(rs.total_iterations(), nest.iteration_count());
  EXPECT_GT(rs.total_inner_splits(), 0);
  EXPECT_GT(rs.total_tasks(), 8);  // far beyond the 2 outer-only leaves

  // split_dims = 1 reproduces the legacy single-axis splitter: correct,
  // but stuck at the two outer leaves with zero inner splits.
  StreamOptions legacy;
  legacy.drive.threads = 8;
  legacy.split_dims = 1;
  StreamExecutor ex1(nest, plan, legacy);
  EXPECT_EQ(ex1.boxed_dims(), 1);
  exec::ArrayStore got1 = init;
  RuntimeStats rs1 = ex1.run(got1);
  EXPECT_EQ(ref, got1);
  EXPECT_EQ(rs1.total_inner_splits(), 0);
  EXPECT_LE(rs1.total_tasks(), 2);
}

TEST(Streaming, BoxedDimsIntersectDynamicBoundsOnTriangularSpaces) {
  // variable_3deep has two DOALL prefix dimensions after Algorithm 1 whose
  // transformed bounds couple; the hull box over-approximates, so leaves
  // must re-intersect with the dynamic bounds. Maximal splitting is the
  // sharpest stress of that intersection.
  loopir::LoopNest nest = core::variable_3deep(7);
  trans::TransformPlan plan = plan_for(nest);
  ASSERT_GE(plan.num_doall, 2);

  exec::ArrayStore ref(nest);
  ref.fill_pattern();
  exec::ArrayStore got = ref;
  exec::run_sequential(nest, ref);

  StreamOptions so;
  so.drive.threads = 4;
  so.grain = 1;
  StreamExecutor ex(nest, plan, so);
  RuntimeStats rs = ex.run(got);
  EXPECT_EQ(ref, got);
  EXPECT_EQ(rs.total_iterations(), nest.iteration_count());
}

TEST(Parallelizer, CheckReportsInnerSplits) {
  vdep::Compiler compiler;
  vdep::CompiledLoop loop = compiler.compile(core::skewed_extent(520)).value();

  vdep::ExecReport nd = loop.check(vdep::ExecPolicy{}.threads(8)).value();
  EXPECT_TRUE(nd.verified);
  EXPECT_GT(nd.inner_splits, 0);
}

// ----------------------------------------------------------------- stats

TEST(Stats, TasksEqualSplitsPlusOne) {
  // Every split turns one descriptor into two, so leaves == splits + 1.
  for (const core::NamedNest& c : core::paper_suite(6)) {
    for (std::size_t threads : {1u, 3u}) {
      StreamOptions so;
      so.drive.threads = threads;
      StreamExecutor ex(c.nest, plan_for(c.nest), so);
      exec::ArrayStore store(c.nest);
      store.fill_pattern();
      RuntimeStats rs = ex.run(store);
      if (c.nest.iteration_count() == 0) continue;
      EXPECT_EQ(rs.total_tasks(), rs.total_splits() + 1) << c.name;
      EXPECT_LE(rs.total_steals(), rs.total_tasks()) << c.name;
      EXPECT_EQ(rs.total_iterations(), c.nest.iteration_count()) << c.name;
      EXPECT_EQ(rs.workers.size(), threads);
    }
  }
}

TEST(Stats, SingleThreadNeverSteals) {
  loopir::LoopNest nest = core::example42(8);
  StreamOptions so;
  so.drive.threads = 1;
  StreamExecutor ex(nest, plan_for(nest), so);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  RuntimeStats rs = ex.run(store);
  EXPECT_EQ(rs.total_steals(), 0);
  EXPECT_GT(rs.total_tasks(), 0);
  EXPECT_GT(rs.wall_ns, 0);
  EXPECT_GE(rs.max_busy_ns(), 0);
  EXPECT_FALSE(rs.to_string().empty());
}

TEST(Stats, DescriptorCountIsIndependentOfIterationCount) {
  // The whole point: schedule state scales with descriptors, not with the
  // iteration space. Ten times the space must not mean ten times the tasks.
  auto tasks_at = [](i64 n) {
    loopir::LoopNest nest = core::example42(n);
    StreamOptions so;
    so.drive.threads = 2;
    StreamExecutor ex(nest, plan_for(nest), so);
    exec::ArrayStore store(nest);
    store.fill_pattern();
    return ex.run(store).total_tasks();
  };
  i64 small = tasks_at(10);
  i64 big = tasks_at(100);
  EXPECT_LE(big, 4 * small + 64);  // bounded by splitting policy, not by n^2
}

// ---------------------------------------------------- multi-source driver

TEST(Driver, EverySourceRunsToItsOwnSequentialResult) {
  // Two plans of different shapes share one run; per-source counters and
  // stores must be exactly those of running each alone.
  const std::vector<loopir::LoopNest> nests = {core::example42(12),
                                               core::skewed_extent(40)};
  for (std::size_t threads : {1u, 4u}) {
    StreamOptions so;
    so.drive.threads = threads;
    std::vector<std::unique_ptr<StreamExecutor>> exs;
    std::vector<exec::ArrayStore> stores;
    std::vector<exec::ArrayStore> refs;
    stores.reserve(nests.size());
    for (const loopir::LoopNest& nest : nests) {
      exs.push_back(std::make_unique<StreamExecutor>(nest, plan_for(nest), so));
      stores.emplace_back(nest);
      stores.back().fill_pattern();
      refs.push_back(stores.back());
      exec::run_sequential(nest, refs.back());
    }
    std::vector<DriveSource> sources;
    for (std::size_t s = 0; s < nests.size(); ++s)
      sources.push_back({exs[s]->root(), exs[s]->grain(),
                         exs[s]->split_prefs(),
                         exs[s]->make_leaf_factory(stores[s])});
    DriveOptions d;
    d.threads = threads;
    RuntimeStats rs = drive_descriptors(sources, d);
    ASSERT_FALSE(rs.error);
    ASSERT_EQ(rs.sources.size(), nests.size());
    EXPECT_EQ(rs.total_tasks(),
              rs.total_splits() + static_cast<i64>(nests.size()));
    for (std::size_t s = 0; s < nests.size(); ++s) {
      const SourceStats& st = rs.sources[s];
      EXPECT_EQ(st.counters.iterations, nests[s].iteration_count())
          << "threads " << threads << " source " << s;
      EXPECT_EQ(st.counters.tasks, st.counters.splits + 1) << s;
      EXPECT_GE(st.queue_ns, 1) << s;
      EXPECT_GE(st.done_ns, st.queue_ns) << s;
      EXPECT_TRUE(stores[s] == refs[s])
          << "threads " << threads << " source " << s;
    }
  }
}

TEST(Driver, FewerRootsThanWorkersArePreSplitBeforeWorkersStart) {
  // At grain 5 each 10-cell root splits exactly once. Two roots on four
  // workers: seeding makes both splits (charged to worker 0) so every
  // worker starts with a piece and no worker splits again.
  std::atomic<i64> cells{0};
  LeafFactory count = [&cells](int, WorkerStats& stats) -> LeafFn {
    return [&cells, &stats](const TaskDescriptor& t) {
      cells.fetch_add(t.cells());
      stats.iterations += t.cells();
    };
  };
  const std::vector<DriveSource> sources = {{task(0, 9, 0, 1), 5, {}, count},
                                            {task(0, 9, 0, 1), 5, {}, count}};
  DriveOptions d;
  d.threads = 4;
  d.pin_workers = false;
  RuntimeStats rs = drive_descriptors(sources, d);
  ASSERT_FALSE(rs.error);
  EXPECT_EQ(rs.total_tasks(), 4);
  EXPECT_EQ(rs.total_splits(), 2);
  EXPECT_EQ(rs.workers[0].splits, 2);
  EXPECT_EQ(cells.load(), 20);
  for (const SourceStats& st : rs.sources) {
    EXPECT_EQ(st.counters.tasks, 2);
    EXPECT_EQ(st.counters.iterations, 10);
  }
}

// ------------------------------------------------------------ staged API

TEST(Parallelizer, StreamingModeChecksWholeSuite) {
  vdep::Compiler compiler;
  ThreadPool pool(3);
  for (const core::NamedNest& c : core::paper_suite(5)) {
    vdep::CompiledLoop loop = compiler.compile(c.nest).value();
    // check() errors on any divergence from the sequential reference.
    vdep::ExecReport r = loop.check(vdep::ExecPolicy{}, &pool).value();
    EXPECT_TRUE(r.verified) << c.name;
    EXPECT_GT(r.tasks, 0) << c.name;
  }
}

}  // namespace
}  // namespace vdep::runtime
