// Inspector–executor tests: the flat inspector (src/inspect/) against the
// brute-force ISDG ground truth on affine and indirect index shapes,
// the static partitioner as a correctness oracle on the affine paper
// suite, compiled gather leaves against the interpreter, and the
// end-to-end API path for indirect subscripts (A[B[i]]).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "dep/pdm.h"
#include "dsl/parser.h"
#include "exec/interpreter.h"
#include "exec/isdg.h"
#include "exec/runner.h"
#include "inspect/executor.h"
#include "inspect/inspector.h"
#include "loopir/builder.h"
#include "obs/trace.h"
#include "trans/planner.h"

namespace vdep {
namespace {

using intlin::Vec;
using loopir::AffineExpr;
using loopir::ArrayRef;
using loopir::Expr;
using loopir::IndirectSubscript;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

// ------------------------------------------------------------- helpers

/// Weakly connected components of an ISDG, as a canonical partition:
/// sorted members per component, components sorted by first member.
/// Singletons (independent iterations) included — the same universe the
/// inspector partitions.
std::set<std::vector<Vec>> isdg_components(const exec::Isdg& g) {
  std::map<Vec, int> rank;
  for (std::size_t k = 0; k < g.nodes().size(); ++k)
    rank[g.nodes()[k]] = static_cast<int>(k);
  std::vector<int> parent(g.nodes().size());
  for (std::size_t k = 0; k < parent.size(); ++k)
    parent[k] = static_cast<int>(k);
  auto find = [&](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (const exec::IsdgEdge& e : g.edges()) {
    int a = find(rank.at(e.src)), b = find(rank.at(e.dst));
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }
  std::map<int, std::vector<Vec>> comps;
  for (std::size_t k = 0; k < g.nodes().size(); ++k)
    comps[find(static_cast<int>(k))].push_back(g.nodes()[k]);
  std::set<std::vector<Vec>> out;
  for (auto& [root, members] : comps) out.insert(std::move(members));
  return out;
}

/// The inspector's partition in the same canonical form. Members of a class
/// come out in lexicographic order already (the documented contract).
std::set<std::vector<Vec>> inspector_components(
    const inspect::DynamicPartition& part) {
  std::set<std::vector<Vec>> out;
  Vec iter;
  for (i64 c = 0; c < part.num_classes(); ++c) {
    std::vector<Vec> members;
    part.for_each_class_iteration(c, iter, [&](const Vec& v) {
      members.push_back(v);
    });
    out.insert(std::move(members));
  }
  return out;
}

/// A 1-D indirect nest `A[B[i]] = A[B[i]] + C[i]` over i in [0, n-1],
/// with A sized [0, a_hi].
LoopNest indirect_nest(i64 n, i64 a_hi) {
  LoopNestBuilder b;
  b.loop("i", 0, n - 1);
  b.array("A", {{0, a_hi}});
  b.array("B", {{0, n - 1}});
  b.array("C", {{0, n - 1}});
  ArrayRef lhs;
  lhs.array = "A";
  lhs.subscripts = {b.cst(0)};
  lhs.indirect = {IndirectSubscript{"B", b.idx(0)}};
  ArrayRef rhs_a = lhs;
  b.assign(lhs, Expr::add(Expr::read(rhs_a),
                          Expr::read(b.ref("C", {b.idx(0)}))));
  return b.build();
}

// --------------------------------------- inspector vs brute-force ISDG

TEST(Inspector, ComponentsMatchBruteForceIsdgAffine) {
  // Figure 2/3 structure (example 4.1), Figure 4/5 structure (example 4.2),
  // plus a uniform and a fully serial nest. The inspector must produce
  // exactly the weak components of the brute-force all-pairs ISDG.
  std::vector<LoopNest> nests = {
      core::example41(6), core::example42(6), core::uniform_blocked(6),
      core::sequential_chain(12), core::parity_independent(6)};
  for (const LoopNest& nest : nests) {
    exec::ArrayStore store(nest);
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    exec::Isdg g = exec::build_isdg(nest);
    EXPECT_EQ(part.size(), g.node_count());
    EXPECT_EQ(inspector_components(part), isdg_components(g))
        << nest.to_string();
    EXPECT_EQ(part.stats().chains, g.chain_count());
    EXPECT_EQ(part.stats().dependent_iterations, g.dependent_node_count());
  }
}

TEST(Inspector, ComponentsMatchBruteForceIsdgIndirect) {
  // Indirect nest with a duplicate-heavy index array: the store-resolving
  // ISDG overload is the ground truth.
  LoopNest nest = indirect_nest(24, 40);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  for (i64 i = 0; i < 24; ++i)
    store.write("B", Vec{i}, (i * 5 + 2) % 9);  // many collisions
  inspect::DynamicPartition part = inspect::inspect(nest, store);
  exec::Isdg g = exec::build_isdg(nest, store);
  EXPECT_EQ(inspector_components(part), isdg_components(g));
  EXPECT_EQ(part.stats().chains, g.chain_count());
  EXPECT_EQ(part.stats().dependent_iterations, g.dependent_node_count());
}

TEST(Inspector, EmptyAndDegenerateSpaces) {
  {
    // Empty space: upper < lower. No iterations, no classes, and the
    // executor runs to completion without touching the store.
    LoopNestBuilder b;
    b.loop("i", 0, -1);
    b.array("A", {{0, 4}});
    b.assign(b.ref("A", {b.idx(0)}), Expr::constant(1));
    LoopNest nest = b.build();
    exec::ArrayStore store(nest);
    store.fill_pattern();
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    EXPECT_EQ(part.size(), 0);
    EXPECT_EQ(part.num_classes(), 0);
    EXPECT_EQ(part.stats().written_cells, 0);
    exec::ArrayStore before = store;
    inspect::InspectorExecutor ex(nest, part);
    runtime::RuntimeStats rs = ex.run(store);
    EXPECT_EQ(rs.total_iterations(), 0);
    EXPECT_TRUE(store == before);
  }
  {
    // Single iteration: one singleton class, no chains.
    LoopNestBuilder b;
    b.loop("i", 3, 3);
    b.array("A", {{3, 3}});
    b.assign(b.ref("A", {b.idx(0)}), Expr::constant(7));
    LoopNest nest = b.build();
    exec::ArrayStore store(nest);
    inspect::DynamicPartition part = inspect::inspect(nest, store);
    EXPECT_EQ(part.size(), 1);
    EXPECT_EQ(part.num_classes(), 1);
    EXPECT_EQ(part.stats().chains, 0);
    EXPECT_EQ(part.stats().dependent_iterations, 0);
    EXPECT_EQ(part.stats().max_component, 1);
  }
}

TEST(Inspector, DuplicateIndexWritesSerializeIntoOneClass) {
  // Every iteration writes A[5]: one write conflict chains the whole space
  // into a single class, which must replay sequentially in one leaf.
  LoopNest nest = indirect_nest(16, 10);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  for (i64 i = 0; i < 16; ++i) store.write("B", Vec{i}, 5);
  inspect::DynamicPartition part = inspect::inspect(nest, store);
  EXPECT_EQ(part.num_classes(), 1);
  EXPECT_EQ(part.stats().chains, 1);
  EXPECT_EQ(part.stats().max_component, 16);
  EXPECT_EQ(part.stats().dependent_iterations, 16);
  EXPECT_EQ(part.stats().written_cells, 1);

  exec::ArrayStore ref = store;
  exec::run_sequential(nest, ref);
  inspect::InspectorExecOptions io;
  io.drive.threads = 8;
  inspect::InspectorExecutor ex(nest, part, io);
  ex.run(store);
  EXPECT_TRUE(store == ref);
}

// ------------------------------- indirect index shapes, compiled leaves

/// One indirect nest of the shape and leaf tests, with the index values
/// its B array holds.
struct IndirectCase {
  std::string name;
  LoopNest nest;
  std::vector<i64> index;
};

/// Index values over [0, targets) in the three shapes of the differential
/// fuzz: duplicate-heavy, a permutation (targets == count) and a monotone
/// ramp.
std::vector<i64> index_values(const std::string& shape, i64 count,
                              i64 targets) {
  std::vector<i64> v(static_cast<std::size_t>(count));
  for (i64 k = 0; k < count; ++k) {
    i64& x = v[static_cast<std::size_t>(k)];
    if (shape == "duplicates") x = (k * 2654435761ll) % targets;
    if (shape == "permutation") x = (k * 7919 + 13) % count;
    if (shape == "monotone") x = k * targets / count;
  }
  return v;
}

std::vector<IndirectCase> indirect_cases(i64 n = 3000) {
  auto parse = [](const std::string& src) {
    Expected<LoopNest> nest = dsl::try_parse_loop_nest(src);
    EXPECT_TRUE(nest) << nest.error().to_string();
    return *nest;
  };
  const std::string decls = "array A[0:" + std::to_string(n - 1) +
                            "]\narray B[0:" + std::to_string(n - 1) + "]\n";
  std::vector<IndirectCase> out;
  const std::pair<const char*, i64> shapes[] = {
      {"duplicates", n / 8}, {"permutation", n}, {"monotone", n / 3}};
  for (auto [shape, targets] : shapes) {
    out.push_back({std::string("A[B[i]] ") + shape,
                   parse(decls + "array C[0:" + std::to_string(n - 1) +
                         "]\ndo i = 0, " + std::to_string(n - 1) +
                         "\n  A[B[i]] = A[B[i]] + C[i]\nenddo\n"),
                   index_values(shape, n, targets)});
  }
  out.push_back({"A[B[i - 1]]",
                 parse(decls + "array C[1:" + std::to_string(n) +
                       "]\ndo i = 1, " + std::to_string(n) +
                       "\n  A[B[i - 1]] = A[B[i - 1]] * 3 + C[i]\nenddo\n"),
                 index_values("duplicates", n, n / 5)});
  // Two statements: the second reads what the first wrote in the same
  // iteration, and the first reads D cells an earlier member of its class
  // wrote, so a leaf must keep both orders.
  out.push_back({"two statements",
                 parse(decls + "array C[0:" + std::to_string(n - 1) +
                       "]\narray D[0:" + std::to_string(n - 1) +
                       "]\ndo i = 0, " + std::to_string(n - 1) +
                       "\n  A[B[i]] = A[B[i]] + D[B[i]]"
                       "\n  D[B[i]] = A[B[i]] * 3 - C[i]\nenddo\n"),
                 index_values("duplicates", n, n / 8)});
  const std::string rows = std::to_string(n / 15 - 1);
  out.push_back({"A[B[i], j]",
                 parse("array A[0:40, 0:15]\narray B[0:" + rows +
                       "]\narray C[0:" + rows + ", 0:15]\ndo i = 0, " +
                       rows + "\n  do j = 0, 15\n"
                       "    A[B[i], j] = A[B[i], 15 - j] + C[i, j]\n"
                       "  enddo\nenddo\n"),
                 index_values("duplicates", n / 15, 41)});
  return out;
}

exec::ArrayStore store_for(const IndirectCase& c) {
  exec::ArrayStore store(c.nest);
  store.fill_pattern();
  for (std::size_t k = 0; k < c.index.size(); ++k)
    store.write("B", Vec{static_cast<i64>(k)}, c.index[k]);
  return store;
}

TEST(Inspector, ComponentsMatchBruteForceIsdgIndirectShapes) {
  // The leaf tests' index shapes, small enough for the all-pairs ISDG.
  for (const IndirectCase& c : indirect_cases(240)) {
    exec::ArrayStore store = store_for(c);
    const inspect::DynamicPartition part = inspect::inspect(c.nest, store);
    exec::Isdg g = exec::build_isdg(c.nest, store);
    EXPECT_EQ(inspector_components(part), isdg_components(g)) << c.name;
    EXPECT_EQ(part.stats().chains, g.chain_count()) << c.name;
    EXPECT_EQ(part.stats().dependent_iterations, g.dependent_node_count())
        << c.name;
    EXPECT_EQ(part.stats().chains == 0,
              c.name.find("permutation") != std::string::npos)
        << c.name;
  }
}

TEST(Inspector, CompiledGatherLeavesMatchInterpreterLeaves) {
  for (const IndirectCase& c : indirect_cases()) {
    exec::ArrayStore init = store_for(c);
    exec::ArrayStore ref = init;
    exec::run_sequential(c.nest, ref);
    const inspect::DynamicPartition part = inspect::inspect(c.nest, init);
    for (bool interpret : {true, false}) {
      inspect::InspectorExecOptions io;
      io.drive.threads = 4;
      io.force_interpreter = interpret;
      exec::ArrayStore got = init;
      runtime::RuntimeStats rs =
          inspect::InspectorExecutor(c.nest, part, io).run(got);
      EXPECT_EQ(rs.total_iterations(), part.size()) << c.name;
      EXPECT_TRUE(got == ref)
          << c.name << (interpret ? " interpreter" : " compiled")
          << " leaves diverged from sequential";
    }
  }
}

/// The scatter of the error tests: A[B[i]] = A[B[i]] + C[i], A[0:7].
const char* const kSmallScatter =
    "array A[0:7]\narray B[0:31]\narray C[0:31]\n"
    "do i = 0, 31\n  A[B[i]] = A[B[i]] + C[i]\nenddo\n";

TEST(Inspector, OutOfRangeIndexIsAPreconditionErrorFromEveryBackend) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(kSmallScatter).value();
  exec::ArrayStore init(loop.nest());
  init.fill_pattern();
  for (i64 i = 0; i < 32; ++i) init.write("B", Vec{i}, i % 8);
  init.write("B", Vec{17}, 8);
  for (ExecBackend bk : {ExecBackend::kInterpreter, ExecBackend::kCompiled,
                         ExecBackend::kJit, ExecBackend::kInspector}) {
    exec::ArrayStore store = init;
    Expected<ExecReport> r =
        loop.execute(ExecPolicy{}.threads(4).backend(bk), store);
    ASSERT_FALSE(r) << static_cast<int>(bk);
    EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition)
        << static_cast<int>(bk) << ": " << r.error().to_string();
  }

  // The inspection catches it first on that path; the leaves check each
  // gathered index themselves, so a partition gone stale on its index
  // array fails the same way instead of writing out of bounds.
  exec::ArrayStore store = init;
  store.write("B", Vec{17}, 1);
  const inspect::DynamicPartition part = inspect::inspect(loop.nest(), store);
  store.write("B", Vec{17}, 8);
  for (bool interpret : {true, false}) {
    inspect::InspectorExecOptions io;
    io.drive.threads = 2;
    io.force_interpreter = interpret;
    inspect::InspectorExecutor ex(loop.nest(), part, io);
    EXPECT_THROW(ex.run(store), PreconditionError) << interpret;
  }
}

TEST(Inspector, OverflowingScatterIsAnOverflowErrorFromEveryBackend) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(kSmallScatter).value();
  exec::ArrayStore init(loop.nest());
  for (i64 i = 0; i < 32; ++i) {
    init.write("B", Vec{i}, i % 8);
    init.write("C", Vec{i}, std::numeric_limits<i64>::max() / 2);
  }
  for (ExecBackend bk : {ExecBackend::kInterpreter, ExecBackend::kCompiled,
                         ExecBackend::kJit, ExecBackend::kInspector}) {
    exec::ArrayStore store = init;
    Expected<ExecReport> r =
        loop.execute(ExecPolicy{}.threads(4).backend(bk), store);
    ASSERT_FALSE(r) << static_cast<int>(bk);
    EXPECT_EQ(r.error().kind, ErrorKind::kOverflow)
        << static_cast<int>(bk) << ": " << r.error().to_string();
  }
}

// ------------------------------------------- Figure 2 statistics pinned

TEST(Inspector, Figure2StatisticsAgreeAcrossRenderings) {
  // example 4.1 at n=10 — the Figure 2 space (21x21 box, variable
  // distances, even multiples of (1,-1)). These five numbers are the
  // figure's statistics; to_dot, to_ascii, dependent_node_count and the
  // inspector must all report the same dependent-node population.
  LoopNest nest = core::example41(10);
  exec::Isdg g = exec::build_isdg(nest);
  EXPECT_EQ(g.node_count(), 441);
  EXPECT_EQ(g.edge_count(), 136);
  EXPECT_EQ(g.dependent_node_count(), 232);
  EXPECT_EQ(g.chain_count(), 96);

  // DOT: exactly one style=filled node row per dependent iteration.
  std::string dot = g.to_dot();
  std::size_t filled = 0;
  for (std::size_t pos = dot.find("style=filled"); pos != std::string::npos;
       pos = dot.find("style=filled", pos + 1))
    ++filled;
  EXPECT_EQ(filled, 232u);

  // ASCII: dependent iterations render 'o', independent '.'.
  std::string ascii = g.to_ascii();
  std::size_t solid = 0, hollow = 0;
  for (char c : ascii) {
    if (c == 'o') ++solid;
    if (c == '.') ++hollow;
  }
  EXPECT_EQ(solid, 232u);
  EXPECT_EQ(hollow, 441u - 232u);

  // The inspector sees the same structure without building the graph.
  exec::ArrayStore store(nest);
  inspect::DynamicPartition part = inspect::inspect(nest, store);
  EXPECT_EQ(part.stats().iterations, 441);
  EXPECT_EQ(part.stats().dependent_iterations, 232);
  EXPECT_EQ(part.stats().chains, 96);
  EXPECT_EQ(part.stats().classes, 305);  // 96 chains + 209 singletons
  EXPECT_EQ(part.stats().max_component, 3);
}

// ------------------------------------ static partitioner as the oracle

TEST(Inspector, OracleAgainstStaticPartitioner) {
  // For every affine suite nest at several bounds: the inspector's
  // components must REFINE the static plan's work items on dependent
  // iterations (a dependence chain never crosses items of a legal plan, so
  // each component fits inside one item). For exact- and uniform-distance
  // nests the relations coincide; for the variable-distance nests the
  // static residue classes (Theorem 2) over-approximate at larger bounds —
  // one class holds several disjoint runtime chains — so the inspector is
  // strictly finer there, never coarser.
  const std::set<std::string> strictly_finer = {"example_4_1",
                                                "variable_3deep"};
  for (i64 n : {i64{4}, i64{7}, i64{10}}) {
    for (const core::NamedNest& c : core::paper_suite(n)) {
      const LoopNest& nest = c.nest;
      trans::TransformPlan plan = trans::plan_transform(dep::compute_pdm(nest));
      exec::Schedule sched = exec::build_schedule(nest, plan);
      exec::ArrayStore store(nest);
      inspect::DynamicPartition part = inspect::inspect(nest, store);

      std::map<Vec, i64> item_of;
      for (std::size_t k = 0; k < sched.items.size(); ++k)
        for (const Vec& v : sched.items[k])
          item_of[v] = static_cast<i64>(k);
      std::map<Vec, i64> cls_of;
      Vec v;
      for (i64 it = 0; it < part.size(); ++it) {
        part.coords_of(it, v);
        cls_of[v] = part.class_of(it);
      }
      ASSERT_EQ(item_of.size(), cls_of.size()) << c.name << " n=" << n;

      std::set<Vec> dependent;
      exec::Isdg g = exec::build_isdg(nest);
      for (const exec::IsdgEdge& e : g.edges()) {
        dependent.insert(e.src);
        dependent.insert(e.dst);
      }

      std::map<i64, std::set<i64>> items_per_class, classes_per_item;
      for (const Vec& d : dependent) {
        items_per_class[cls_of.at(d)].insert(item_of.at(d));
        classes_per_item[item_of.at(d)].insert(cls_of.at(d));
      }
      for (const auto& [cls, items] : items_per_class)
        EXPECT_EQ(items.size(), 1u)
            << c.name << " n=" << n << ": inspector class " << cls
            << " spans " << items.size() << " static items (refinement broken)";
      if (!strictly_finer.count(c.name)) {
        for (const auto& [item, classes] : classes_per_item)
          EXPECT_EQ(classes.size(), 1u)
              << c.name << " n=" << n << ": static item " << item
              << " splits into " << classes.size() << " inspector classes";
      }
    }
  }
}

TEST(Inspector, OracleBitIdenticalExecutionAcrossBackends) {
  // Every suite nest, sequential reference vs kInterpreter / kJit /
  // kInspector at 1, 2 and 8 workers — the inspector backend must be a
  // drop-in on affine nests, not just on indirect ones.
  Compiler compiler;
  for (i64 n : {i64{5}, i64{9}}) {
    for (const core::NamedNest& c : core::paper_suite(n)) {
      Expected<CompiledLoop> loop = compiler.compile(c.nest);
      ASSERT_TRUE(loop) << c.name;
      exec::ArrayStore init(c.nest);
      init.fill_pattern();
      exec::ArrayStore ref = init;
      exec::run_sequential(c.nest, ref);
      for (ExecBackend bk : {ExecBackend::kInterpreter, ExecBackend::kJit,
                             ExecBackend::kInspector}) {
        for (std::size_t threads : {1u, 2u, 8u}) {
          exec::ArrayStore got = init;
          ExecPolicy policy;
          policy.backend(bk).threads(threads);
          Expected<ExecReport> rep = loop->execute(policy, got);
          ASSERT_TRUE(rep) << c.name << " n=" << n << " backend "
                           << static_cast<int>(bk) << " threads " << threads
                           << ": " << rep.error().to_string();
          EXPECT_TRUE(got == ref)
              << c.name << " n=" << n << " backend " << static_cast<int>(bk)
              << " at " << threads << " threads diverged";
          EXPECT_EQ(rep->inspector, bk == ExecBackend::kInspector);
        }
      }
    }
  }
}

// ------------------------------------------------- end-to-end API path

TEST(Inspector, IndirectNestRejectedByPdmRunsViaInspector) {
  // The acceptance path: a nest the PDM rejects compiles through the
  // non-affine artifact and executes bit-identically to sequential at 8
  // workers.
  const std::string src =
      "array A[0:63]\n"
      "array B[0:63]\n"
      "do i = 0, 63\n"
      "  A[B[i]] = A[B[i]] + 7\n"
      "enddo\n";
  Compiler compiler;
  Expected<CompiledLoop> loop = compiler.compile(src);
  ASSERT_TRUE(loop) << loop.error().to_string();
  EXPECT_FALSE(loop->analysis().affine);
  EXPECT_THROW(dep::compute_pdm(loop->nest()), UnsupportedError);

  exec::ArrayStore init(loop->nest());
  init.fill_pattern();
  for (i64 i = 0; i <= 63; ++i)
    init.write("B", Vec{i}, (i * 7 + 3) % 16);
  exec::ArrayStore ref = init;
  exec::run_sequential(loop->nest(), ref);

  exec::ArrayStore got = init;
  ExecPolicy policy;
  policy.threads(8);
  Expected<ExecReport> rep = loop->execute(policy, got);
  ASSERT_TRUE(rep) << rep.error().to_string();
  EXPECT_TRUE(got == ref);
  EXPECT_TRUE(rep->inspector);
  // 16 distinct write targets -> 16 chains, every iteration dependent.
  EXPECT_EQ(rep->inspector_classes, 16);
  EXPECT_EQ(rep->inspector_chains, 16);
  EXPECT_EQ(rep->inspector_dependent, 64);
  EXPECT_EQ(rep->iterations, 64);
  EXPECT_GT(rep->inspect_ns, 0);
  EXPECT_LE(rep->inspect_ns, rep->wall_ns);

  // The batch path cannot run this nest.
  std::vector<exec::ArrayStore*> stores = {&got};
  Expected<std::vector<ExecReport>> batch =
      loop->execute_batch(std::span<exec::ArrayStore* const>(stores),
                          ExecPolicy{});
  ASSERT_FALSE(batch);
  EXPECT_EQ(batch.error().kind, ErrorKind::kUnsupported);
}

TEST(Inspector, InspectSpanAndReportTiming) {
  // The kInspect trace span is emitted with the partition statistics as
  // args, and ExecReport::inspect_ns is populated from the same phase.
  LoopNest nest = indirect_nest(32, 48);
  Compiler compiler;
  Expected<CompiledLoop> loop = compiler.compile(nest);
  ASSERT_TRUE(loop);
  exec::ArrayStore store(nest);
  store.fill_pattern();
  for (i64 i = 0; i < 32; ++i) store.write("B", Vec{i}, (i * 3) % 48);

  obs::TraceRecorder::instance().enable();
  Expected<ExecReport> rep = loop->execute(ExecPolicy{}, store);
  obs::TraceRecorder::instance().disable();
  ASSERT_TRUE(rep) << rep.error().to_string();

  bool saw_inspect = false;
  obs::TraceRecorder::instance().for_each_event(
      [&](std::size_t, const obs::TraceEvent& ev) {
        if (ev.kind != obs::EventKind::kInspect) return;
        saw_inspect = true;
        EXPECT_EQ(ev.args[0], 32);                        // iterations
        EXPECT_EQ(ev.args[1], rep->inspector_classes);    // classes
        EXPECT_EQ(ev.args[2], rep->inspector_chains);     // chains
        EXPECT_EQ(ev.args[3], rep->inspector_max_component);
        EXPECT_EQ(ev.args[4], rep->inspector_dependent);
        EXPECT_GT(ev.dur_ns, 0);
      });
  EXPECT_TRUE(saw_inspect);
  EXPECT_GT(rep->inspect_ns, 0);
  obs::TraceRecorder::instance().clear();
}

TEST(Inspector, ParserEnforcesOneLevelAndDeclaredTargets) {
  // Nested indirection is one level only.
  Expected<LoopNest> nested = dsl::try_parse_loop_nest(
      "array A[0:9]\narray B[0:9]\narray C[0:9]\n"
      "do i = 0, 9\n  A[B[C[i]]] = 1\nenddo\n");
  ASSERT_FALSE(nested);
  EXPECT_EQ(nested.error().kind, ErrorKind::kParse);

  // An indirect target's extent cannot be inferred.
  Expected<LoopNest> undeclared = dsl::try_parse_loop_nest(
      "array B[0:9]\ndo i = 0, 9\n  A[B[i]] = 1\nenddo\n");
  ASSERT_FALSE(undeclared);
  EXPECT_EQ(undeclared.error().kind, ErrorKind::kParse);

  // Index arrays are read-only: writing one is a validation error.
  Expected<LoopNest> writes_index = dsl::try_parse_loop_nest(
      "array A[0:9]\narray B[0:9]\n"
      "do i = 0, 9\n  B[i] = 0\n  A[B[i]] = 1\nenddo\n");
  ASSERT_FALSE(writes_index);

  // The index array's own shape IS inferred from the pos range.
  Expected<LoopNest> inferred = dsl::try_parse_loop_nest(
      "array A[0:100]\ndo i = 2, 11\n  A[B[i - 1]] = A[B[i - 1]] + 1\nenddo\n");
  ASSERT_TRUE(inferred) << inferred.error().to_string();
  bool found = false;
  for (const loopir::ArrayDecl& a : inferred->arrays())
    if (a.name == "B") {
      found = true;
      ASSERT_EQ(a.dims.size(), 1u);
      EXPECT_EQ(a.dims[0].first, 1);
      EXPECT_EQ(a.dims[0].second, 10);
    }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vdep
