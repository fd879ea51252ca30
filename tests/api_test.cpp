// Tests for the staged compilation API: structural fingerprints, the
// sharded LRU plan cache (including a multi-threaded hammer — this binary
// runs under TSan in CI), Expected error propagation, and the
// bounds-parametric acceptance property: a plan compiled at n=10 executes
// bit-identically at n=100 and n=1000 without re-analysis.
#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <thread>
#include <vector>

#include "api/vdep.h"
#include "core/suite.h"
#include "dsl/parser.h"
#include "exec/interpreter.h"
#include "loopir/builder.h"

// Detect ThreadSanitizer so the heavyweight sizes scale down (the hammer
// still runs at full thread count).
#if defined(__SANITIZE_THREAD__)
#define VDEP_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define VDEP_TSAN 1
#endif
#endif

namespace vdep {
namespace {

using core::example41;
using core::example42;
using loopir::Expr;
using loopir::LoopNest;
using loopir::LoopNestBuilder;

// A[i+k] = A[i] + c over i in [0, n]: structure varies with k, bounds with n.
LoopNest shifted_chain(i64 k, i64 n) {
  LoopNestBuilder b;
  b.loop("i", 0, n);
  b.array("A", {{-16, n + 16}});
  b.assign(b.ref("A", {b.affine({1}, k)}),
           Expr::add(b.read("A", {b.idx(0)}), Expr::constant(1)));
  return b.build();
}

// ------------------------------------------------------------ fingerprint

TEST(Fingerprint, SameStructureDifferentBoundsCollide) {
  EXPECT_EQ(structural_fingerprint(example41(4)),
            structural_fingerprint(example41(77)));
  EXPECT_EQ(structural_fingerprint(core::triangular_uniform(4)),
            structural_fingerprint(core::triangular_uniform(9)));
  EXPECT_EQ(structural_fingerprint(shifted_chain(2, 5)),
            structural_fingerprint(shifted_chain(2, 5000)));
}

TEST(Fingerprint, DifferentSubscriptsMiss) {
  EXPECT_NE(structural_fingerprint(example41(6)),
            structural_fingerprint(example42(6)));
  // Differ only in uniform distance: (1,0)/(0,1) vs (2,0)/(0,2).
  EXPECT_NE(structural_fingerprint(core::uniform_wavefront(6)),
            structural_fingerprint(core::uniform_blocked(6)));
  // Differ only in one subscript constant.
  EXPECT_NE(structural_fingerprint(shifted_chain(1, 9)),
            structural_fingerprint(shifted_chain(2, 9)));
}

TEST(Fingerprint, ArrayNamesCanonicalized) {
  // Renaming every array consistently preserves the dependence structure,
  // so it preserves the fingerprint.
  LoopNestBuilder b1;
  b1.loop("i", 0, 9);
  b1.array("A", {{0, 32}});
  b1.array("B", {{0, 32}});
  b1.assign(b1.ref("A", {b1.affine({1}, 1)}), b1.read("B", {b1.idx(0)}));

  LoopNestBuilder b2;
  b2.loop("i", 0, 9);
  b2.array("X", {{0, 32}});
  b2.array("Y", {{0, 32}});
  b2.assign(b2.ref("X", {b2.affine({1}, 1)}), b2.read("Y", {b2.idx(0)}));
  EXPECT_EQ(structural_fingerprint(b1.build()),
            structural_fingerprint(b2.build()));
}

TEST(Fingerprint, ArrayIdentityStillMatters) {
  // A[i+1] = A[i] has a dependence; A[i+1] = B[i] does not — the
  // canonicalization must keep same-array equality, not erase identity.
  LoopNestBuilder b1;
  b1.loop("i", 0, 9);
  b1.array("A", {{0, 32}});
  b1.assign(b1.ref("A", {b1.affine({1}, 1)}), b1.read("A", {b1.idx(0)}));

  LoopNestBuilder b2;
  b2.loop("i", 0, 9);
  b2.array("A", {{0, 32}});
  b2.array("B", {{0, 32}});
  b2.assign(b2.ref("A", {b2.affine({1}, 1)}), b2.read("B", {b2.idx(0)}));
  EXPECT_NE(structural_fingerprint(b1.build()),
            structural_fingerprint(b2.build()));
}

// -------------------------------------------------------------- LRU cache

std::shared_ptr<const PlanArtifact> dummy_artifact(std::uint64_t hash,
                                                   std::string key) {
  return std::make_shared<PlanArtifact>(Fingerprint{hash, std::move(key)},
                                        LoopAnalysis{}, LoopPlan{});
}

TEST(PlanCache, LruEvictionAtCapacity) {
  PlanCache cache(3, /*shards=*/1);  // one shard: deterministic global LRU
  cache.insert(dummy_artifact(1, "a"));
  cache.insert(dummy_artifact(2, "b"));
  cache.insert(dummy_artifact(3, "c"));
  // Touch "a": "b" becomes the eviction victim.
  EXPECT_NE(cache.find(Fingerprint{1, "a"}), nullptr);
  cache.insert(dummy_artifact(4, "d"));

  EXPECT_EQ(cache.find(Fingerprint{2, "b"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{1, "a"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{3, "c"}), nullptr);
  EXPECT_NE(cache.find(Fingerprint{4, "d"}), nullptr);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 3u);
}

TEST(PlanCache, HashCollisionDoesNotConfuseKeys) {
  PlanCache cache(4, 1);
  cache.insert(dummy_artifact(7, "first"));
  cache.insert(dummy_artifact(7, "second"));  // same hash, different key
  auto a = cache.find(Fingerprint{7, "first"});
  auto b = cache.find(Fingerprint{7, "second"});
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->fingerprint().key, "first");
  EXPECT_EQ(b->fingerprint().key, "second");
}

TEST(PlanCache, InsertOfDuplicateKeepsResidentArtifact) {
  PlanCache cache(4, 1);
  auto first = cache.insert(dummy_artifact(9, "x"));
  auto second = cache.insert(dummy_artifact(9, "x"));
  EXPECT_EQ(first.get(), second.get());  // racing loser adopts the winner
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(Compiler, EvictedStructureRecompiles) {
  Compiler compiler(CompileOptions{}.cache_capacity(2).cache_shards(1));
  compiler.compile(shifted_chain(1, 9)).value();
  compiler.compile(shifted_chain(2, 9)).value();
  compiler.compile(shifted_chain(3, 9)).value();  // evicts shifted_chain(1)
  EXPECT_GE(compiler.cache_stats().evictions, 1);
  compiler.compile(shifted_chain(1, 9)).value();  // miss again, recompiled
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.hits, 0);
  EXPECT_EQ(s.misses, 4);
  EXPECT_LE(s.entries, 2u);
}

// ------------------------------------------------------------- staged API

TEST(Compiler, CacheHitSharesArtifactAndCodegenMemo) {
  Compiler compiler;
  CompiledLoop a = compiler.compile(example41(6)).value();
  CompiledLoop b = compiler.compile(example41(6)).value();
  EXPECT_EQ(&a.analysis(), &b.analysis());
  EXPECT_EQ(&a.plan(), &b.plan());
  // Same artifact + same bounds + same options => same emitted string.
  EXPECT_EQ(&a.codegen(), &b.codegen());
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
}

TEST(Compiler, RebindRejectsDifferentStructure) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(6)).value();
  Expected<CompiledLoop> bad = loop.at(example42(6));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error().kind, ErrorKind::kPrecondition);
}

// Acceptance: a CompiledLoop compiled at n=10 executes bit-identically
// (vs the sequential reference) at n=100 and n=1000 via the streaming
// runtime without re-analysis.
TEST(Compiler, PlanCompiledAtTenServesLargeBounds) {
  Compiler compiler;
  CompiledLoop small = compiler.compile(example41(10)).value();
#ifdef VDEP_TSAN
  const std::vector<i64> sizes = {100, 300};  // TSan: same property, ~10x cheaper
#else
  const std::vector<i64> sizes = {100, 1000};
#endif
  for (i64 n : sizes) {
    CompiledLoop big = small.at(example41(n)).value();
    EXPECT_EQ(&big.analysis(), &small.analysis());  // no re-analysis
    ExecReport r =
        big.check(ExecPolicy{}.threads(4)).value();
    EXPECT_TRUE(r.verified) << "n=" << n;
    EXPECT_EQ(r.iterations, (2 * n + 1) * (2 * n + 1)) << "n=" << n;
  }
  // at() rebinds without touching the cache: still exactly one cold compile.
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);
}

// The digest check() reports is the one docs/ARCHITECTURE.md quotes for
// Example 4.1 at N = 10. Its store is far below the slicing floor, so this
// pins the serial digest definition; topo_test compares sliced first-touch
// stores against an in-test reference of the same definition.
TEST(Compiler, ExampleFourOneCheckChecksumIsPinned) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(10)).value();
  ExecReport r = loop.check(ExecPolicy{}.threads(4)).value();
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.checksum, 6285247561584162315);
}

// 2^60 elements is above std::vector<i64>::max_size(), so the allocation
// fails deterministically (no dependence on overcommit). It must surface
// as a typed precondition error, not a raw std:: exception escaping the
// Expected API.
TEST(Compiler, UnallocatableStoreIsAPreconditionError) {
  LoopNest nest = dsl::try_parse_loop_nest(
                      "array A[0:1152921504606846975]\n"
                      "do i = 0, 3\n"
                      "  A[i] = A[i] + 1\n"
                      "enddo\n")
                      .value();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  Expected<ExecReport> r = loop.check();
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_NE(r.error().message.find("array A"), std::string::npos);
  EXPECT_NE(r.error().message.find("9223372036854775808 bytes"),
            std::string::npos);

  // execute_batch allocates its own store for a request without one.
  Expected<std::vector<ExecReport>> b =
      loop.execute_batch(std::vector<LoopNest>{nest});
  ASSERT_FALSE(b.has_value());
  EXPECT_EQ(b.error().kind, ErrorKind::kPrecondition);
}

TEST(Compiler, UnmappableStoreIsAPreconditionError) {
  // 2^44 elements (128 TiB): under max_size(), so resize() reaches the
  // store's mapping allocator, but beyond a 47-bit address space, so mmap
  // fails under any overcommit mode.
  LoopNest nest = dsl::try_parse_loop_nest(
                      "array A[0:17592186044415]\n"
                      "do i = 0, 3\n"
                      "  A[i] = A[i] + 1\n"
                      "enddo\n")
                      .value();
  Compiler compiler;
  CompiledLoop loop = compiler.compile(nest).value();
  Expected<ExecReport> r = loop.check();
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_NE(r.error().message.find("array A"), std::string::npos);
  EXPECT_NE(r.error().message.find("140737488355328 bytes"), std::string::npos)
      << r.error().message;
}

TEST(Expected, ValueOrAndMonadicComposition) {
  Expected<int> ok = 3;
  Expected<int> err = ApiError{ErrorKind::kUnsupported, "nope"};
  EXPECT_EQ(ok.value_or(9), 3);
  EXPECT_EQ(err.value_or(9), 9);
  EXPECT_EQ(ok.map([](int v) { return v * 2; }).value(), 6);
  EXPECT_EQ(err.map([](int v) { return v * 2; }).error().kind,
            ErrorKind::kUnsupported);
  EXPECT_THROW(err.value(), UnsupportedError);  // raise() restores the type
}

// ------------------------------------------------------------ hammer test
//
// N threads x M compiles through one shared Compiler whose capacity is far
// below the working set, so lookups, inserts, evictions and racing
// same-structure compiles all interleave; a subset of iterations also
// executes + verifies the compiled plan. Runs under TSan in CI.
TEST(PlanCacheHammer, ConcurrentCompileExecuteEvict) {
  constexpr int kThreads = 8;
#ifdef VDEP_TSAN
  constexpr int kItersPerThread = 12;
#else
  constexpr int kItersPerThread = 48;
#endif

  // 30 nests over 10 distinct structures (3 sizes each).
  std::vector<loopir::LoopNest> nests;
  for (i64 n : {i64{3}, i64{4}, i64{5}})
    for (core::NamedNest& c : core::paper_suite(n))
      nests.push_back(std::move(c.nest));

  Compiler compiler(CompileOptions{}.cache_capacity(4).cache_shards(2));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const loopir::LoopNest& nest =
            nests[static_cast<std::size_t>(t * 7 + i) % nests.size()];
        Expected<CompiledLoop> loop = compiler.compile(nest);
        if (!loop) {
          ++failures;
          continue;
        }
        if (!loop->plan().legal) ++failures;
        if (loop->analysis().pdm.depth() != nest.depth()) ++failures;
        if (i % 8 == t % 8) {
          Expected<ExecReport> r =
              loop->check(ExecPolicy{}.threads(2).grain(1));
          if (!r || !r->verified) ++failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  CacheStats s = compiler.cache_stats();
  // Every compile is exactly one find(): hit or miss, nothing lost.
  EXPECT_EQ(s.hits + s.misses, kThreads * kItersPerThread);
  EXPECT_LE(s.entries, compiler.options().cache_capacity());
  EXPECT_GT(s.evictions, 0);
}

// ------------------------------------------------------------ compile_all

TEST(CompileAll, SameStructureAnalyzedOnce) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  for (i64 n : {i64{4}, i64{9}, i64{16}, i64{25}, i64{36}, i64{49}, i64{64},
                i64{81}})
    nests.push_back(example41(n));
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();
  ASSERT_EQ(loops.size(), nests.size());
  // One shared artifact: every handle's stage pointers are identical.
  for (const CompiledLoop& l : loops)
    EXPECT_EQ(&l.analysis(), &loops[0].analysis());
  // Batch-local dedup means one cache probe total: 1 miss, 0 hits (a
  // naive compile() loop would have produced 1 miss + 7 hits).
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 0);
}

TEST(CompileAll, MixedStructuresOneAnalysisEach) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  // 3 structures x 3 sizes, interleaved.
  for (i64 n : {i64{4}, i64{6}, i64{8}}) {
    nests.push_back(example41(n));
    nests.push_back(example42(n));
    nests.push_back(core::zero_column(n));
  }
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();
  ASSERT_EQ(loops.size(), 9u);
  CacheStats s = compiler.cache_stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 0);
  // Same-structure entries share artifacts across the interleaving.
  EXPECT_EQ(&loops[0].analysis(), &loops[3].analysis());
  EXPECT_EQ(&loops[1].analysis(), &loops[4].analysis());
  EXPECT_EQ(&loops[2].analysis(), &loops[8].analysis());
  EXPECT_NE(&loops[0].analysis(), &loops[1].analysis());
}

// An invalid nest: the validating LoopNest constructor rejects anything
// structurally broken at construction, so the only invalid value that can
// reach compile() is the default-constructed empty nest (depth 0).
loopir::LoopNest broken_nest() { return loopir::LoopNest{}; }

TEST(CompileAll, FailingNestSurfacesIndexRestStillCompiles) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests;
  nests.push_back(example41(6));
  nests.push_back(broken_nest());
  nests.push_back(example42(6));

  Expected<std::vector<CompiledLoop>> r = compiler.compile_all(nests);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_EQ(r.error().index, 1);
  EXPECT_NE(r.error().message.find("nest 1"), std::string::npos);

  // The healthy entries still landed in the cache: retrying without the
  // bad nest is pure hits.
  CacheStats before = compiler.cache_stats();
  EXPECT_EQ(before.misses, 2);
  std::vector<loopir::LoopNest> good = {example41(6), example42(6)};
  ASSERT_TRUE(compiler.compile_all(good).has_value());
  CacheStats after = compiler.cache_stats();
  EXPECT_EQ(after.misses, 2);
  EXPECT_EQ(after.hits, before.hits + 2);
}

// ---------------------------------------------------------- execute_batch

TEST(ExecuteBatch, MatchesIndividualExecution) {
  // More requests than workers, and fewer (pre-split by the driver; the
  // split itself is checked in runtime_test's Driver cases).
  struct Case {
    loopir::LoopNest (*nest)(i64);
    std::vector<i64> sizes;
    int threads;
  };
  const Case cases[] = {{example41, {5, 7, 9, 11, 5, 13}, 2},
                        {example42, {24, 17}, 4}};
  for (const Case& c : cases) {
    Compiler compiler;
    CompiledLoop loop = compiler.compile(c.nest(c.sizes[0])).value();
    std::vector<loopir::LoopNest> bounds;
    for (i64 n : c.sizes) bounds.push_back(c.nest(n));

    ExecPolicy policy = ExecPolicy{}.threads(c.threads);
    std::vector<ExecReport> reports =
        loop.execute_batch(bounds, policy).value();
    ASSERT_EQ(reports.size(), bounds.size());

    for (std::size_t k = 0; k < bounds.size(); ++k) {
      CompiledLoop h = loop.at(bounds[k]).value();
      exec::ArrayStore store(h.nest());
      store.fill_pattern();
      ExecReport single = h.execute(policy, store).value();
      EXPECT_EQ(reports[k].checksum, single.checksum)
          << c.threads << " threads, request " << k;
      EXPECT_EQ(reports[k].iterations, single.iterations)
          << c.threads << " threads, request " << k;
    }
  }
}

TEST(ExecuteBatch, LeafFailureSurfacesTheRequestIndex) {
  // The middle request overflows int64 in the exact interpreter; the batch
  // aborts and the typed error names that request.
  Compiler compiler;
  CompiledLoop loop = compiler.compile(core::uniform_wavefront(4)).value();
  std::vector<loopir::LoopNest> bounds = {core::uniform_wavefront(4),
                                          core::uniform_wavefront(60),
                                          core::uniform_wavefront(4)};
  Expected<std::vector<ExecReport>> r = loop.execute_batch(
      bounds, ExecPolicy{}.threads(2).backend(ExecBackend::kInterpreter));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);
  EXPECT_EQ(r.error().index, 1);
}

TEST(ExecuteBatch, AllBackendsAgreeThroughTheBatchPath) {
  // The batch path has its own kernel plumbing (shared scan prototype
  // rebound per store, one native kernel per group): cross-check it
  // against the sequential reference per backend, like the differential
  // harness does for single execute().
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example42(7)).value();
  exec::ArrayStore ref(loop.nest());
  ref.fill_pattern();
  exec::ArrayStore init = ref;
  exec::run_sequential(loop.nest(), ref);

  for (ExecBackend b : {ExecBackend::kInterpreter, ExecBackend::kCompiled,
                        ExecBackend::kJit}) {
    std::vector<exec::ArrayStore> stores(4, init);
    std::vector<exec::ArrayStore*> ptrs;
    for (auto& s : stores) ptrs.push_back(&s);
    std::vector<ExecReport> reports =
        loop.execute_batch(ptrs, ExecPolicy{}.threads(3).backend(b)).value();
    ASSERT_EQ(reports.size(), 4u);
    for (std::size_t k = 0; k < stores.size(); ++k)
      EXPECT_TRUE(stores[k] == ref)
          << "backend " << static_cast<int>(b) << " request " << k;
  }
}

TEST(ExecuteBatch, MixedStructureFreeFunction) {
  Compiler compiler;
  std::vector<loopir::LoopNest> nests = {example41(6), example42(6),
                                         core::zero_column(12), example41(9)};
  std::vector<CompiledLoop> loops = compiler.compile_all(nests).value();

  std::vector<BatchRequest> requests;
  for (const CompiledLoop& l : loops) requests.push_back({l, nullptr});
  std::vector<ExecReport> reports =
      execute_batch(requests, ExecPolicy{}.threads(2), compiler.pool())
          .value();
  ASSERT_EQ(reports.size(), loops.size());

  for (std::size_t k = 0; k < loops.size(); ++k) {
    exec::ArrayStore store(loops[k].nest());
    store.fill_pattern();
    ExecReport single =
        loops[k].execute(ExecPolicy{}.threads(2), store).value();
    EXPECT_EQ(reports[k].checksum, single.checksum) << "request " << k;
  }
}

TEST(ExecuteBatch, WrongStructureBoundsSurfaceIndex) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(5)).value();
  std::vector<loopir::LoopNest> bounds = {example41(6), example41(7),
                                          example42(6)};
  Expected<std::vector<ExecReport>> r = loop.execute_batch(bounds);
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kPrecondition);
  EXPECT_EQ(r.error().index, 2);
}

TEST(ExecuteBatch, EmptyBatchIsEmptySuccess) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(5)).value();
  EXPECT_TRUE(
      loop.execute_batch(std::span<const loopir::LoopNest>{}).value().empty());
}

// N threads x M batches through one shared session and its pool: the
// batch driver run, the plan-cache memos and ThreadPool::parallel_for all
// interleave. Runs under TSan in CI.
TEST(ExecuteBatchHammer, ConcurrentBatchesOnSharedSessionPool) {
  constexpr int kThreads = 4;
#ifdef VDEP_TSAN
  constexpr int kBatchesPerThread = 3;
#else
  constexpr int kBatchesPerThread = 8;
#endif
  Compiler compiler(CompileOptions{}.pool_threads(3));
  CompiledLoop loop = compiler.compile(example41(6)).value();

  // Expected per-size checksums, computed once serially.
  std::vector<loopir::LoopNest> bounds;
  for (i64 n : {i64{6}, i64{8}, i64{10}, i64{12}}) bounds.push_back(example41(n));
  std::vector<i64> expected;
  for (const loopir::LoopNest& b : bounds) {
    CompiledLoop h = loop.at(b).value();
    exec::ArrayStore store(h.nest());
    store.fill_pattern();
    expected.push_back(h.execute(ExecPolicy{}.threads(1), store)->checksum);
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kBatchesPerThread; ++i) {
        Expected<std::vector<ExecReport>> r = loop.execute_batch(
            bounds, ExecPolicy{}.threads(3), &compiler.pool());
        if (!r || r->size() != bounds.size()) {
          ++failures;
          continue;
        }
        for (std::size_t k = 0; k < bounds.size(); ++k)
          if ((*r)[k].checksum != expected[k]) ++failures;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

// The structural fingerprint deliberately ignores body constants and
// operators (the analysis is a function of the access sequence only), so
// `A[i+1]=A[i]+1` and `A[i+1]=A[i]+2` share one PlanArtifact — but their
// emitted C, native kernels and batch kernel-sharing groups must NOT be
// shared: the bounds-level memo key (bounds_render) carries the body.
TEST(BoundsRender, SameFingerprintDifferentBodySeparatesMemosAndBatches) {
  loopir::LoopNest plus1 = [] {
    LoopNestBuilder b;
    b.loop("i", 0, 9);
    b.array("A", {{-16, 32}});
    b.assign(b.ref("A", {b.affine({1}, 1)}),
             Expr::add(b.read("A", {b.idx(0)}), Expr::constant(1)));
    return b.build();
  }();
  loopir::LoopNest plus2 = [] {
    LoopNestBuilder b;
    b.loop("i", 0, 9);
    b.array("A", {{-16, 32}});
    b.assign(b.ref("A", {b.affine({1}, 1)}),
             Expr::add(b.read("A", {b.idx(0)}), Expr::constant(2)));
    return b.build();
  }();
  ASSERT_EQ(structural_fingerprint(plus1), structural_fingerprint(plus2));
  EXPECT_NE(bounds_render(plus1), bounds_render(plus2));

  Compiler compiler;
  CompiledLoop l1 = compiler.compile(plus1).value();
  CompiledLoop l2 = compiler.compile(plus2).value();
  EXPECT_EQ(&l1.analysis(), &l2.analysis());  // one artifact by design
  // Distinct emitted C despite the shared artifact and identical bounds.
  EXPECT_NE(l1.codegen(), l2.codegen());

  // And distinct batch execution: each request must run ITS body.
  std::vector<BatchRequest> requests;
  exec::ArrayStore s1(plus1), s2(plus2);
  s1.fill_pattern();
  s2.fill_pattern();
  requests.push_back({l1, &s1});
  requests.push_back({l2, &s2});
  ASSERT_TRUE(execute_batch(requests, ExecPolicy{}.threads(2)).has_value());
  exec::ArrayStore r1(plus1), r2(plus2);
  r1.fill_pattern();
  r2.fill_pattern();
  exec::run_sequential(plus1, r1);
  exec::run_sequential(plus2, r2);
  EXPECT_TRUE(s1 == r1);
  EXPECT_TRUE(s2 == r2);
}

// -------------------------------------------------- overflow diagnostics
//
// uniform_wavefront's values are binomial in n (A[i][j] sums two
// neighbors), so exact arithmetic must refuse large sizes instead of
// wrapping. PR 2 reported-and-skipped this in the example sweep; the
// contract is now a first-class typed diagnostic: any API-level execution
// of an overflowing nest returns ErrorKind::kOverflow.
TEST(OverflowDiagnostic, WavefrontOverflowIsTypedNotSilent) {
  Compiler compiler;
  CompiledLoop big = compiler.compile(core::uniform_wavefront(60)).value();
  Expected<ExecReport> r = big.check(ExecPolicy{}.threads(2));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);
  EXPECT_NE(r.error().message.find("overflow"), std::string::npos);

  // The same structure at a safe size executes and verifies cleanly (the
  // diagnostic is about the bounds, not the structure).
  CompiledLoop small = big.at(core::uniform_wavefront(20)).value();
  EXPECT_TRUE(small.check(ExecPolicy{}.threads(2))->verified);
}

}  // namespace
}  // namespace vdep
