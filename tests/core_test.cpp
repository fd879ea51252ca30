// End-to-end tests of the staged compilation pipeline (vdep::Compiler /
// CompiledLoop) over the canonical suite.
#include <gtest/gtest.h>

#include "api/vdep.h"
#include "core/suite.h"

namespace vdep::core {
namespace {

TEST(Suite, AllNestsValidateAndEnumerate) {
  for (const NamedNest& c : paper_suite(4)) {
    EXPECT_GT(c.nest.iteration_count(), 0) << c.name;
    EXPECT_FALSE(c.nest.to_string().empty()) << c.name;
  }
}

TEST(Suite, ExpectedPdmShapes) {
  EXPECT_EQ(dep::compute_pdm(example41(6)).matrix(),
            intlin::Mat::from_rows({{2, -2}}));
  EXPECT_EQ(dep::compute_pdm(example42(6)).matrix(),
            intlin::Mat::from_rows({{2, 1}, {0, 2}}));
  EXPECT_EQ(dep::compute_pdm(uniform_wavefront(6)).matrix(),
            intlin::Mat::identity(2));
  EXPECT_EQ(dep::compute_pdm(variable_3deep(4)).matrix(),
            intlin::Mat::from_rows({{2, -2, 0}}));
  EXPECT_TRUE(dep::compute_pdm(parity_independent(4)).empty());
}

TEST(Compiler, Example41StagedArtifacts) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example41(6)).value();

  // Stage 1: analysis.
  EXPECT_EQ(loop.analysis().pdm.matrix(), intlin::Mat::from_rows({{2, -2}}));
  EXPECT_EQ(loop.analysis().rank, 1);
  EXPECT_FALSE(loop.analysis().all_uniform);

  // Stage 2: plan + legality certificate.
  EXPECT_TRUE(loop.plan().legal);
  EXPECT_EQ(loop.plan().doall_loops, 1);
  EXPECT_EQ(loop.plan().partition_classes, 2);

  // Stage 3: codegen, lazy and memoized — same options, same object.
  const std::string& c1 = loop.codegen();
  const std::string& c2 = loop.codegen();
  EXPECT_EQ(&c1, &c2);
  EXPECT_NE(c1.find("omp"), std::string::npos);
  const std::string& orig =
      loop.codegen(CodegenOptions{}.target(CodegenTarget::kOriginal));
  EXPECT_NE(&c1, &orig);

  // Measurement at this handle's bounds.
  exec::RunStats ms = loop.measure();
  EXPECT_GT(ms.work_items, 2);
  EXPECT_EQ(ms.iterations, 13 * 13);

  std::string s = loop.summary();
  EXPECT_NE(s.find("PDM"), std::string::npos);
  EXPECT_NE(s.find("DOALL"), std::string::npos);
  EXPECT_NE(s.find("[variable]"), std::string::npos);
}

TEST(Compiler, Example42FourClasses) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(example42(6)).value();
  EXPECT_EQ(loop.plan().doall_loops, 0);
  EXPECT_EQ(loop.plan().partition_classes, 4);
  EXPECT_EQ(loop.measure().work_items, 4);
}

TEST(Compiler, CheckedExecutionAcrossSuite) {
  Compiler compiler;
  ThreadPool pool(4);
  for (const NamedNest& c : paper_suite(4)) {
    CompiledLoop loop = compiler.compile(c.nest).value();
    // check() errors on any divergence from sequential execution.
    ExecReport r = loop.check(ExecPolicy{}, pool).value();
    EXPECT_TRUE(r.verified) << c.name;
    EXPECT_GT(r.iterations, 0) << c.name;
  }
}

TEST(Compiler, Variable3DeepGetsTwoDoall) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(variable_3deep(3)).value();
  EXPECT_EQ(loop.plan().doall_loops, 2);
  EXPECT_EQ(loop.plan().partition_classes, 2);
}

TEST(Compiler, SequentialChainReportsNoParallelism) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(sequential_chain(9)).value();
  EXPECT_EQ(loop.plan().doall_loops, 0);
  EXPECT_EQ(loop.plan().partition_classes, 1);
  exec::RunStats ms = loop.measure();
  EXPECT_EQ(ms.work_items, 1);
  EXPECT_EQ(ms.max_item, 10);
}

TEST(Compiler, DslAndBuilderFrontEndsShareOnePlan) {
  // The quickstart DSL program is example 4.1; structure is front-end
  // independent, so the builder nest is a cache hit.
  Compiler compiler;
  CompiledLoop from_dsl = compiler
                              .compile(std::string(R"(
array A[-70:70, -70:70]
do i1 = -10, 10
  do i2 = -10, 10
    A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2] = A[i1, i2] + A[i1 + 2, i2 - 2] + 1
  enddo
enddo
)"))
                              .value();
  CompiledLoop from_builder = compiler.compile(example41(60)).value();
  EXPECT_EQ(from_dsl.fingerprint(), from_builder.fingerprint());
  EXPECT_EQ(&from_dsl.analysis(), &from_builder.analysis());  // shared artifact
  EXPECT_EQ(compiler.cache_stats().hits, 1);
  EXPECT_EQ(compiler.cache_stats().misses, 1);
}

}  // namespace
}  // namespace vdep::core
