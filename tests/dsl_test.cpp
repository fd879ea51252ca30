// Tests for the mini-Fortran front end: lexing, parsing, lowering, shape
// inference and error reporting — plus a full front-to-back run through the
// parallelizer.
#include <gtest/gtest.h>

#include "api/vdep.h"
#include "dep/pdm.h"
#include "dsl/parser.h"
#include "exec/interpreter.h"

namespace vdep::dsl {
namespace {

constexpr const char* kExample41 = R"(
# paper example 4.1 (reconstructed)
array A[-70:70, -70:70]
do i1 = -10, 10
  do i2 = -10, 10
    A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2] = A[i1, i2] + A[i1 + 2, i2 - 2] + 1
  enddo
enddo
)";

TEST(Parser, ParsesExample41) {
  loopir::LoopNest nest = parse_loop_nest(kExample41);
  EXPECT_EQ(nest.depth(), 2);
  EXPECT_EQ(nest.index_names(), (std::vector<std::string>{"i1", "i2"}));
  EXPECT_EQ(nest.body().size(), 1u);
  EXPECT_EQ(nest.iteration_count(), 21 * 21);
  // Same PDM as the builder-constructed version.
  EXPECT_EQ(dep::compute_pdm(nest).matrix(),
            intlin::Mat::from_rows({{2, -2}}));
}

TEST(Parser, InfersArrayShapes) {
  loopir::LoopNest nest = parse_loop_nest(R"(
do i = 0, 9
  B[2*i + 1] = B[2*i] + i
enddo
)");
  const loopir::ArrayDecl& b = nest.array("B");
  ASSERT_EQ(b.arity(), 1);
  EXPECT_LE(b.dims[0].first, 0);
  EXPECT_GE(b.dims[0].second, 19);
  // Runs without out-of-range accesses.
  exec::ArrayStore store(nest);
  exec::run_sequential(nest, store);
}

TEST(Parser, AffineBoundsOnInnerLoop) {
  loopir::LoopNest nest = parse_loop_nest(R"(
do i = 0, 6
  do j = i, 6
    A[i, j] = A[i - 1, j] + 1
  enddo
enddo
)");
  EXPECT_EQ(nest.iteration_count(), 28);
}

TEST(Parser, MultipleStatements) {
  loopir::LoopNest nest = parse_loop_nest(R"(
do i = -5, 5
  do j = -5, 5
    A[i - 2*j + 4] = A[i - 2*j] + 1
    B[i, j] = A[i - 2*j + 8]
  enddo
enddo
)");
  EXPECT_EQ(nest.body().size(), 2u);
  EXPECT_EQ(dep::compute_pdm(nest).matrix(),
            intlin::Mat::from_rows({{2, 1}, {0, 2}}));
}

TEST(Parser, NegativeNumbersAndParens) {
  loopir::LoopNest nest = parse_loop_nest(R"(
do i = -(3), 3
  A[-i + 3] = A[i + 3] * (2 - 1)
enddo
)");
  EXPECT_EQ(nest.iteration_count(), 7);
}

TEST(Parser, IndexVariableInRhs) {
  loopir::LoopNest nest = parse_loop_nest(R"(
do i = 1, 4
  A[i] = i * i + 1
enddo
)");
  exec::ArrayStore s(nest);
  exec::run_sequential(nest, s);
  EXPECT_EQ(s.read("A", {3}), 10);
}

TEST(ParserErrors, ReportLineAndColumn) {
  try {
    parse_loop_nest("do i = 0, 4\n  A[i] = @\nenddo\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 10);  // the '@' is the 10th character of line 2
    EXPECT_NE(std::string(e.what()).find("line 2, col 10"), std::string::npos);
  }
}

TEST(ParserErrors, ColumnPointsAtOffendingToken) {
  try {
    parse_loop_nest("do i = 0, 4\n  A[k + 1] = 1\nenddo\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 5);  // the unknown index variable 'k'
  }
}

TEST(ParserErrors, TryParseReturnsInspectableError) {
  Expected<loopir::LoopNest> r =
      try_parse_loop_nest("do i = 0, 4\n  A[i] = @\nenddo\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kParse);
  EXPECT_EQ(r.error().line, 2);
  EXPECT_EQ(r.error().column, 10);
}

TEST(ParserErrors, TryParseReturnsValueOnSuccess) {
  Expected<loopir::LoopNest> r = try_parse_loop_nest(kExample41);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->depth(), 2);
  EXPECT_EQ(r.map([](const loopir::LoopNest& n) { return n.depth(); }).value(),
            2);
}

TEST(ParserErrors, RejectsNonAffineSubscript) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n  A[i*i] = 1\nenddo\n"), ParseError);
}

TEST(ParserErrors, RejectsUnknownIndex) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n  A[k] = 1\nenddo\n"), ParseError);
}

TEST(ParserErrors, RejectsMissingEnddo) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n  A[i] = 1\n"), ParseError);
}

TEST(ParserErrors, RejectsTrailingInput) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n  A[i] = 1\nenddo\ngarbage"),
               ParseError);
}

TEST(ParserErrors, RejectsDuplicateIndex) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n do i = 0, 4\n  A[i] = 1\n enddo\nenddo"),
               ParseError);
}

TEST(ParserErrors, RejectsEmptyBody) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\nenddo\n"), ParseError);
}

TEST(ParserErrors, RejectsInconsistentArity) {
  EXPECT_THROW(parse_loop_nest("do i = 0, 4\n  A[i] = A[i, i]\nenddo\n"),
               ParseError);
}

TEST(ParserErrors, RejectsInnerIndexInBound) {
  EXPECT_THROW(parse_loop_nest(R"(
do i = 0, j
  do j = 0, 4
    A[i, j] = 1
  enddo
enddo
)"),
               ParseError);
}

TEST(Integration, DslSourceToVerifiedExecution) {
  Compiler compiler;
  CompiledLoop loop = compiler.compile(std::string(kExample41)).value();
  EXPECT_EQ(loop.plan().doall_loops, 1);
  EXPECT_EQ(loop.plan().partition_classes, 2);
  ThreadPool pool(2);
  ExecReport r = loop.check(ExecPolicy{}, &pool).value();
  EXPECT_TRUE(r.verified);
}

TEST(Integration, CompileRejectsBadSourceAsValue) {
  Compiler compiler;
  Expected<CompiledLoop> r = compiler.compile(std::string("do i = 0, 4\n"));
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.error().kind, ErrorKind::kParse);
  EXPECT_GT(r.error().line, 0);
}

}  // namespace
}  // namespace vdep::dsl
