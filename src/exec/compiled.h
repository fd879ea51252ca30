// Compiled loop bodies: the interpreter resolves array names through a map
// on every access; for benchmarking the *parallel structure* that overhead
// drowns the signal. A CompiledKernel flattens each statement once:
//
//   * every array reference's flat buffer offset is itself an affine
//     function of the iteration vector (row-major flattening of affine
//     subscripts is affine), so a read/write becomes a dot product plus a
//     raw-pointer access;
//   * one level of indirection (A[B[i]]) adds a gather term per indirect
//     slot: the position in the index array is affine, the loaded value
//     is scaled by the slot's row-major stride;
//   * the rhs expression tree becomes a postfix program over a small value
//     stack, with the interpreter's checked int64 semantics: an add, sub or
//     mul that would wrap throws the same OverflowError.
//
// Subscript-in-bounds is established once per (kernel, nest) pair by
// checking every affine offset's extremes — and every index-array
// position's — over the iteration box, so the affine hot path needs no
// per-access checks. A gathered value depends on the index array's
// contents, so it alone is checked on every access against its declared
// range, failing with the interpreter's PreconditionError.
#pragma once

#include <span>

#include "exec/kernel.h"

namespace vdep::exec {

class CompiledKernel {
 public:
  /// Compiles the body of `nest` against `store` (which must own every
  /// array). The store must stay alive and must not be resized while the
  /// kernel is used; values may change freely.
  CompiledKernel(const loopir::LoopNest& nest, ArrayStore& store);

  /// Private mutable state of one executing task (the value stack); the
  /// kernel itself stays const and shareable across threads.
  struct Scratch {
    std::vector<i64> stack;
    std::vector<i64> lanes;  ///< execute_batch(): offsets, then positions
  };
  /// Scratch for batches of up to `lanes` iterations (1: execute_iteration
  /// only).
  Scratch make_scratch(std::size_t lanes = 1) const {
    return Scratch{std::vector<i64>(stack_size_ * lanes, 0),
                   std::vector<i64>(2 * lanes, 0)};
  }

  /// Batch width the inspector's compiled leaves use.
  static constexpr std::size_t kBatch = 64;

  /// Executes all statements at `iter` (no affine bounds checks on the hot
  /// path; ranges were proven at compile time).
  void execute_iteration(const Vec& iter, Scratch& scratch) const {
    execute_iteration(iter.data(), scratch);
  }
  /// Same, on `depth` raw coordinates (the inspector's flattened
  /// iteration table).
  void execute_iteration(const i64* iter, Scratch& scratch) const;

  /// Executes all statements at each of `iters` (pointers to depth
  /// coordinates, no more than `scratch` was made for), one postfix op
  /// over every iteration before the next, so dispatch is paid once per
  /// batch. A statement's writes land after all its reads, so the
  /// iterations must be independent: none writes a cell another touches
  /// (as iterations of distinct inspector classes are).
  void execute_batch(std::span<const i64* const> iters,
                     Scratch& scratch) const;

  /// Convenience single-threaded form with an internal scratch.
  void execute_iteration(const Vec& iter);

  /// Sequential lexicographic execution of the whole nest.
  void run_sequential();

  /// A copy of this kernel with every access re-based onto `other`'s
  /// buffers — the batch serving path: N same-(structure, bounds) requests
  /// compile one kernel and rebind it per request's store, skipping the
  /// per-construction range proof. `other` must own the same arrays at the
  /// same sizes as the construction store (shapes are re-checked, throwing
  /// PreconditionError on mismatch); it must outlive the copy.
  CompiledKernel rebind(ArrayStore& other) const;

  int statement_count() const { return static_cast<int>(stmts_.size()); }

 private:
  /// One indirect slot: adds stride * (idx[dot(pos, iter) + pos0] - lo)
  /// to the flat offset, after checking the loaded value is in [lo, hi].
  struct Gather {
    const i64* idx = nullptr;  // index array buffer
    Vec pos;                   // buffer position = dot(pos, iter) + pos0
    i64 pos0 = 0;
    i64 lo = 0, hi = 0;        // declared range of the indexed dimension
    i64 stride = 0;
    int index_ord = 0;         // index array in nest_.arrays(), for rebind()
  };
  struct Access {
    i64* base = nullptr;   // array buffer
    Vec coeffs;            // flat offset = dot(coeffs, iter) + c0
    i64 c0 = 0;            //   (+ the gather terms)
    int array_ord = 0;     // index into nest_.arrays(), for rebind()
    std::vector<Gather> gathers;
  };
  /// kRead is an affine access, kGather one with gather terms.
  enum class Op : unsigned char {
    kPushConst, kPushIndex, kRead, kGather, kAdd, kSub, kMul
  };
  struct Instr {
    Op op;
    i64 value = 0;   // kPushConst
    int index = 0;   // kPushIndex / kRead / kGather (access table slot)
  };
  struct Stmt {
    Access lhs;
    std::vector<Instr> program;  // postfix
    int max_stack = 0;
  };

  Access compile_access(const loopir::ArrayRef& ref);
  /// Flat offset of `a` at `it`: the affine part, then the gather terms
  /// (gathered() adds them).
  static i64 affine_offset(const Access& a, const i64* it);
  i64 gathered(const Access& a, const i64* it, i64 off) const;
  /// The full offset of every lane into `off`, term by term over all lanes;
  /// `pos` is scratch for the gather positions.
  void offsets(const Access& a, std::span<const i64* const> iters, i64* off,
               i64* pos) const;
  void compile_expr(const loopir::Expr& e, Stmt& stmt, int depth);

  const loopir::LoopNest& nest_;
  ArrayStore* store_ = nullptr;
  poly::Box box_;
  std::vector<Stmt> stmts_;
  std::vector<Access> reads_;
  std::size_t stack_size_ = 16;
  Scratch scratch_;  // for the single-threaded convenience path
};

}  // namespace vdep::exec
