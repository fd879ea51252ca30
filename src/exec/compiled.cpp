#include "exec/compiled.h"

#include <algorithm>

#include "exec/kernel.h"
#include "support/error.h"

namespace vdep::exec {

namespace {

/// Rethrows a wrapped postfix add/sub/mul (`op` is '+', '-' or '*') as the
/// interpreter's OverflowError, message included: the checked op is redone
/// on the operands. Out of line so the hot loop keeps one flag test per op.
[[noreturn, gnu::cold, gnu::noinline]] void raise_overflow(char op, i64 a,
                                                           i64 b) {
  if (op == '+') checked::add(a, b);
  if (op == '-') checked::sub(a, b);
  checked::mul(a, b);
  VDEP_CHECK(false, "postfix overflow flag without an overflow");
}

/// The interpreter's error for a gathered subscript outside its dimension.
[[noreturn, gnu::cold, gnu::noinline]] void raise_out_of_range(
    const std::string& array) {
  throw PreconditionError("array " + array + " subscript out of declared range");
}

/// One binary postfix op over `w` lanes: pops the top slot into the one
/// below it, op by op checked like the scalar path. Returns the new top.
template <class Wraps>
i64* lanewise(char op, i64* sp, std::size_t w, Wraps wraps) {
  sp -= w;
  i64* lhs = sp - w;
  for (std::size_t l = 0; l < w; ++l) {
    const i64 a = lhs[l], b = sp[l];
    if (wraps(a, b, &lhs[l])) [[unlikely]]
      raise_overflow(op, a, b);
  }
  return sp;
}

}  // namespace

CompiledKernel::CompiledKernel(const loopir::LoopNest& nest, ArrayStore& store)
    : nest_(nest), store_(&store) {
  // Iteration box for the one-time subscript range proof.
  std::optional<poly::Box> box = poly::iteration_box(nest);
  VDEP_REQUIRE(box.has_value(), "unbounded loop cannot be compiled");
  box_ = std::move(*box);
  for (const loopir::Assign& a : nest.body()) {
    Stmt s;
    s.lhs = compile_access(a.lhs);
    compile_expr(*a.rhs, s, 0);
    stmts_.push_back(std::move(s));
  }
  for (const Stmt& s : stmts_)
    stack_size_ = std::max(stack_size_, static_cast<std::size_t>(s.max_stack));
  scratch_ = make_scratch();
}

CompiledKernel::Access CompiledKernel::compile_access(
    const loopir::ArrayRef& ref) {
  auto ord_of = [&](const std::string& name) {
    for (std::size_t a = 0; a < nest_.arrays().size(); ++a)
      if (nest_.arrays()[a].name == name) return static_cast<int>(a);
    return 0;
  };
  // One-time range proof over the (rectangular hull of the) space.
  auto prove = [&](const loopir::AffineExpr& e, i64 lo, i64 hi,
                   const std::string& what) {
    VDEP_REQUIRE(form_within(e, box_, lo, hi),
                 what + " can leave the declared range; cannot compile");
  };
  const loopir::ArrayDecl& decl = nest_.array(ref.array);
  Access acc;
  acc.base = store_->raw_mutable(ref.array).data();
  acc.array_ord = ord_of(ref.array);
  acc.coeffs.assign(static_cast<std::size_t>(nest_.depth()), 0);
  acc.c0 = 0;
  i64 stride = 1;
  // Row-major: process dimensions right-to-left accumulating strides.
  for (int d = decl.arity() - 1; d >= 0; --d) {
    auto [lo, hi] = decl.dims[static_cast<std::size_t>(d)];
    const std::size_t slot = static_cast<std::size_t>(d);
    if (slot < ref.indirect.size() && ref.indirect[slot].has_value()) {
      const loopir::IndirectSubscript& ind = *ref.indirect[slot];
      auto [ilo, ihi] = nest_.array(ind.array).dims.front();
      prove(ind.pos, ilo, ihi, "position in index array " + ind.array);
      Gather g;
      g.idx = store_->raw(ind.array).data();
      g.pos = ind.pos.coeffs();
      g.pos0 = checked::sub(ind.pos.constant_term(), ilo);
      g.lo = lo;
      g.hi = hi;
      g.stride = stride;
      g.index_ord = ord_of(ind.array);
      acc.gathers.push_back(std::move(g));
    } else {
      const loopir::AffineExpr& s = ref.subscripts[slot];
      prove(s, lo, hi, "subscript of " + ref.array);
      for (int k = 0; k < nest_.depth(); ++k)
        acc.coeffs[static_cast<std::size_t>(k)] =
            checked::add(acc.coeffs[static_cast<std::size_t>(k)],
                         checked::mul(stride, s.coeff(k)));
      acc.c0 = checked::add(
          acc.c0, checked::mul(stride, checked::sub(s.constant_term(), lo)));
    }
    stride = checked::mul(stride, hi - lo + 1);
  }
  return acc;
}

void CompiledKernel::compile_expr(const loopir::Expr& e, Stmt& stmt, int depth) {
  using K = loopir::Expr::Kind;
  switch (e.kind()) {
    case K::kConst:
      stmt.program.push_back({Op::kPushConst, e.value(), 0});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    case K::kIndex:
      stmt.program.push_back({Op::kPushIndex, 0, e.index()});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    case K::kRead: {
      int slot = static_cast<int>(reads_.size());
      reads_.push_back(compile_access(e.ref()));
      stmt.program.push_back(
          {reads_.back().gathers.empty() ? Op::kRead : Op::kGather, 0, slot});
      stmt.max_stack = std::max(stmt.max_stack, depth + 1);
      return;
    }
    case K::kAdd:
    case K::kSub:
    case K::kMul:
      compile_expr(*e.lhs(), stmt, depth);
      compile_expr(*e.rhs(), stmt, depth + 1);
      stmt.program.push_back(
          {e.kind() == K::kAdd   ? Op::kAdd
           : e.kind() == K::kSub ? Op::kSub
                                 : Op::kMul,
           0, 0});
      return;
  }
  VDEP_CHECK(false, "unreachable expr kind");
}

void CompiledKernel::execute_iteration(const Vec& iter) {
  execute_iteration(iter, scratch_);
}

inline i64 CompiledKernel::affine_offset(const Access& a, const i64* it) {
  i64 off = a.c0;
  for (std::size_t k = 0; k < a.coeffs.size(); ++k) off += a.coeffs[k] * it[k];
  return off;
}

i64 CompiledKernel::gathered(const Access& a, const i64* it, i64 off) const {
  for (const Gather& g : a.gathers) {
    i64 p = g.pos0;
    for (std::size_t k = 0; k < g.pos.size(); ++k) p += g.pos[k] * it[k];
    const i64 v = g.idx[p];
    if (v < g.lo || v > g.hi) [[unlikely]]
      raise_out_of_range(
          nest_.arrays()[static_cast<std::size_t>(a.array_ord)].name);
    off += g.stride * (v - g.lo);
  }
  return off;
}

void CompiledKernel::offsets(const Access& a, std::span<const i64* const> iters,
                             i64* off, i64* pos) const {
  const std::size_t w = iters.size();
  std::fill(off, off + w, a.c0);
  for (std::size_t k = 0; k < a.coeffs.size(); ++k)
    if (const i64 c = a.coeffs[k]; c != 0)
      for (std::size_t l = 0; l < w; ++l) off[l] += c * iters[l][k];
  for (const Gather& g : a.gathers) {
    std::fill(pos, pos + w, g.pos0);
    for (std::size_t k = 0; k < g.pos.size(); ++k)
      if (const i64 c = g.pos[k]; c != 0)
        for (std::size_t l = 0; l < w; ++l) pos[l] += c * iters[l][k];
    for (std::size_t l = 0; l < w; ++l) {
      const i64 v = g.idx[pos[l]];
      if (v < g.lo || v > g.hi) [[unlikely]]
        raise_out_of_range(
            nest_.arrays()[static_cast<std::size_t>(a.array_ord)].name);
      off[l] += g.stride * (v - g.lo);
    }
  }
}

void CompiledKernel::execute_iteration(const i64* it, Scratch& scratch) const {
  for (const Stmt& s : stmts_) {
    i64* sp = scratch.stack.data();
    for (const Instr& ins : s.program) {
      switch (ins.op) {
        case Op::kPushConst:
          *sp++ = ins.value;
          break;
        case Op::kPushIndex:
          *sp++ = it[ins.index];
          break;
        case Op::kRead: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          *sp++ = a.base[affine_offset(a, it)];
          break;
        }
        case Op::kGather: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          *sp++ = a.base[gathered(a, it, affine_offset(a, it))];
          break;
        }
        case Op::kAdd: {
          const i64 a = sp[-2], b = sp[-1];
          if (__builtin_add_overflow(a, b, &sp[-2])) [[unlikely]]
            raise_overflow('+', a, b);
          --sp;
          break;
        }
        case Op::kSub: {
          const i64 a = sp[-2], b = sp[-1];
          if (__builtin_sub_overflow(a, b, &sp[-2])) [[unlikely]]
            raise_overflow('-', a, b);
          --sp;
          break;
        }
        case Op::kMul: {
          const i64 a = sp[-2], b = sp[-1];
          if (__builtin_mul_overflow(a, b, &sp[-2])) [[unlikely]]
            raise_overflow('*', a, b);
          --sp;
          break;
        }
      }
    }
    i64 off = affine_offset(s.lhs, it);
    if (!s.lhs.gathers.empty()) off = gathered(s.lhs, it, off);
    s.lhs.base[off] = sp[-1];
  }
}

void CompiledKernel::execute_batch(std::span<const i64* const> iters,
                                   Scratch& scratch) const {
  const std::size_t w = iters.size();
  i64* const off = scratch.lanes.data();
  i64* const pos = off + scratch.lanes.size() / 2;
  for (const Stmt& s : stmts_) {
    // Stack slot k holds lane l's value at [k * w + l].
    i64* sp = scratch.stack.data();
    for (const Instr& ins : s.program) {
      switch (ins.op) {
        case Op::kPushConst:
          std::fill(sp, sp + w, ins.value);
          sp += w;
          break;
        case Op::kPushIndex:
          for (std::size_t l = 0; l < w; ++l) sp[l] = iters[l][ins.index];
          sp += w;
          break;
        case Op::kRead:
        case Op::kGather: {
          const Access& a = reads_[static_cast<std::size_t>(ins.index)];
          offsets(a, iters, off, pos);
          for (std::size_t l = 0; l < w; ++l) sp[l] = a.base[off[l]];
          sp += w;
          break;
        }
        case Op::kAdd:
          sp = lanewise('+', sp, w, [](i64 a, i64 b, i64* r) {
            return __builtin_add_overflow(a, b, r);
          });
          break;
        case Op::kSub:
          sp = lanewise('-', sp, w, [](i64 a, i64 b, i64* r) {
            return __builtin_sub_overflow(a, b, r);
          });
          break;
        case Op::kMul:
          sp = lanewise('*', sp, w, [](i64 a, i64 b, i64* r) {
            return __builtin_mul_overflow(a, b, r);
          });
          break;
      }
    }
    sp -= w;
    offsets(s.lhs, iters, off, pos);
    for (std::size_t l = 0; l < w; ++l) s.lhs.base[off[l]] = sp[l];
  }
}

void CompiledKernel::run_sequential() {
  nest_.for_each_iteration([&](const Vec& iter) { execute_iteration(iter); });
}

CompiledKernel CompiledKernel::rebind(ArrayStore& other) const {
  CompiledKernel copy(*this);
  auto buffer = [&](int ord) -> ArrayStore::Buffer& {
    const loopir::ArrayDecl& decl =
        nest_.arrays()[static_cast<std::size_t>(ord)];
    ArrayStore::Buffer& buf = other.raw_mutable(decl.name);
    // The range proof ran against the construction store's sizes; it
    // transfers only to identically sized buffers.
    VDEP_REQUIRE(buf.size() == store_->raw(decl.name).size(),
                 "CompiledKernel::rebind: store shape differs for array " +
                     decl.name);
    return buf;
  };
  auto rebase = [&](Access& a) {
    a.base = buffer(a.array_ord).data();
    for (Gather& g : a.gathers) g.idx = buffer(g.index_ord).data();
  };
  for (Stmt& s : copy.stmts_) rebase(s.lhs);
  for (Access& a : copy.reads_) rebase(a);
  copy.store_ = &other;
  return copy;
}

}  // namespace vdep::exec
