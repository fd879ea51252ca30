#include "exec/kernel.h"

#include "support/checked.h"
#include "support/error.h"

namespace vdep::exec {

bool form_within(const loopir::AffineExpr& e, const poly::Box& box, i64 lo,
                 i64 hi) {
  i64 emin = e.constant_term(), emax = e.constant_term();
  for (int k = 0; k < e.depth(); ++k) {
    const i64 c = e.coeff(k);
    auto [bl, bh] = box[static_cast<std::size_t>(k)];
    i64 tmin = 0, tmax = 0;
    if (__builtin_mul_overflow(c, c >= 0 ? bl : bh, &tmin) ||
        __builtin_mul_overflow(c, c >= 0 ? bh : bl, &tmax) ||
        __builtin_add_overflow(emin, tmin, &emin) ||
        __builtin_add_overflow(emax, tmax, &emax))
      return false;
  }
  return emin >= lo && emax <= hi;
}

void prove_subscript_ranges(const loopir::LoopNest& nest) {
  if (nest.has_indirection())
    throw UnsupportedError(
        "subscript ranges of indirect references (A[B[i]]) cannot be proven "
        "statically; the inspector validates them at runtime");
  std::optional<poly::Box> box = poly::iteration_box(nest);
  if (!box) throw UnsupportedError("unbounded loop cannot be range-proven");
  nest.for_each_access([&](const loopir::ArrayRef& ref, int, bool) {
    const loopir::ArrayDecl& decl = nest.array(ref.array);
    for (int d = 0; d < decl.arity(); ++d) {
      auto [lo, hi] = decl.dims[static_cast<std::size_t>(d)];
      if (!form_within(ref.subscripts[static_cast<std::size_t>(d)], *box, lo,
                       hi))
        throw UnsupportedError("subscript of " + ref.array +
                               " can leave the declared range");
    }
  });
}

}  // namespace vdep::exec
