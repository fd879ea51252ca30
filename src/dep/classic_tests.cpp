#include "dep/classic_tests.h"

#include "poly/constraints.h"
#include "support/error.h"

namespace vdep::dep {

bool gcd_test(const loopir::ArrayRef& a, const loopir::ArrayRef& b) {
  VDEP_REQUIRE(a.array == b.array && a.arity() == b.arity(),
               "gcd_test on incompatible references");
  Mat f = a.linear_part();
  Mat g = b.linear_part();
  Vec f0 = a.constant_part();
  Vec g0 = b.constant_part();
  for (int dim = 0; dim < f.rows(); ++dim) {
    i64 gcd = 0;
    for (int k = 0; k < f.cols(); ++k) {
      gcd = checked::gcd(gcd, f.at(dim, k));
      gcd = checked::gcd(gcd, g.at(dim, k));
    }
    i64 c = checked::sub(g0[static_cast<std::size_t>(dim)],
                         f0[static_cast<std::size_t>(dim)]);
    if (gcd == 0) {
      if (c != 0) return false;  // 0 = c unsolvable
      continue;
    }
    if (c % gcd != 0) return false;
  }
  return true;
}

bool exact_equation_test(const loopir::ArrayRef& a, const loopir::ArrayRef& b) {
  return solve_pair(a, b).exists;
}

bool banerjee_test(const loopir::LoopNest& nest, const loopir::ArrayRef& a,
                   const loopir::ArrayRef& b) {
  VDEP_REQUIRE(a.array == b.array && a.arity() == b.arity(),
               "banerjee_test on incompatible references");
  int unbounded = 0;
  const std::optional<poly::Box> box = poly::iteration_box(nest, &unbounded);
  VDEP_REQUIRE(box.has_value(), "iteration space unbounded in loop " +
                                    nest.level(unbounded).name);
  Mat f = a.linear_part();
  Mat g = b.linear_part();
  Vec f0 = a.constant_part();
  Vec g0 = b.constant_part();
  // Dependence form per array dimension: sum_k f_k * i_k - sum_k g_k * j_k
  // must equal c = g0 - f0 for some i, j in the box. Independence proof:
  // c outside [min, max] of the form.
  for (int dim = 0; dim < f.rows(); ++dim) {
    i64 lo = 0, hi = 0;
    for (int k = 0; k < f.cols(); ++k) {
      auto [bl, bh] = (*box)[static_cast<std::size_t>(k)];
      i64 fc = f.at(dim, k);
      lo = checked::add(lo, checked::mul(fc, fc >= 0 ? bl : bh));
      hi = checked::add(hi, checked::mul(fc, fc >= 0 ? bh : bl));
      i64 gc = checked::neg(g.at(dim, k));
      lo = checked::add(lo, checked::mul(gc, gc >= 0 ? bl : bh));
      hi = checked::add(hi, checked::mul(gc, gc >= 0 ? bh : bl));
    }
    i64 c = checked::sub(g0[static_cast<std::size_t>(dim)],
                         f0[static_cast<std::size_t>(dim)]);
    if (c < lo || c > hi) return false;
  }
  return true;
}

TestVerdicts run_all_tests(const loopir::LoopNest& nest,
                           const loopir::ArrayRef& a,
                           const loopir::ArrayRef& b) {
  TestVerdicts v;
  v.gcd = gcd_test(a, b);
  v.banerjee = banerjee_test(nest, a, b);
  v.exact = exact_equation_test(a, b);
  return v;
}

}  // namespace vdep::dep
