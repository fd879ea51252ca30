#include "poly/constraints.h"

#include <algorithm>
#include <sstream>

#include "support/error.h"

namespace vdep::poly {

bool Constraint::satisfied_by(const Vec& x) const {
  return intlin::dot(coeffs, x) <= rhs;
}

Constraint Constraint::normalized() const {
  i64 g = intlin::content(coeffs);
  if (g <= 1) return *this;
  Constraint c;
  c.coeffs.reserve(coeffs.size());
  for (i64 v : coeffs) c.coeffs.push_back(v / g);
  // Integer points satisfying a.x <= b also satisfy (a/g).x <= floor(b/g).
  c.rhs = checked::floor_div(rhs, g);
  return c;
}

std::string Constraint::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t k = 0; k < coeffs.size(); ++k) {
    if (coeffs[k] == 0) continue;
    if (!first) os << " + ";
    os << coeffs[k] << "*x" << k;
    first = false;
  }
  if (first) os << "0";
  os << " <= " << rhs;
  return os.str();
}

void ConstraintSystem::add(Vec coeffs, i64 rhs) {
  VDEP_REQUIRE(static_cast<int>(coeffs.size()) == dim_, "constraint dim mismatch");
  rows_.push_back(Constraint{std::move(coeffs), rhs}.normalized());
}

void ConstraintSystem::add_box(int k, i64 lo, i64 hi) {
  VDEP_REQUIRE(k >= 0 && k < dim_, "box variable out of range");
  Vec up(static_cast<std::size_t>(dim_), 0);
  up[static_cast<std::size_t>(k)] = 1;
  add(up, hi);  // x_k <= hi
  Vec down(static_cast<std::size_t>(dim_), 0);
  down[static_cast<std::size_t>(k)] = -1;
  add(down, checked::neg(lo));  // -x_k <= -lo
}

bool ConstraintSystem::satisfied_by(const Vec& x) const {
  for (const Constraint& c : rows_)
    if (!c.satisfied_by(x)) return false;
  return true;
}

ConstraintSystem ConstraintSystem::transformed(const Mat& t) const {
  VDEP_REQUIRE(t.rows() == dim_ && t.cols() == dim_, "transform shape mismatch");
  Mat tinv = intlin::unimodular_inverse(t);
  ConstraintSystem out(dim_);
  for (const Constraint& c : rows_) {
    // x = y * Tinv, so a.x = a.(y*Tinv) = (Tinv * a^T).y.
    out.add(intlin::mat_vec_mul(tinv, c.coeffs), c.rhs);
  }
  return out;
}

void ConstraintSystem::simplify() {
  std::vector<Constraint> kept;
  for (const Constraint& c : rows_) {
    bool dominated = false;
    for (Constraint& k : kept) {
      if (k.coeffs == c.coeffs) {
        k.rhs = std::min(k.rhs, c.rhs);
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(c);
  }
  rows_ = std::move(kept);
}

std::string ConstraintSystem::to_string() const {
  std::ostringstream os;
  for (const Constraint& c : rows_) os << c.to_string() << "\n";
  return os.str();
}

ConstraintSystem ConstraintSystem::from_nest(const loopir::LoopNest& nest) {
  ConstraintSystem cs(nest.depth());
  for (int k = 0; k < nest.depth(); ++k) {
    const loopir::Level& l = nest.level(k);
    for (const loopir::BoundTerm& t : l.lower.terms()) {
      VDEP_REQUIRE(t.den == 1, "from_nest requires integral bounds");
      // num <= x_k  ==>  num - x_k <= 0.
      Vec coeffs = t.num.coeffs();
      coeffs[static_cast<std::size_t>(k)] =
          checked::sub(coeffs[static_cast<std::size_t>(k)], 1);
      cs.add(std::move(coeffs), checked::neg(t.num.constant_term()));
    }
    for (const loopir::BoundTerm& t : l.upper.terms()) {
      VDEP_REQUIRE(t.den == 1, "from_nest requires integral bounds");
      // x_k <= num  ==>  x_k - num <= 0.
      Vec coeffs = intlin::negate(t.num.coeffs());
      coeffs[static_cast<std::size_t>(k)] =
          checked::add(coeffs[static_cast<std::size_t>(k)], 1);
      cs.add(std::move(coeffs), t.num.constant_term());
    }
  }
  return cs;
}

std::optional<Box> iteration_box(const loopir::LoopNest& nest,
                                 int* unbounded) {
  ConstraintSystem cs = ConstraintSystem::from_nest(nest);
  Box box;
  for (int k = 0; k < nest.depth(); ++k) {
    auto r = cs.variable_range(k);
    if (!r.has_value()) {
      if (unbounded) *unbounded = k;
      return std::nullopt;
    }
    box.push_back(*r);
  }
  return box;
}

}  // namespace vdep::poly
