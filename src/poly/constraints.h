// Systems of linear integer inequalities  coeffs . x <= rhs.
//
// Used to carry loop bounds through unimodular coordinate changes and to
// regenerate bounds for the transformed loops via Fourier-Motzkin
// elimination (the paper cites Banerjee / Schrijver for this step).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "intlin/det.h"
#include "loopir/nest.h"

namespace vdep::poly {

using intlin::i64;
using intlin::Mat;
using intlin::Vec;

/// One inequality: dot(coeffs, x) <= rhs.
struct Constraint {
  Vec coeffs;
  i64 rhs = 0;

  int dim() const { return static_cast<int>(coeffs.size()); }
  bool satisfied_by(const Vec& x) const;
  /// Divide through by the gcd of the coefficients, tightening the rhs with
  /// a floor (valid for integer solution sets).
  Constraint normalized() const;
  bool operator==(const Constraint& o) const = default;
  std::string to_string() const;
};

class ConstraintSystem {
 public:
  explicit ConstraintSystem(int dim) : dim_(dim) {}

  int dim() const { return dim_; }
  const std::vector<Constraint>& constraints() const { return rows_; }
  bool empty() const { return rows_.empty(); }

  /// Adds dot(coeffs, x) <= rhs.
  void add(Vec coeffs, i64 rhs);
  /// Adds lo <= x_k  and  x_k <= hi.
  void add_box(int k, i64 lo, i64 hi);

  bool satisfied_by(const Vec& x) const;

  /// Rewrites the system into new coordinates y = x * T (row convention,
  /// T unimodular): each constraint a.x <= b becomes (Tinv*a).y <= b where
  /// Tinv = T^{-1}.
  ConstraintSystem transformed(const Mat& t) const;

  /// Drops duplicate and obviously dominated rows (same coefficients,
  /// weaker rhs).
  void simplify();

  /// Bounds of the box [min,max] of variable k over the *relaxation*,
  /// or nullopt if unbounded. Uses FM projection internally.
  std::optional<std::pair<i64, i64>> variable_range(int k) const;

  std::string to_string() const;

  /// Builds the iteration-space constraint system of a loop nest
  /// (rectangular or triangular affine bounds; bound divisors must be 1,
  /// which holds for all original-program nests).
  static ConstraintSystem from_nest(const loopir::LoopNest& nest);

 private:
  int dim_;
  std::vector<Constraint> rows_;
};

/// Rectangular hull of an iteration space: one inclusive range per loop,
/// outermost first.
using Box = std::vector<std::pair<i64, i64>>;

/// The rectangular hull of `nest`'s iteration space: variable_range of every
/// loop over from_nest. nullopt when a loop is unbounded; the first such
/// loop's index then goes to `unbounded`, when non-null.
std::optional<Box> iteration_box(const loopir::LoopNest& nest,
                                 int* unbounded = nullptr);

}  // namespace vdep::poly
