// Descriptor-granularity kernel interface of the streaming runtime.
//
// The scan path (runtime::StreamExecutor + exec::CompiledKernel) regenerates
// iterations in C++ and dispatches each one through a per-iteration body
// callback. A RangeKernel instead owns a *whole* leaf iteration box
//
//     [lo_0, hi_0] x ... x [lo_{ndims-1}, hi_{ndims-1}]
//                                       x  [class_lo, class_hi)
//
// of a runtime::TaskDescriptor: bounds evaluation over every DOALL-prefix
// dimension (each intersected with its box range), the Theorem-2 strided
// class scan and the statement bodies all execute inside one call, which is
// what lets a dlopen-ed native kernel (jit::NativeKernel) run descriptor
// leaves with zero per-iteration dispatch. Legality (Lemma 1 x Theorem 2)
// makes disjoint boxes write disjoint cells, so concurrent calls on one
// shared store are safe.
#pragma once

#include "exec/array_store.h"
#include "poly/constraints.h"

namespace vdep::exec {

/// Borrowed view of one descriptor's geometry: `ndims` inclusive ranges
/// over the transformed DOALL-prefix dimensions (outermost first) plus the
/// half-open class range. DOALL dimensions beyond `ndims` — when a plan has
/// more than the descriptor cap — scan their full bounds. `lo`/`hi` must
/// stay alive for the duration of the call and may be null when ndims == 0.
struct IterBox {
  const i64* lo = nullptr;
  const i64* hi = nullptr;
  i64 ndims = 0;
  i64 class_lo = 0;
  i64 class_hi = 1;
};

class RangeKernel {
 public:
  virtual ~RangeKernel() = default;

  /// Executes every iteration of the descriptor box over `store` and
  /// returns the number of iterations run. Must be safe to call
  /// concurrently for disjoint boxes.
  virtual i64 execute_range(ArrayStore& store, const IterBox& box) const = 0;
};

/// Whether affine form `e` stays inside [lo, hi] everywhere on `box`. Its
/// extremes are computed in the order evaluation sums its terms, so every
/// partial sum of an evaluation inside the box is bounded too: a proven
/// form evaluates without overflow. Extremes that overflow prove nothing.
bool form_within(const loopir::AffineExpr& e, const poly::Box& box, i64 lo,
                 i64 hi);

/// One-time subscript range proof over the rectangular hull of `nest`'s
/// iteration space: every affine subscript's extremes must stay inside the
/// declared array dims, so a kernel needs no per-access bounds checks.
/// Throws UnsupportedError when the proof fails or a loop is unbounded
/// (same rule exec::CompiledKernel applies at construction).
void prove_subscript_ranges(const loopir::LoopNest& nest);

}  // namespace vdep::exec
