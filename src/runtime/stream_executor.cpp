#include "runtime/stream_executor.h"

#include <optional>
#include <thread>

#include "analysis/interval.h"
#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "runtime/driver.h"
#include "support/error.h"

namespace vdep::runtime {

/// Per-thread execution context: the scan cursor, the map-back buffer and
/// the iteration body, bundled so the recursive scans touch one object.
struct StreamExecutor::Worker {
  int id = 0;
  WorkerStats* stats = nullptr;
  Vec j;     ///< transformed iteration being scanned
  Vec orig;  ///< original iteration (map-back target when T != I)
  std::function<void(const Vec&)> body;    ///< runs one original iteration
  std::function<void(const Vec&)> emit_j;  ///< scan callback over j
};

StreamExecutor::StreamExecutor(const loopir::LoopNest& original,
                               const trans::TransformPlan& plan,
                               StreamOptions opts)
    : original_(original),
      tn_(codegen::rewrite_nest(original, plan)),
      part_(plan.partition),
      opts_(opts),
      depth_(original.depth()),
      num_doall_(plan.num_doall),
      identity_(plan.is_identity_transform()) {
  VDEP_REQUIRE(plan.depth == depth_, "plan depth / nest depth mismatch");
  if (part_) {
    VDEP_CHECK(num_doall_ + part_->dim() == depth_,
               "plan shape inconsistent: DOALL prefix + partition block must "
               "cover the nest");
    classes_ = part_->num_classes();
  }
  compute_hull();
  int limit = opts_.split_dims > 0 ? opts_.split_dims : TaskDescriptor::kMaxDims;
  ndims_ = std::min(num_doall_, std::min(limit, TaskDescriptor::kMaxDims));
  if (opts_.locality_splits) compute_split_prefs();
  threads_ = opts_.num_threads != 0
                 ? opts_.num_threads
                 : std::max(1u, std::thread::hardware_concurrency());
  if (opts_.grain > 0) {
    grain_ = opts_.grain;
  } else {
    grain_ = pick_grain(std::max<i64>(root().cells(), 1), threads_,
                        std::max<i64>(opts_.tasks_per_worker, 1));
  }
}

void StreamExecutor::compute_hull() {
  // Rectangular hull of every DOALL-prefix dimension, delegated to the
  // analysis pass (the same lattice the partitioner and kernel verifier
  // reason over). The hull is a superset of the projection — leaves
  // re-intersect with the dynamic bounds, so excess cells are just empty —
  // and exact for the common rectangular case. An inverted level yields
  // all-empty hulls so root() covers nothing.
  const analysis::IntervalEnv env =
      analysis::IntervalEnv::from_nest(tn_.nest, num_doall_);
  hull_.clear();
  hull_.reserve(static_cast<std::size_t>(num_doall_));
  for (const analysis::Interval& h : env.hulls()) hull_.emplace_back(h.lo, h.hi);
}

void StreamExecutor::compute_split_prefs() {
  // Locality weight of boxed axis d: total absolute address movement (in
  // elements, summed over the affine accesses) per unit step along
  // transformed coordinate j_d. One step moves the original iteration by
  // row d of T^{-1} (i = j T^{-1}), each subscript vector by F * that row
  // (subscripts = F i + f0), and the flat address by the row-major strides
  // of the array. Splitting the axis that moves addresses the most keeps
  // each half's footprint contiguous; an axis no access depends on scores
  // zero and ranks last among the DOALL axes.
  try {
  for (const loopir::LoopNest::Access& acc : original_.accesses()) {
    const loopir::ArrayRef& ref = acc.ref;
    if (ref.has_indirection()) continue;
    const loopir::ArrayDecl* decl = nullptr;
    for (const loopir::ArrayDecl& a : original_.arrays())
      if (a.name == ref.array) decl = &a;
    if (!decl) continue;
    // Row-major element strides of the declared shape.
    std::vector<i64> stride(static_cast<std::size_t>(decl->arity()), 1);
    for (int s = decl->arity() - 2; s >= 0; --s)
      stride[static_cast<std::size_t>(s)] = checked::mul(
          stride[static_cast<std::size_t>(s + 1)],
          decl->dims[static_cast<std::size_t>(s + 1)].second -
              decl->dims[static_cast<std::size_t>(s + 1)].first + 1);
    const intlin::Mat f = ref.linear_part();
    for (int d = 0; d < ndims_; ++d) {
      i64 delta = 0;
      for (int s = 0; s < decl->arity(); ++s) {
        i64 dsub = 0;
        for (int c = 0; c < depth_; ++c) {
          const i64 tinv = identity_ ? (c == d ? 1 : 0) : tn_.t_inverse.at(d, c);
          dsub = checked::add(dsub, checked::mul(f.at(s, c), tinv));
        }
        delta = checked::add(delta,
                             checked::mul(stride[static_cast<std::size_t>(s)],
                                          dsub));
      }
      split_prefs_.stride[d] =
          checked::add(split_prefs_.stride[d], checked::abs(delta));
    }
  }
  } catch (const Error&) {
    // Pathological shapes can overflow the stride products; locality is a
    // heuristic, so fall back to the longest-axis policy rather than fail.
    split_prefs_ = SplitPrefs{};
  }
}

TaskDescriptor StreamExecutor::root() const {
  TaskDescriptor rt;
  rt.ndims = ndims_;
  for (int d = 0; d < ndims_; ++d) {
    rt.lo[d] = hull_[static_cast<std::size_t>(d)].first;
    rt.hi[d] = hull_[static_cast<std::size_t>(d)].second;
  }
  rt.class_lo = 0;
  rt.class_hi = classes_;
  return rt;
}

void StreamExecutor::emit(Worker& w) const {
  ++w.stats->iterations;
  if (identity_) {
    w.body(w.j);
    return;
  }
  // orig = j * T^{-1}, into the preallocated buffer (vec_mat_mul would
  // allocate per iteration). Plain arithmetic: the transformed polytope is
  // a bijective image of the original box, whose coordinates fit i64 by
  // construction.
  const intlin::Mat& m = tn_.t_inverse;
  for (int c = 0; c < depth_; ++c) {
    i64 acc = 0;
    for (int r = 0; r < depth_; ++r)
      acc += w.j[static_cast<std::size_t>(r)] * m.at(r, c);
    w.orig[static_cast<std::size_t>(c)] = acc;
  }
  w.body(w.orig);
}

void StreamExecutor::scan_tail(int level, Worker& w) const {
  if (level == depth_) {
    emit(w);
    return;
  }
  const loopir::Level& l = tn_.nest.level(level);
  i64 lo = l.lower.eval_lower(w.j);
  i64 hi = l.upper.eval_upper(w.j);
  for (i64 v = lo; v <= hi; ++v) {
    w.j[static_cast<std::size_t>(level)] = v;
    scan_tail(level + 1, w);
  }
  w.j[static_cast<std::size_t>(level)] = 0;
}

void StreamExecutor::scan_prefix(int level, const TaskDescriptor& task,
                                 const std::vector<Vec>& labels,
                                 Worker& w) const {
  if (level == num_doall_) {
    if (part_) {
      for (const Vec& label : labels)
        part_->for_each_class_iteration_from(tn_.nest, num_doall_, label, w.j,
                                             w.emit_j);
    } else {
      for (i64 c = task.class_lo; c < task.class_hi; ++c)
        scan_tail(num_doall_, w);
    }
    return;
  }
  const loopir::Level& l = tn_.nest.level(level);
  i64 lo = l.lower.eval_lower(w.j);
  i64 hi = l.upper.eval_upper(w.j);
  if (level < task.ndims) {
    // Boxed dimension: the leaf owns only its slice of the hull.
    lo = std::max(lo, task.lo[level]);
    hi = std::min(hi, task.hi[level]);
  }
  for (i64 v = lo; v <= hi; ++v) {
    w.j[static_cast<std::size_t>(level)] = v;
    scan_prefix(level + 1, task, labels, w);
  }
  w.j[static_cast<std::size_t>(level)] = 0;
}

void StreamExecutor::execute_leaf(const TaskDescriptor& task, Worker& w) const {
  // Class labels depend only on the class id, which the descriptor fixes:
  // derive them once per leaf, not once per DOALL-prefix point (the prefix
  // scan below visits O(extent^num_doall) points).
  std::vector<Vec> labels;
  if (part_) {
    labels.reserve(static_cast<std::size_t>(task.class_hi - task.class_lo));
    for (i64 c = task.class_lo; c < task.class_hi; ++c)
      labels.push_back(part_->class_label(c));
  }
  scan_prefix(0, task, labels, w);
}

RuntimeStats StreamExecutor::drive(LeafFactory leaf_factory,
                                   ThreadPool* pool) const {
  // The scheduling loop lives in runtime/driver.cpp (shared with the
  // inspector executor and the batch API); this executor only supplies the
  // root box, the grain, and the plan-scanning leaves.
  const DriveSource src{root(), grain_, split_prefs_, std::move(leaf_factory)};
  DriveOptions d;
  d.threads = threads_;
  d.trace = opts_.trace;
  d.metrics = opts_.metrics;
  d.pin_workers = opts_.pin_workers;
  RuntimeStats rs = drive_descriptors({&src, 1}, d, pool);
  if (rs.error) std::rethrow_exception(rs.error);
  return rs;
}

StreamExecutor::LeafFn StreamExecutor::make_scan_leaf(
    int id, WorkerStats& stats, std::function<void(const Vec&)> body) const {
  // The Worker outlives the factory call (it is captured by the leaf
  // closure), so it lives on the heap, one per worker context.
  auto w = std::make_shared<Worker>();
  w->id = id;
  w->stats = &stats;
  w->j.assign(static_cast<std::size_t>(depth_), 0);
  w->orig.assign(static_cast<std::size_t>(depth_), 0);
  w->body = std::move(body);
  Worker* wp = w.get();
  w->emit_j = [this, wp](const Vec&) { emit(*wp); };
  return [this, w](const TaskDescriptor& task) { execute_leaf(task, *w); };
}

StreamExecutor::LeafFactory StreamExecutor::make_leaf_factory(
    exec::ArrayStore& store, const exec::RangeKernel* kernel,
    const exec::CompiledKernel* scan_prototype) const {
  if (kernel) {
    return [kernel, &store](int, WorkerStats& stats) -> LeafFn {
      return [kernel, &store, &stats](const TaskDescriptor& t) {
        exec::IterBox box;
        box.lo = t.lo;
        box.hi = t.hi;
        box.ndims = t.ndims;
        box.class_lo = t.class_lo;
        box.class_hi = t.class_hi;
        stats.iterations += kernel->execute_range(store, box);
      };
    };
  }
  // Scan path: one shared CompiledKernel against `store` (per-worker
  // Scratch keeps it const), interpreter when the range proof rejects.
  // A prototype skips construction entirely: same program, re-based
  // buffers.
  std::shared_ptr<const exec::CompiledKernel> ck;
  if (!opts_.force_interpreter) {
    try {
      ck = scan_prototype
               ? std::make_shared<exec::CompiledKernel>(
                     scan_prototype->rebind(store))
               : std::make_shared<exec::CompiledKernel>(original_, store);
    } catch (const Error&) {
      // Range proof or box extraction failed: interpret instead.
    }
  }
  if (ck) {
    return [this, ck](int id, WorkerStats& stats) -> LeafFn {
      auto scratch = std::make_shared<exec::CompiledKernel::Scratch>(
          ck->make_scratch());
      return make_scan_leaf(id, stats, [ck, scratch](const Vec& it) {
        ck->execute_iteration(it, *scratch);
      });
    };
  }
  return [this, &store](int id, WorkerStats& stats) -> LeafFn {
    return make_scan_leaf(id, stats, [this, &store](const Vec& it) {
      exec::execute_iteration(original_, it, store);
    });
  };
}

RuntimeStats StreamExecutor::run(exec::ArrayStore& store,
                                 const exec::RangeKernel* kernel,
                                 ThreadPool* pool) const {
  return drive(make_leaf_factory(store, kernel), pool);
}

RuntimeStats StreamExecutor::run_trace(
    const std::function<void(int, const Vec&)>& sink) const {
  return drive(
      [this, &sink](int id, WorkerStats& stats) -> LeafFn {
        return make_scan_leaf(id, stats, [&sink, id](const Vec& it) {
          sink(id, it);
        });
      },
      nullptr);
}

}  // namespace vdep::runtime
