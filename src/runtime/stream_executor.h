// Streaming execution of a TransformPlan — the one way a plan runs:
// work-stealing over descriptors, iterations regenerated on the fly.
//
// The independent units of a plan are (DOALL-prefix value) x (partition
// class), each run sequentially. The executor never lists their iterations
// (exec::build_schedule does, for structural analysis only, in O(total
// iterations x depth) memory). The root TaskDescriptor covers
// the whole (DOALL-prefix hull) x (partition class) iteration box; workers
// split it recursively along its longest axis (task.h) into leaves held in
// Chase-Lev deques (work_queue.h), and each leaf *scans* its iterations
// directly from the Partitioning class recurrence (trans::Partitioning, the
// paper's loop (3.2)) or the plain transformed bounds, each boxed DOALL
// dimension intersected with the leaf's range. Peak schedule state is
// O(active descriptors): a few dozen small boxes, independent of the
// iteration count.
//
// Loop bodies run through a shared exec::CompiledKernel with one Scratch
// per worker; nests the kernel's one-time range proof rejects fall back to
// the exact interpreter. Both modes produce final stores bit-identical to
// the sequential reference: any disjoint cover of the box by descriptors is
// legal by Lemma 1 x Theorem 2.
#pragma once

#include <functional>

#include "codegen/rewrite.h"
#include "exec/kernel.h"
#include "runtime/driver.h"
#include "runtime/stats.h"
#include "runtime/task.h"
#include "support/thread_pool.h"

namespace vdep::exec {
class CompiledKernel;
}

namespace vdep::runtime {

using intlin::Vec;

struct StreamOptions {
  /// Worker count (0 = hardware concurrency), the tracing/metrics gates
  /// and pinning, handed to the descriptor driver as they are. Pinning
  /// places each worker on its topology-assigned cpu for the run (previous
  /// affinity restored afterwards; VDEP_PIN=0 overrides from outside);
  /// results are bit-identical either way — only placement changes.
  DriveOptions drive;
  /// Descriptor grain in cells; 0 picks ~kTasksPerWorker leaves per worker
  /// (task.h pick_grain).
  i64 grain = 0;
  /// How many DOALL-prefix dimensions descriptors box and split; 0 = all
  /// (capped at TaskDescriptor::kMaxDims). 1 reproduces the legacy
  /// outer-only splitter.
  int split_dims = 0;
  /// Skip the compiled kernel and always interpret (tests / debugging).
  bool force_interpreter = false;
};

class StreamExecutor {
 public:
  /// Leaf runner / factory types shared with the descriptor driver
  /// (runtime/driver.h), which owns the scheduling loop.
  using LeafFn = runtime::LeafFn;
  using LeafFactory = runtime::LeafFactory;

  /// `plan` must come from trans::plan_transform on `original`'s PDM (or
  /// be otherwise legal for it); legality is not re-checked here.
  StreamExecutor(const loopir::LoopNest& original,
                 const trans::TransformPlan& plan, StreamOptions opts = {});

  /// Runs the whole plan over `store` and returns the worker counters.
  /// With `kernel` set (typically a dlopen-ed jit::NativeKernel built from
  /// this executor's plan), descriptor leaves are handed whole to
  /// `kernel->execute_range` instead of being scanned per iteration; work
  /// stealing, splitting and stats are identical. With `pool` null, spawns
  /// num_threads() - 1 helper threads and the caller is worker 0;
  /// otherwise num_threads() worker contexts are distributed over the
  /// pool's threads (plus the caller). A leaf failure is rethrown.
  RuntimeStats run(exec::ArrayStore& store,
                   const exec::RangeKernel* kernel = nullptr,
                   ThreadPool* pool = nullptr) const;

  /// Test/diagnostic mode: streams every *original* iteration in execution
  /// order to `sink(worker, iter)` instead of mutating a store. The sink
  /// must be safe to call concurrently for distinct workers.
  RuntimeStats run_trace(
      const std::function<void(int, const Vec&)>& sink) const;

  /// The per-worker leaf runner run() uses, detached from the driving loop
  /// so a multi-source run (the batch API) can execute this plan's
  /// descriptors next to other plans' through drive_descriptors with
  /// root(), grain() and split_prefs(). With `kernel` null this is the scan path — a CompiledKernel
  /// is built against `store` once (shared by every worker context this
  /// factory produces), falling back to the exact interpreter when the
  /// range proof rejects the nest; non-null, leaves are handed whole to
  /// `kernel`. `scan_prototype`, when set, skips the scan kernel's
  /// construction (and its range proof): the prototype — compiled once per
  /// (structure, bounds) group by the batch API — is rebound onto
  /// `store` instead. `store`, `kernel` and `scan_prototype` must outlive
  /// the returned factory and every LeafFn it produced; so must this
  /// executor.
  LeafFactory make_leaf_factory(
      exec::ArrayStore& store, const exec::RangeKernel* kernel = nullptr,
      const exec::CompiledKernel* scan_prototype = nullptr) const;

  /// The root descriptor: the rectangular hull of every boxed DOALL-prefix
  /// dimension times the full class range.
  TaskDescriptor root() const;
  /// Whether the plan has any DOALL dimension to chunk along.
  bool has_outer() const { return num_doall_ > 0; }
  /// DOALL-prefix dimensions descriptors box and split (<= num_doall).
  int boxed_dims() const { return ndims_; }
  i64 grain() const { return grain_; }
  i64 num_classes() const { return classes_; }
  std::size_t num_threads() const { return threads_; }
  const StreamOptions& options() const { return opts_; }
  /// Locality weights of the boxed axes: splits prefer the axis with the
  /// largest address stride, which keeps each leaf's touched rows
  /// contiguous (task.h SplitPrefs). All-zero when the plan's accesses give
  /// no per-axis stride to steer by: the longest axis splits first.
  const SplitPrefs& split_prefs() const { return split_prefs_; }

 private:
  struct Worker;
  RuntimeStats drive(LeafFactory leaf_factory, ThreadPool* pool) const;
  /// One scan-path worker context: Worker + recursive descriptor scan.
  LeafFn make_scan_leaf(int id, WorkerStats& stats,
                        std::function<void(const Vec&)> body) const;
  void compute_hull();
  void compute_split_prefs();
  void execute_leaf(const TaskDescriptor& task, Worker& w) const;
  void scan_prefix(int level, const TaskDescriptor& task,
                   const std::vector<Vec>& labels, Worker& w) const;
  void scan_tail(int level, Worker& w) const;
  void emit(Worker& w) const;

  loopir::LoopNest original_;
  codegen::TransformedNest tn_;
  std::optional<trans::Partitioning> part_;
  StreamOptions opts_;
  std::size_t threads_ = 1;
  int depth_ = 0;
  int num_doall_ = 0;
  int ndims_ = 0;  ///< boxed DOALL-prefix dimensions (<= kMaxDims)
  i64 classes_ = 1;
  bool identity_ = true;  ///< T == I: transformed coords are original coords
  i64 grain_ = 1;
  SplitPrefs split_prefs_;
  /// Rectangular hull [min, max] of each DOALL-prefix dimension over the
  /// transformed space (interval arithmetic over the bounds, outermost-in).
  std::vector<std::pair<i64, i64>> hull_;
};

}  // namespace vdep::runtime
