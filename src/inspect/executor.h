// The executor half of the inspector–executor pair: runs the classes of a
// DynamicPartition through the shared work-stealing descriptor driver
// (runtime/driver.h).
//
// The root descriptor is a pure class range [0, num_classes) — no boxed
// DOALL dimensions, because the inspector already flattened the space into
// components. Workers split the class range down to the grain and each
// leaf replays its classes' iterations, each class in lexicographic order,
// which is legal because distinct components share no written cell (any
// interleaving of classes gives a bit-identical store) and within a
// component every dependence points lexicographically forward. Compiled
// leaves exploit the first half: they run the leaf's classes in rounds —
// round j is the j-th member of every class that has one — and hand each
// round to exec::CompiledKernel::execute_batch, which pays the postfix
// dispatch once per batch of independent iterations. Interpreter leaves
// (ExecBackend::kInterpreter, the oracle) walk class by class.
#pragma once

#include "inspect/inspector.h"
#include "runtime/driver.h"

namespace vdep::inspect {

struct InspectorExecOptions {
  /// Worker count (0 = hardware concurrency), the tracing/metrics gates
  /// and pinning, handed to the descriptor driver as they are.
  runtime::DriveOptions drive;
  /// Run the leaves on the exact interpreter instead of the compiled
  /// kernel (ExecBackend::kInterpreter: the oracle).
  bool force_interpreter = false;
};

class InspectorExecutor {
 public:
  /// `partition` must come from inspect() on `nest` at the same bounds and
  /// the same index-array contents, and must outlive the executor.
  InspectorExecutor(const loopir::LoopNest& nest,
                    const DynamicPartition& partition,
                    InspectorExecOptions opts = {});

  /// Runs every class over `store`. Leaves replay their classes through a
  /// shared exec::CompiledKernel (per-worker scratch; gathers for
  /// indirect subscripts); a nest the kernel's range proof rejects, or
  /// force_interpreter, runs on the exact interpreter instead. With `pool`
  /// set, the workers are its threads plus the caller. A leaf failure
  /// (out-of-range gathered index, int64 overflow) is rethrown.
  runtime::RuntimeStats run(exec::ArrayStore& store,
                            ThreadPool* pool = nullptr) const;

  /// The root descriptor: the full class range, no boxed dims.
  runtime::TaskDescriptor root() const;
  /// Classes per leaf descriptor: ~kTasksPerWorker leaves per worker
  /// (runtime/task.h pick_grain).
  i64 grain() const { return grain_; }
  std::size_t num_threads() const { return threads_; }

 private:
  loopir::LoopNest nest_;
  const DynamicPartition* part_;
  InspectorExecOptions opts_;
  std::size_t threads_ = 1;
  i64 grain_ = 1;
};

}  // namespace vdep::inspect
