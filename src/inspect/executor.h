// The executor half of the inspector–executor pair: runs the classes of a
// DynamicPartition through the shared work-stealing descriptor driver
// (runtime/driver.h).
//
// The root descriptor is a pure class range [0, num_classes) — no boxed
// DOALL dimensions, because the inspector already flattened the space into
// components. Workers split the class range down to the grain and each
// leaf replays its classes' iterations in lexicographic order, which is
// legal because distinct components share no written cell (any ordering of
// classes gives a bit-identical store) and within a component every
// dependence points lexicographically forward.
#pragma once

#include "inspect/inspector.h"
#include "runtime/driver.h"

namespace vdep::inspect {

struct InspectorExecOptions {
  /// Worker count; 0 means hardware concurrency.
  std::size_t num_threads = 0;
  /// Classes per leaf descriptor; 0 picks ~tasks_per_worker leaves per
  /// worker (runtime/task.h pick_grain).
  i64 grain = 0;
  i64 tasks_per_worker = 8;
  /// Skip the compiled-kernel body even for affine nests (tests).
  bool force_interpreter = false;
  /// Observability gates, same semantics as runtime::StreamOptions.
  bool trace = true;
  bool metrics = true;
  /// Pin workers to topology-assigned cpus (runtime::StreamOptions).
  bool pin_workers = true;
};

class InspectorExecutor {
 public:
  /// `partition` must come from inspect() on `nest` at the same bounds and
  /// the same index-array contents, and must outlive the executor.
  InspectorExecutor(const loopir::LoopNest& nest,
                    const DynamicPartition& partition,
                    InspectorExecOptions opts = {});

  /// Runs every class over `store`. Affine nests execute through a shared
  /// exec::CompiledKernel (per-worker scratch); indirect nests — or any
  /// nest the kernel's range proof rejects — through the exact interpreter.
  /// With `pool` set, the workers are its threads plus the caller. A leaf
  /// failure is rethrown.
  runtime::RuntimeStats run(exec::ArrayStore& store,
                            ThreadPool* pool = nullptr) const;

  /// The root descriptor: the full class range, no boxed dims.
  runtime::TaskDescriptor root() const;
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
