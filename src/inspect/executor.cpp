#include "inspect/executor.h"

#include <memory>
#include <thread>

#include "exec/compiled.h"
#include "exec/interpreter.h"
#include "support/error.h"

namespace vdep::inspect {

InspectorExecutor::InspectorExecutor(const loopir::LoopNest& nest,
                                     const DynamicPartition& partition,
                                     InspectorExecOptions opts)
    : nest_(nest), part_(&partition), opts_(opts) {
  VDEP_REQUIRE(nest_.depth() == part_->depth(),
               "partition depth / nest depth mismatch");
  threads_ = opts_.num_threads != 0
                 ? opts_.num_threads
                 : std::max(1u, std::thread::hardware_concurrency());
  if (opts_.grain > 0) {
    grain_ = opts_.grain;
  } else {
    grain_ = runtime::pick_grain(std::max<i64>(part_->num_classes(), 1),
                                 threads_,
                                 std::max<i64>(opts_.tasks_per_worker, 1));
  }
}

runtime::TaskDescriptor InspectorExecutor::root() const {
  runtime::TaskDescriptor rt;
  rt.ndims = 0;
  rt.class_lo = 0;
  rt.class_hi = part_->num_classes();
  return rt;
}

runtime::RuntimeStats InspectorExecutor::run(exec::ArrayStore& store,
                                             ThreadPool* pool) const {
  // One body shared by every worker: a CompiledKernel when the nest is
  // affine and provable (per-worker Scratch keeps it const), otherwise the
  // exact interpreter — which is also the only path that can resolve
  // indirect subscripts.
  std::shared_ptr<const exec::CompiledKernel> ck;
  if (!opts_.force_interpreter && !nest_.has_indirection()) {
    try {
      ck = std::make_shared<exec::CompiledKernel>(nest_, store);
    } catch (const Error&) {
      // Range proof or box extraction failed: interpret instead.
    }
  }

  runtime::LeafFactory factory = [&](int, runtime::WorkerStats& stats)
      -> runtime::LeafFn {
    std::function<void(const Vec&)> body;
    if (ck) {
      auto scratch = std::make_shared<exec::CompiledKernel::Scratch>(
          ck->make_scratch());
      body = [ck, scratch](const Vec& it) {
        ck->execute_iteration(it, *scratch);
      };
    } else {
      const loopir::LoopNest* nest = &nest_;
      exec::ArrayStore* st = &store;
      body = [nest, st](const Vec& it) {
        exec::execute_iteration(*nest, it, *st);
      };
    }
    auto iter = std::make_shared<Vec>();
    const DynamicPartition* part = part_;
    runtime::WorkerStats* ws = &stats;
    return [part, ws, iter, body = std::move(body)](
               const runtime::TaskDescriptor& task) {
      for (i64 c = task.class_lo; c < task.class_hi; ++c) {
        ws->iterations += part->class_size(c);
        part->for_each_class_iteration(c, *iter,
                                       [&](const Vec& it) { body(it); });
      }
    };
  };

  const runtime::DriveSource src{root(), grain_, {}, std::move(factory)};
  runtime::DriveOptions d;
  d.threads = threads_;
  d.trace = opts_.trace;
  d.metrics = opts_.metrics;
  d.pin_workers = opts_.pin_workers;
  runtime::RuntimeStats rs = runtime::drive_descriptors({&src, 1}, d, pool);
  if (rs.error) std::rethrow_exception(rs.error);
  return rs;
}

}  // namespace vdep::inspect
