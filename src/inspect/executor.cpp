#include "inspect/executor.h"

#include <array>
#include <memory>
#include <span>
#include <vector>

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
  threads_ = opts_.drive.workers();
  grain_ = runtime::pick_grain(std::max<i64>(part_->num_classes(), 1),
                               threads_);
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
  // One kernel shared by every worker (per-worker Scratch keeps it const);
  // the interpreter when forced or when the kernel's range proof fails.
  std::shared_ptr<const exec::CompiledKernel> ck;
  if (!opts_.force_interpreter) {
    try {
      ck = std::make_shared<exec::CompiledKernel>(nest_, store);
    } catch (const Error&) {
      // Range proof or box extraction failed: interpret instead.
    }
  }

  const DynamicPartition* part = part_;
  runtime::LeafFactory factory = [&, part](int, runtime::WorkerStats& stats)
      -> runtime::LeafFn {
    runtime::WorkerStats* ws = &stats;
    if (ck) {
      auto scratch = std::make_shared<exec::CompiledKernel::Scratch>(
          ck->make_scratch(exec::CompiledKernel::kBatch));
      auto cursors = std::make_shared<std::vector<std::span<const i64>>>();
      return [part, ws, ck, scratch, cursors](
                 const runtime::TaskDescriptor& task) {
        // Round j runs the j-th member of every class that has one. The
        // classes are independent, so each round goes through the kernel
        // in batches; a class's members run in order, one per round.
        std::vector<std::span<const i64>>& live = *cursors;
        live.clear();
        for (i64 c = task.class_lo; c < task.class_hi; ++c) {
          live.push_back(part->members(c));
          ws->iterations += static_cast<i64>(live.back().size());
        }
        std::array<const i64*, exec::CompiledKernel::kBatch> lanes;
        while (!live.empty()) {
          std::size_t w = 0, kept = 0;
          for (std::span<const i64> rest : live) {
            lanes[w++] = part->coords(rest.front());
            if (w == lanes.size()) {
              ck->execute_batch({lanes.data(), w}, *scratch);
              w = 0;
            }
            if (rest.size() > 1) live[kept++] = rest.subspan(1);
          }
          if (w > 0) ck->execute_batch({lanes.data(), w}, *scratch);
          live.resize(kept);
        }
      };
    }
    const loopir::LoopNest* nest = &nest_;
    exec::ArrayStore* st = &store;
    auto iter = std::make_shared<Vec>();
    return [part, ws, nest, st, iter](const runtime::TaskDescriptor& task) {
      for (i64 c = task.class_lo; c < task.class_hi; ++c) {
        ws->iterations += part->class_size(c);
        part->for_each_class_iteration(c, *iter, [&](const Vec& it) {
          exec::execute_iteration(*nest, it, *st);
        });
      }
    };
  };

  const runtime::DriveSource src{root(), grain_, {}, std::move(factory)};
  runtime::DriveOptions d = opts_.drive;
  d.threads = threads_;
  runtime::RuntimeStats rs = runtime::drive_descriptors({&src, 1}, d, pool);
  if (rs.error) std::rethrow_exception(rs.error);
  return rs;
}

}  // namespace vdep::inspect
