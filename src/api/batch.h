// Batch serving entry points: many compiled requests, one worker set.
//
// The serving scenario the plan cache and the JIT were built for: one
// structure analyzed once, executed at thousands of bounds by many
// concurrent requests. compile_all (api/compiler.h) amortizes the analysis
// across a batch; execute_batch amortizes the *execution* — every request's
// descriptors are seeded into one shared set of work-stealing deques (each
// request is a source of one runtime::drive_descriptors run) so small
// requests interleave across workers instead of running serially, each
// with a full fork/join of its own.
//
//   vdep::Compiler compiler;
//   auto loops = compiler.compile_all(nests);          // 1 analysis/structure
//   std::vector<vdep::BatchRequest> reqs;
//   for (auto& l : *loops) reqs.push_back({l, &store_for(l)});
//   auto reports = vdep::execute_batch(reqs, policy, compiler.pool());
//
// Per-request ExecReports come back in request order; report.wall_ns is the
// request's completion time (batch start -> its last descriptor retired).
#pragma once

#include <span>
#include <vector>

#include "api/compiled_loop.h"

namespace vdep {

/// One request of a batch run: a staged handle (structure + bounds) plus
/// the request's data. `store` must have been built for `loop.nest()`;
/// when null, execute_batch allocates a pattern-filled store internally
/// (the request's report still carries its checksum).
struct BatchRequest {
  CompiledLoop loop;
  exec::ArrayStore* store = nullptr;
};

/// Executes every request over one shared worker set (policy.threads()
/// contexts, 0 = hardware). Backends follow the policy (kInspector is
/// refused with kUnsupported: its classes depend on each store), and
/// with ExecBackend::kJit each request resolves its native kernel through
/// the shared PlanArtifact memo, so same-structure same-bounds requests
/// reuse one loaded .so across the whole batch. On a request failure the
/// batch aborts and the error carries the request's index
/// (ApiError::index).
Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy = {});

/// Same, with the workers drawn from a long-lived pool (e.g. the session
/// pool, Compiler::pool()) instead of spawned per batch.
Expected<std::vector<ExecReport>> execute_batch(
    std::span<const BatchRequest> requests, const ExecPolicy& policy,
    vdep::ThreadPool& pool);

}  // namespace vdep
