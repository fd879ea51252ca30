// CompiledLoop: an immutable, shareable handle over the staged compilation
// artifacts of one loop structure.
//
// The stages mirror the paper's pipeline and are queryable separately:
//
//   analysis()  PDM + rank (Section 2)            — structure-only, cached
//   plan()      TransformPlan + legality cert     — structure-only, cached
//   codegen()   emitted C, memoized per option    — lazy, bounds enter here
//   execute()   streaming run                     — bounds + data enter here
//   check()     execute + bit-exact verification against sequential
//
// A handle = {shared PlanArtifact, concrete bounded nest}. The artifact is
// keyed by the structural fingerprint (api/fingerprint.h) and shared by
// every handle whose nest has the same structure — compile once at n=10,
// rebind with at() (or re-compile: it is a cache hit) and execute at
// n=1000 without re-running Hermite/Smith/Fourier–Motzkin.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "api/fingerprint.h"
#include "codegen/emit_c.h"
#include "dep/pdm.h"
#include "exec/array_store.h"
#include "exec/runner.h"
#include "jit/toolchain.h"
#include "support/expected.h"
#include "trans/planner.h"

namespace vdep {

using intlin::i64;

// ---------------------------------------------------------------- options

/// Which program codegen() emits.
enum class CodegenTarget {
  kTransformed,  ///< unimodular rewrite + Theorem-2 class loops
  kOriginal,     ///< the sequential source nest
};

/// Builder-style code generation options (replaces the bool soup of
/// codegen::EmitOptions at the API boundary).
class CodegenOptions {
 public:
  CodegenOptions& target(CodegenTarget t) { target_ = t; return *this; }
  CodegenOptions& openmp(bool v) { openmp_ = v; return *this; }
  CodegenOptions& with_main(bool v) { with_main_ = v; return *this; }
  CodegenOptions& kernel_name(std::string v) { kernel_name_ = std::move(v); return *this; }

  CodegenTarget target() const { return target_; }
  bool openmp() const { return openmp_; }
  bool with_main() const { return with_main_; }
  const std::string& kernel_name() const { return kernel_name_; }

  /// Canonical memoization key of this option set.
  std::string memo_key() const;

 private:
  CodegenTarget target_ = CodegenTarget::kTransformed;
  bool openmp_ = true;
  bool with_main_ = true;
  std::string kernel_name_ = "kernel";
};

/// What runs the loop bodies.
enum class ExecBackend {
  kCompiled,     ///< postfix exec::CompiledKernel, interpreter fallback
  kInterpreter,  ///< exact tree-walking interpreter, always
  kJit,          ///< dlopen-ed native kernel; falls back to kCompiled when
                 ///< no toolchain is available or the plan is not JITable
  kInspector,    ///< runtime inspector–executor: dependence components are
                 ///< discovered at the given bounds/data (src/inspect/) and
                 ///< run as dynamic partition classes. The only backend for
                 ///< indirect subscripts (A[B[i]]); non-affine nests route
                 ///< here automatically whatever the policy says
};

/// Builder-style execution policy (replaces the ad-hoc StreamOptions
/// plumbing at the API boundary).
class ExecPolicy {
 public:
  ExecPolicy& threads(std::size_t t) { threads_ = t; return *this; }
  ExecPolicy& grain(i64 g) { grain_ = g; return *this; }
  /// How many transformed DOALL-prefix dimensions descriptors may box and
  /// split (runtime/task.h). 0 = all (default); 1 reproduces the legacy
  /// outer-only splitter.
  ExecPolicy& split_dims(int n) { split_dims_ = n; return *this; }
  ExecPolicy& backend(ExecBackend b) { backend_ = b; return *this; }
  /// Whether ExecReport.checksum is computed (a full store scan per
  /// request — diagnostics; serving paths turn it off).
  ExecPolicy& digest(bool v) { digest_ = v; return *this; }
  /// Toolchain/flag options used when backend() == kJit.
  ExecPolicy& jit_options(jit::JitOptions o) { jit_ = std::move(o); return *this; }
  /// Allow this execution to emit events into the global obs::TraceRecorder
  /// when it is enabled (off: the run never touches the recorder).
  ExecPolicy& trace(bool v) { trace_ = v; return *this; }
  /// Same gate for the global obs::MetricsRegistry.
  ExecPolicy& metrics(bool v) { metrics_ = v; return *this; }
  /// Pin each worker to its topology-assigned cpu for the run (previous
  /// affinity restored afterwards). VDEP_PIN=0 overrides from outside.
  /// Results are bit-identical either way; only placement changes.
  ExecPolicy& pin_workers(bool v) { pin_workers_ = v; return *this; }
  /// Prefer splitting descriptors along the largest-address-stride axis
  /// (runtime/task.h SplitPrefs); off: always longest-axis.
  ExecPolicy& locality_splits(bool v) { locality_splits_ = v; return *this; }
  /// Page placement of stores this policy's run allocates itself (check()'s
  /// parallel store, owned batch stores). Caller-provided stores keep
  /// whatever placement they were built with.
  ExecPolicy& placement(exec::ArrayStore::Placement p) {
    placement_ = p;
    return *this;
  }

  std::size_t threads() const { return threads_; }  ///< 0 = hardware
  i64 grain() const { return grain_; }              ///< 0 = automatic
  int split_dims() const { return split_dims_; }    ///< 0 = all
  ExecBackend backend() const { return backend_; }
  const jit::JitOptions& jit_options() const { return jit_; }
  bool digest() const { return digest_; }
  bool trace() const { return trace_; }
  bool metrics() const { return metrics_; }
  bool pin_workers() const { return pin_workers_; }
  bool locality_splits() const { return locality_splits_; }
  exec::ArrayStore::Placement placement() const { return placement_; }

 private:
  std::size_t threads_ = 0;
  i64 grain_ = 0;
  int split_dims_ = 0;
  ExecBackend backend_ = ExecBackend::kCompiled;
  jit::JitOptions jit_;
  bool digest_ = true;
  bool trace_ = true;
  bool metrics_ = true;
  bool pin_workers_ = true;
  bool locality_splits_ = true;
  exec::ArrayStore::Placement placement_ = exec::ArrayStore::Placement::kSerial;
};

// -------------------------------------------------------------- artifacts

/// Stage 1 — dependence analysis (paper Section 2). Structure-only.
struct LoopAnalysis {
  dep::Pdm pdm;
  int rank = 0;
  bool all_uniform = false;  ///< Corollary 5: classical uniform distances
  /// False when the nest has indirect subscripts the PDM cannot model: the
  /// pdm/plan fields degrade to a serial identity plan and execute() goes
  /// through the runtime inspector regardless of ExecPolicy::backend.
  bool affine = true;
};

/// Stage 2 — transformation plan plus its legality certificate
/// (Theorem 1 re-checked on the final T, not just trusted from
/// construction). Structure-only.
struct LoopPlan {
  trans::TransformPlan transform;
  bool legal = false;
  int doall_loops = 0;
  i64 partition_classes = 1;
};

/// Outcome of execute()/check().
struct ExecReport {
  i64 iterations = 0;
  i64 tasks = 0;         ///< leaf descriptors executed
  i64 steals = 0;        ///< descriptors stolen from another worker's deque
  i64 inner_splits = 0;  ///< descriptor splits along inner DOALL axes
  i64 failed_steals = 0; ///< empty full steal sweeps (single runs)
  i64 idle_ns = 0;       ///< summed worker idle time (single runs)
  i64 wall_ns = 0;
  /// Phase breakdown of wall_ns (obs::PhaseScope): executor construction
  /// (rewrite + hull + kernel build), C emission, cc + dlopen, and the
  /// workers' run. Phases absent from a call are 0; the sum can fall short
  /// of wall_ns by unattributed glue (store digest, dispatch).
  i64 analyze_ns = 0;
  i64 codegen_ns = 0;
  i64 jit_compile_ns = 0;
  i64 exec_ns = 0;
  /// Batch runs only: batch start -> this request's first descriptor
  /// starts executing (time spent queued behind the rest of the batch).
  i64 queue_ns = 0;
  /// Inspector-backend runs only (ExecBackend::kInspector or the automatic
  /// non-affine fallback): inspection wall time and the shape of the
  /// discovered dynamic partition.
  i64 inspect_ns = 0;
  i64 inspector_classes = 0;        ///< partition classes (all components)
  i64 inspector_chains = 0;         ///< components with >= 2 iterations
  i64 inspector_max_component = 0;  ///< largest component size
  i64 inspector_dependent = 0;      ///< iterations in >= 2 components
  i64 checksum = 0;      ///< final store digest
  bool verified = false; ///< true when produced by check()
  bool inspector = false; ///< true when the inspector–executor ran the loop
  bool jit = false;      ///< true when a native kernel ran the bodies
  /// True when the native kernel was the verified steady-state partitioned
  /// variant (analysis::KernelVerifier admitted it); false for the clamped
  /// kernel, including verifier-forced fallbacks.
  bool jit_partitioned = false;
};

/// The cached unit: fingerprint + the two structure-only stages, plus a
/// per-(nest,options) memo of lazily emitted C. Immutable after
/// construction except the internal codegen memo (mutex-guarded), so one
/// instance is safely shared across threads and cache handles.
class PlanArtifact {
 public:
  PlanArtifact(Fingerprint fp, LoopAnalysis analysis, LoopPlan plan)
      : fp_(std::move(fp)),
        analysis_(std::move(analysis)),
        plan_(std::move(plan)) {}

  const Fingerprint& fingerprint() const { return fp_; }
  const LoopAnalysis& analysis() const { return analysis_; }
  const LoopPlan& plan() const { return plan_; }

  /// Emitted C for `nest` under `opts`; computed on first request and
  /// memoized. `nest` must carry this artifact's structure (bounds are the
  /// point of the parameter: they only exist at the handle, not here).
  const std::string& codegen(const loopir::LoopNest& nest,
                             const CodegenOptions& opts) const;

  /// Native kernel for `nest` under `opts`: emitted, toolchain-compiled
  /// and dlopen-ed on first request, then memoized per (bounds, options)
  /// beside the codegen memo — a plan-cache hit at the same bounds reuses
  /// the already-loaded .so, and new bounds only re-run emission + cc,
  /// never the analysis. Errors (kUnsupported) when no toolchain exists
  /// or the nest fails the subscript range proof. Deterministic failures
  /// (proof, cc error) are memoized per key like successes; the
  /// no-toolchain answer is not, so an environment that gains a compiler
  /// starts JITting without a new session.
  Expected<std::shared_ptr<const jit::NativeKernel>> jit_kernel(
      const loopir::LoopNest& nest, const jit::JitOptions& opts) const;

 private:
  Fingerprint fp_;
  LoopAnalysis analysis_;
  LoopPlan plan_;

  mutable std::mutex memo_mu_;
  mutable std::map<std::string, std::string> codegen_memo_;
  mutable std::map<std::string, std::shared_ptr<const jit::NativeKernel>>
      jit_memo_;
  mutable std::map<std::string, ApiError> jit_fail_memo_;
};

// ----------------------------------------------------------------- handle

class CompiledLoop {
 public:
  /// Binds a shared artifact to a concrete bounded nest. Normally obtained
  /// from Compiler::compile(), not constructed directly.
  CompiledLoop(std::shared_ptr<const PlanArtifact> artifact,
               loopir::LoopNest nest)
      : art_(std::move(artifact)),
        nest_(std::make_shared<const loopir::LoopNest>(std::move(nest))) {}

  const loopir::LoopNest& nest() const { return *nest_; }
  const Fingerprint& fingerprint() const { return art_->fingerprint(); }

  /// Stage accessors (cached, shared across every handle of the structure).
  const LoopAnalysis& analysis() const { return art_->analysis(); }
  const LoopPlan& plan() const { return art_->plan(); }

  /// Lazily emitted C for this handle's bounds, memoized per option set.
  const std::string& codegen(const CodegenOptions& opts = {}) const {
    return art_->codegen(*nest_, opts);
  }

  /// Stage 5 — the JIT: a native range kernel for this handle's bounds,
  /// lazy and memoized in the shared artifact (same .so for every handle
  /// at these bounds; recompiling the structure is a plan-cache hit, so
  /// the toolchain cost amortizes exactly like codegen). Errors
  /// (kUnsupported) when no C toolchain is on PATH / $VDEP_CC, the host
  /// cannot dlopen, or the nest fails the subscript range proof —
  /// execute() with ExecBackend::kJit degrades to the scan path instead.
  Expected<std::shared_ptr<const jit::NativeKernel>> jit(
      const jit::JitOptions& opts = {}) const {
    return art_->jit_kernel(*nest_, opts);
  }

  /// Parallelism of this handle's bounded space: independent work items,
  /// longest item, total iterations (counting scan, O(1) memory).
  exec::RunStats measure() const;

  /// Rebinds the cached plan to different bounds without re-analysis.
  /// Errors (kPrecondition) when `bounds` has a different structure.
  Expected<CompiledLoop> at(const loopir::LoopNest& bounds) const;

  /// Runs the plan over `store` (which must have been built for nest())
  /// through the streaming runtime (runtime::StreamExecutor), or the
  /// inspector for ExecBackend::kInspector and non-affine nests.
  Expected<ExecReport> execute(const ExecPolicy& policy,
                               exec::ArrayStore& store) const;
  /// Same, reusing a long-lived pool for the workers.
  Expected<ExecReport> execute(const ExecPolicy& policy,
                               exec::ArrayStore& store,
                               vdep::ThreadPool& pool) const;

  /// Batch execution, same structure at many bounds: rebinds the shared
  /// artifact at every entry of `bounds` (CompiledLoop::at semantics —
  /// errors kPrecondition with the entry's index when a nest has a
  /// different structure), allocates a pattern-filled store per request
  /// and runs all of them over ONE shared worker set: every request is a
  /// source of one runtime::drive_descriptors run, so its descriptors
  /// interleave with the others' in the same work-stealing deques and the
  /// batch — not any single request — feeds the workers; the fork/join
  /// cost is paid once. Reports are per request (iterations, steals,
  /// completion time, checksum of the request's final store). With `pool`
  /// set, the workers are its threads plus the caller.
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<const loopir::LoopNest> bounds, const ExecPolicy& policy = {},
      vdep::ThreadPool* pool = nullptr) const;

  /// Batch execution, one bounds at many data sets (the serving hot case):
  /// every store must have been built for nest(). Caller keeps ownership.
  Expected<std::vector<ExecReport>> execute_batch(
      std::span<exec::ArrayStore* const> stores, const ExecPolicy& policy = {},
      vdep::ThreadPool* pool = nullptr) const;

  /// Executes the plan and the sequential reference from the same
  /// deterministic initial store; errors (kInternal) on any bitwise
  /// divergence. The returned report has verified = true.
  Expected<ExecReport> check(const ExecPolicy& policy = {}) const;
  Expected<ExecReport> check(const ExecPolicy& policy,
                             vdep::ThreadPool& pool) const;

  /// Multi-section human-readable report of all stages.
  std::string summary() const;

 private:
  Expected<ExecReport> execute_impl(const ExecPolicy& policy,
                                    exec::ArrayStore& store,
                                    vdep::ThreadPool* pool) const;
  Expected<ExecReport> check_impl(const ExecPolicy& policy,
                                  vdep::ThreadPool* pool) const;

  std::shared_ptr<const PlanArtifact> art_;
  std::shared_ptr<const loopir::LoopNest> nest_;
};

}  // namespace vdep
