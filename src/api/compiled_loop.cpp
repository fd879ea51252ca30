#include "api/compiled_loop.h"

#include <chrono>
#include <optional>
#include <sstream>

#include "codegen/rewrite.h"
#include "exec/array_store.h"
#include "exec/interpreter.h"
#include "inspect/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/stream_executor.h"
#include "support/error.h"
#include "support/keyenc.h"

namespace vdep {

namespace {

i64 elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Memo key part carrying everything bounds-level the fingerprint ignores
// (the structural fingerprint deliberately drops loop bounds and dims: the
// analysis is bounds-independent — but emitted C and native kernels bake
// both into flattening strides and static sizes, so their memos must
// separate on them). Shared with the batch grouping (api/fingerprint.h).
std::string bounds_key(const loopir::LoopNest& nest) {
  return bounds_render(nest);
}

}  // namespace

// ------------------------------------------------------------- options

std::string CodegenOptions::memo_key() const {
  std::string key = target_ == CodegenTarget::kTransformed ? "trans" : "orig";
  key += ";omp=";
  key += openmp_ ? '1' : '0';
  key += ";main=";
  key += with_main_ ? '1' : '0';
  key += ";name=";
  // kernel_name_ is free-form caller text: length-prefix it so a crafted
  // name cannot forge the framing of any key built on top of this one.
  keyenc::append_field(&key, kernel_name_);
  return key;
}

// ------------------------------------------------------------ artifact

const std::string& PlanArtifact::codegen(const loopir::LoopNest& nest,
                                         const CodegenOptions& opts) const {
  // The artifact is bounds-free but emitted C is not (loop bounds, the
  // body and the array dims appear verbatim), so the memo key is the
  // option key plus the full bounds rendering. Handles at the same bounds
  // share the emitted string.
  std::string key = opts.memo_key();
  key += '\n';
  key += bounds_key(nest);

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = codegen_memo_.find(key);
    if (it != codegen_memo_.end()) return it->second;
  }

  // Emit outside the lock: transformed bounds run Fourier–Motzkin. A racing
  // thread may emit the same string; emplace keeps the first.
  codegen::EmitOptions eo;
  eo.openmp = opts.openmp();
  eo.with_main = opts.with_main();
  eo.kernel_name = opts.kernel_name();
  std::string c;
  {
    obs::ScopedSpan span(obs::EventKind::kCodegen, /*layer_enabled=*/true,
                         obs::Phase::kCodegen);
    c = opts.target() == CodegenTarget::kOriginal
            ? codegen::emit_c_original(nest, eo)
            : codegen::emit_c_transformed(nest, plan_.transform, eo);
  }

  std::lock_guard<std::mutex> lock(memo_mu_);
  return codegen_memo_.emplace(std::move(key), std::move(c)).first->second;
}

Expected<std::shared_ptr<const jit::NativeKernel>> PlanArtifact::jit_kernel(
    const loopir::LoopNest& nest, const jit::JitOptions& opts) const {
  // Keyed like the codegen memo: options + the bounds rendering (loop
  // bounds AND array dims). Handles at the same bounds share the loaded
  // .so.
  std::string key = opts.memo_key();
  key += '\n';
  key += bounds_key(nest);

  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    if (auto it = jit_memo_.find(key); it != jit_memo_.end())
      return it->second;
    if (auto it = jit_fail_memo_.find(key); it != jit_fail_memo_.end())
      return it->second;
  }

  // No toolchain is a cheap, environment-level answer: never memoized, so
  // a host that gains a compiler starts JITting without a new session.
  jit::ToolchainCompiler tc(opts);
  if (!tc.available())
    return ApiError{ErrorKind::kUnsupported,
                    "jit: no C toolchain found (set $VDEP_CC or put cc/gcc/"
                    "clang on PATH)"};

  // Emit + cc + dlopen outside the lock (the toolchain run dominates); a
  // racing thread may build the same kernel, emplace keeps the first and
  // the loser's .so unloads with its last shared_ptr.
  Expected<std::shared_ptr<const jit::NativeKernel>> kernel =
      tc.compile(nest, plan_.transform);

  std::lock_guard<std::mutex> lock(memo_mu_);
  if (!kernel) {
    // Deterministic failures (range proof, cc error on these flags) would
    // re-run a full toolchain subprocess on every execute(): memoize them
    // per key so backend kJit degrades once, not per call.
    return jit_fail_memo_.emplace(std::move(key), kernel.error())
        .first->second;
  }
  return jit_memo_.emplace(std::move(key), std::move(*kernel)).first->second;
}

// -------------------------------------------------------------- handle

exec::RunStats CompiledLoop::measure() const {
  return exec::measure_schedule(*nest_, art_->plan().transform);
}

Expected<CompiledLoop> CompiledLoop::at(const loopir::LoopNest& bounds) const {
  return try_invoke([&]() -> CompiledLoop {
    Fingerprint fp = structural_fingerprint(bounds);
    if (fp != art_->fingerprint())
      throw PreconditionError(
          "CompiledLoop::at: nest structure differs from the compiled "
          "structure (recompile instead of rebinding)");
    return CompiledLoop(art_, bounds);
  });
}

Expected<ExecReport> CompiledLoop::execute(const ExecPolicy& policy,
                                           exec::ArrayStore& store) const {
  return execute_impl(policy, store, nullptr);
}

Expected<ExecReport> CompiledLoop::execute(const ExecPolicy& policy,
                                           exec::ArrayStore& store,
                                           vdep::ThreadPool& pool) const {
  return execute_impl(policy, store, &pool);
}

Expected<ExecReport> CompiledLoop::check(const ExecPolicy& policy) const {
  return check_impl(policy, nullptr);
}

Expected<ExecReport> CompiledLoop::check(const ExecPolicy& policy,
                                         vdep::ThreadPool& pool) const {
  return check_impl(policy, &pool);
}

Expected<ExecReport> CompiledLoop::execute_impl(const ExecPolicy& policy,
                                                exec::ArrayStore& store,
                                                vdep::ThreadPool* pool) const {
  return try_invoke([&]() -> ExecReport {
    ExecReport rep;
    // Collects the phase breakdown from every instrumented site this call
    // reaches (executor build, codegen, cc, the run itself) — including
    // sites inside memoized artifacts, which correctly report ~0 on hits.
    obs::PhaseScope phases;
    auto t0 = std::chrono::steady_clock::now();
    // Non-affine nests have no provable static plan: the inspector is the
    // only backend that can run them, whatever the policy says. Affine
    // nests take the inspector path only on explicit request.
    const bool non_affine = !art_->analysis().affine;
    const bool use_inspector =
        non_affine || policy.backend() == ExecBackend::kInspector;
    const bool interpret = policy.backend() == ExecBackend::kInterpreter;
    if (use_inspector) {
      std::optional<inspect::DynamicPartition> part;
      {
        obs::ScopedSpan span(obs::EventKind::kInspect, policy.trace(),
                             obs::Phase::kInspect);
        part.emplace(inspect::inspect(*nest_, store));
        if (span.tracing()) {
          const inspect::InspectStats& st = part->stats();
          span.set_arg(0, st.iterations);
          span.set_arg(1, st.classes);
          span.set_arg(2, st.chains);
          span.set_arg(3, st.max_component);
          span.set_arg(4, st.dependent_iterations);
          span.set_arg(5, st.written_cells);
        }
      }
      const inspect::InspectStats& st = part->stats();
      if (policy.metrics() && obs::MetricsRegistry::enabled()) {
        obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
        reg.counter("vdep_inspector_runs_total").inc();
        reg.histogram("vdep_inspector_classes", obs::exp_buckets(1, 4.0, 16),
                      "dynamic partition classes per inspection")
            .observe(st.classes);
        reg.histogram("vdep_inspector_component_size",
                      obs::exp_buckets(1, 4.0, 16),
                      "largest dependence component per inspection")
            .observe(st.max_component);
      }
      inspect::InspectorExecOptions io;
      io.num_threads =
          policy.threads() ? policy.threads() : (pool ? pool->size() : 0);
      io.grain = policy.grain();
      io.force_interpreter = interpret;
      io.trace = policy.trace();
      io.metrics = policy.metrics();
      io.pin_workers = policy.pin_workers();
      inspect::InspectorExecutor ex(*nest_, *part, io);
      runtime::RuntimeStats rs;
      {
        obs::PhaseTimer run_timer(obs::Phase::kExec);
        rs = ex.run(store, pool);
      }
      rep.iterations = rs.total_iterations();
      rep.tasks = rs.total_tasks();
      rep.steals = rs.total_steals();
      rep.inner_splits = rs.total_inner_splits();
      rep.failed_steals = rs.total_failed_steals();
      rep.idle_ns = rs.total_idle_ns();
      rep.inspector = true;
      rep.inspector_classes = st.classes;
      rep.inspector_chains = st.chains;
      rep.inspector_max_component = st.max_component;
      rep.inspector_dependent = st.dependent_iterations;
    } else {
      runtime::StreamOptions so;
      so.num_threads =
          policy.threads() ? policy.threads() : (pool ? pool->size() : 0);
      so.grain = policy.grain();
      so.split_dims = policy.split_dims();
      so.force_interpreter = interpret;
      so.trace = policy.trace();
      so.metrics = policy.metrics();
      so.pin_workers = policy.pin_workers();
      so.locality_splits = policy.locality_splits();
      std::optional<runtime::StreamExecutor> ex;
      {
        obs::ScopedSpan span(obs::EventKind::kExecutorBuild, policy.trace(),
                             obs::Phase::kAnalyze);
        ex.emplace(*nest_, art_->plan().transform, so);
      }

      // Jit backend: run descriptor leaves through the memoized native
      // kernel; any jit failure (no toolchain, range proof, cc error)
      // degrades to the compiled-scan path below.
      std::shared_ptr<const jit::NativeKernel> native;
      if (policy.backend() == ExecBackend::kJit) {
        Expected<std::shared_ptr<const jit::NativeKernel>> k =
            art_->jit_kernel(*nest_, policy.jit_options());
        if (k) native = *k;
      }
      runtime::RuntimeStats rs;
      {
        obs::PhaseTimer run_timer(obs::Phase::kExec);
        rs = ex->run(store, native.get(), pool);
        if (native) {
          rep.jit = true;
          rep.jit_partitioned = native->partitioned();
        }
      }
      rep.iterations = rs.total_iterations();
      rep.tasks = rs.total_tasks();
      rep.steals = rs.total_steals();
      rep.inner_splits = rs.total_inner_splits();
      rep.failed_steals = rs.total_failed_steals();
      rep.idle_ns = rs.total_idle_ns();
    }
    rep.analyze_ns = phases.ns(obs::Phase::kAnalyze);
    rep.codegen_ns = phases.ns(obs::Phase::kCodegen);
    rep.jit_compile_ns = phases.ns(obs::Phase::kJitCompile);
    rep.inspect_ns = phases.ns(obs::Phase::kInspect);
    rep.exec_ns = phases.ns(obs::Phase::kExec);
    rep.wall_ns = elapsed_ns(t0);
    if (policy.digest()) rep.checksum = store.checksum();
    return rep;
  });
}

Expected<ExecReport> CompiledLoop::check_impl(const ExecPolicy& policy,
                                              vdep::ThreadPool* pool) const {
  return try_invoke([&]() -> ExecReport {
    exec::ArrayStore ref(*nest_);
    ref.fill_pattern();
    // The parallel store is built fresh under the policy's placement (not
    // copied from ref — a copy would inherit the copying thread's pages)
    // and refilled with the same deterministic pattern.
    exec::ArrayStore par(*nest_, policy.placement(), policy.threads());
    par.fill_pattern();
    exec::run_sequential(*nest_, ref);
    // value() re-raises the typed error so the outer try_invoke recaptures
    // it — execution failures and divergence surface the same way.
    ExecReport rep = execute_impl(policy, par, pool).value();
    if (!(ref == par))
      throw InternalError(
          "parallel execution diverged from the sequential reference");
    rep.verified = true;
    rep.checksum = par.checksum();
    return rep;
  });
}

std::string CompiledLoop::summary() const {
  const LoopAnalysis& a = art_->analysis();
  const LoopPlan& p = art_->plan();
  std::ostringstream os;
  os << "=== vdep compiled loop ===\n";
  os << "-- structure --\n";
  os << "fingerprint " << std::hex << fingerprint().hash << std::dec
     << ", depth " << nest_->depth() << ", PDM rank " << a.rank
     << (a.affine ? (a.all_uniform ? " [uniform]" : " [variable]")
                  : " [non-affine]")
     << "\n";
  os << "-- original nest --\n" << nest_->to_string();
  if (!a.affine) {
    os << "-- dependence analysis --\n";
    os << "indirect subscripts: dependences depend on index-array contents;\n"
       << "no static PDM exists. Execution partitions at runtime via the\n"
       << "inspector backend (ExecBackend::kInspector).\n";
    return os.str();
  }
  os << "-- dependence analysis --\n";
  if (a.pdm.pairs().empty()) {
    os << "no dependent reference pairs\n";
  } else {
    for (const dep::DepPair& pr : a.pdm.pairs()) {
      os << dep::to_string(pr.kind) << ": S" << pr.stmt_a + 1 << " "
         << pr.a.to_string(nest_->index_names()) << "  <->  S" << pr.stmt_b + 1
         << " " << pr.b.to_string(nest_->index_names())
         << (pr.solution.is_uniform() ? "  [uniform]" : "  [variable]") << "\n";
    }
  }
  os << a.pdm.to_string() << "\n";
  os << "-- plan (Theorem 1 " << (p.legal ? "certified" : "NOT CERTIFIED")
     << ") --\n";
  os << "T = " << p.transform.t.to_string()
     << ",  H*T = " << p.transform.transformed_pdm.to_string() << "\n";
  if (!p.transform.algorithm1_ops.empty()) {
    os << "Algorithm 1 ops:";
    for (const std::string& op : p.transform.algorithm1_ops) os << " " << op;
    os << "\n";
  }
  os << "-- parallel structure --\n";
  os << p.doall_loops << " outer DOALL loop(s), " << p.partition_classes
     << " independent partition class(es)\n";
  os << "-- transformed nest --\n"
     << codegen::rewrite_nest(*nest_, p.transform).nest.to_string();
  return os.str();
}

}  // namespace vdep
