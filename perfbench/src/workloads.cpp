#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "api/vdep.h"
#include "cache/disk_cache.h"
#include "dsl/parser.h"
#include "harness.h"
#include "obs/metrics.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using vdep::ExecBackend;
using vdep::ExecPolicy;
using vdep::ExecReport;
/// One client request: the programs it hands the library (a batch holds
/// many, every other workload one).
using Job = std::vector<std::size_t>;

std::size_t nproc() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// ------------------------------------------------------------ DSL text
//
// Why the bodies stay in range. Every body keeps one accumulating read per
// dependence chain (A[w] = A[r] + c, or a copy into a second array), so a
// value grows by at most c per chain step: at the sizes below it stays far
// inside int64. The suite's own bodies do not: core::example41 adds two
// reads of A, and its values overflow at n=1500, where the interpreter
// oracle throws while the JIT (built with -fwrapv) wraps silently;
// core::uniform_wavefront overflows at n=60. The benchmark therefore does
// not exercise that silent-wrap defect. It stays tracked, and tested,
// under ROADMAP item 3 ("one arithmetic semantics across backends").

std::string num(i64 v) { return std::to_string(v); }

/// Renders sum_k coef[k]*var[k] + c as DSL text ("3*i1 - 2*i2 + 2").
std::string lin(const std::vector<i64>& coef,
                const std::vector<std::string>& var, i64 c) {
  std::string s;
  for (std::size_t k = 0; k < coef.size(); ++k) {
    i64 a = coef[k];
    if (a == 0) continue;
    if (s.empty()) {
      s += a < 0 ? "-" : "";
    } else {
      s += a < 0 ? " - " : " + ";
    }
    i64 m = a < 0 ? -a : a;
    if (m != 1) s += num(m) + "*";
    s += var[k];
  }
  if (s.empty()) return num(c);
  if (c > 0) s += " + " + num(c);
  if (c < 0) s += " - " + num(-c);
  return s;
}

/// Paper Example 4.1: rank-1 PDM [2 -2], one DOALL loop plus two
/// Theorem-2 classes; the store is oversized and sparse ((10n+21)^2
/// elements for (2n+1)^2 iterations).
std::string example_4_1(i64 n, i64 c) {
  i64 e = 5 * n + 10;
  return "array A[-" + num(e) + ":" + num(e) + ", -" + num(e) + ":" + num(e) +
         "]\ndo i1 = -" + num(n) + ", " + num(n) + "\n  do i2 = -" + num(n) +
         ", " + num(n) +
         "\n    A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2] = A[i1, i2] + " + num(c) +
         "\n  enddo\nenddo\n";
}

/// Paper Example 4.2: full-rank PDM [[2,1],[0,2]], four classes.
std::string example_4_2(i64 n, i64 c) {
  i64 e = 3 * n + 10;
  return "array A[-" + num(e) + ":" + num(e) + "]\narray B[-" + num(n) + ":" +
         num(n) + ", -" + num(n) + ":" + num(n) + "]\ndo i1 = -" + num(n) +
         ", " + num(n) + "\n  do i2 = -" + num(n) + ", " + num(n) +
         "\n    A[i1 - 2*i2 + 4] = A[i1 - 2*i2] + " + num(c) +
         "\n    B[i1, i2] = A[i1 - 2*i2 + 8]\n  enddo\nenddo\n";
}

/// C[i,j] += A[i,k]*B[k,j] (+ c): i and j DOALL, the reduction k serial.
std::string matmul_reduction(i64 n, i64 c) {
  std::string d = "[0:" + num(n) + ", 0:" + num(n) + "]\n";
  return "array C" + d + "array A" + d + "array B" + d + "do i = 0, " +
         num(n) + "\n  do j = 0, " + num(n) + "\n    do k = 0, " + num(n) +
         "\n      C[i, j] = C[i, j] + A[i, k] * B[k, j] + " + num(c) +
         "\n    enddo\n  enddo\nenddo\n";
}

/// Example 4.1 lifted to three dimensions: two DOALL loops.
std::string variable_3deep(i64 n, i64 c) {
  i64 e = 5 * n + 10;
  return "array A[-" + num(e) + ":" + num(e) + ", -" + num(e) + ":" + num(e) +
         ", 0:" + num(n) + "]\ndo i1 = -" + num(n) + ", " + num(n) +
         "\n  do i2 = -" + num(n) + ", " + num(n) + "\n    do i3 = 0, " +
         num(n) +
         "\n      A[3*i1 - 2*i2 + 2, -2*i1 + 3*i2 - 2, i3] = A[i1, i2, i3] + " +
         num(c) + "\n    enddo\n  enddo\nenddo\n";
}

/// Two-statement wavefront: uniform distances (1,0) and (0,1) through a
/// pair of arrays, one read per statement.
std::string wavefront(i64 n, i64 c) {
  std::string d = "[-1:" + num(n) + ", -1:" + num(n) + "]\n";
  return "array A" + d + "array B" + d + "do i1 = 0, " + num(n) +
         "\n  do i2 = 0, " + num(n) + "\n    A[i1, i2] = B[i1 - 1, i2] + " +
         num(c) + "\n    B[i1, i2] = A[i1, i2 - 1] + 1\n  enddo\nenddo\n";
}

/// Outer extent 2, inner extent n, both DOALL: the inner-split shape.
std::string skewed_extent(i64 n, i64 c) {
  std::string d = "[0:1, 0:" + num(n) + "]\n";
  return "array A" + d + "array B" + d + "do i1 = 0, 1\n  do i2 = 0, " +
         num(n) + "\n    A[i1, i2] = B[i1, i2] * 3 + i1 * 7 + i2 + " + num(c) +
         "\n  enddo\nenddo\n";
}

/// A[B[i]] = A[B[i]] + C[i] over i in [0, n-1], targets A[0 : targets-1].
std::string scatter(i64 n, i64 targets) {
  return "array A[0:" + num(targets - 1) + "]\narray B[0:" + num(n - 1) +
         "]\narray C[0:" + num(n - 1) + "]\ndo i = 0, " + num(n - 1) +
         "\n  A[B[i]] = A[B[i]] + C[i]\nenddo\n";
}

/// A program compile_cold has never seen: one of the paper's
/// variable-distance subscript forms with seeded coefficients. `seen`
/// holds the structures already issued (the body constant is not part of
/// the key, so two programs never share a plan-cache entry).
std::string cold_program(vdep::Rng& rng, std::set<std::string>& seen) {
  const std::vector<std::string> ij = {"i1", "i2"};
  for (;;) {
    i64 form = rng.uniform(0, 2);
    i64 a = rng.uniform(-3, 3), b = rng.uniform(-3, 3);
    i64 c = rng.uniform(-3, 3), d = rng.uniform(-3, 3);
    i64 e = rng.uniform(-3, 3), f = rng.uniform(1, 6);
    i64 k = rng.uniform(1, 9);
    if (form == 1 ? (a == 0 && b == 0) : a * d - b * c == 0) continue;
    std::string key = num(form) + ":" + num(a) + "," + num(b) + "," +
                      num(e) + "," + num(f);
    if (form != 1) key += "," + num(c) + "," + num(d);
    if (!seen.insert(key).second) continue;
    if (form == 0) {
      // Example 4.1's form: a 2-D write through a nonsingular matrix.
      return "do i1 = -10, 10\n  do i2 = -10, 10\n    A[" +
             lin({a, b}, ij, e) + ", " + lin({c, d}, ij, f) +
             "] = A[i1, i2] + " + num(k) + "\n  enddo\nenddo\n";
    }
    if (form == 1) {
      // Example 4.2's form: a 1-D write through a linear form.
      return "do i1 = -10, 10\n  do i2 = -10, 10\n    A[" +
             lin({a, b}, ij, f) + "] = A[" + lin({a, b}, ij, 0) + "] + " +
             num(k) + "\n    B[i1, i2] = A[" + lin({a, b}, ij, e + 8) +
             "]\n  enddo\nenddo\n";
    }
    // variable_3deep's form: the 2-D write with a trailing DOALL loop.
    return "do i1 = -6, 6\n  do i2 = -6, 6\n    do i3 = 0, 4\n      A[" +
           lin({a, b}, ij, e) + ", " + lin({c, d}, ij, f) +
           ", i3] = A[i1, i2, i3] + " + num(k) +
           "\n    enddo\n  enddo\nenddo\n";
  }
}

// ------------------------------------------------------------- layers

/// Adds one ExecReport's phase times and runtime counts to the trace.
void note_report(Layers* layers, const ExecReport& r, std::size_t workers) {
  if (!layers) return;
  layers->add("codegen.emit_ms", r.codegen_ns / 1e6);
  layers->add("jit.cc_ms", r.jit_compile_ns / 1e6);
  layers->add("runtime.build_ms", r.analyze_ns / 1e6);
  layers->add("runtime.run_ms", r.exec_ns / 1e6);
  layers->add("runtime.queue_ms", r.queue_ns / 1e6);
  layers->add("runtime.tasks", static_cast<double>(r.tasks));
  layers->add("runtime.steals", static_cast<double>(r.steals));
  layers->add("runtime.inner_splits", static_cast<double>(r.inner_splits));
  layers->add("#failed_steals", static_cast<double>(r.failed_steals));
  layers->add("#idle_ns", static_cast<double>(r.idle_ns));
  layers->add("#worker_ns", static_cast<double>(r.exec_ns) * workers);
  layers->add("#reports", 1);
  layers->add("#jit", r.jit ? 1 : 0);
  layers->add("#partitioned", r.jit_partitioned ? 1 : 0);
  if (r.inspector) {
    layers->add("inspect.inspect_ms", r.inspect_ns / 1e6);
    layers->add("inspect.run_ms", r.exec_ns / 1e6);
    layers->add("#inspect_ns", static_cast<double>(r.inspect_ns));
    layers->add("#inspect_wall_ns", static_cast<double>(r.wall_ns));
    layers->add("inspect.classes", static_cast<double>(r.inspector_classes));
    layers->add("inspect.max_component",
                static_cast<double>(r.inspector_max_component));
    layers->add("#inspections", 1);
  }
}

/// Times Compiler::compile / compile_all and files the call as a plan
/// cache hit or miss by the session's CacheStats.
template <class F>
auto timed_compile(Layers* layers, const vdep::Compiler& compiler,
                   double nests, F&& compile) {
  if (!layers) return compile();
  vdep::CacheStats before = compiler.cache_stats();
  Clock::time_point t0 = Clock::now();
  auto result = compile();
  double ms = ms_since(t0);
  vdep::CacheStats after = compiler.cache_stats();
  bool miss = after.misses > before.misses;
  layers->add(miss ? "api.compile_miss_ms" : "api.compile_hit_ms", ms);
  layers->add(miss ? "#compile_miss_calls" : "#compile_hit_calls", nests);
  layers->add("#plan_hits", static_cast<double>(after.hits - before.hits));
  layers->add("#plan_misses",
              static_cast<double>(after.misses - before.misses));
  return result;
}

// ----------------------------------------------------------- workloads

class Workload {
 public:
  Workload(std::uint64_t seed, std::string work_dir)
      : rng_(seed), work_dir_(std::move(work_dir)) {}
  virtual ~Workload() = default;

  /// Builds what the measured phase needs over a fresh disk cache.
  virtual void setup(const std::string& cache_dir) = 0;
  /// The next round of client requests. The measured phase ends on a
  /// round boundary, so every round's mix is measured whole.
  virtual std::vector<Job> next_round() = 0;
  /// One client request. Every workload but batch_small sends one program.
  virtual Request issue(const Job& job, Layers* layers, bool corrupt) {
    return issue_one(job[0], layers, corrupt, policy_);
  }
  /// Jobs a warm restart re-requests, given the jobs measured since the
  /// previous restart. One job per restart, except on compile_cold, keeps
  /// the warm samples alike, so their median does not sit between two
  /// programs.
  virtual std::vector<Job> warm_jobs(const std::vector<Job>& since) = 0;
  /// A job for the self-test (its output is corrupted on purpose).
  virtual Job selftest_job() = 0;
  /// Traced-run measurements beyond the requests (runtime.scaling_x).
  virtual void traced_extras(Layers&, std::vector<Request>&) {}
  /// Whether every measured request must miss the plan cache.
  virtual bool every_request_cold() const { return false; }
  /// How many warm restarts run interleaved with the measured phase.
  virtual int warm_restarts() const { return 20; }

  vdep::CacheStats plan_stats() const { return compiler_->cache_stats(); }

  /// Runs `f` (which opens sessions of its own) and then restores the
  /// current session: set-up probes and warm restarts interleaved with
  /// the measured phase leave its session untouched.
  template <class F>
  void aside(F&& f) {
    std::unique_ptr<vdep::Compiler> compiler = std::move(compiler_);
    ExecPolicy policy = policy_;
    f();
    compiler_ = std::move(compiler);
    policy_ = policy;
  }

  /// A new Compiler session over `cache_dir`: plans and kernels are only
  /// on disk, not in memory.
  void open_session(const std::string& cache_dir) {
    compiler_.reset();
    compiler_ = std::make_unique<vdep::Compiler>(
        vdep::CompileOptions{}.disk_cache(cache_dir).pool_threads(nproc()));
    compiler_->pool();
    vdep::jit::JitOptions jo;
    jo.cache_dir = cache_dir;
    jo.work_dir = work_dir_;
    policy_ = ExecPolicy{}
                  .backend(backend())
                  .threads(workers())
                  .pin_workers(pin_workers())
                  .digest(false)
                  .jit_options(jo);
  }

  Ledger ledger;

 protected:
  virtual ExecBackend backend() const { return ExecBackend::kCompiled; }
  virtual std::size_t workers() const { return nproc(); }
  virtual bool pin_workers() const { return true; }

  /// The single-program request: DSL text -> parse -> compile -> store ->
  /// inputs -> execute -> digest.
  Request issue_one(std::size_t id, Layers* layers, bool corrupt,
                    const ExecPolicy& policy) {
    Request r;
    Clock::time_point t0 = Clock::now();
    try {
      const Program& p = ledger.program(id);
      vdep::Expected<vdep::loopir::LoopNest> nest = [&] {
        Span s(layers, "dsl.parse_ms");
        return vdep::dsl::try_parse_loop_nest(p.dsl);
      }();
      if (!nest) throw std::runtime_error(nest.error().to_string());
      vdep::Expected<vdep::CompiledLoop> loop =
          timed_compile(layers, *compiler_, 1,
                        [&] { return compiler_->compile(*nest); });
      if (!loop) throw std::runtime_error(loop.error().to_string());
      std::optional<vdep::exec::ArrayStore> store;
      {
        Span s(layers, "exec.store_ms");
        store.emplace(*nest, vdep::exec::ArrayStore::Placement::kFirstTouch,
                      nproc());
      }
      {
        Span s(layers, "exec.fill_ms");
        fill_inputs(*store, p);
      }
      vdep::Expected<ExecReport> rep = [&] {
        Span s(layers, "runtime.execute_ms");
        return loop->execute(policy, *store, compiler_->pool());
      }();
      if (!rep) throw std::runtime_error(rep.error().to_string());
      if (corrupt) store->raw_mutable("A")[0] ^= 1;
      i64 digest = [&] {
        Span s(layers, "exec.digest_ms");
        return store->checksum();
      }();
      {
        Span s(layers, "exec.release_ms");
        store.reset();
      }
      r.iterations = rep->iterations;
      r.outputs.push_back({id, digest});
      note_report(layers, *rep, policy.threads());
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.ms = ms_since(t0);
    return r;
  }

  std::vector<Job> shuffled(const std::vector<std::size_t>& ids) {
    std::vector<Job> round;
    for (std::size_t id : ids) round.push_back({id});
    for (std::size_t k = round.size(); k > 1; --k)
      std::swap(round[k - 1],
                round[static_cast<std::size_t>(rng_.uniform(0, k - 1))]);
    return round;
  }

  vdep::Rng rng_;
  std::string work_dir_;
  std::unique_ptr<vdep::Compiler> compiler_;
  ExecPolicy policy_;
};

// exec_large: six affine paper-suite kernels at large n plus one
// non-affine scatter, at nproc workers. Affine kernels run native
// (kJit), with plans and kernels built in set-up; the scatter takes the
// runtime inspector. Chosen because the runtime scheduler, the native
// leaf, store allocation/first-touch and inspection do nearly all the work
// while parse, analysis and cc do none. Seven programs (an odd count) and
// whole rounds put the median inside one program's latency group instead
// of on the edge between two; it falls on one of the four store-heavy
// kernels, whose latency is the steadiest on a shared host. Every large
// array is above glibc's 32 MiB dynamic mmap threshold, so each store is
// mapped and unmapped per request: peak RSS then does not depend on heap
// fragmentation, which follows the seeded request order.
class ExecLarge : public Workload {
 public:
  ExecLarge(std::uint64_t seed, std::string work_dir)
      : Workload(seed, std::move(work_dir)) {
    auto c = [&] { return rng_.uniform(1, 9); };
    ids_ = {ledger.add({example_4_1(300, c()), nullptr}),
            ledger.add({example_4_2(200, c()), nullptr}),
            ledger.add({matmul_reduction(120, c()), nullptr}),
            ledger.add({variable_3deep(40, c()), nullptr}),
            ledger.add({wavefront(2100, c()), nullptr}),
            ledger.add({skewed_extent(1 << 21, c()), nullptr})};
    // Duplicate-heavy scatter: n/4 targets, so chains of mean length 4,
    // the access pattern of sparse assembly.
    constexpr i64 kScatterN = 1 << 16;
    auto index = std::make_shared<std::vector<i64>>(kScatterN);
    for (i64& v : *index) v = rng_.uniform(0, kScatterN / 4 - 1);
    ids_.push_back(
        ledger.add({scatter(kScatterN, kScatterN / 4), std::move(index)}));
  }

  void setup(const std::string& cache_dir) override {
    open_session(cache_dir);
    for (std::size_t id : ids_) {
      vdep::Expected<vdep::CompiledLoop> loop =
          compiler_->compile(ledger.program(id).dsl);
      if (!loop) throw std::runtime_error(loop.error().to_string());
      if (!loop->analysis().affine) continue;  // runs through the inspector
      auto kernel = loop->jit(policy_.jit_options());
      if (!kernel) throw std::runtime_error(kernel.error().to_string());
    }
  }
  std::vector<Job> next_round() override { return shuffled(ids_); }
  std::vector<Job> warm_jobs(const std::vector<Job>&) override {
    return {{ids_[4]}};  // the wavefront: neither the cheapest nor the largest
  }
  Job selftest_job() override { return {ids_[2]}; }

  // runtime.scaling_x: the execute calls of one round at nproc workers
  // against the same calls at one worker.
  void traced_extras(Layers& layers, std::vector<Request>& out) override {
    double t_wide = 0, t_one = 0;
    for (std::size_t id : ids_) {
      Layers wide, one;
      out.push_back(issue_one(id, &wide, false, policy_));
      out.push_back(
          issue_one(id, &one, false, ExecPolicy(policy_).threads(1)));
      t_wide += wide.get("runtime.execute_ms");
      t_one += one.get("runtime.execute_ms");
    }
    layers.add("runtime.scaling_x", t_wide > 0 ? t_one / t_wide : 0);
  }

 protected:
  ExecBackend backend() const override { return ExecBackend::kJit; }

 private:
  std::vector<std::size_t> ids_;
};

// batch_small: batches of 64 requests, each one of six suite structures
// at a seeded small size, through compile_all + execute_batch on the
// session pool with the default postfix backend. Chosen because it uses
// the runtime differently from exec_large (many small roots in the batch
// executor, not one big root split by the streaming executor): the
// plan-cache hit path and the per-execute executor build matter, the JIT
// does nothing. 2-D structures run at n = s, 3-deep ones at n = s/4, with s
// uniform in [16, 64]. Workers are not pinned: a batch waits for its
// slowest worker, and a pinned worker cannot leave a cpu that another
// thread shares. In a trial on a 4-vCPU VM, one busy thread beside the run
// slowed pinned batches by 37-43% and unpinned ones by -6% to +20%.
class BatchSmall : public Workload {
 public:
  static constexpr int kBatch = 64;
  static constexpr int kStructures = 6;

  BatchSmall(std::uint64_t seed, std::string work_dir)
      : Workload(seed, std::move(work_dir)) {
    for (i64& c : consts_) c = rng_.uniform(1, 9);
  }

  void setup(const std::string& cache_dir) override {
    open_session(cache_dir);
    // One full batch over every structure and the whole size range: plans
    // compiled, pool started, first executors built. Its output is not a
    // request.
    Job warmup;
    for (int k = 0; k < kBatch; ++k)
      warmup.push_back(program(k % kStructures, 16 + k * 48 / (kBatch - 1)));
    Request r = issue(warmup, nullptr, false);
    if (!r.error.empty()) throw std::runtime_error(r.error);
  }
  std::vector<Job> next_round() override {
    // Every batch holds the six structures in equal shares (up to the
    // remainder), in shuffled order, so batches differ only in sizes.
    Job job;
    i64 first = rng_.uniform(0, kStructures - 1);
    for (int k = 0; k < kBatch; ++k)
      job.push_back(program(static_cast<int>((first + k) % kStructures),
                            rng_.uniform(16, 64)));
    for (std::size_t k = job.size(); k > 1; --k)
      std::swap(job[k - 1],
                job[static_cast<std::size_t>(rng_.uniform(0, k - 1))]);
    return {job};
  }
  Request issue(const Job& job, Layers* layers, bool corrupt) override {
    Request r;
    Clock::time_point t0 = Clock::now();
    try {
      std::vector<vdep::loopir::LoopNest> nests;
      nests.reserve(job.size());
      {
        Span s(layers, "dsl.parse_ms");
        for (std::size_t id : job) {
          auto nest = vdep::dsl::try_parse_loop_nest(ledger.program(id).dsl);
          if (!nest) throw std::runtime_error(nest.error().to_string());
          nests.push_back(std::move(*nest));
        }
      }
      auto loops = timed_compile(
          layers, *compiler_, static_cast<double>(job.size()),
          [&] { return compiler_->compile_all(nests); });
      if (!loops) throw std::runtime_error(loops.error().to_string());
      std::vector<std::unique_ptr<vdep::exec::ArrayStore>> stores;
      stores.reserve(job.size());
      {
        Span s(layers, "exec.store_ms");
        // Default (serial) placement: a first-touch pass would start and
        // pin touch threads for every one of these small stores.
        for (const auto& nest : nests)
          stores.push_back(std::make_unique<vdep::exec::ArrayStore>(nest));
      }
      {
        Span s(layers, "exec.fill_ms");
        for (std::size_t k = 0; k < job.size(); ++k)
          fill_inputs(*stores[k], ledger.program(job[k]));
      }
      std::vector<vdep::BatchRequest> reqs;
      reqs.reserve(job.size());
      for (std::size_t k = 0; k < job.size(); ++k)
        reqs.push_back({(*loops)[k], stores[k].get()});
      auto reports = [&] {
        Span s(layers, "runtime.execute_ms");
        return vdep::execute_batch(reqs, policy_, compiler_->pool());
      }();
      if (!reports) throw std::runtime_error(reports.error().to_string());
      if (corrupt) stores.back()->raw_mutable("A")[0] ^= 1;
      {
        Span s(layers, "exec.digest_ms");
        for (std::size_t k = 0; k < job.size(); ++k)
          r.outputs.push_back({job[k], stores[k]->checksum()});
      }
      {
        Span s(layers, "exec.release_ms");
        stores.clear();
      }
      for (const ExecReport& rep : *reports) {
        r.iterations += rep.iterations;
        note_report(layers, rep, policy_.threads());
      }
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.ms = ms_since(t0);
    return r;
  }
  std::vector<Job> warm_jobs(const std::vector<Job>& since) override {
    return {since.back()};
  }
  Job selftest_job() override { return next_round()[0]; }
  /// One batch per restart: more restarts than the default so that the
  /// median of warm_start_ms is taken over as many samples as it needs.
  int warm_restarts() const override { return 60; }

 protected:
  bool pin_workers() const override { return false; }

 private:
  std::size_t program(int structure, i64 s) {
    i64 c = consts_[static_cast<std::size_t>(structure)];
    switch (structure) {
      case 0: return ledger.add({example_4_1(s, c), nullptr});
      case 1: return ledger.add({example_4_2(s, c), nullptr});
      case 2: return ledger.add({wavefront(s, c), nullptr});
      case 3: return ledger.add({skewed_extent(s * s, c), nullptr});
      case 4: return ledger.add({matmul_reduction(s / 4, c), nullptr});
      default: return ledger.add({variable_3deep(s / 4, c), nullptr});
    }
  }

  i64 consts_[kStructures] = {};
};

// compile_cold: every request is a program the session has never seen
// (plan-cache miss, fresh disk cache), run at small n with the JIT.
// Chosen because codegen, cc, dlopen and disk-cache writes then reads
// dominate while the runtime has almost nothing to do. The warm restarts
// re-request every measured program from new sessions over the disk
// cache the cold requests filled. Programs run on one worker: at a few
// hundred iterations, waking and pinning nproc workers costs more than the
// loop, and made the sub-millisecond warm requests 1.6x slower and their
// run-to-run spread 1.6x wider in a trial on a 4-vCPU VM.
class CompileCold : public Workload {
 public:
  using Workload::Workload;

  void setup(const std::string& cache_dir) override {
    open_session(cache_dir);
    // Toolchain probe, first cc and dlopen, on a program outside the
    // generator's forms. Its output is not a request.
    std::size_t id = ledger.add(
        {"do i = 0, 40\n  A[2*i + 3] = A[i] + 1\nenddo\n", nullptr});
    Request r = issue({id}, nullptr, false);
    if (!r.error.empty()) throw std::runtime_error(r.error);
  }
  std::vector<Job> next_round() override {
    return {{ledger.add({cold_program(rng_, seen_), nullptr})}};
  }
  std::vector<Job> warm_jobs(const std::vector<Job>& since) override {
    return since;  // every program is re-requested once
  }
  Job selftest_job() override { return next_round()[0]; }
  bool every_request_cold() const override { return true; }

 protected:
  ExecBackend backend() const override { return ExecBackend::kJit; }
  std::size_t workers() const override { return 1; }

 private:
  std::set<std::string> seen_;
};

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  std::string jit_dir = cfg.work_dir + "/jit";
  if (cfg.workload == "exec_large")
    return std::make_unique<ExecLarge>(cfg.seed, jit_dir);
  if (cfg.workload == "batch_small")
    return std::make_unique<BatchSmall>(cfg.seed, jit_dir);
  if (cfg.workload == "compile_cold")
    return std::make_unique<CompileCold>(cfg.seed, jit_dir);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

// ---------------------------------------------------------------- run

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// Latencies of `rs`: all of them (traced < 0), or only the untraced (0)
/// or traced (1) requests.
std::vector<double> latencies(const std::vector<Request>& rs, int traced) {
  std::vector<double> v;
  for (const Request& r : rs)
    if (traced < 0 || r.traced == (traced == 1)) v.push_back(r.ms);
  return v;
}

i64 jit_builds() {
  return vdep::obs::MetricsRegistry::instance()
      .counter("vdep_jit_builds_total")
      .value();
}

/// Disk-cache and JIT-build counts at one instant. The disk counts are
/// DiskCache::stats() of the run's cache directory (the counts behind
/// vdep_disk_cache_*_total, without other directories' traffic); builds
/// come from the metrics registry, which only the traced run enables.
struct Snapshot {
  i64 disk_hits = 0, disk_misses = 0, disk_stores = 0, builds = 0;

  Snapshot operator-(const Snapshot& o) const {
    return {disk_hits - o.disk_hits, disk_misses - o.disk_misses,
            disk_stores - o.disk_stores, builds - o.builds};
  }
  Snapshot& operator+=(const Snapshot& o) {
    disk_hits += o.disk_hits;
    disk_misses += o.disk_misses;
    disk_stores += o.disk_stores;
    builds += o.builds;
    return *this;
  }
};

Snapshot snapshot(const vdep::cache::DiskCache& disk, bool trace) {
  vdep::cache::DiskCacheStats st = disk.stats();
  return {st.hits, st.misses, st.stores, trace ? jit_builds() : 0};
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Outcome run_workload(const Config& cfg) {
  // How many extra set-ups and warm restarts run interleaved with the
  // measured phase. Spread evenly over it, they sample the same range of
  // host conditions as the requests, where back-to-back repetitions
  // would sample one moment.
  constexpr int kSetupProbes = 5;

  std::unique_ptr<Workload> w = make_workload(cfg);
  const int warm_restarts = w->warm_restarts();
  if (cfg.trace) vdep::obs::MetricsRegistry::instance().enable();

  int dirs = 0;
  auto fresh_dir = [&] {
    return cfg.work_dir + "/cache" + std::to_string(dirs++);
  };
  std::vector<double> setup_s;
  auto timed_setup = [&](const std::string& dir) {
    Clock::time_point t0 = Clock::now();
    w->setup(dir);
    setup_s.push_back(seconds_since(t0));
  };

  // The set-up that serves the run.
  const std::string cache_dir = fresh_dir();
  timed_setup(cache_dir);
  const std::shared_ptr<vdep::cache::DiskCache> disk =
      vdep::cache::DiskCache::resolve(cache_dir, true);
  if (!disk) throw std::runtime_error("cannot open disk cache " + cache_dir);

  // Self-test: a request whose output store is corrupted after execution
  // must come out of verification as failed.
  Request selftest = w->issue(w->selftest_job(), nullptr, true);

  Layers layers, warm_layers;
  std::vector<Request> measured, warm;
  std::vector<Job> jobs;
  Snapshot aside_delta, warm_delta;

  // Warm restart: a new session over the run's disk cache re-requests
  // what was measured since the previous restart.
  std::size_t warm_from = 0;
  auto warm_restart = [&] {
    if (warm_from == jobs.size()) return;
    std::vector<Job> since(jobs.begin() + static_cast<long>(warm_from),
                           jobs.end());
    warm_from = jobs.size();
    Snapshot s0 = snapshot(*disk, cfg.trace);
    w->aside([&] {
      w->open_session(cache_dir);
      for (const Job& job : w->warm_jobs(since))
        warm.push_back(
            w->issue(job, cfg.trace ? &warm_layers : nullptr, false));
    });
    Snapshot d = snapshot(*disk, cfg.trace) - s0;
    warm_delta += d;
    aside_delta += d;
  };
  // Set-up probe: the whole set-up again, in a session and disk cache of
  // its own.
  auto setup_probe = [&] {
    Snapshot s0 = snapshot(*disk, cfg.trace);
    w->aside([&] { timed_setup(fresh_dir()); });
    aside_delta += snapshot(*disk, cfg.trace) - s0;
  };

  // Measured phase: one closed-loop client, whole rounds, for cfg.seconds
  // of request time (probes and restarts are off the clock). In the
  // traced run even rounds are traced and odd rounds are not, so the two
  // halves give the tracing overhead.
  vdep::CacheStats plan0 = w->plan_stats();
  Snapshot m0 = snapshot(*disk, cfg.trace);
  double measured_s = 0;
  int probes = 0, restarts = 0;
  for (std::size_t round = 0; measured_s < cfg.seconds; ++round) {
    bool traced = cfg.trace && round % 2 == 0;
    Clock::time_point r0 = Clock::now();
    for (const Job& job : w->next_round()) {
      measured.push_back(w->issue(job, traced ? &layers : nullptr, false));
      measured.back().traced = traced;
      jobs.push_back(job);
    }
    measured_s += seconds_since(r0);
    if (restarts < warm_restarts &&
        measured_s >= cfg.seconds * (restarts + 1) / (warm_restarts + 1)) {
      warm_restart();
      ++restarts;
    }
    if (probes < kSetupProbes &&
        measured_s >= cfg.seconds * (probes + 1) / (kSetupProbes + 1)) {
      setup_probe();
      ++probes;
    }
  }
  vdep::CacheStats plan1 = w->plan_stats();
  Snapshot measured_delta = snapshot(*disk, cfg.trace) - m0 - aside_delta;
  warm_restart();  // compile_cold: the programs after the last restart

  std::vector<Request> extras;
  if (cfg.trace) w->traced_extras(layers, extras);

  // Verification against the interpreter oracle, outside every timed
  // region.
  std::vector<Request*> all;
  for (auto* v : {&measured, &warm, &extras})
    for (Request& r : *v) all.push_back(&r);
  double oracle_s = w->ledger.verify(all);
  w->ledger.verify({&selftest}, /*log=*/false);

  Outcome out;
  for (auto* v : {&measured, &warm, &extras})
    for (const Request& r : *v) {
      ++out.attempted;
      out.failed += r.failed ? 1 : 0;
    }
  bool selftest_caught = selftest.failed;
  if (!selftest_caught)
    std::fprintf(stderr, "perfbench: FAIL self-test: a corrupted output "
                         "store passed verification\n");
  i64 warm_misses = warm_delta.disk_misses;
  i64 warm_hits = warm_delta.disk_hits;
  if (warm_misses != 0)
    std::fprintf(stderr, "perfbench: FAIL a warm restart missed the disk cache "
                         "%lld time(s)\n", static_cast<long long>(warm_misses));
  // compile_cold's premise: every measured request missed the plan cache.
  bool cold_ok = !w->every_request_cold() ||
                 plan1.misses - plan0.misses ==
                     static_cast<i64>(measured.size());
  if (!cold_ok)
    std::fprintf(stderr, "perfbench: FAIL a compile_cold request hit the "
                         "plan cache\n");
  out.correct = out.failed == 0 && selftest_caught && warm_misses == 0 &&
                cold_ok;

  // End-to-end metrics (all requests of the untraced run; in the traced
  // run they go to the detail line only).
  std::vector<double> lat = latencies(measured, -1);
  i64 iterations = 0;
  for (const Request& r : measured) iterations += r.iterations;
  std::vector<Metric> e2e = {
      {"req_p50_ms", quantile(lat, 0.5), "ms"},
      {"req_p90_ms", quantile(lat, 0.9), "ms"},
      {"iters_per_s", static_cast<double>(iterations) / measured_s, "1/s"},
      {"setup_s", quantile(setup_s, 0.5), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"warm_start_ms", quantile(latencies(warm, -1), 0.5), "ms"},
  };
  std::size_t beyond_p90 = static_cast<std::size_t>(std::count_if(
      lat.begin(), lat.end(), [&](double v) { return v > e2e[1].value; }));
  out.detail = {{"requests", static_cast<double>(measured.size())},
                {"requests_beyond_p90", static_cast<double>(beyond_p90)},
                {"warm_requests", static_cast<double>(warm.size())},
                {"setups", static_cast<double>(setup_s.size())},
                {"measured_s", measured_s},
                {"programs", static_cast<double>(w->ledger.size())},
                {"warm_disk_hits", static_cast<double>(warm_hits)},
                {"warm_disk_misses", static_cast<double>(warm_misses)},
                {"fail_frac", out.attempted
                                  ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0},
                {"oracle_s", oracle_s}};
  if (!cfg.trace) {
    out.metrics = e2e;
    return out;
  }
  for (const Metric& m : e2e) out.detail.push_back({m.name, m.value});

  // Per-layer metrics of the traced run. Times are per traced request
  // unless named otherwise.
  std::vector<double> traced_lat = latencies(measured, 1);
  double treq = static_cast<double>(traced_lat.size());
  double twall = 0;
  for (double v : traced_lat) twall += v;
  const Layers& L = layers;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto per_req = [&](const char* n) { return ratio(L.get(n), treq); };
  // ExecReport-derived values are per executed program (a batch request
  // executes many).
  auto per_rep = [&](const char* n) {
    return ratio(L.get(n), L.get("#reports"));
  };
  double warm_n = static_cast<double>(warm.size());
  double measured_n = static_cast<double>(measured.size());
  double top = 0;
  for (const char* n : {"dsl.parse_ms", "api.compile_miss_ms",
                        "api.compile_hit_ms", "exec.store_ms", "exec.fill_ms",
                        "runtime.execute_ms", "exec.digest_ms",
                        "exec.release_ms"})
    top += L.get(n);
  double untraced_p50 = quantile(latencies(measured, 0), 0.5);
  double traced_p50 = quantile(traced_lat, 0.5);

  out.metrics = {
      {"dsl.parse_ms", per_req("dsl.parse_ms"), "ms"},
      {"api.compile_miss_ms",
       ratio(L.get("api.compile_miss_ms"), L.get("#compile_miss_calls")), "ms"},
      {"api.compile_hit_ms",
       ratio(L.get("api.compile_hit_ms"), L.get("#compile_hit_calls")), "ms"},
      {"api.plan_hit_ratio",
       ratio(L.get("#plan_hits"), L.get("#plan_hits") + L.get("#plan_misses")),
       "ratio"},
      {"codegen.emit_ms", per_rep("codegen.emit_ms"), "ms"},
      {"jit.cc_ms", per_rep("jit.cc_ms"), "ms"},
      {"jit.builds",
       ratio(static_cast<double>(measured_delta.builds), measured_n), "count"},
      {"jit.warm_builds", static_cast<double>(warm_delta.builds), "count"},
      {"jit.native_ratio", ratio(L.get("#jit"), L.get("#reports")), "ratio"},
      {"jit.partitioned_ratio", ratio(L.get("#partitioned"), L.get("#reports")),
       "ratio"},
      {"cache.disk_hit_ratio",
       ratio(static_cast<double>(warm_hits),
             static_cast<double>(warm_hits + warm_misses)),
       "ratio"},
      {"cache.disk_stores",
       ratio(static_cast<double>(measured_delta.disk_stores), measured_n),
       "count"},
      {"cache.warm_load_ms", ratio(warm_layers.get("jit.cc_ms"), warm_n), "ms"},
      {"exec.store_ms", per_req("exec.store_ms"), "ms"},
      {"exec.fill_ms", per_req("exec.fill_ms"), "ms"},
      {"exec.digest_ms", per_req("exec.digest_ms"), "ms"},
      {"exec.release_ms", per_req("exec.release_ms"), "ms"},
      {"runtime.execute_ms", per_req("runtime.execute_ms"), "ms"},
      {"runtime.build_ms", per_rep("runtime.build_ms"), "ms"},
      {"runtime.run_ms", per_rep("runtime.run_ms"), "ms"},
      {"runtime.idle_frac", ratio(L.get("#idle_ns"), L.get("#worker_ns")),
       "ratio"},
      {"runtime.tasks", per_rep("runtime.tasks"), "count"},
      {"runtime.steals", per_rep("runtime.steals"), "count"},
      {"runtime.steal_success_ratio",
       ratio(L.get("runtime.steals"),
             L.get("runtime.steals") + L.get("#failed_steals")),
       "ratio"},
      {"runtime.inner_splits", per_rep("runtime.inner_splits"), "count"},
      {"runtime.queue_ms", per_rep("runtime.queue_ms"), "ms"},
      {"runtime.scaling_x", L.get("runtime.scaling_x"), "x"},
      {"inspect.inspect_ms",
       ratio(L.get("inspect.inspect_ms"), L.get("#inspections")), "ms"},
      {"inspect.run_ms", ratio(L.get("inspect.run_ms"), L.get("#inspections")),
       "ms"},
      {"inspect.share", ratio(L.get("#inspect_ns"), L.get("#inspect_wall_ns")),
       "ratio"},
      {"inspect.classes",
       ratio(L.get("inspect.classes"), L.get("#inspections")), "count"},
      {"inspect.max_component",
       ratio(L.get("inspect.max_component"), L.get("#inspections")), "count"},
      {"obs.trace_overhead_pct",
       untraced_p50 > 0 ? (traced_p50 / untraced_p50 - 1) * 100 : 0, "%"},
      {"bench.coverage_pct", ratio(top, twall) * 100, "%"},
      {"bench.other_ms", treq ? (twall - top) / treq : 0, "ms"},
      {"bench.oracle_s", oracle_s, "s"},
  };
  return out;
}

}  // namespace perfbench
