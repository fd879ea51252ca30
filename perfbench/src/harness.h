// Request accounting, oracle verification and bench-side layer timing
// shared by the workloads (workloads.cpp).
//
// Vocabulary:
//   Program  one distinct input: DSL text plus, for the scatter program,
//            the contents of the index array B. The oracle digest is
//            computed once per Program.
//   Request  one closed-loop client request: handing the library its
//            input(s) up to the digest of the output store(s) and their
//            release. A request may carry several outputs (a batch).
//   Layers   the traced run's spans: elapsed time of each call into a
//            library module, timed from outside with steady_clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/array_store.h"

namespace perfbench {

using i64 = std::int64_t;
using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Program {
  std::string dsl;
  /// Contents written into array B (lower bound 0) after fill_pattern;
  /// null for programs whose data is fill_pattern alone.
  std::shared_ptr<const std::vector<i64>> index;
};

/// The library's input for `p`: the deterministic pattern fill plus the
/// program's own index data. The oracle and every request build their
/// stores through this one function.
void fill_inputs(vdep::exec::ArrayStore& store, const Program& p);

struct Output {
  std::size_t program = 0;
  i64 checksum = 0;
};

struct Request {
  double ms = 0;
  i64 iterations = 0;
  bool traced = false;
  std::string error;  ///< ApiError / exception text; empty on success
  std::vector<Output> outputs;
  bool failed = false;  ///< set by Ledger::verify
};

/// Accumulated per-layer sums of the traced requests. Names starting with
/// '#' are counts and sums behind ratios, not metrics themselves.
class Layers {
 public:
  void add(const std::string& name, double v) { sums_[name] += v; }
  double get(const std::string& name) const {
    auto it = sums_.find(name);
    return it == sums_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> sums_;
};

/// Times one call into a library layer: adds the elapsed milliseconds to
/// `name` when tracing (layers != nullptr), costs nothing otherwise.
class Span {
 public:
  Span(Layers* layers, const char* name) : layers_(layers), name_(name) {
    if (layers_) t0_ = Clock::now();
  }
  ~Span() {
    if (layers_) layers_->add(name_, ms_since(t0_));
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Layers* layers_;
  const char* name_;
  Clock::time_point t0_{};
};

/// Distinct programs, the requests that used them, and their verification
/// against the interpreter oracle.
class Ledger {
 public:
  /// Registers a program, deduplicated on its DSL text (a run never
  /// pairs one text with two index arrays), and returns its id.
  std::size_t add(Program p);
  const Program& program(std::size_t id) const { return programs_[id]; }
  std::size_t size() const { return programs_.size(); }

  /// Computes the oracle digest of every program some request used (once
  /// each, exec::run_sequential on fill_inputs), then marks every request
  /// that errored, whose oracle threw, or whose digest differs as failed.
  /// Failures are logged to stderr when `log` is set. Returns the
  /// oracle's wall seconds.
  double verify(const std::vector<Request*>& requests, bool log = true);

 private:
  struct Oracle {
    bool done = false;
    bool ok = false;
    i64 digest = 0;
    std::string error;
  };
  std::vector<Program> programs_;
  std::vector<Oracle> oracle_;
  std::map<std::string, std::size_t> ids_;
};

/// The q-quantile (0..1) of `v` by linear interpolation; 0 when empty.
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
