// Execution counters of the streaming runtime.
//
// Every worker owns one WorkerStats per source it runs and mutates it
// without synchronization; the driver aggregates after joining, so readers
// only ever see quiescent values. The aggregate view (RuntimeStats) is what
// benches and the API layer report.
#pragma once

#include <exception>
#include <string>
#include <vector>

#include "runtime/task.h"
#include "support/checked.h"

namespace vdep::runtime {

using i64 = checked::i64;

/// Steal-distance classes mirrored from topo::Topology (kSameCpu,
/// kSmtSibling, kSameNode, kRemoteNode) — duplicated here so the counter
/// block stays free of topology headers.
inline constexpr int kStealDistances = 4;

/// Private counters of one worker thread (no atomics: single writer, read
/// only after the worker joined). Padded to a cache line so adjacent
/// workers' counters never share one.
struct alignas(64) WorkerStats {
  i64 tasks = 0;       ///< leaf descriptors executed to completion
  i64 splits = 0;      ///< descriptors divided and re-enqueued
  i64 steals = 0;      ///< successful steals from another worker's deque
  i64 iterations = 0;  ///< loop-body iterations executed
  i64 busy_ns = 0;     ///< wall time spent inside descriptor execution
  i64 idle_ns = 0;     ///< wall time spent with no runnable descriptor
  /// Full steal sweeps (every other deque probed) that came back empty.
  i64 failed_steals = 0;
  /// Splits by chosen axis: slots 0..kMaxDims-1 are the boxed DOALL-prefix
  /// dimensions (outermost first), slot kClassAxis the class range. Their
  /// sum equals `splits`.
  i64 axis_splits[TaskDescriptor::kMaxDims + 1] = {};
  /// Successful steals by victim distance under the run's worker->cpu
  /// assignment: same cpu (oversubscribed co-residents), SMT sibling, same
  /// NUMA node, remote node. Their sum equals `steals`.
  i64 steals_by_distance[kStealDistances] = {};
};

/// Splits along inner DOALL axes (axis >= 1, class axis excluded) — the
/// splits the legacy outer-only policy could never perform.
i64 inner_splits(const WorkerStats& w);

/// One source's share of a run (runtime/driver.h).
struct SourceStats {
  /// Summed over workers. Idle time belongs to no source, so idle_ns and
  /// failed_steals stay 0 here.
  WorkerStats counters;
  i64 done_ns = 0;   ///< run start -> the source's last descriptor retired
  /// Queue latency: run start -> the source's first descriptor started
  /// executing (at least 1 once it ran; 0 for an empty root).
  i64 queue_ns = 0;
};

/// Aggregated run outcome.
struct RuntimeStats {
  /// Per worker, summed over sources, idle accounting included.
  std::vector<WorkerStats> workers;
  std::vector<SourceStats> sources;
  i64 wall_ns = 0;  ///< makespan of the whole run (seed to last join)
  /// First leaf failure and its source index; every worker stopped and the
  /// remaining descriptors were dropped. Null when the run completed.
  std::exception_ptr error;
  i64 error_source = -1;

  i64 total_tasks() const;
  i64 total_splits() const;
  i64 total_steals() const;
  /// Steals at one victim distance (0 = same cpu .. 3 = remote node).
  i64 total_steals_by_distance(int d) const;
  i64 total_iterations() const;
  /// Splits along one axis (0..kMaxDims-1 or TaskDescriptor::kClassAxis).
  i64 total_axis_splits(int axis) const;
  /// Splits along inner DOALL axes, summed over workers (inner_splits).
  i64 total_inner_splits() const;
  /// Max over workers of busy_ns — the critical-path estimate.
  i64 max_busy_ns() const;
  i64 total_idle_ns() const;
  i64 total_failed_steals() const;

  /// Multi-line human-readable table (one row per worker + totals).
  std::string to_string() const;
};

/// Publishes one run's aggregated per-worker counters into the global
/// obs::MetricsRegistry (vdep_worker_busy_ns, vdep_worker_idle_ns,
/// vdep_tasks_total, ...). No-op when the registry is disabled.
void publish_run_metrics(const std::vector<WorkerStats>& workers);

}  // namespace vdep::runtime
