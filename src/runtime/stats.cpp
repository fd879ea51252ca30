#include "runtime/stats.h"

#include <sstream>

#include "obs/metrics.h"

namespace vdep::runtime {

i64 RuntimeStats::total_tasks() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.tasks;
  return n;
}

i64 RuntimeStats::total_splits() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.splits;
  return n;
}

i64 RuntimeStats::total_steals() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.steals;
  return n;
}

i64 RuntimeStats::total_steals_by_distance(int d) const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.steals_by_distance[d];
  return n;
}

i64 RuntimeStats::total_iterations() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.iterations;
  return n;
}

i64 RuntimeStats::total_axis_splits(int axis) const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.axis_splits[axis];
  return n;
}

i64 inner_splits(const WorkerStats& w) {
  i64 n = 0;
  for (int axis = 1; axis < TaskDescriptor::kMaxDims; ++axis)
    n += w.axis_splits[axis];
  return n;
}

i64 RuntimeStats::total_inner_splits() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += inner_splits(w);
  return n;
}

i64 RuntimeStats::max_busy_ns() const {
  i64 m = 0;
  for (const WorkerStats& w : workers) m = std::max(m, w.busy_ns);
  return m;
}

i64 RuntimeStats::total_idle_ns() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.idle_ns;
  return n;
}

i64 RuntimeStats::total_failed_steals() const {
  i64 n = 0;
  for (const WorkerStats& w : workers) n += w.failed_steals;
  return n;
}

std::string RuntimeStats::to_string() const {
  std::ostringstream os;
  os << "worker  tasks  splits  steals  failed_steals  iterations  busy_ms  "
        "idle_ms\n";
  for (std::size_t k = 0; k < workers.size(); ++k) {
    const WorkerStats& w = workers[k];
    os << k << "  " << w.tasks << "  " << w.splits << "  " << w.steals << "  "
       << w.failed_steals << "  " << w.iterations << "  "
       << w.busy_ns / 1000000.0 << "  " << w.idle_ns / 1000000.0 << "\n";
  }
  os << "total  " << total_tasks() << "  " << total_splits() << "  "
     << total_steals() << "  " << total_failed_steals() << "  "
     << total_iterations() << "  wall_ms " << wall_ns / 1000000.0 << "\n";
  os << "splits by axis: outer " << total_axis_splits(0) << ", inner "
     << total_inner_splits() << ", classes "
     << total_axis_splits(TaskDescriptor::kClassAxis) << "\n";
  os << "steals by distance: same_cpu " << total_steals_by_distance(0)
     << ", smt_sibling " << total_steals_by_distance(1) << ", same_node "
     << total_steals_by_distance(2) << ", remote_node "
     << total_steals_by_distance(3) << "\n";
  const i64 attempts = total_steals() + total_failed_steals();
  os << "steal success rate: ";
  if (attempts == 0)
    os << "n/a (no contested sweeps)";
  else
    os << 100.0 * static_cast<double>(total_steals()) /
              static_cast<double>(attempts)
       << "% (" << total_steals() << "/" << attempts << " sweeps)";
  os << "\n";
  return os.str();
}

void publish_run_metrics(const std::vector<WorkerStats>& workers) {
  if (!obs::MetricsRegistry::enabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
  static obs::Counter& busy =
      reg.counter("vdep_worker_busy_ns", "wall ns inside descriptor execution");
  static obs::Counter& idle =
      reg.counter("vdep_worker_idle_ns", "wall ns with no runnable descriptor");
  static obs::Counter& tasks =
      reg.counter("vdep_tasks_total", "leaf descriptors executed");
  static obs::Counter& splits =
      reg.counter("vdep_splits_total", "descriptor splits");
  static obs::Counter& steals =
      reg.counter("vdep_steals_total", "successful steals");
  static obs::Counter& failed =
      reg.counter("vdep_failed_steals_total", "empty full steal sweeps");
  static obs::Counter& iters =
      reg.counter("vdep_iterations_total", "loop-body iterations executed");
  static obs::Counter& d_same_cpu = reg.counter(
      "vdep_steals_same_cpu_total", "steals from a worker on the same cpu");
  static obs::Counter& d_smt = reg.counter(
      "vdep_steals_smt_sibling_total", "steals from an SMT sibling");
  static obs::Counter& d_node = reg.counter(
      "vdep_steals_same_node_total", "steals within the same NUMA node");
  static obs::Counter& d_remote = reg.counter(
      "vdep_steals_remote_node_total", "steals across NUMA nodes");
  for (const WorkerStats& w : workers) {
    busy.inc(w.busy_ns);
    idle.inc(w.idle_ns);
    tasks.inc(w.tasks);
    splits.inc(w.splits);
    steals.inc(w.steals);
    failed.inc(w.failed_steals);
    iters.inc(w.iterations);
    d_same_cpu.inc(w.steals_by_distance[0]);
    d_smt.inc(w.steals_by_distance[1]);
    d_node.inc(w.steals_by_distance[2]);
    d_remote.inc(w.steals_by_distance[3]);
  }
}

}  // namespace vdep::runtime
