#include "runtime/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/work_queue.h"
#include "topo/affinity.h"
#include "topo/topology.h"

namespace vdep::runtime {

namespace {

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-source live-descriptor counter, padded so adjacent sources' hot
/// counters never share a cache line.
struct alignas(64) Pending {
  std::atomic<i64> count{0};
};

/// Adds every counter of `from` into `into`.
void add_counters(WorkerStats& into, const WorkerStats& from) {
  into.tasks += from.tasks;
  into.splits += from.splits;
  into.steals += from.steals;
  into.iterations += from.iterations;
  into.busy_ns += from.busy_ns;
  into.idle_ns += from.idle_ns;
  into.failed_steals += from.failed_steals;
  for (int a = 0; a <= TaskDescriptor::kMaxDims; ++a)
    into.axis_splits[a] += from.axis_splits[a];
  for (int d = 0; d < kStealDistances; ++d)
    into.steals_by_distance[d] += from.steals_by_distance[d];
}

/// The seeding rule of drive_descriptors (driver.h): every nonempty root
/// tagged with its source, split fattest-first up to `threads` pieces, then
/// ordered by (source, position) so deque k holds the k-th slice of the
/// space — the slice a first-touch store placed near pinned worker k. The
/// seeding splits are charged to worker 0's counters of the split source
/// (each still turns one descriptor into two, so tasks == splits + roots
/// holds run-wide).
std::vector<TaskDescriptor> seed_pieces(std::span<const DriveSource> sources,
                                        std::size_t threads,
                                        std::vector<WorkerStats>& seeder) {
  std::vector<TaskDescriptor> pieces;
  pieces.reserve(std::max(sources.size(), threads));
  for (std::size_t s = 0; s < sources.size(); ++s) {
    if (sources[s].root.empty()) continue;
    pieces.push_back(sources[s].root);
    pieces.back().source = static_cast<i64>(s);
  }
  while (pieces.size() < threads) {
    std::size_t fattest = pieces.size();
    i64 most = 0;
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      const DriveSource& src =
          sources[static_cast<std::size_t>(pieces[k].source)];
      if (pieces[k].cells() > most && can_split(pieces[k], src.grain)) {
        fattest = k;
        most = pieces[k].cells();
      }
    }
    if (fattest == pieces.size()) break;
    const std::size_t s = static_cast<std::size_t>(pieces[fattest].source);
    int axis = 0;
    pieces.push_back(
        split(pieces[fattest], sources[s].grain, &axis, &sources[s].prefs));
    ++seeder[s].splits;
    ++seeder[s].axis_splits[axis];
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const TaskDescriptor& a, const TaskDescriptor& b) {
              if (a.source != b.source) return a.source < b.source;
              for (int d = 0; d < a.ndims; ++d)
                if (a.lo[d] != b.lo[d]) return a.lo[d] < b.lo[d];
              return a.class_lo < b.class_lo;
            });
  return pieces;
}

}  // namespace

namespace detail {

bool effective_pin(bool opt_in, std::size_t threads) {
  return opt_in && threads > 1 && topo::pin_supported() &&
         topo::pin_env_enabled();
}

}  // namespace detail

RuntimeStats drive_descriptors(std::span<const DriveSource> sources,
                               const DriveOptions& opts, ThreadPool* pool) {
  const std::size_t threads = std::max<std::size_t>(opts.threads, 1);
  const std::size_t ns = sources.size();
  RuntimeStats out;
  out.workers.resize(threads);
  out.sources.resize(ns);

  // Per (worker, source) counters, row-major by worker: single writer each,
  // aggregated after the join. Idle time belongs to no source, so each
  // worker's idle accounting has its own block.
  std::vector<WorkerStats> cells(threads * ns);
  std::vector<WorkerStats> idle(threads);

  // Seeded before any worker starts (thread creation / the pool's queue
  // mutex publishes the pushes to every worker).
  const std::vector<TaskDescriptor> pieces =
      seed_pieces(sources, threads, cells);
  if (pieces.empty()) return out;
  std::vector<std::unique_ptr<WorkStealingDeque>> deques;
  deques.reserve(threads);
  for (std::size_t k = 0; k < threads; ++k)
    deques.push_back(std::make_unique<WorkStealingDeque>());
  // Live descriptors (queued or executing) per source, plus the count of
  // unfinished sources: a worker retires only descriptors it holds, so a
  // source's count hitting zero is exactly "every descriptor of it ran".
  std::vector<Pending> pending(ns);
  std::atomic<i64> live_sources{0};
  for (std::size_t k = 0; k < pieces.size(); ++k) {
    const std::size_t s = static_cast<std::size_t>(pieces[k].source);
    if (pending[s].count.fetch_add(1, std::memory_order_relaxed) == 0)
      live_sources.fetch_add(1, std::memory_order_relaxed);
    deques[k % threads]->push(pieces[k]);
  }
  std::vector<i64> done_ns(ns, 0);
  // Stamped once per source by whichever worker starts its first
  // descriptor.
  std::vector<std::atomic<i64>> first_start(ns);

  // Topology: where each worker pins and whom it robs first. Computed even
  // when pinning is off — the distance-ordered sweep is deterministic
  // either way, and the per-distance counters stay meaningful relative to
  // the assignment the workers *would* have.
  const topo::Topology& topology = topo::Topology::system();
  const std::vector<int> assignment = topology.assign_workers(threads);
  const bool pin = detail::effective_pin(opts.pin_workers, threads);

  std::atomic<bool> abort{false};
  std::exception_ptr first_error;
  i64 first_error_source = -1;
  std::mutex error_mutex;

  // Observability gates, sampled once per run: with the recorder/registry
  // globally off (or the run opting out) the workers pay one hoisted bool
  // test per site, no clock reads beyond the two busy_ns already makes.
  const bool tracing = opts.trace && obs::TraceRecorder::enabled();
  const bool metrics = opts.metrics && obs::MetricsRegistry::enabled();
  obs::Histogram* steal_lat = nullptr;
  obs::Histogram* leaf_cells = nullptr;
  obs::Histogram* qdepth = nullptr;
  if (metrics) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
    steal_lat = &reg.histogram(
        "vdep_steal_latency_ns", obs::exp_buckets(1000, 4.0, 12),
        "idle-episode length ending in a successful steal");
    leaf_cells = &reg.histogram("vdep_leaf_cells",
                                obs::exp_buckets(1, 4.0, 16),
                                "cells per executed leaf descriptor");
    qdepth = &reg.histogram("vdep_queue_depth", obs::exp_buckets(1, 2.0, 10),
                            "owner deque size sampled at split");
  }

  const i64 t0 = now_ns();
  const int n = static_cast<int>(threads);
  auto worker_main = [&](int id) {
    // Pin for the run's duration; the guard restores the thread's previous
    // mask (worker 0 is the caller, pool threads are long-lived).
    std::optional<topo::AffinityGuard> pin_guard;
    if (pin)
      pin_guard.emplace(
          topology.cpus()[static_cast<std::size_t>(
                              assignment[static_cast<std::size_t>(id)])]
              .cpu);
    // Victim probe order, nearest ring first; the sweep randomizes its
    // start within each ring (cheap xorshift, seeded per worker) so
    // same-distance victims share the load.
    const std::vector<std::vector<int>> rings =
        topology.steal_rings(assignment, id);
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(id) + 1);
    auto next_rand = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };

    WorkStealingDeque& own = *deques[static_cast<std::size_t>(id)];
    WorkerStats* const my_cells = &cells[static_cast<std::size_t>(id) * ns];
    // This worker's leaf runners, one per source, built on the first
    // descriptor of that source it runs.
    std::vector<LeafFn> leaves(ns);

    auto process = [&](TaskDescriptor task) {
      const std::size_t s = static_cast<std::size_t>(task.source);
      const DriveSource& src = sources[s];
      WorkerStats& stats = my_cells[s];
      const i64 t_start = now_ns();
      if (first_start[s].load(std::memory_order_relaxed) == 0) {
        i64 expect = 0;
        first_start[s].compare_exchange_strong(
            expect, std::max<i64>(1, t_start - t0), std::memory_order_relaxed);
      }
      try {
        // Split depth-first: push the large high halves (stolen first),
        // keep refining the low half until it is a leaf, run it.
        while (can_split(task, src.grain)) {
          int axis = 0;
          TaskDescriptor high = split(task, src.grain, &axis, &src.prefs);
          pending[s].count.fetch_add(1, std::memory_order_relaxed);
          own.push(high);
          ++stats.splits;
          ++stats.axis_splits[axis];
          if (tracing || metrics) {
            const i64 depth = own.size_estimate();
            if (metrics) qdepth->observe(depth);
            if (tracing) {
              obs::TraceEvent ev;
              ev.start_ns = obs::now_ns();
              ev.kind = obs::EventKind::kSplit;
              ev.worker = id;
              ev.args[0] = axis;
              ev.args[1] = task.cells();
              ev.args[2] = depth;
              ev.args[3] = task.source;
              obs::TraceRecorder::record(ev);
            }
          }
        }
        LeafFn& leaf = leaves[s];
        if (!leaf) leaf = src.leaf_factory(id, stats);
        leaf(task);
        ++stats.tasks;
        if (metrics) leaf_cells->observe(task.cells());
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
          first_error_source = task.source;
        }
        abort.store(true, std::memory_order_release);
      }
      const i64 t_end = now_ns();
      if (pending[s].count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Unique last retirer of the source: stamp its completion.
        done_ns[s] = t_end - t0;
        live_sources.fetch_sub(1, std::memory_order_acq_rel);
      }
      if (tracing) {
        obs::TraceEvent ev;
        ev.start_ns = t_start;
        ev.dur_ns = t_end - t_start;
        ev.kind = obs::EventKind::kLeafExec;
        ev.worker = id;
        ev.args[0] = task.cells();
        ev.args[1] = task.source;
        ev.args[2] = task.ndims > 0 ? task.lo[0] : 0;
        ev.args[3] = task.ndims > 0 ? task.hi[0] : 0;
        ev.args[4] = task.class_lo;
        ev.args[5] = task.class_hi;
        obs::TraceRecorder::record(ev);
      }
      stats.busy_ns += t_end - t_start;
    };

    // One idle episode spans from the first failed pop to the steal (or
    // exit) that ends it; a worker's own deque cannot refill while it is
    // idle (only its own process() pushes), so episodes close exactly there.
    WorkerStats& idle_stats = idle[static_cast<std::size_t>(id)];
    int idle_sweeps = 0;
    i64 idle_t0 = 0;
    auto close_idle = [&](obs::EventKind kind, i64 a0, i64 a1, i64 a2 = 0) {
      if (idle_t0 == 0) return;
      const i64 t1 = now_ns();
      idle_stats.idle_ns += t1 - idle_t0;
      if (kind == obs::EventKind::kSteal && metrics)
        steal_lat->observe(t1 - idle_t0);
      if (tracing) {
        obs::TraceEvent ev;
        ev.start_ns = idle_t0;
        ev.dur_ns = t1 - idle_t0;
        ev.kind = kind;
        ev.worker = id;
        ev.args[0] = a0;
        ev.args[1] = a1;
        ev.args[2] = a2;
        obs::TraceRecorder::record(ev);
      }
      idle_t0 = 0;
    };
    for (;;) {
      if (abort.load(std::memory_order_acquire)) return;
      TaskDescriptor task;
      if (own.pop(task)) {
        process(task);
        idle_sweeps = 0;
        continue;
      }
      if (idle_t0 == 0) idle_t0 = now_ns();
      if (live_sources.load(std::memory_order_acquire) == 0) {
        close_idle(obs::EventKind::kIdle, 0, 0);
        return;
      }
      // Distance-ordered sweep: co-resident workers first (their deque is
      // in this cpu's cache), then SMT siblings, same-node cores, and only
      // then remote nodes; within a ring the start rotates randomly. The
      // steal lands on the stolen descriptor's source block, so the
      // per-source traffic mix stays visible.
      bool stolen = false;
      int victim_id = -1;
      int victim_distance = 0;
      for (int d = 0; d < topo::Topology::kNumDistances && !stolen; ++d) {
        const std::vector<int>& ring = rings[static_cast<std::size_t>(d)];
        if (ring.empty()) continue;
        const std::size_t start = next_rand() % ring.size();
        for (std::size_t k = 0; k < ring.size() && !stolen; ++k) {
          const int victim = ring[(start + k) % ring.size()];
          if (deques[static_cast<std::size_t>(victim)]->steal(task)) {
            WorkerStats& st = my_cells[static_cast<std::size_t>(task.source)];
            ++st.steals;
            ++st.steals_by_distance[d];
            victim_id = victim;
            victim_distance = d;
            stolen = true;
          }
        }
      }
      if (stolen) {
        close_idle(obs::EventKind::kSteal, victim_id, task.source,
                   victim_distance);
        process(task);
        idle_sweeps = 0;
      } else {
        if (n > 1) ++idle_stats.failed_steals;
        if (++idle_sweeps < 16) {
          std::this_thread::yield();
        } else {
          // Nothing stealable for a while (e.g. one unsplittable descriptor
          // left): back off instead of burning a core per idle worker —
          // but re-check termination first, or a worker backing off just as
          // the last descriptor retires eats a full backoff before exiting
          // (visible as tail idle_ns on small runs).
          if (live_sources.load(std::memory_order_acquire) == 0) continue;
          std::this_thread::sleep_for(std::chrono::microseconds(
              std::min(50 * (idle_sweeps - 15), 1000)));
        }
      }
    }
  };

  if (pool) {
    // One chunk per worker context; pool threads plus the caller claim
    // them. A pool smaller than threads just runs some contexts after
    // others finished (they see no live source and return immediately).
    pool->parallel_for(static_cast<i64>(threads),
                       [&](i64 id) { worker_main(static_cast<int>(id)); });
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads - 1);
    for (int k = 1; k < n; ++k) workers.emplace_back(worker_main, k);
    worker_main(0);  // the calling thread is worker 0
    for (std::thread& t : workers) t.join();
  }
  out.wall_ns = now_ns() - t0;

  for (std::size_t id = 0; id < threads; ++id) {
    add_counters(out.workers[id], idle[id]);
    for (std::size_t s = 0; s < ns; ++s) {
      add_counters(out.workers[id], cells[id * ns + s]);
      add_counters(out.sources[s].counters, cells[id * ns + s]);
    }
  }
  for (std::size_t s = 0; s < ns; ++s) {
    out.sources[s].done_ns = done_ns[s];
    out.sources[s].queue_ns = first_start[s].load(std::memory_order_relaxed);
  }
  out.error = first_error;
  out.error_source = first_error_source;
  if (metrics) publish_run_metrics(out.workers);
  return out;
}

}  // namespace vdep::runtime
