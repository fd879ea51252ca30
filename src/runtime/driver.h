// The work-stealing descriptor driver: the one scheduling loop every
// executor that speaks TaskDescriptor shares — the streaming plan executor,
// the inspector executor, and the batch API (many requests, one worker
// set). Chase-Lev deques, workers pinned to topology-assigned cpus,
// depth-first splitting along the longest (or locality-preferred) axis,
// distance-ordered steal sweeps with idle backoff, first-error abort, and
// the tracing/metrics gates.
//
// A run drives one or more *sources*, each an independent descriptor space
// with its own root, grain, split preferences and leaf runner: one loop's
// (DOALL hull x classes) box, an inspector class range, or one request of a
// batch. Legality is per source: two descriptors of one source are disjoint
// iteration boxes of its space (Lemma 1 x Theorem 2), and descriptors of
// different sources touch different stores, so any interleaving is safe.
// Descriptors carry their source index (TaskDescriptor::source), so they
// mix in the deques and migrate by the normal stealing rules: the run's
// total parallelism, not any single source's, keeps the workers busy, and
// the fork/join cost is paid once per run.
//
// The driver owns *scheduling* only. What a leaf descriptor means (a boxed
// DOALL prefix x class range to scan, a native-kernel range call, a run of
// inspector classes) is the caller's business, encoded in the LeafFactory.
#pragma once

#include <functional>
#include <span>

#include "runtime/stats.h"
#include "runtime/task.h"
#include "support/thread_pool.h"

namespace vdep::runtime {

/// Runs one leaf descriptor. Created per (worker, source) by a factory so
/// scan state (or kernel bindings) stay thread-private.
using LeafFn = std::function<void(const TaskDescriptor&)>;
/// Builds the LeafFn of one worker context; `stats` is that context's
/// private counter block for the source (iterations are counted by the
/// leaf itself).
using LeafFactory = std::function<LeafFn(int, WorkerStats&)>;

/// One independent descriptor space of a run.
struct DriveSource {
  TaskDescriptor root;
  /// Descriptor grain in cells: descriptors with more cells keep splitting.
  i64 grain = 1;
  /// Locality weights for the split-axis choice (task.h). All-zero (the
  /// default) keeps the longest-axis policy.
  SplitPrefs prefs;
  /// Called by a worker the first time it runs a descriptor of this
  /// source. Must outlive the run, like everything its LeafFns reference.
  LeafFactory leaf_factory;
};

/// Workers, observability gates and pinning of one run. The executors
/// (runtime::StreamExecutor, inspect::InspectorExecutor) carry one of these
/// in their options instead of copying its fields.
struct DriveOptions {
  /// Worker contexts (the caller is context 0 when no pool is given); 0
  /// means hardware concurrency.
  std::size_t threads = 0;
  /// Allow this run to emit trace events when the global obs::TraceRecorder
  /// is enabled (leaf spans, split/steal/idle events).
  bool trace = true;
  /// Same gate for the global obs::MetricsRegistry.
  bool metrics = true;
  /// Pin each worker to the cpu topo::Topology::system().assign_workers
  /// hands it for the duration of the run (previous affinity restored at
  /// exit). Also honors the VDEP_PIN=0 environment opt-out; no-op on hosts
  /// without sched_setaffinity.
  bool pin_workers = true;

  /// `threads` with 0 resolved to the hardware concurrency.
  std::size_t workers() const;
};

/// Runs every source's root down to its grain across `opts.workers()`
/// work-stealing workers and every leaf through its source's LeafFns.
///
/// Seeding, before any worker starts: the nonempty roots are the first
/// pieces; while there are fewer pieces than workers, the fattest
/// splittable piece is split with its own source's grain and prefs. The
/// pieces are ordered by (source, position) and piece k goes to deque k mod
/// threads. With one root, pinned worker k starts on the k-th slice of the
/// iteration space (the slice a first-touch store placed on k's node); with
/// at least as many roots as workers, the roots are dealt round-robin.
/// Idle workers then steal nearest-first.
///
/// With `pool` null, spawns threads - 1 helpers and uses the calling thread
/// as worker 0; otherwise the pool's threads (plus the caller) claim the
/// worker contexts. The first leaf exception aborts the run: every worker
/// stops, the remaining descriptors are dropped, and the error comes back
/// in RuntimeStats::error with its source index.
RuntimeStats drive_descriptors(std::span<const DriveSource> sources,
                               const DriveOptions& opts,
                               ThreadPool* pool = nullptr);

namespace detail {
/// Whether a run should really pin: opted in, more than one worker, the
/// host supports sched_setaffinity, and VDEP_PIN=0 is not set.
bool effective_pin(bool opt_in, std::size_t threads);
}  // namespace detail

}  // namespace vdep::runtime
