#!/usr/bin/env bash
# Runs the always-built JSON benches and scrapes their line-protocol output
# into one BENCH_runtime.json (one JSON object per line) — the per-PR perf
# trajectory artifact committed to the repo and uploaded by CI.
#
#   tools/bench_scrape.sh [build-dir] [output-file]
set -euo pipefail

build_dir=${1:-build}
out=${2:-BENCH_runtime.json}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# First row: host metadata, so every committed BENCH_runtime.json records
# where its numbers came from. Best-effort fields degrade to "unknown"
# (e.g. no git in a tarball checkout) rather than failing the scrape.
cxx=$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
      "$build_dir"/CMakeCache.txt 2>/dev/null | head -n1)
cxx_id=$("${cxx:-c++}" --version 2>/dev/null | head -n1 || echo unknown)
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
             "$build_dir"/CMakeCache.txt 2>/dev/null | head -n1)
git_sha=$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null \
          || echo unknown)
hw=$(nproc 2>/dev/null || echo 0)
# Topology fields (sysfs; degrade to 0 where the host exposes nothing —
# e.g. containers without /sys/devices/system/node).
cpu_sysfs=/sys/devices/system/cpu
sockets=$(cat "$cpu_sysfs"/cpu*/topology/physical_package_id 2>/dev/null \
          | sort -u | wc -l)
numa_nodes=$(ls -d /sys/devices/system/node/node* 2>/dev/null | wc -l)
# Physical cores = unique (package, core) pairs; core ids alone repeat
# across sockets.
cores=$(for c in "$cpu_sysfs"/cpu[0-9]*; do
  [ -r "$c/topology/core_id" ] || continue
  echo "$(cat "$c/topology/physical_package_id" 2>/dev/null || echo 0):$(cat "$c/topology/core_id")"
done | sort -u | wc -l)
smt=0
if [ "${cores:-0}" -gt 0 ] && [ "$hw" -gt 0 ]; then
  smt=$(( (hw + cores - 1) / cores ))
fi
printf '{"bench":"host","compiler":"%s","build_type":"%s","git_sha":"%s","hw_threads":%s,"sockets":%s,"numa_nodes":%s,"cores":%s,"smt":%s}\n' \
  "${cxx_id//\"/\\\"}" "${build_type:-unknown}" "$git_sha" "$hw" \
  "${sockets:-0}" "${numa_nodes:-0}" "${cores:-0}" "$smt" >> "$tmp"

"$build_dir"/bench_runtime_throughput | tee /dev/stderr >> "$tmp"
# Gate rows (best-of-3 skewed speedups, or the structured gate_skip row on
# small hosts) join the trajectory; pass/fail is the bench-smoke CI step's
# job, not the scrape's. They are tagged `gate:` so the dedupe below can
# tell them from the default run's rows of the same scenarios.
("$build_dir"/bench_runtime_throughput --gate || true) | tee /dev/stderr |
  sed 's/^{/gate:{/' >> "$tmp"
"$build_dir"/bench_plan_cache | tee /dev/stderr >> "$tmp"
"$build_dir"/bench_jit_speedup | tee /dev/stderr >> "$tmp"
# Partition-gate lines are scraped for the trajectory; the pass/fail bar
# itself is enforced by the dedicated jit-smoke CI step, so a miss here
# only shows up in the data, it doesn't abort the scrape.
("$build_dir"/bench_jit_speedup --partition-gate || true) | tee /dev/stderr >> "$tmp"
# Cold-start rows likewise: the zero-cc warm-start bar is the cache-smoke CI
# step's job; the scrape just records the cold/warm latency trajectory.
("$build_dir"/bench_jit_speedup --cold-start-gate || true) | tee /dev/stderr >> "$tmp"
"$build_dir"/bench_batch_serving | tee /dev/stderr >> "$tmp"
"$build_dir"/bench_inspector | tee /dev/stderr >> "$tmp"

# The default run prints each skewed scenario once and the gate run three
# more times (one row per rep): keep one row per (bench, name, mode,
# threads, n), the gate's fastest rep (its last row when the rows carry no
# time), in the place of the scenario's first row.
python3 - "$tmp" > "$out" <<'PY'
import json, sys

def key(line):
    r = json.loads(line)
    return (r.get("bench"), r.get("name"), r.get("mode"), r.get("threads"),
            r.get("n")), r.get("seconds")

lines = [l.rstrip("\n") for l in open(sys.argv[1])]
best = {}
for l in lines:
    if l.startswith("gate:{"):
        k, secs = key(l[5:])
        old = best.get(k)
        if old is None or secs is None or old[1] is None or secs < old[1]:
            best[k] = (l[5:], secs)
done = set()
for l in lines:
    body = l[5:] if l.startswith("gate:{") else l
    if not body.startswith("{"):
        continue
    k = key(body)[0]
    if k in best:
        if k in done:
            continue
        done.add(k)
        body = best[k][0]
    print(body)
PY
echo "wrote $(wc -l < "$out") json lines to $out" >&2
