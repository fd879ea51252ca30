#!/usr/bin/env python3
r"""End-to-end benchmark of vdep: builds the benchmark from source, runs one
workload in its own process, and prints the result as the last line.

    python3 perfbench/run.py --workload exec_large --seed 7 --seconds 45 \
        --trace 0

Run it from the repository root. The build goes to .bench_build/, scratch
files (disk caches, JIT work files, cc temporaries) to a per-run directory
under it that is removed afterwards, and the full record of the run (host
and build stamp, sample counts, result) to .bench_build/results/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it is the stamp. Exit status is non-zero,
with no result line, when the build or the run fails.
"""
import argparse
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
import time

WORKLOADS = ("exec_large", "batch_small", "compile_cold")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "vdep_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring the binary up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "vdep_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def host_stamp():
    """Same topology fields as tools/bench_scrape.sh's host row."""
    cpus = glob.glob("/sys/devices/system/cpu/cpu[0-9]*")
    packages = {read(c + "/topology/physical_package_id", "0") for c in cpus}
    cores = {(read(c + "/topology/physical_package_id", "0"),
              read(c + "/topology/core_id"))
             for c in cpus if os.path.exists(c + "/topology/core_id")}
    model = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    hw = os.cpu_count() or 0
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hw_threads": hw,
        "cpu_model": model,
        "sockets": len(packages),
        "numa_nodes": len(glob.glob("/sys/devices/system/node/node[0-9]*")),
        "cores": len(cores),
        "smt": -(-hw // len(cores)) if cores else 0,
        "kernel": platform.release(),
    }


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    t_build = time.monotonic()
    if not build():
        return 1
    build_s = time.monotonic() - t_build

    work = os.path.join(BUILD, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    os.makedirs(os.path.join(work, "jit"))
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    env.pop("VDEP_CACHE_DIR", None)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        log("benchmark exited with status %d" % proc.returncode)
        return 1

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
    except (IndexError, KeyError, ValueError) as e:
        log("unparseable benchmark output: %s" % e)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result object has unexpected keys: %s" % sorted(result))
        return 1

    stamp = dict(host_stamp(), git_sha=git_sha(), workload=args.workload,
                 seed=args.seed, seconds=args.seconds, trace=args.trace,
                 build_s=round(build_s, 3), **detail)
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    record = os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" %
                          (args.workload, args.seed, args.trace))
    with open(record, "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
