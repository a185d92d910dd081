#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--input I]

Run it from the repository root. It configures and builds perfbench/ (the
simulator library compiled from src/ plus the harness) in Release mode
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then
runs the harness, which sets CCA_THREADS for the workload itself. An
untraced run splits --seconds over SHARDS harness processes, one after the
other, pools their wall times per cohort input and reports the median of
their other figures; every process must charge the same exact costs. The
last line of stdout is the JSON result; build output goes to stderr.
With --trace 1 the Chrome trace-event file of the traced half lands in
<build>/traces/<workload>-<seed>.json.

Workloads (see perfbench/README.md): apsp_sparse, count_dense,
kcycle_colour, count_socket_p2. Default seed 1; held-out seed 9001.
"""
import argparse
import fcntl
import json
import statistics
import os
import subprocess
import sys
import time

# Untraced runs split --seconds over this many harness processes, one after
# the other, and pool or take the median of their figures: on a shared host
# the speed of one process (its vCPU, a busy neighbour) differs by up to ~20%.
SHARDS = 5
RUN_BUDGET_S = 165  # all harness processes of one run together
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "clique", "network.hpp")):
        fail(f"simulator sources not found under {os.path.join(root, 'src')}")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                          build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    exe = os.path.join(build_dir, "perfbench")
    if not os.access(exe, os.X_OK):
        fail("build produced no perfbench binary")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs and one set-up repeat, for quick checks")
    ap.add_argument("--input", type=int, default=-1,
                    help="run only this cohort input (replays a mismatch)")
    a = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    exe = build(root, build_dir)

    shards = 1 if a.trace or a.smoke or a.input >= 0 else SHARDS
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds / shards), "--trace", str(a.trace)]
    if a.smoke:
        cmd.append("--smoke")
    if a.input >= 0:
        cmd += ["--input", str(a.input)]
    if a.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{a.workload}-{a.seed}.json")]

    deadline = time.monotonic() + RUN_BUDGET_S
    results = [run_shard(cmd, a.workload, deadline) for _ in range(shards)]
    print(json.dumps(results[0]["result"] if shards == 1 else merge(results)))


def run_shard(cmd, workload, deadline):
    """One harness process; echoes its report and returns it parsed."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_BUDGET_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail(f"{workload} exited {r.returncode}")
    setups, exact, walls = [], [], {}
    for line in lines[:-1]:
        if line.startswith("# setup_s"):
            setups = [float(v) for v in line.split()[2:]]
        elif line.startswith("# walls "):
            _, _, i, *values = line.split()
            walls[int(i)] = [float(v) for v in values]
        elif line.startswith("# exact "):
            exact.append(line)
        else:
            print(line)
    return {"result": json.loads(lines[-1]), "setup_s": setups, "exact": exact,
            "walls": walls}


def quantile(values, q):
    """Linear interpolation between closest ranks, as the harness does."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def cohort_times(walls):
    """solve_s_p50, solve_s_p90 and instances_per_s from the wall times of
    each cohort input, as the harness's cohort_times(): the quantiles of the
    inputs' medians, and the cohort size over the sum of those medians."""
    medians = [statistics.median(v) for v in walls.values()]
    return {"solve_s_p50": quantile(medians, 0.5),
            "solve_s_p90": quantile(medians, 0.9),
            "instances_per_s": len(medians) / sum(medians)}


def merge(shards):
    """One report from the shards. Every process ran the same cohort, so
    the exact cost of each input (rounds, words, supersteps, regions) must
    agree across them. The timings pool every process's wall times per
    input before cohort_times(); setup_s is the median of every set-up of
    every process; each other metric is the median of the processes' own
    values, so a slow spell on the host that hits one process does not move
    it."""
    first = shards[0]
    for s in shards[1:]:
        if s["exact"] != first["exact"]:
            diff = sorted(set(s["exact"]) ^ set(first["exact"]))
            fail("EXACTNESS exact costs differ between processes "
                 "('# exact input rounds words supersteps regions'): "
                 + "; ".join(diff[:4]))

    attempted = sum(s["result"]["attempted"] for s in shards)
    failed = sum(s["result"]["failed"] for s in shards)
    walls = {}
    for s in shards:
        for i, v in s["walls"].items():
            walls.setdefault(i, []).extend(v)
    times = cohort_times(walls)
    metrics = {}
    for name, m in first["result"]["metrics"].items():
        if name in times:
            value = times[name]
        elif name == "setup_s":
            value = statistics.median(x for s in shards for x in s["setup_s"])
        elif name == "ok_frac":
            value = (attempted - failed) / attempted
        else:
            value = statistics.median(s["result"]["metrics"][name]["value"]
                                      for s in shards)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(f"# median of {len(shards)} processes, {attempted} instances in all")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.9g} {m['unit']}")
    return {
        "correct": all(s["result"]["correct"] for s in shards),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    main()
