"""congforge benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload identities --seed 0 --seconds 27 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 27

Run from the root of a congforge checkout; the program is imported from
./src.  Each run starts fresh worker processes (one to measure, and
SETUP_ONLY_RUNS more that only set up, for a median set-up time) with the
BLAS pools pinned to one thread.  Times are reported in seconds of the
reference host: each measured time is scaled by how much slower a fixed
speed probe ran around it than on that host (calib.py).  The last line printed is one JSON
object: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  --all runs every workload both ways and prints every
metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from calib import REF_S  # noqa: E402
from spans import layer_metrics  # noqa: E402
from worker import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 6
WORKER_TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def worker_env(root):
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(root, args, deadline):
    """Run worker.py with args; returns its parsed JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.monotonic()
    timeout = max(1.0, deadline - t0)
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=root, env=worker_env(root),
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def ref_seconds(seconds, probe_s):
    """Seconds on the reference host: scaled by how much slower the speed
    probe ran than its reference time (calib.py)."""
    return seconds * REF_S / probe_s


def task_times(passes):
    """Each task's time in reference seconds: the median over the passes."""
    return [statistics.median(ts) for ts in zip(*(
        [ref_seconds(t, pr) for t, pr in zip(p["task_s"], p["probe_s"])] for p in passes))]


def end_to_end(res, setups):
    """wall_s is the sum of the task times, the percentiles are over tasks,
    set-up is the median over processes; all in reference seconds."""
    plain = [p for p in res["passes"] if not p["traced"]][1:]  # the first is a warm-up
    task_ms = [t * 1000.0 for t in task_times(plain)]
    return {
        "wall_s": (sum(task_ms) / 1000.0, "s"),
        "setup_s": (statistics.median(ref_seconds(s, pr) for s, pr in setups), "s"),
        "task_p50_ms": (statistics.median(task_ms), "ms"),
        "task_p95_ms": (percentile(task_ms, 95), "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }, len(task_ms)


def per_layer(res):
    """Per-layer metrics; the overhead compares traced passes with the
    untraced ones after the warm-up (passes alternate untraced, traced, ...)."""
    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]][1:]
    out = layer_metrics(res["trace"], len(traced))
    wall = sum(task_times(plain))
    out["trace.overhead_frac"] = ((sum(task_times(traced)) - wall) / wall, "fraction")
    return out


def run_one(root, workload, seed, seconds, trace, scale="full"):
    """One run; returns (result line dict, human-readable lines)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        only = spawn(root, base + ["--seconds", "0", "--setup-only"], deadline)
        setups.append((only["setup_s"], only["probe_s"]))
    res = spawn(root, base + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append((res["setup_s"], res["setup_probe_s"]))
    e2e, samples = end_to_end(res, setups)
    metrics = per_layer(res) if trace else e2e
    probes = [pr for p in res["passes"] for pr in p["probe_s"]]
    lines = ["# %s seed=%d: %d tasks x %d passes (%d traced), %s; %d task latencies; "
             "setup samples %s s; pass walls %s s; speed probe median %.2f ms, reference %.2f ms"
             % (workload, seed, res["tasks"], len(res["passes"]),
                sum(p["traced"] for p in res["passes"]), res["loop"], samples,
                ", ".join("%.3f" % s for s, _ in setups),
                ", ".join("%.3f" % p["wall_s"] for p in res["passes"]),
                statistics.median(probes) * 1000.0, REF_S * 1000.0)]
    lines += ["# failed: %s" % f for f in res["failures"]]
    line = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, lines


def check_root(root):
    if not os.path.isfile(os.path.join(root, "src", "congforge", "__init__.py")):
        raise BenchError("no congforge source under %s; run from the root of a checkout"
                         % os.path.join(root, "src"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=27)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    root = os.getcwd()
    try:
        check_root(root)
        if args.all:
            for workload in WORKLOADS:
                for trace in (0, 1):
                    line, lines = run_one(root, workload, args.seed, args.seconds, trace,
                                          args.scale)
                    print("\n".join(lines))
                    for name, m in line["metrics"].items():
                        print("%-10s %-36s %16.6g %s" % (workload, name, m["value"], m["unit"]))
                    print("%-10s %-36s %16d of %d" % (workload, "failed", line["failed"],
                                                      line["attempted"]), flush=True)
            return 0
        line, lines = run_one(root, args.workload, args.seed, args.seconds, args.trace,
                              args.scale)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
