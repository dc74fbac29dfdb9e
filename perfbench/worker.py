"""One benchmark run of one workload, in a process of its own.

Started by run.py.  Set-up is timed from the parent's clock reading just
before this process was spawned until the workload's inputs are built;
then the task list is run in passes, each task timed alone, until the
run's seconds are used.  The first pass is a warm-up that run.py leaves
out of every timing metric; its outputs are checked like the rest.
Speed probes (calib.py) run after set-up and between short segments of
tasks, outside every timed region, so that run.py can put the times in
seconds of the reference host.  Outputs are checked after each pass,
outside the timed region: the first pass by each task's independent check,
later passes by equality with the first.  The result is one JSON line
on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import calib
from tasks import Raised, timed

WORKLOADS = ("identities", "structure", "permuting", "algebra")
LOOP = "closed loop, one client, no worker threads"
MIN_PASSES = 3  # passes run whatever the seconds: the warm-up and two measured
MAX_FAILURES_SHOWN = 5
SEGMENT_S = 0.1  # seconds of tasks between two speed probes
SETUP_PROBES = 5  # speed probes after set-up


def load(workload, seed, scale):
    module = __import__("wl_" + workload)
    return module.build(seed, scale)


def run_pass(tasks, tracer=None):
    """Run every task once; returns (wall seconds, per-task seconds, per-task
    probe seconds, outputs).  The tasks run in segments of about SEGMENT_S
    with a speed probe between segments, outside the task timings; each
    task's probe time is the mean of the probes on either side of its
    segment."""
    run = timed if tracer is None else tracer.run_task
    ctx = {}
    times, probes, outputs = [], [], []
    before = calib.probe()
    wall = 0.0
    seg_start = time.perf_counter()
    for i, task in enumerate(tasks):
        out, dt = run(lambda: task.fn(ctx))
        times.append(dt)
        outputs.append(out)
        now = time.perf_counter()
        if now - seg_start >= SEGMENT_S or i == len(tasks) - 1:
            wall += now - seg_start
            after = calib.probe()
            probes += [(before + after) / 2] * (len(times) - len(probes))
            before = after
            seg_start = time.perf_counter()
    return wall, times, probes, outputs


def check_pass(tasks, outputs, reference):
    """Failure messages for one pass; fills reference on the first pass."""
    failures = []
    for i, (task, out) in enumerate(zip(tasks, outputs)):
        try:
            if isinstance(out, Raised):
                problem = "raised %s: %s" % (type(out.exc).__name__, out.exc)
            elif len(reference) <= i:
                problem = task.check(out)
                reference.append(task.sig(out))
            else:
                problem = None if task.sig(out) == reference[i] else "output differs from pass 1"
        except Exception as exc:  # a checker that cannot read the output fails the task
            problem = "check raised %s: %s" % (type(exc).__name__, exc)
        if problem:
            failures.append("%s: %s" % (task.name, problem))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = load(args.workload, args.seed, args.scale)
    setup_s = time.monotonic() - args.t0
    calib.probe()  # a warm-up: the first call runs on cold caches
    setup_probe_s = statistics.median(calib.probe() for _ in range(SETUP_PROBES))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0

    tasks = workload.tasks
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    passes, reference, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            wall, times, probes, outputs = run_pass(tasks, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        attempted += len(tasks)
        failures += check_pass(tasks, outputs, reference)
        del outputs
        passes.append({"wall_s": wall, "task_s": times, "probe_s": probes, "traced": traced})
        typical = sorted(p["wall_s"] for p in passes)[len(passes) // 2]
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break

    result = {
        "workload": workload.name,
        "loop": LOOP,
        "tasks": len(tasks),
        "setup_s": setup_s,
        "setup_probe_s": setup_probe_s,
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["trace"] = tracer.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
