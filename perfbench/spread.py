"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 perfbench/spread.py --workloads structure algebra --seeds 0 1 2 3 4

Runs run.py once per (workload, seed), untraced, from the current
directory, and prints for each end-to-end metric its median and the
distance between the first and third quartiles as a share of the
median, next to the metric's bound in BENCHMARK.json.  Appends every raw
result line to --log when given.  Different seeds change the inputs as
well as the moment of the run; repeating one seed (--seeds 0 0 0 0 0)
leaves only the machine's run-to-run noise, so the two sets together
separate seed variance from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--log")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            line = json.loads(out.strip().splitlines()[-1])
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **line}) + "\n")
            if not line["correct"]:
                print("%s seed %d: %d of %d tasks failed" % (workload, seed, line["failed"],
                                                              line["attempted"]))
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bounds[name])
            print("%-10s %-12s median %12.6g  spread %6.3f  bound %.2f  values %s" % (
                workload, name, med, share, bounds[name],
                " ".join("%.4g" % v for v in vals)), flush=True)
    print("largest spread as a share of its bound: %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
