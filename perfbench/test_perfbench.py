"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

They exercise every workload with its checks, the traced run, the
detection of a wrong output, and the refusal to run without a program.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--scale", "tiny", "--seconds", "0"]
    return subprocess.run(cmd + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", worker.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    line = result(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())


WRONG = {  # a wrong output of each kind, for the first-pass checks to catch
    "checked one short": lambda out: (out[0], dataclasses.replace(out[1], checked=out[1].checked - 1)),
    "one discrepancy": lambda out: (out[0], out[1] + 1, out[2]),
    "verdict flipped": lambda out: (out[0], (not out[1][0], out[1][1])),
    "negated": lambda out: not out,
}


@pytest.mark.parametrize("workload, task, wrong", [
    ("identities", "builtin-modular-m3", "checked one short"),
    ("identities", "pairs-m3-n3-exhaustive", "one discrepancy"),
    ("structure", "sub(2,2)/is_modular", "verdict flipped"),
    ("permuting", "dnperm-2-n3-0", "negated"),
    ("algebra", "s3/3.3,6/centrality", "negated"),
])
def test_wrong_output_is_counted_as_failed(workload, task, wrong):
    wl = worker.load(workload, 0, "tiny")
    outputs = worker.run_pass(wl.tasks)[3]
    i = next(i for i, t in enumerate(wl.tasks) if t.name == task)
    outputs[i] = WRONG[wrong](outputs[i])
    failures = worker.check_pass(wl.tasks, outputs, [])
    assert len(failures) == 1 and failures[0].startswith(task + ":")


def test_same_inputs_for_same_seed():
    def names_and_sigs(seed):
        wl = worker.load("algebra", seed, "tiny")
        return [t.name for t in wl.tasks], [t.sig(o) for t, o in
                                            zip(wl.tasks, worker.run_pass(wl.tasks)[3])]

    assert names_and_sigs(5) == names_and_sigs(5)
    assert names_and_sigs(5)[0] == names_and_sigs(6)[0]  # same strata, whatever the seed


def test_permuting_seeds_relabel_the_same_shapes():
    import congforge as cf
    import wl_permuting

    a, b = (list(wl_permuting.draw_instances(seed, "tiny")) for seed in (0, 1))
    assert [x[0] for x in a] == [y[0] for y in b]
    assert any(x[1:] != y[1:] for x, y in zip(a, b))
    for x, y in zip(a, b):
        assert (cf.closed_sublattice(x[1] + x[2]).lattice.size ==
                cf.closed_sublattice(y[1] + y[2]).lattice.size)


def test_times_are_scaled_by_the_speed_probe():
    import calib
    import run

    wl = worker.load("permuting", 0, "tiny")
    wall, times, probes, _ = worker.run_pass(wl.tasks)
    assert len(probes) == len(times) and all(p > 0 for p in probes)
    assert 0 < sum(times) <= wall
    ref = calib.REF_S
    passes = [{"task_s": [1.0, 2.0], "probe_s": [ref, 2 * ref]},  # the second task ran at half speed
              {"task_s": [3.0, 1.0], "probe_s": [ref, ref]},
              {"task_s": [2.0, 4.0], "probe_s": [2 * ref, ref]}]
    assert run.task_times(passes) == [1.0, 1.0]


def test_changed_output_in_a_later_pass_fails():
    wl = worker.load("permuting", 0, "tiny")
    reference = []
    outputs = worker.run_pass(wl.tasks)[3]
    assert worker.check_pass(wl.tasks, outputs, reference) == []
    outputs[0] = not outputs[0]
    assert len(worker.check_pass(wl.tasks, outputs, reference)) == 1


def test_self_times_add_up_to_task_times():
    import congforge as cf

    wl = worker.load("structure", 1, "tiny")
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, times, probes, outputs = worker.run_pass(wl.tasks, tracer)
        assert isinstance(outputs[0], cf.SubspaceLattice)  # classes were patched, not replaced
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert sum(totals["self_s"].values()) == pytest.approx(sum(times), rel=1e-9)
    assert totals["calls"]["subspaces.build"] >= 1 and totals["calls"]["lattice.derive"] >= 1
    assert not hasattr(cf.SubspaceLattice.__init__, "__wrapped__")
    assert cf.is_modular is cf.lattice.is_modular and not hasattr(cf.is_modular, "__wrapped__")


def test_nested_spans_attribute_to_the_inner_layer():
    import congforge as cf

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_task(lambda: cf.k_infinity_member(cf.subspace_lattice(2, 3).lattice))
    finally:
        tracer.uninstall()
    calls = tracer.totals()["calls"]
    assert calls["subspaces.decide"] == 2  # k_infinity_member and the find_two_diamond it calls
    assert calls["lattice.scan"] == 1 and calls["terms.sweep"] == 1


def test_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identities", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
