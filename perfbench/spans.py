"""Per-layer spans recorded from outside the program.

The benchmark wraps the boundary functions of each congforge layer in
timing wrappers for the traced passes only.  Methods are patched on
their classes (a class is never replaced, so ``isinstance`` keeps
working), and every wrapped function is rebound in each congforge module
that imported it, so calls from one layer into another nest as child
spans.  A span's self time is its duration minus the time of its child
spans; each task runs inside a root frame, ``other``, that takes the
time no span covers, so the self times of a task add up to its time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

from tasks import timed

# span -> boundary callables, as (module, attribute or Class.method)
SPANS = {
    "terms.sweep": [("congforge.terms", "holds"), ("congforge.verify", "dn_pair_agreement")],
    "lattice.derive": [("congforge.lattice", "FiniteLattice.__init__")],
    "lattice.closure": [("congforge.lattice", "from_cover_relation")],
    "lattice.product": [("congforge.lattice", "direct_product")],
    "lattice.scan": [
        ("congforge.lattice", "is_modular"),
        ("congforge.lattice", "check_semidistributivity"),
        ("congforge.lattice", "m3_configurations"),
    ],
    "lattice.search": [("congforge.lattice", "find_sublattice")],
    "subspaces.build": [("congforge.subspaces", "SubspaceLattice.__init__")],
    "subspaces.decide": [
        ("congforge.subspaces", "k_infinity_member"),
        ("congforge.subspaces", "find_two_diamond"),
    ],
    "subspaces.embed": [("congforge.subspaces", "embed_search")],
    "partitions.eqrel": [("congforge.partitions", "EqRelLattice.__init__")],
    "partitions.closure": [("congforge.partitions", "closed_sublattice")],
    "partitions.instance": [("congforge.partitions", "verify_dn_permuting")],
    "partitions.permutes": [("congforge.partitions", "permutes")],
    "algebras.closure": [("congforge.algebras", "commutator"), ("congforge.algebras", "centrality")],
    "algebras.con": [("congforge.algebras", "con_lattice")],
    "algebras.cg": [("congforge.algebras", "congruence_from_pairs")],
    "algebras.wdt": [("congforge.algebras", "check_weak_difference_term")],
    "algebras.construct": [
        ("congforge.algebras", "verify_embedding_construction"),
        ("congforge.algebras", "construct_delta"),
    ],
    "jsonio.load": [("congforge.jsonio", "lattice_from_json")],
    "projectivity.scan": [("congforge.projectivity", "abx_check"), ("congforge.projectivity", "m3_witness")],
    "verify.suite": [("congforge.verify", "suite_dnperm")],
}

LAYERS = sorted({span.split(".")[0] for span in SPANS})
ROOT = "other"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_sweep(fn, args, kwargs, out, counts):
    a = _bound(fn, args, kwargs)
    size = a["lat"].size
    if fn.__name__ == "holds":
        phi = a["phi"]
        checked = out.checked
        k = len(phi.variables())
    else:
        checked = out[0]
        k = 2 * a["n"]
    full = size**k if a["mode"] == "exhaustive" else a["samples"]
    counts["assignments"] += checked
    counts["full"] += full


def _count_derive(fn, args, kwargs, out, counts):
    n = args[0].size
    counts["elements"] += n
    counts["cells"] += n**3


def _count_len(fn, args, kwargs, out, counts):
    counts["elements"] += len(args[0])


def _count_embed(fn, args, kwargs, out, counts):
    counts["found"] += out.status == "found"


def _count_con(fn, args, kwargs, out, counts):
    counts["congruences"] += len(out)


def _count_load(fn, args, kwargs, out, counts):
    counts["bytes"] += len(_bound(fn, args, kwargs)["text"])


COUNTERS = {
    "terms.sweep": _count_sweep,
    "lattice.derive": _count_derive,
    "subspaces.build": _count_len,
    "partitions.eqrel": _count_len,
    "subspaces.embed": _count_embed,
    "algebras.con": _count_con,
    "jsonio.load": _count_load,
}


def _resolve(modname, path):
    obj = importlib.import_module(modname)
    owner = obj
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, path.split(".")[-1], obj


class Tracer:
    """Collects self time, inclusive time, calls and counts per span."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.raised = defaultdict(int)
        self.refusals = 0
        self._stack = []
        self._restore = []

    # -- frames ----------------------------------------------------------

    def _enter(self, span):
        frame = [span, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, dur):
        self._stack.pop()
        span = frame[0]
        self.self_s[span] += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if all(f[0] != span for f in self._stack):
            self.incl_s[span] += dur

    def run_task(self, fn):
        """Run one task inside the root frame; returns (output, seconds)."""
        frame = self._enter(ROOT)
        out, dt = timed(fn)
        self._exit(frame, dt)
        return out, dt

    # -- patching --------------------------------------------------------

    def _wrap(self, span, fn):
        counter = COUNTERS.get(span)
        layer = span.split(".")[0]
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(span)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(frame, time.perf_counter() - t0)
                tracer.calls[span] += 1
                parent = tracer._stack[-1][0] if tracer._stack else ROOT
                if parent.split(".")[0] != layer:
                    tracer.raised[layer] += 1
                if span == "terms.sweep" and type(exc).__name__ == "BudgetExceededError":
                    tracer.refusals += 1
                raise
            tracer._exit(frame, time.perf_counter() - t0)
            tracer.calls[span] += 1
            if counter is not None:
                counter(fn, args, kwargs, out, tracer.counts[span])
            return out

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every boundary function; undo with uninstall()."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "congforge" or name.startswith("congforge.")) and m is not None]
        for span, targets in SPANS.items():
            for modname, path in targets:
                owner, attr, original = _resolve(modname, path)
                wrapper = self._wrap(span, original)
                if inspect.isclass(owner):
                    self._restore.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, name, value))
                            setattr(mod, name, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- report ----------------------------------------------------------

    def totals(self):
        """Plain-dict snapshot of everything recorded."""
        return {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": {k: dict(v) for k, v in self.counts.items()},
            "raised": dict(self.raised),
            "refusals": self.refusals,
        }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, passes):
    """Per-layer metrics, per traced pass, from Tracer.totals()."""
    self_s, calls, counts = totals["self_s"], totals["calls"], totals["counts"]
    out = {}

    def put(name, value, unit):
        out[name] = (value / passes if unit in ("s", "count", "B") else value, unit)

    for span in list(SPANS) + [ROOT]:
        put(span + ".self_s", self_s.get(span, 0.0), "s")
        if span != ROOT:
            put(span + ".calls", calls.get(span, 0), "count")
    for layer in LAYERS:
        put(layer + ".raised", totals["raised"].get(layer, 0), "count")

    sweep = counts.get("terms.sweep", {})
    put("terms.sweep.assignments", sweep.get("assignments", 0), "count")
    put("terms.sweep.assign_per_s",
        _ratio(sweep.get("assignments", 0), self_s.get("terms.sweep", 0.0)), "1/s")
    put("terms.sweep.swept_frac", _ratio(sweep.get("assignments", 0), sweep.get("full", 0)),
        "fraction")
    put("terms.sweep.refusals", totals["refusals"], "count")

    derive = counts.get("lattice.derive", {})
    put("lattice.derive.elements", derive.get("elements", 0), "count")
    put("lattice.derive.cells", derive.get("cells", 0), "count")
    put("lattice.derive.cells_per_s",
        _ratio(derive.get("cells", 0), self_s.get("lattice.derive", 0.0)), "1/s")
    put("subspaces.build.elements", counts.get("subspaces.build", {}).get("elements", 0), "count")
    put("subspaces.embed.found_frac",
        _ratio(counts.get("subspaces.embed", {}).get("found", 0), calls.get("subspaces.embed", 0)),
        "fraction")
    put("partitions.eqrel.elements", counts.get("partitions.eqrel", {}).get("elements", 0), "count")
    put("partitions.instance.per_s",
        _ratio(calls.get("partitions.instance", 0), totals["incl_s"].get("partitions.instance", 0.0)),
        "1/s")
    put("algebras.con.congruences", counts.get("algebras.con", {}).get("congruences", 0), "count")
    put("jsonio.load.bytes", counts.get("jsonio.load", {}).get("bytes", 0), "B")
    return out
