"""identities: the term sweep.

Builtin formulas over the fixture corpus, seeded random identities in 3
and 4 variables, and per-assignment dn/dn* agreement sweeps.  Full
sweeps that hold sit beside hundreds of checks that stop at an early
counterexample, so a sweep engine that adds per-call set-up or delays
the first counterexample shows in task_p50_ms.
"""

from __future__ import annotations

import numpy as np

import congforge as cf
from congforge import fixtures, terms, verify

from tasks import Task, Workload, first_problem, must

BUDGET = 10**7  # term evaluations; over it a check refuses and falls back
SAMPLES = 20_000  # seeded assignments for a refused builtin check
SCALAR_PROBES = 256  # scalar re-evaluations confirming a random identity that holds

BUILTINS = {
    "modular": cf.generate_modular,
    "2dist": cf.generate_2distributive,
    "sd-meet": lambda: cf.generate_sd("meet"),
    "sd-join": lambda: cf.generate_sd("join"),
    "dn3": lambda: cf.generate_dn(3),
    "dn3-star": lambda: cf.generate_dn_star(3),
}

# Known classes: which builtins hold on which fixture.  Distributive
# lattices satisfy everything; n5 is the nonmodular semidistributive
# one; every other fixture is modular and contains a diamond, so both
# semidistributive laws fail; sub_3_2 (the Fano plane) has a 2-diamond.
# The cyclic inequalities hold on every modular fixture and fail on n5.
_ALL = set(BUILTINS)
KNOWN = {
    "m3": _ALL - {"sd-meet", "sd-join"},
    "n5": _ALL - {"modular", "dn3", "dn3-star"},
    "m3x2": _ALL - {"sd-meet", "sd-join"},
    "chain4": _ALL,
    "boolean": _ALL,
    "sub_2_2": _ALL - {"sd-meet", "sd-join"},
    "sub_3_2": _ALL - {"sd-meet", "sd-join", "2dist"},
    "sub_2_3": _ALL - {"sd-meet", "sd-join"},
    "kinf_a": _ALL - {"sd-meet", "sd-join"},
    "kinf_b": _ALL - {"sd-meet", "sd-join"},
}

# (name, lattice builder, n, mode, samples)
PAIR_SWEEPS = {
    "full": [
        ("m3x2", fixtures.m3_times_chain2, 3, "exhaustive", None),
        ("sub_2_3", lambda: cf.subspace_lattice(2, 3).lattice, 4, "exhaustive", None),
        ("m3", fixtures.m3, 4, "exhaustive", None),
        ("sub_3_2", lambda: cf.subspace_lattice(3, 2).lattice, 3, "sampled", 200_000),
        ("sub_3_2", lambda: cf.subspace_lattice(3, 2).lattice, 4, "sampled", 200_000),
    ],
    "tiny": [
        ("m3", fixtures.m3, 3, "exhaustive", None),
        ("sub_3_2", lambda: cf.subspace_lattice(3, 2).lattice, 3, "sampled", 2_000),
    ],
}

SCALE = {  # corpus size, random identities per (lattice, variable count): failing, valid
    "full": (None, 8, 3),
    "tiny": (3, 2, 1),
}


def lex_rank(assignment, size):
    rank = 0
    for name in sorted(assignment):
        rank = rank * size + assignment[name]
    return rank


def falsified(phi, lat, assignment):
    """Scalar re-evaluation: does the assignment break phi?"""
    premises, conclusion = (
        (phi.premises, phi.conclusion) if isinstance(phi, cf.QuasiIdentity) else ((), phi)
    )

    def true(eq):
        lhs = cf.evaluate(eq.lhs, lat, assignment)
        rhs = cf.evaluate(eq.rhs, lat, assignment)
        return lhs == rhs if eq.kind == "eq" else bool(lat.leq[lhs, rhs])

    return all(true(p) for p in premises) and not true(conclusion)


def check_verdict(phi, lat, verdict, mode, expected, probe_seed):
    """Independent checks of one terms.holds verdict."""
    names = sorted(phi.variables())
    if verdict.status == "fails":
        return first_problem(
            must(falsified(phi, lat, verdict.assignment),
                 "counterexample does not falsify under scalar evaluate"),
            must(mode != "exhaustive" or verdict.checked == lex_rank(verdict.assignment, lat.size) + 1,
                 "checked is not the counterexample's lexicographic rank + 1"),
            must(expected is not True, "fails on a lattice where the formula is known to hold"),
        )
    full = lat.size ** len(names) if mode == "exhaustive" else SAMPLES
    if verdict.checked != full:
        return "holds after %d assignments, expected %d" % (verdict.checked, full)
    if expected is not None:
        return must(expected, "holds on a lattice where the formula is known to fail")
    # no known class: confirm at seeded points by scalar evaluation
    rng = np.random.default_rng(probe_seed)
    for row in rng.integers(0, lat.size, size=(SCALAR_PROBES, len(names))):
        if falsified(phi, lat, dict(zip(names, row.tolist()))):
            return "scalar evaluation finds a counterexample the sweep missed"
    return None


def random_term(rng, ops, leaves):
    """A term with exactly `ops` binary operations over the given leaf list."""
    if ops == 0:
        return cf.Var(leaves[0])
    left_ops = int(rng.integers(0, ops))
    cut = left_ops + 1
    node = cf.Join if rng.random() < 0.5 else cf.Meet
    return node(random_term(rng, left_ops, leaves[:cut]),
                random_term(rng, ops - 1 - left_ops, leaves[cut:]))


def leaf_list(rng, names, count):
    """count leaf names using every name at least once, in seeded order."""
    leaves = list(names) + [names[int(i)] for i in rng.integers(0, len(names), count - len(names))]
    return [leaves[int(i)] for i in rng.permutation(count)]


def valid_identity(rng, names, law):
    """Lattice law number law (0-2) at seeded terms: holds in every lattice."""
    s = random_term(rng, 3, leaf_list(rng, names, 4))
    t = random_term(rng, 3, leaf_list(rng, names, 4))
    if law == 0:
        return cf.Identity(cf.Join(s, cf.Meet(s, t)), s)  # absorption
    if law == 1:
        return cf.Identity(cf.Meet(s, t), cf.Meet(t, s))  # commutativity
    return cf.Identity(cf.Meet(s, t), cf.Join(cf.Meet(s, t), cf.Meet(t, s)), "le")


def random_identity(rng, names):
    return cf.Identity(random_term(rng, 4, leaf_list(rng, names, 5)),
                       random_term(rng, 4, leaf_list(rng, names, 5)))


def verdict_sig(v):
    return (v.status, v.checked, tuple(sorted((v.assignment or {}).items())))


def holds_task(name, lat, phi, expected, seed):
    """terms.holds under the budget; a refusal falls back to seeded sampling."""

    def run(ctx):
        try:
            return "exhaustive", cf.holds(lat, phi, budget=BUDGET)
        except terms.BudgetExceededError:
            return "sampled", cf.holds(lat, phi, mode="sampled", samples=SAMPLES, seed=seed)

    return Task(
        name,
        run,
        lambda out: check_verdict(phi, lat, out[1], out[0], expected, seed),
        lambda out: (out[0], verdict_sig(out[1])),
    )


def pair_task(name, lat, n, mode, samples, seed):
    full = lat.size ** (2 * n) if mode == "exhaustive" else samples

    def check(out):
        checked, bad, first = out
        return first_problem(
            must(bad == 0 and first is None, "%d discrepancies, first at %r" % (bad, first)),
            must(checked == full, "checked %d assignments, expected %d" % (checked, full)),
        )

    return Task(
        name,
        lambda ctx: verify.dn_pair_agreement(lat, n, mode, samples=samples, seed=seed),
        check,
    )


def build(seed, scale="full"):
    corpus_size, n_random, n_valid = SCALE[scale]
    corpus = fixtures.standard_lattices()[:corpus_size]
    formulas = {name: make() for name, make in BUILTINS.items()}
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for lname, lat in corpus:
        for fname, phi in formulas.items():
            tasks.append(holds_task("builtin-%s-%s" % (fname, lname), lat, phi,
                                    fname in KNOWN[lname], seed))
    for lname, lat in corpus:
        for k in (3, 4):
            names = ["x", "y", "z", "w"][:k]
            for i in range(n_random):
                phi = random_identity(rng, names)
                tasks.append(holds_task("random-%s-k%d-%d" % (lname, k, i), lat, phi, None,
                                        seed + i))
            for i in range(n_valid):
                phi = valid_identity(rng, names, i % 3)
                tasks.append(holds_task("valid-%s-k%d-%d" % (lname, k, i), lat, phi, True, seed))
    for lname, make, n, mode, samples in PAIR_SWEEPS[scale]:
        tasks.append(pair_task("pairs-%s-n%d-%s" % (lname, n, mode), make(), n, mode, samples,
                               seed + n))
    return Workload("identities", tasks)
