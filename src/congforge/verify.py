"""Verification suites over the pinned fixture corpus.

Each suite runs a fixed set of named checks and returns a SuiteResult;
all randomness flows from a single seed, so runs are reproducible.  The
suites exist to machine-check the toolkit's load-bearing facts: the
paired cyclic inequalities agree per assignment on modular lattices, the
permuting-family instances always hold, the exchange biconditional is
exhaustive-clean, the term-condition commutator matches the group oracle,
diamond configurations in congruence lattices are abelian and permute,
the power construction reproduces subspace lattices, and the finite
membership decision agrees with its structural certificate.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import algebras, fixtures, jsonio, limits, projectivity, subspaces, terms
from .lattice import LatticeHom, find_sublattice, m3_configurations
from .partitions import (
    Partition,
    abelian_coset_partitions,
    all_partitions,
    full_partition_lattice,
    p_leq,
    permutes,
    verify_dn_permuting,
)

SUITES = ("idequiv", "dnperm", "abx", "m3proj", "commutator", "embedding")


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    witness: object = None
    elapsed: float = 0.0

    def to_dict(self):
        return {
            "check_id": self.check_id,
            "description": self.description,
            "passed": self.passed,
            "witness": self.witness,
            "elapsed": round(self.elapsed, 3),
        }


@dataclass
class SuiteResult:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        ids = [c.check_id for c in self.checks]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate check ids in suite %r" % self.suite)
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.check_id)],
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2)

    def add(self, check_id, description, passed, witness=None, started=None):
        elapsed = time.perf_counter() - started if started is not None else 0.0
        self.checks.append(CheckResult(check_id, description, bool(passed), witness, elapsed))


# -- paired evaluation of the two cyclic inequalities -------------------------


def _dn_pair(n):
    """The n-th cyclic inequality and its companion."""
    return [terms.generate_dn(n), terms.generate_dn_star(n)]


def _disagreements(lat, n, mode, samples, seed):
    """The paired sweep: yield (offset, env, bad) per block of assignments,
    bad marking where the two inequalities disagree (see
    terms.VectorEvaluator.sweep)."""
    ev = terms.VectorEvaluator(lat, _dn_pair(n))
    for offset, env, (dn, ds) in ev.sweep(mode, samples, seed, limits.PAIR_ROUND):
        yield offset, env, dn != ds


def _witness(env, bad):
    return terms.assignment_at(env, bad.shape, int(bad.argmax()))


def dn_pair_agreement(lat, n, mode="exhaustive", samples=None, seed=0):
    """Compare per-assignment truth of the n-th cyclic inequality and its
    companion over a lattice.

    Returns (checked, discrepancies, first) where first is the earliest
    disagreeing assignment or None.  Exhaustive mode counts all
    size**(2n) assignments without enumerating them, by a transfer over
    the cycle (terms._dn_transfer), and refuses with SizeLimitError when
    that count does not fit an int64.  Only when some assignment
    disagrees does it sweep the broadcast grid of
    terms.VectorEvaluator.sweep, in lexicographic order, up to the first
    chunk that holds a disagreement, so first is the lexicographically
    first disagreeing assignment.  Sampled mode sweeps `samples` seeded
    uniform assignments, limits.PAIR_ROUND per variable at a time (see
    terms.VectorEvaluator.assignments).  On modular lattices the two
    must agree at every assignment, so any discrepancy is a bug witness.
    """
    if mode == "exhaustive":
        checked, discrepancies = terms._dn_transfer(lat, n)
        first = None
        if discrepancies:
            for _, env, bad in _disagreements(lat, n, mode, samples, seed):
                if bad.any():
                    first = _witness(env, bad)
                    break
        return checked, discrepancies, first
    checked = discrepancies = 0
    first = None
    for offset, env, bad in _disagreements(lat, n, mode, samples, seed):
        count = int(np.count_nonzero(bad))
        if count and first is None:
            first = _witness(env, bad)
        discrepancies += count
        checked = offset + bad.size
    return checked, discrepancies, first


# -- individual suites ---------------------------------------------------------


def suite_idequiv(seed=0, sampled_count=10**6, budget=None):
    """Per-assignment equivalence of the paired inequalities on modular fixtures.

    The named fixtures are swept exhaustively; a budget (in term
    evaluations) pushes over-budget sweeps to seeded sampling instead.
    """
    result = SuiteResult("idequiv", seed)
    corpus = [
        ("m3", fixtures.m3()),
        ("m3x2", fixtures.m3_times_chain2()),
        ("sub-2-2", subspaces.subspace_lattice(2, 2).lattice),
    ]
    for n in (3, 4):
        pair = _dn_pair(n)
        for name, lat in corpus:
            t0 = time.perf_counter()
            if budget is not None and terms.VectorEvaluator(lat, pair).cost > budget:
                checked, bad, first = dn_pair_agreement(
                    lat, n, "sampled", samples=sampled_count, seed=seed
                )
            else:
                checked, bad, first = dn_pair_agreement(lat, n, "exhaustive")
            result.add(
                "idequiv-%s-n%d" % (name, n),
                "per-assignment agreement of the two cyclic inequalities on %s" % name,
                bad == 0,
                witness={"checked": checked, "discrepancies": bad, "first": first},
                started=t0,
            )
        t0 = time.perf_counter()
        checked, bad, first = dn_pair_agreement(
            subspaces.subspace_lattice(3, 2).lattice,
            n,
            "sampled",
            samples=sampled_count,
            seed=seed + n,
        )
        result.add(
            "idequiv-sub-3-2-n%d-sampled" % n,
            "sampled per-assignment agreement on the 16-element subspace lattice",
            bad == 0,
            witness={"checked": checked, "discrepancies": bad, "first": first},
            started=t0,
        )
    return result


_ABELIAN_ORDERS = [
    (2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (4, 2), (2, 2, 2),
]


def suite_dnperm(seed=0, instances=10_000):
    """Seeded permuting families from abelian-group cosets always satisfy
    the companion inequality; plus the partition-count oracle."""
    if instances < 1:
        raise ValueError("instances must be at least 1, got %d" % instances)
    result = SuiteResult("dnperm", seed)
    rng = np.random.default_rng(seed)
    families = [abelian_coset_partitions(orders) for orders in _ABELIAN_ORDERS]
    t0 = time.perf_counter()
    failures = []
    for i in range(instances):
        fam = families[int(rng.integers(0, len(families)))]
        n = int(rng.integers(3, 6))
        picks = rng.integers(0, len(fam), size=2 * n)
        alphas = [fam[int(j)] for j in picks[:n]]
        alphaps = [fam[int(j)] for j in picks[n:]]
        if not verify_dn_permuting(alphas, alphaps):
            failures.append({"instance": i, "n": n})
    result.add(
        "dnperm-instances",
        "%d seeded permuting-family instances, all holding" % instances,
        not failures,
        witness={"instances": instances, "failures": failures[:5]},
        started=t0,
    )

    t0 = time.perf_counter()
    bell = [1, 1]
    # Bell numbers by the binomial recurrence: an oracle independent of
    # the restricted-growth-string enumeration
    while len(bell) < 9:
        bell.append(sum(comb(len(bell) - 1, k) * bell[k] for k in range(len(bell))))
    counts = {n: len(all_partitions(n)) for n in range(3, 7)}
    lattice_counts = {n: len(full_partition_lattice(n)) for n in range(3, 7)}
    ok = all(counts[n] == bell[n] == lattice_counts[n] for n in counts)
    result.add(
        "dnperm-bell-counts",
        "partition lattices on 3..6 points match the Bell recurrence",
        ok,
        witness={"counts": lattice_counts, "bell": bell[3:7]},
        started=t0,
    )
    return result


def suite_abx(seed=0):
    """Exhaustive exchange-biconditional scan over the modular fixtures."""
    result = SuiteResult("abx", seed)
    corpus = [
        ("m3", fixtures.m3()),
        ("sub-2-2", subspaces.subspace_lattice(2, 2).lattice),
        ("sub-3-2", subspaces.subspace_lattice(3, 2).lattice),
        ("m3x2", fixtures.m3_times_chain2()),
    ]
    for name, lat in corpus:
        t0 = time.perf_counter()
        ok, witness = projectivity.abx_check(lat)
        result.add(
            "abx-%s" % name,
            "exchange biconditional over all qualifying 4-tuples of %s" % name,
            ok,
            witness=witness,
            started=t0,
        )
    return result


def _iso_onto_m3(lat):
    """An isomorphism from a 5-element diamond-shaped lattice onto the canon."""
    hom = find_sublattice(lat, fixtures.m3())
    if hom is None:
        return None
    inverse = [0] * lat.size
    for src, img in enumerate(hom.map):
        inverse[img] = src
    return LatticeHom(lat, fixtures.m3(), inverse)


def suite_m3proj(seed=0):
    """The diamond-recovery pipeline on the positive and negative fixtures."""
    result = SuiteResult("m3proj", seed)
    m3 = fixtures.m3()
    cases = []
    cases.append(("m3-identity", m3, LatticeHom(m3, m3, range(5)), (1, 2, 3)))

    prod = fixtures.m3_times_chain2()
    proj = LatticeHom(prod, m3, [i // 2 for i in range(10)])
    cases.append(("m3x2-projection", prod, proj, (3, 4, 7)))

    sub22 = subspaces.subspace_lattice(2, 2).lattice
    iso = _iso_onto_m3(sub22)
    cases.append(
        ("sub-2-2-iso", sub22, iso, tuple(iso.map.index(a) for a in (1, 2, 3)))
    )

    con = algebras.con_lattice(fixtures.klein_group())
    iso_con = _iso_onto_m3(con.lattice)
    cases.append(
        (
            "con-z2z2-identity",
            con.lattice,
            iso_con,
            tuple(iso_con.map.index(a) for a in (1, 2, 3)),
        )
    )

    for name, lat, hom, triple in cases:
        t0 = time.perf_counter()
        rep = projectivity.m3_witness(lat, hom, *triple)
        stage_flags = {k: v["ok"] for k, v in rep.stages.items()}
        result.add(
            "m3proj-%s" % name,
            "pipeline succeeds with stage-wise image preservation on %s" % name,
            rep.success and all(stage_flags.values()),
            witness={"stages": stage_flags, "final": rep.final_triple, "m": rep.m},
            started=t0,
        )

    t0 = time.perf_counter()
    glued, hom, triple = fixtures.m3_quotient_nonmodular_fixture()
    rep = projectivity.m3_witness(glued, hom, *triple)
    result.add(
        "m3proj-nonmodular-failure",
        "the engineered nonmodular fixture fails at the verification stage",
        (not rep.success) and rep.failure_stage == "verify",
        witness={"failure_stage": rep.failure_stage, "detail": rep.stages.get("verify")},
        started=t0,
    )
    return result


def suite_commutator(seed=0):
    """Commutator oracle agreement and the diamond-configuration facts."""
    result = SuiteResult("commutator", seed)

    # group-theoretic oracle: [G, G] as the subgroup generated by commutators
    def group_commutator_partition(alg):
        n = alg.size
        mul = alg.by_name["mul"]
        inv = alg.by_name["inv"]
        comms = {
            int(mul[mul[g, h], mul[int(inv[g]), int(inv[h])]])
            for g in range(n)
            for h in range(n)
        }
        sub = {0} | comms  # group fixtures index the identity as 0
        grown = True
        while grown:
            grown = False
            for a in list(sub):
                for b in list(sub):
                    c = int(mul[a, b])
                    if c not in sub:
                        sub.add(c)
                        grown = True
        blocks = {}
        for g in range(n):
            key = frozenset(int(mul[g, h]) for h in sub)
            blocks.setdefault(key, []).append(g)
        return Partition.from_blocks(n, list(blocks.values()))

    expectations = [
        ("z2", fixtures.cyclic_group(2)),
        ("z3", fixtures.cyclic_group(3)),
        ("z4", fixtures.cyclic_group(4)),
        ("z2z2", fixtures.klein_group()),
        ("s3", fixtures.sym3()),
    ]
    for name, alg in expectations:
        t0 = time.perf_counter()
        top = Partition.one_block(alg.size)
        tc = algebras.commutator(alg, top, top)
        oracle = group_commutator_partition(alg)
        result.add(
            "commutator-oracle-%s" % name,
            "term-condition [1,1] equals the commutator-subgroup congruence on %s" % name,
            tc == oracle,
            witness={"tc": tc.blocks(), "oracle": oracle.blocks()},
            started=t0,
        )

    # every diamond configuration of atoms in a congruence lattice is
    # abelian over its bottom, and with a difference term the atoms permute
    t0 = time.perf_counter()
    violations = []
    diamonds = []
    for name, alg, d in fixtures.standard_algebras():
        con = algebras.con_lattice(alg)
        configs = list(m3_configurations(con.lattice))
        diamonds.append((name, alg, d, con, configs))
        for (o, x, y, z, i) in configs:
            delta = con.congruences[o]
            for atom in (x, y, z):
                theta = con.congruences[atom]
                comm = algebras.commutator(alg, theta, theta)
                if not p_leq(comm, delta):
                    violations.append({"algebra": name, "atom": atom})
    result.add(
        "commutator-diamond-abelian",
        "diamond atoms in fixture congruence lattices have square commutator below the bottom",
        not violations,
        witness={"violations": violations},
        started=t0,
    )
    t0 = time.perf_counter()
    permute_violations = []
    for name, alg, d, con, configs in diamonds:
        wdt_ok, _ = algebras.check_weak_difference_term(alg, d)
        if not wdt_ok:
            continue
        for (o, x, y, z, i) in configs:
            for u, v in ((x, y), (x, z), (y, z)):
                if not permutes(con.congruences[u], con.congruences[v]):
                    permute_violations.append({"algebra": name, "pair": (u, v)})
    result.add(
        "commutator-diamond-permute",
        "with a verified difference term, diamond atom congruences permute",
        not permute_violations,
        witness={"violations": permute_violations},
        started=t0,
    )
    return result


def suite_embedding(seed=0):
    """The power construction, the membership decision, and the counts."""
    result = SuiteResult("embedding", seed)

    sub32 = subspaces.subspace_lattice(3, 2).lattice
    # (check id, description, group order p, power n, the interval's
    # expected shape and size): the interval is Sub(n, p)
    constructions = [
        ("embedding-z2-n2",
         "the square construction over the 2-element group yields the diamond",
         2, 2, fixtures.m3(), 5),
        ("embedding-z2-n3",
         "the cube construction yields the 16-element subspace lattice",
         2, 3, sub32, 16),
        ("embedding-z3-n2",
         "the square construction over the 3-element group yields the 6-element line lattice",
         3, 2, subspaces.subspace_lattice(2, 3).lattice, 6),
    ]
    for check_id, description, p, n, shape, size in constructions:
        t0 = time.perf_counter()
        rep = algebras.verify_embedding_construction(
            fixtures.cyclic_group(p), Partition.one_block(p), n
        )
        iso = find_sublattice(rep.ln, shape)
        result.add(
            check_id,
            description,
            rep.passed and rep.interval_size == size and iso is not None,
            witness={"checks": rep.checks, "size": rep.interval_size},
            started=t0,
        )

    decisions = [
        ("m3", fixtures.m3(), True),
        ("kinf-a", fixtures.kinf_sample_a(), True),
        ("kinf-b", fixtures.kinf_sample_b(), True),
        ("sub-3-2", sub32, False),
        ("n5", fixtures.n5(), False),
    ]
    for name, lat, expected in decisions:
        t0 = time.perf_counter()
        verdict, cert = subspaces.k_infinity_member(lat)
        ok = verdict == expected
        if name == "sub-3-2":
            ok = ok and cert["reason"] == "not_2distributive" and cert["two_diamond"]
        if name == "n5":
            ok = ok and cert["reason"] == "not_modular"
        result.add(
            "kinf-%s" % name,
            "finite modular-2-distributive membership decision for %s" % name,
            ok,
            witness=jsonio.jsonable(cert),
            started=t0,
        )

    t0 = time.perf_counter()
    expected_counts = {(2, 2): 5, (3, 2): 16, (2, 3): 6, (4, 2): 67}
    got = {}
    for (dim, p), want in expected_counts.items():
        sl = subspaces.subspace_lattice(dim, p)
        oracle = _span_count_oracle(dim, p)
        got[(dim, p)] = (len(sl), oracle, want)
    ok = all(a == b == c for (a, b, c) in got.values())
    result.add(
        "counts-gaussian",
        "subspace lattice sizes match the independent span-enumeration oracle",
        ok,
        witness={str(k): v for k, v in got.items()},
        started=t0,
    )
    return result


def _span_count_oracle(dim, p):
    """Count subspaces of GF(p)^dim as vector sets closed under span.

    Independent of echelon forms: a set is a bitset over the p**dim
    vectors.  Starting from {0}, every set S found is extended by every
    vector v outside it to S + GF(p)v, and the distinct sets are counted.
    """
    vectors = list(itertools.product(range(p), repeat=dim))
    index = {v: i for i, v in enumerate(vectors)}
    plus = [[index[tuple((a + b) % p for a, b in zip(u, w))] for w in vectors] for u in vectors]
    times = [[index[tuple(c * a % p for a in v)] for v in vectors] for c in range(1, p)]
    zero = 1 << index[(0,) * dim]
    found = {zero}
    frontier = [zero]
    while frontier:
        grown = []
        for s in frontier:
            members = [u for u in range(len(vectors)) if s >> u & 1]
            for v in range(len(vectors)):
                if s >> v & 1:
                    continue
                t = s
                for row in times:
                    for u in members:
                        t |= 1 << plus[u][row[v]]
                if t not in found:
                    found.add(t)
                    grown.append(t)
        frontier = grown
    return len(found)


def run_suite(name, seed=0, instances=10_000, sampled_count=10**6, budget=None):
    suites = {
        "idequiv": lambda: suite_idequiv(seed, sampled_count=sampled_count, budget=budget),
        "dnperm": lambda: suite_dnperm(seed, instances=instances),
        "abx": lambda: suite_abx(seed),
        "m3proj": lambda: suite_m3proj(seed),
        "commutator": lambda: suite_commutator(seed),
        "embedding": lambda: suite_embedding(seed),
    }
    if name != "all" and name not in suites:
        raise ValueError("unknown suite %r; choose from %s or 'all'" % (name, SUITES))
    chosen = SUITES if name == "all" else (name,)
    # refuse a bad count before any suite runs, not after those before it
    if "dnperm" in chosen and instances < 1:
        raise ValueError("instances must be at least 1, got %d" % instances)
    if "idequiv" in chosen and sampled_count < 1:
        raise ValueError("sampled_count must be at least 1, got %d" % sampled_count)
    return [suites[suite]() for suite in chosen]
