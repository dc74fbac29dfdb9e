"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and time limits are pinned here; every expected value
is exact and was either computed by an independent oracle in the module
tests or is a structural count.
"""

import time

import pytest

from congforge import algebras, fixtures, subspaces, terms, verify
from congforge.lattice import LatticeHom, find_sublattice
from congforge.partitions import Partition, full_partition_lattice
from congforge.projectivity import m3_witness


def _report(cid, passed, detail=""):
    print("[%s] %s %s" % ("PASS" if passed else "FAIL", cid, detail))
    assert passed, "%s: %s" % (cid, detail)


def test_c1_d_equivalence_per_assignment():
    started = time.time()
    total_checked = 0
    for n in (3, 4):
        for name, lat in (
            ("m3", fixtures.m3()),
            ("m3x2", fixtures.m3_times_chain2()),
            ("sub22", subspaces.subspace_lattice(2, 2).lattice),
        ):
            checked, bad, first = verify.dn_pair_agreement(lat, n, "exhaustive")
            total_checked += checked
            assert bad == 0, (name, n, first)
        checked, bad, first = verify.dn_pair_agreement(
            subspaces.subspace_lattice(3, 2).lattice,
            n,
            "sampled",
            samples=10**6,
            seed=n,
        )
        assert checked >= 10**6 and bad == 0, (n, first)
        total_checked += checked
    elapsed = time.time() - started
    _report(
        "C1 d-equivalence",
        elapsed <= 300,
        "zero discrepancies over %d assignments in %.1fs" % (total_checked, elapsed),
    )


def test_c1_d_equivalence_at_n6():
    # 5**12 assignments: counted by the transfer, out of reach of a sweep
    assert verify.dn_pair_agreement(fixtures.m3(), 6) == (5**12, 0, None)


def test_c2_permuting_family_harness():
    started = time.time()
    suite = verify.suite_dnperm(seed=0, instances=10_000)
    instance_check = next(c for c in suite.checks if c.check_id == "dnperm-instances")
    elapsed = time.time() - started
    _report(
        "C2 permuting families",
        instance_check.passed and elapsed <= 120,
        "10000 instances, failures=%s, %.1fs"
        % (instance_check.witness["failures"], elapsed),
    )


def test_c3_exchange_biconditional():
    started = time.time()
    suite = verify.suite_abx(seed=0)
    elapsed = time.time() - started
    _report(
        "C3 exchange biconditional",
        suite.passed and elapsed <= 120,
        "exhaustive over m3, sub(2,2), sub(3,2), m3x2 in %.1fs" % elapsed,
    )


def test_c4_commutator_oracle_agreement():
    expected_blocks = {
        "z2": 2,
        "z3": 3,
        "z4": 4,
        "z2z2": 4,
        "s3": 2,
    }
    groups = {
        "z2": fixtures.cyclic_group(2),
        "z3": fixtures.cyclic_group(3),
        "z4": fixtures.cyclic_group(4),
        "z2z2": fixtures.klein_group(),
        "s3": fixtures.sym3(),
    }
    ok = True
    detail = {}
    for name, alg in groups.items():
        top = Partition.one_block(alg.size)
        tc = algebras.commutator(alg, top, top)
        detail[name] = tc.blocks()
        if tc.block_count() != expected_blocks[name]:
            ok = False
        if name == "s3" and tc != fixtures.sym3_a3_partition():
            ok = False
        if name != "s3" and tc != Partition.singletons(alg.size):
            ok = False
    _report("C4 commutator oracle", ok, str(detail))


def test_c5_diamond_configurations():
    suite = verify.suite_commutator(seed=0)
    wanted = {"commutator-diamond-abelian", "commutator-diamond-permute"}
    relevant = [c for c in suite.checks if c.check_id in wanted]
    ok = len(relevant) == 2 and all(c.passed for c in relevant)
    _report("C5 diamond configurations", ok, str([c.witness for c in relevant]))


def test_c6_embedding_construction():
    z2 = fixtures.cyclic_group(2)
    z3 = fixtures.cyclic_group(3)
    rep2 = algebras.verify_embedding_construction(z2, Partition.one_block(2), 2)
    rep3 = algebras.verify_embedding_construction(z2, Partition.one_block(2), 3)
    repz3 = algebras.verify_embedding_construction(z3, Partition.one_block(3), 2)
    iso2 = find_sublattice(rep2.ln, fixtures.m3())
    iso3 = find_sublattice(rep3.ln, subspaces.subspace_lattice(3, 2).lattice)
    isoz3 = find_sublattice(repz3.ln, subspaces.subspace_lattice(2, 3).lattice)
    ok = (
        rep2.passed and rep2.interval_size == 5 and iso2 is not None
        and rep3.passed and rep3.interval_size == 16 and iso3 is not None
        and repz3.passed and repz3.interval_size == 6 and isoz3 is not None
    )
    _report(
        "C6 embedding construction",
        ok,
        "sizes %d/%d/%d with exhaustive isomorphisms"
        % (rep2.interval_size, rep3.interval_size, repz3.interval_size),
    )


def test_c7_membership_decisions():
    sub32 = subspaces.subspace_lattice(3, 2).lattice
    cases = [
        ("m3", fixtures.m3(), True),
        ("kinf-a", fixtures.kinf_sample_a(), True),
        ("kinf-b", fixtures.kinf_sample_b(), True),
        ("sub32", sub32, False),
        ("n5", fixtures.n5(), False),
    ]
    ok = True
    detail = {}
    for name, lat, want in cases:
        got, cert = subspaces.k_infinity_member(lat)
        detail[name] = cert.get("reason")
        if got != want:
            ok = False
    # the negative modular case must carry both certificates, agreeing
    got, cert = subspaces.k_infinity_member(sub32)
    both = cert["reason"] == "not_2distributive" and cert["two_diamond"] is not None
    phi = terms.generate_2distributive()
    refutes = terms.evaluate(phi.lhs, sub32, cert["assignment"]) != terms.evaluate(
        phi.rhs, sub32, cert["assignment"]
    )
    _report("C7 membership decisions", ok and both and refutes, str(detail))


def test_c8_projectivity_pipeline():
    m3 = fixtures.m3()
    successes = []

    rep = m3_witness(m3, LatticeHom(m3, m3, range(5)), 1, 2, 3)
    successes.append(rep.success and all(s["ok"] for s in rep.stages.values()))

    prod = fixtures.m3_times_chain2()
    proj = LatticeHom(prod, m3, [i // 2 for i in range(10)])
    rep = m3_witness(prod, proj, 3, 4, 7)
    successes.append(rep.success and all(s["ok"] for s in rep.stages.values()))

    sub22 = subspaces.subspace_lattice(2, 2).lattice
    emb = find_sublattice(sub22, m3)
    inverse = [0] * 5
    for src, img in enumerate(emb.map):
        inverse[img] = src
    iso = LatticeHom(sub22, m3, inverse)
    rep = m3_witness(sub22, iso, *[iso.map.index(a) for a in (1, 2, 3)])
    successes.append(rep.success and all(s["ok"] for s in rep.stages.values()))

    con = algebras.con_lattice(fixtures.klein_group())
    emb = find_sublattice(con.lattice, m3)
    inverse = [0] * 5
    for src, img in enumerate(emb.map):
        inverse[img] = src
    iso = LatticeHom(con.lattice, m3, inverse)
    rep = m3_witness(con.lattice, iso, *[iso.map.index(a) for a in (1, 2, 3)])
    successes.append(rep.success and all(s["ok"] for s in rep.stages.values()))

    glued, hom, triple = fixtures.m3_quotient_nonmodular_fixture()
    rep = m3_witness(glued, hom, *triple)
    failure_as_designed = (not rep.success) and rep.failure_stage == "verify"

    _report(
        "C8 projectivity pipeline",
        all(successes) and failure_as_designed,
        "4 successes, designed fixture fails at stage 'verify'",
    )


def test_c9_structural_counts(span_count):
    bell_expected = {3: 5, 4: 15, 5: 52, 6: 203}
    bell_got = {n: len(full_partition_lattice(n)) for n in bell_expected}

    def bell_oracle(limit):
        from math import comb

        bell = [1]
        while len(bell) <= limit:
            n = len(bell)
            bell.append(sum(comb(n - 1, k) * bell[k] for k in range(n)))
        return bell

    oracle = bell_oracle(6)
    bell_ok = all(bell_got[n] == bell_expected[n] == oracle[n] for n in bell_expected)

    gauss_expected = {(2, 2): 5, (3, 2): 16, (2, 3): 6, (4, 2): 67}
    gauss_ok = True
    for (dim, p), want in gauss_expected.items():
        got = len(subspaces.subspace_lattice(dim, p))
        if not (got == want == span_count(dim, p)):
            gauss_ok = False
    _report(
        "C9 structural counts",
        bell_ok and gauss_ok,
        "partition counts %s; subspace counts %s" % (bell_got, gauss_expected),
    )
