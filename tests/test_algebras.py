import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import algebras, fixtures, limits
from congforge.algebras import (
    ArityError,
    _commutator_fixpoint,
    _compatible,
    _matrix_closure,
    _violations,
    FiniteAlgebra,
    NonConvergenceError,
    Operation,
    PreconditionFailedError,
    TOp,
    TVar,
    abelian_interval,
    alpha_power_algebra,
    centrality,
    check_weak_difference_term,
    commutator,
    commutator_by_descent,
    con_lattice,
    congruence_from_pairs,
    construct_delta,
    eval_term_expr,
    is_congruence,
    is_solvable_interval,
    make_operation,
    parse_term_expr,
    principal_congruence,
    solvable_series,
    verify_embedding_construction,
)
from congforge.lattice import find_sublattice, m3_configurations
from congforge.partitions import (
    Partition,
    all_partitions,
    full_partition_lattice,
    p_leq,
    p_meet,
    permutes,
    SizeMismatchError,
)
from congforge.subspaces import subspace_lattice


def bot(alg):
    return Partition.singletons(alg.size)


def top(alg):
    return Partition.one_block(alg.size)


def test_principal_congruences():
    z4 = fixtures.cyclic_group(4)
    assert principal_congruence(z4, 1, 1) == bot(z4)
    assert principal_congruence(z4, 0, 2).blocks() == [[0, 2], [1, 3]]
    bare = FiniteAlgebra(2, [])
    assert principal_congruence(bare, 0, 1) == top(bare)


def test_term_expr_parse_eval():
    d = parse_term_expr("mul(x, mul(inv(y), z))")
    assert d == fixtures.group_wdt_term()
    z4 = fixtures.cyclic_group(4)
    assert eval_term_expr(z4, d, {"x": 1, "y": 3, "z": 2}) == 0
    with pytest.raises(ArityError):
        eval_term_expr(z4, TOp("mul", (TVar("x"),)), {"x": 1})


def test_con_lattices(m3):
    con = con_lattice(fixtures.klein_group())
    assert len(con) == 5
    assert find_sublattice(con.lattice, m3) is not None
    assert len(con_lattice(fixtures.cyclic_group(2))) == 2
    s3 = con_lattice(fixtures.sym3())
    assert len(s3) == 3
    assert s3.lattice.height() == 2  # a three-element chain
    middle = [c for c in s3.congruences if 1 < c.block_count() < 6]
    assert len(middle) == 1 and middle[0] == fixtures.sym3_a3_partition()


def test_is_congruence():
    z4 = fixtures.cyclic_group(4)
    assert is_congruence(z4, Partition.from_blocks(4, [[0, 2], [1, 3]]))
    assert not is_congruence(z4, Partition.from_blocks(4, [[0, 1], [2, 3]]))


def test_operation_tables_are_the_algebras_read_only_arrays():
    mul = tuple(tuple((x + y) % 3 for y in range(3)) for x in range(3))
    nested = FiniteAlgebra(3, [Operation("mul", 2, mul), Operation("inv", 1, (0, 2, 1)),
                               Operation("zero", 0, 0)])
    flat = FiniteAlgebra(3, [make_operation("mul", 2, [x for row in mul for x in row], 3),
                             make_operation("inv", 1, [0, 2, 1], 3),
                             make_operation("zero", 0, [0], 3)])
    power = alpha_power_algebra(nested, top(nested), 2)[0]
    for alg in (nested, flat, power):
        assert [op.name for op in alg.operations] == ["mul", "inv", "zero"]
        for op in alg.operations:
            arr = alg.by_name[op.name]
            assert op.table is arr and arr.dtype == np.int64
            assert arr.shape == (alg.size,) * op.arity
            with pytest.raises(ValueError):
                arr[(0,) * op.arity] = 0
    for op in nested.operations:
        assert np.array_equal(op.table, flat.by_name[op.name])
    assert nested.by_name["mul"].tolist() == [list(row) for row in mul]
    assert nested.by_name["zero"].shape == () and power.by_name["zero"].item() == 0
    assert nested.operations[0] != flat.operations[0]  # operations compare by identity


def entry(table, args):
    for a in args:
        table = table[a]
    return table


def compatible_by_definition(alg, part):
    """Does f(args) relate to f(alt) for every operation f and all argument
    tuples related entrywise?  Checked tuple by tuple on the tables as nested lists."""
    blocks = {x: block for block in part.blocks() for x in block}
    for op in alg.operations:
        table = op.table.tolist()
        for args in itertools.product(range(alg.size), repeat=op.arity):
            want = part.rep[entry(table, args)]
            for alt in itertools.product(*(blocks[a] for a in args)):
                if part.rep[entry(table, alt)] != want:
                    return False
    return True


def assert_con_matches_definition(alg):
    con = con_lattice(alg)
    want = [p for p in all_partitions(alg.size) if compatible_by_definition(alg, p)]
    assert list(con.congruences) == sorted(want, key=lambda p: p.rep)
    assert con.congruences[con.bottom] == bot(alg)
    assert con.congruences[con.top] == top(alg)
    for i, a in enumerate(con.congruences):
        for j, b in enumerate(con.congruences):
            assert con.lattice.leq[i, j] == p_leq(a, b)


@st.composite
def small_algebras(draw):
    n = draw(st.integers(1, 4))
    ops = []
    for k, arity in enumerate(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        ops.append(make_operation("f%d" % k, arity, table, n))
    return FiniteAlgebra(n, ops)


def test_con_lattice_matches_definition_on_fixtures(algebra_corpus):
    for _, alg, _ in algebra_corpus:
        assert_con_matches_definition(alg)


@settings(max_examples=60, deadline=None)
@given(small_algebras())
def test_con_lattice_matches_definition_on_random_algebras(alg):
    assert_con_matches_definition(alg)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_congruence_matches_definition(data):
    alg = data.draw(small_algebras())
    labels = data.draw(st.lists(st.integers(0, alg.size - 1), min_size=alg.size,
                                max_size=alg.size))
    first = {}
    part = Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))
    assert is_congruence(alg, part) == compatible_by_definition(alg, part)


def test_tiny_chunk_budget_gives_the_same_con(monkeypatch, algebra_corpus):
    cases = [alg for _, alg, _ in algebra_corpus] + [fixtures.abelian_group((2, 2, 2))]
    want = [con_lattice(alg) for alg in cases]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for alg, con in zip(cases, want):
        again = con_lattice(alg)
        assert again.congruences == con.congruences
        assert np.array_equal(again.lattice.leq, con.lattice.leq)
        assert (again.bottom, again.top) == (con.bottom, con.top)


def test_translation_table_is_refused_past_the_byte_bound(monkeypatch):
    # affine Z3: one ternary table, whose 3 * 3^2 translations are 6
    # distinct maps, x + c and c - x, of 3 points: 18 cells at 57 bytes a
    # cell; refused at a bound one byte lower, before the table is built
    x, y, z = np.ogrid[:3, :3, :3]
    alg = FiniteAlgebra(3, [Operation("p", 3, (x - y + z) % 3)])
    assert (algebras._TRANSLATION_BYTES + algebras._GEN_BYTES) * 18 == 1026
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 1025)
    for call in (lambda: is_congruence(alg, Partition.one_block(3)),
                 lambda: principal_congruence(alg, 0, 1), lambda: con_lattice(alg)):
        with pytest.raises(limits.SizeLimitError,
                           match=r"6 translations of A\(alpha\) on 3 points need 1026 bytes, "
                                 "over the bound of 1025"):
            call()
        assert "_moves" not in vars(alg)
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 1026)
    assert alg._moves.shape == (3, 6) and is_congruence(alg, Partition.one_block(3))


def test_compatibility_check_reaches_the_last_row_chunk(monkeypatch, algebra_corpus):
    # one-row chunks; the partition under test is the last row
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for _, alg, _ in algebra_corpus:
        congruences = [p.rep for p in con_lattice(alg).congruences]
        for part in all_partitions(alg.size):
            reps = np.array(congruences + [part.rep])
            assert _compatible(alg._moves, reps) == compatible_by_definition(alg, part)


def test_every_partition_is_a_congruence_of_the_identity():
    alg = FiniteAlgebra(6, [make_operation("id", 1, range(6), 6)])
    con = con_lattice(alg)
    pi6 = full_partition_lattice(6)
    assert len(con) == 203
    assert con.congruences == pi6.partitions
    assert np.array_equal(con.lattice.leq, pi6.lattice.leq)


def test_congruence_from_pairs_with_start():
    z4 = fixtures.cyclic_group(4)
    start = principal_congruence(z4, 0, 2)
    assert congruence_from_pairs(z4, [(0, 1)], start=start) == top(z4)


def test_centrality():
    z4 = fixtures.cyclic_group(4)
    assert centrality(z4, top(z4), top(z4), bot(z4))  # abelian group
    s3 = fixtures.sym3()
    assert not centrality(s3, top(s3), top(s3), bot(s3))
    assert centrality(s3, top(s3), top(s3), top(s3))  # everything mod top


def test_commutator_values():
    z4 = fixtures.cyclic_group(4)
    assert commutator(z4, top(z4), top(z4)) == bot(z4)
    s3 = fixtures.sym3()
    assert commutator(s3, top(s3), top(s3)) == fixtures.sym3_a3_partition()
    theta = fixtures.sym3_a3_partition()
    assert commutator(s3, bot(s3), theta) == bot(s3)


def test_commutator_matches_descent_oracle(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        if alg.size > 6:
            continue
        con = con_lattice(alg)
        for a in con.congruences:
            for b in con.congruences:
                fast = commutator(alg, a, b)
                slow = commutator_by_descent(alg, a, b, con=con)
                assert fast == slow, (name, a.blocks(), b.blocks())


def test_commutator_bounds_and_monotonicity(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        con = con_lattice(alg)
        pairs = list(itertools.product(con.congruences, repeat=2))
        values = {(a, b): commutator(alg, a, b) for a, b in pairs}
        for (a, b), v in values.items():
            assert p_leq(v, p_meet(a, b)), name
        for a, b in pairs:
            for c in con.congruences:
                if p_leq(a, c):
                    assert p_leq(values[(a, b)], values[(c, b)]), name


def check_order_bounds(alg, extra=()):
    """centrality and commutator, order bounds and all, give the closure's
    answers: alpha and beta range over the congruences and the extra
    partitions, delta over every partition up to 5 points, else every
    congruence.  Returns how many answers the bounds gave (delta a
    congruence above alpha or beta, or alpha ^ beta the bottom for
    congruences)."""
    con = con_lattice(alg)
    deltas = all_partitions(alg.size) if alg.size <= 5 else con.congruences
    decided = 0
    for a, b in itertools.product(list(con.congruences) + list(extra), repeat=2):
        quads = _matrix_closure(alg, a, b)
        for d in deltas:
            assert centrality(alg, a, b, d) == (not _violations(quads, d).any())
            decided += (p_leq(a, d) or p_leq(b, d)) and d in con.index
        assert commutator(alg, a, b) == _commutator_fixpoint(alg, quads)
        decided += p_meet(a, b) == bot(alg) and a in con.index and b in con.index
    return decided


def test_order_bounds_agree_with_the_closure_on_fixtures(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        assert check_order_bounds(alg) > 0, name
    # a congruence and a partition that is not one, on the median of the
    # 4-chain: alpha ^ beta and beta <= beta do not settle anything here
    median = FiniteAlgebra(4, [make_operation("m", 3, [
        sorted(t)[1] for t in itertools.product(range(4), repeat=3)], 4)])
    alpha = Partition.from_blocks(4, [[0, 1], [2, 3]])
    beta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert not centrality(median, alpha, beta, beta)
    assert commutator(median, beta, beta) == top(median)
    check_order_bounds(median, [alpha, beta])


def test_non_congruences_are_read_as_relations():
    # the documented example: on the median algebra of the 4-chain,
    # b = 02|13 spans all of A^2, so [b, b] is the top, above b ^ b = b
    median = FiniteAlgebra(4, [make_operation("m", 3, [
        sorted(t)[1] for t in itertools.product(range(4), repeat=3)], 4)])
    b = Partition.from_blocks(4, [[0, 2], [1, 3]])
    assert not is_congruence(median, b)
    assert commutator(median, b, b) == Partition.one_block(4)
    assert not centrality(median, b, b, b)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_order_bounds_agree_with_the_closure_on_random_algebras(data):
    alg = data.draw(small_algebras())
    labels = data.draw(st.lists(st.integers(0, alg.size - 1), min_size=alg.size,
                                max_size=alg.size))
    first = {}
    extra = Partition(tuple(first.setdefault(x, i) for i, x in enumerate(labels)))
    # on 4 points a ternary table can take a second per closure of the extra pairs
    check_order_bounds(alg, [extra] if alg.size <= 3 else [])


def test_wrong_base_size_is_refused():
    z4 = fixtures.cyclic_group(4)
    for n in (3, 5):
        one, single = Partition.one_block(n), Partition.singletons(n)
        calls = [lambda: commutator(z4, one, single),
                 lambda: commutator(z4, top(z4), single),
                 lambda: centrality(z4, one, single, single),
                 lambda: centrality(z4, top(z4), top(z4), single),
                 lambda: commutator_by_descent(z4, one, single),
                 lambda: abelian_interval(z4, single, one),
                 lambda: abelian_interval(z4, bot(z4), one)]
        for call in calls:
            with pytest.raises(SizeMismatchError):
                call()


def test_descent_builds_one_closure(monkeypatch, algebra_corpus):
    calls = []

    def counted(*args):
        calls.append(args)
        return _matrix_closure(*args)

    monkeypatch.setattr(algebras, "_matrix_closure", counted)
    s3 = fixtures.sym3()
    assert commutator_by_descent(s3, top(s3), top(s3)) == fixtures.sym3_a3_partition()
    assert len(calls) == 1


def test_solvable_series():
    s3 = fixtures.sym3()
    series = solvable_series(s3, top(s3))
    assert [p.block_count() for p in series] == [1, 2, 6]
    assert is_solvable_interval(s3, bot(s3), top(s3))
    z4 = fixtures.cyclic_group(4)
    assert solvable_series(z4, top(z4)) == [top(z4), bot(z4)]
    assert solvable_series(z4, bot(z4)) == [bot(z4)]
    assert is_solvable_interval(z4, bot(z4), bot(z4))


def test_solvable_series_refuses_a_cycling_commutator(monkeypatch):
    # a commutator that swaps top and bottom never reaches a fixpoint;
    # the series must stop at its bound, not return a truncated prefix
    s3 = fixtures.sym3()
    calls = []

    def swap(algebra, alpha, beta):
        calls.append(alpha)
        return bot(algebra) if alpha == top(algebra) else top(algebra)

    monkeypatch.setattr(algebras, "commutator", swap)
    with pytest.raises(NonConvergenceError):
        solvable_series(s3, top(s3))
    assert len(calls) == s3.size
    with pytest.raises(NonConvergenceError):
        is_solvable_interval(s3, top(s3), top(s3))
    assert NonConvergenceError is limits.NonConvergenceError


def test_abelian_interval():
    z4 = fixtures.cyclic_group(4)
    assert abelian_interval(z4, bot(z4), top(z4))
    s3 = fixtures.sym3()
    assert not abelian_interval(s3, bot(s3), top(s3))
    theta = fixtures.sym3_a3_partition()
    assert abelian_interval(s3, theta, theta)
    assert abelian_interval(s3, theta, top(s3))  # [1,1] lies below theta


def test_weak_difference_terms(algebra_corpus):
    for name, alg, d in algebra_corpus:
        ok, witness = check_weak_difference_term(alg, d)
        assert ok, (name, witness)


def test_weak_difference_term_rejection():
    # on the 2-element group the total congruence is abelian, so the
    # first projection leaves d(a,a,b) = a stranded away from b
    z2 = fixtures.cyclic_group(2)
    ok, witness = check_weak_difference_term(z2, TVar("x"))
    assert not ok
    a, b, theta = witness
    assert (a, b) == (0, 1) and theta == top(z2)
    with pytest.raises(ArityError):
        check_weak_difference_term(z2, TVar("w"))


def test_projection_is_wdt_for_two_element_semilattice():
    # every self-commutator here is total, so both displayed pairs land
    # in [theta, theta] trivially and the first projection qualifies
    alg = fixtures.meet_semilattice2()
    assert commutator(alg, top(alg), top(alg)) == top(alg)
    ok, witness = check_weak_difference_term(alg, TVar("x"))
    assert ok and witness is None


def test_the_algebra_layer_refuses_through_its_fixed_caps():
    z13 = fixtures.cyclic_group(13)
    with pytest.raises(limits.SizeLimitError, match="has 13 elements, over the cap of 12$"):
        con_lattice(z13)
    assert len(con_lattice(z13, cap=None)) == 2
    z2 = fixtures.cyclic_group(2)
    with pytest.raises(limits.SizeLimitError, match="has 8192 elements, over the cap of 4096$"):
        alpha_power_algebra(z2, top(z2), 13)


def test_alpha_power_algebra():
    z2 = fixtures.cyclic_group(2)
    power, tuples, bar, etas = alpha_power_algebra(z2, top(z2), 2)
    assert power.size == 4 and bar == Partition.one_block(4)
    assert etas[0].blocks() == [[0, 1], [2, 3]]
    assert etas[1].blocks() == [[0, 2], [1, 3]]
    power, tuples, bar, etas = alpha_power_algebra(z2, bot(z2), 2)
    assert power.size == 2 and bar == Partition.singletons(2)
    k4 = fixtures.klein_group()
    atom = principal_congruence(k4, 0, 1)
    power, tuples, bar, etas = alpha_power_algebra(k4, atom, 2)
    assert power.size == 8
    for e in etas + [bar]:
        assert is_congruence(power, e)


def power_by_definition(alg, alpha, n):
    """The alpha-constant n-tuples in lexicographic order, and each
    operation's table on them as a dict from argument tuples of indices
    to the index of f applied coordinatewise."""
    tuples = [t for t in itertools.product(range(alg.size), repeat=n)
              if all(alpha.rep[x] == alpha.rep[t[0]] for x in t)]
    index = {t: i for i, t in enumerate(tuples)}
    lists = {op.name: op.table.tolist() for op in alg.operations}
    tables = {
        op.name: {args: index[tuple(entry(lists[op.name], [tuples[a][i] for a in args])
                                    for i in range(n))]
                  for args in itertools.product(range(len(tuples)), repeat=op.arity)}
        for op in alg.operations
    }
    return tuples, tables


def fibres(tuples, key):
    """The kernel of key on the tuples: each point's rep is the first point
    with the same key."""
    keys = [key(t) for t in tuples]
    return Partition(tuple(keys.index(k) for k in keys))


# Congruences and exponents whose power tables hold more entries than this
# are left out of the definition check, which evaluates them one by one.
_DEFINITION_ENTRIES = 1 << 12


@pytest.mark.parametrize("chunk_bytes", [limits.CHUNK_BYTES, 1])
@settings(deadline=None)
@given(alg=small_algebras())
def test_alpha_power_matches_definition(chunk_bytes, alg):
    with mock.patch.object(limits, "CHUNK_BYTES", chunk_bytes):
        for alpha in con_lattice(alg).congruences:
            for n in (1, 2, 3):
                m = sum(len(block) ** n for block in alpha.blocks())
                if sum(m ** op.arity for op in alg.operations) > _DEFINITION_ENTRIES:
                    continue
                power, tuples, bar, etas = alpha_power_algebra(alg, alpha, n)
                want_tuples, tables = power_by_definition(alg, alpha, n)
                assert tuples == want_tuples and power.size == m
                for op in power.operations:
                    table = op.table.tolist()
                    assert all(entry(table, args) == value
                               for args, value in tables[op.name].items())
                assert bar == fibres(tuples, lambda t: alpha.rep[t[0]])
                assert etas == [fibres(tuples, lambda t: t[i]) for i in range(n)]
                assert all(is_congruence(power, e) for e in [bar] + etas)


def test_construct_delta():
    z2 = fixtures.cyclic_group(2)
    dc = construct_delta(z2, top(z2))
    assert dc.tuples == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert dc.delta.blocks() == [[0, 3], [1, 2]]
    assert dc.checks == {
        "join_eta_0": True,
        "join_eta_1": True,
        "meet_eta_0": True,
        "meet_eta_1": True,
    }
    dc0 = construct_delta(z2, bot(z2))
    assert dc0.delta == Partition.singletons(2)
    z3 = fixtures.cyclic_group(3)
    dc3 = construct_delta(z3, top(z3))
    con = con_lattice(dc3.algebra)
    # delta and the two projection kernels are atoms of a diamond
    triple = sorted(con.index[c] for c in (dc3.delta, dc3.etas[0], dc3.etas[1]))
    assert any(
        sorted((x, y, z)) == triple for (_, x, y, z, _) in m3_configurations(con.lattice)
    )


def test_verify_embedding_construction(m3):
    z2 = fixtures.cyclic_group(2)
    rep = verify_embedding_construction(z2, top(z2), 2)
    assert rep.passed and rep.interval_size == 5
    assert find_sublattice(rep.ln, m3) is not None
    rep = verify_embedding_construction(z2, top(z2), 3)
    assert rep.passed and rep.interval_size == 16
    assert find_sublattice(rep.ln, subspace_lattice(3, 2).lattice) is not None
    z3 = fixtures.cyclic_group(3)
    rep = verify_embedding_construction(z3, top(z3), 2)
    assert rep.passed and rep.interval_size == 6
    with pytest.raises(PreconditionFailedError):
        verify_embedding_construction(fixtures.sym3(), top(fixtures.sym3()), 2)


def test_diamond_configurations_are_abelian(algebra_corpus):
    for name, alg, d in algebra_corpus:
        con = con_lattice(alg)
        wdt_ok, _ = check_weak_difference_term(alg, d)
        for (o, x, y, z, i) in m3_configurations(con.lattice):
            delta = con.congruences[o]
            for atom in (x, y, z):
                theta = con.congruences[atom]
                assert p_leq(commutator(alg, theta, theta), delta), name
            if wdt_ok:
                for u, v in itertools.combinations((x, y, z), 2):
                    assert permutes(con.congruences[u], con.congruences[v]), name


def test_centrality_transfers_under_meet_and_join(algebra_corpus):
    # with a verified difference term, abelianness survives meeting and
    # joining both sides with a fixed congruence
    for name, alg, d in algebra_corpus:
        ok, _ = check_weak_difference_term(alg, d)
        if not ok:
            continue
        con = con_lattice(alg)
        for a, b in itertools.product(con.congruences, repeat=2):
            if not (p_leq(b, a) and centrality(alg, a, a, b)):
                continue
            for g in con.congruences:
                from congforge.partitions import p_join, p_meet

                assert centrality(alg, p_meet(a, g), p_meet(a, g), p_meet(b, g)), name
                assert centrality(alg, p_join(a, g), p_join(a, g), p_join(b, g)), name


def test_solvable_intervals_permute(algebra_corpus):
    for name, alg, d in algebra_corpus:
        ok, _ = check_weak_difference_term(alg, d)
        if not ok:
            continue
        con = con_lattice(alg)
        for b, a in itertools.product(con.congruences, repeat=2):
            if not p_leq(b, a) or not is_solvable_interval(alg, b, a):
                continue
            inside = [
                c for c in con.congruences if p_leq(b, c) and p_leq(c, a)
            ]
            for g, dd in itertools.combinations(inside, 2):
                assert permutes(g, dd), name


def test_join_equal_forces_abelian_interval(algebra_corpus):
    # in corpus algebras whose congruence lattice satisfies the modular
    # law, equal joins force the squeezed interval to be abelian
    from congforge import terms

    for name, alg, _ in algebra_corpus:
        con = con_lattice(alg)
        if terms.holds(con.lattice, terms.generate_modular()).status != "holds":
            continue
        from congforge.partitions import p_join, p_meet

        for a, b, g in itertools.product(con.congruences, repeat=3):
            if p_join(a, b) != p_join(a, g):
                continue
            lo = p_join(a, p_meet(b, g))
            hi = p_join(a, b)
            assert abelian_interval(alg, lo, hi), name


def test_dn_star_holds_on_diamond_atom_pairs(algebra_corpus):
    # pairs of distinct atoms of any diamond in the congruence lattice of
    # an algebra with a verified difference term permute, so substituting
    # them into the companion cyclic inequality must come out true
    from congforge.partitions import verify_dn_permuting

    tested = 0
    for name, alg, d in algebra_corpus:
        ok, _ = check_weak_difference_term(alg, d)
        if not ok:
            continue
        con = con_lattice(alg)
        for (o, x, y, z, i) in m3_configurations(con.lattice):
            atoms = [con.congruences[j] for j in (x, y, z)]
            for n in (3, 4):
                pairs = [
                    (atoms[k % 3], atoms[(k + 1) % 3]) for k in range(n)
                ]
                alphas = [p[0] for p in pairs]
                alphaps = [p[1] for p in pairs]
                assert verify_dn_permuting(alphas, alphaps), (name, n)
                tested += 1
    assert tested > 0  # the Klein group supplies at least one diamond


def test_neutrality_versus_meet_semidistributivity(algebra_corpus):
    # algebra-level table: neutrality (every self-commutator is itself)
    # against meet-semidistributivity of the congruence lattice; these
    # agree at the variety level, not per algebra, so the table is
    # recorded rather than asserted as a biconditional
    from congforge.lattice import check_semidistributivity

    expected = {
        "z2": (False, True),
        "z3": (False, True),
        "z4": (False, True),
        "z2z2": (False, False),
        "s3": (False, True),
        "semilattice2": (True, True),
        "majority3": (True, True),
    }
    for name, alg, _ in algebra_corpus:
        con = con_lattice(alg)
        neutral = all(
            commutator(alg, c, c) == c for c in con.congruences
        )
        sd_meet, _ = check_semidistributivity(con.lattice, "meet")
        assert (neutral, sd_meet) == expected[name], name
