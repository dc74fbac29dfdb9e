"""Batched congruence generation against a Python union-find, and its input checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import algebras, fixtures, limits
from congforge.algebras import (
    FiniteAlgebra,
    Operation,
    _delta,
    _generate,
    _translations,
    alpha_power_algebra,
    con_lattice,
    congruence_from_pairs,
    make_operation,
    principal_congruence,
)
from congforge.partitions import (
    Partition,
    SizeMismatchError,
    all_partitions,
    closed_sublattice,
    p_join,
)


def moves_by_all_columns(tables, n):
    """Every unary translation by the tables on n points, one per column:
    each table with one argument slot moved first, flattened over the
    other slots, k * n^(k-1) columns per k-ary table, repeats included."""
    cols = [np.moveaxis(arr, pos, 0).reshape(n, -1) for arr in tables for pos in range(arr.ndim)]
    return np.concatenate(cols, axis=1) if cols else np.empty((n, 0), dtype=np.intp)


def closure_by_union_find(translations, pairs):
    """Canonical reps of the least partition of the points 0..m-1 that
    relates the pairs and is compatible with every column of the (m, C)
    table translations, by a Python union-find: whenever two classes
    merge, every column is applied to the merged pair, until no merge
    produces new identifications."""
    parent = list(range(len(translations)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    worklist = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        worklist.append((ra, rb))

    for a, b in pairs:
        union(int(a), int(b))
    while worklist:
        a, b = worklist.pop()
        ra, rb = translations[a], translations[b]
        for j in np.flatnonzero(ra != rb):
            union(int(ra[j]), int(rb[j]))
    return tuple(find(i) for i in range(len(parent)))


def congruence_by_union_find(algebra, pairs, start=None):
    """Least congruence containing the pairs (and the start partition),
    closed under every unary translation by a basic operation."""
    translations = moves_by_all_columns(algebra.by_name.values(), algebra.size)
    if start is not None:
        pairs = [(r, i) for i, r in enumerate(start.rep)] + list(pairs)
    return Partition(closure_by_union_find(translations, pairs))


def principal_rows(n):
    """One row per pair a < b: the partition relating a and b alone."""
    rows = np.tile(np.arange(n), (n * (n - 1) // 2, 1))
    for row, (a, b) in zip(rows, itertools.combinations(range(n), 2)):
        row[b] = a
    return rows


def assert_moves_match_all_columns(alg):
    """alg._moves against every column: the same set of columns; the
    columns of the unary and binary tables first, one per slot and
    constant as in the oracle; then those of the tables of arity 3 and up,
    each once; and the same principal congruences from _generate."""
    n, moves = alg.size, alg._moves
    every = moves_by_all_columns(alg.by_name.values(), n)
    assert {tuple(c) for c in moves.T.tolist()} == {tuple(c) for c in every.T.tolist()}
    low = moves_by_all_columns([arr for arr in alg.by_name.values() if arr.ndim <= 2], n)
    assert np.array_equal(moves[:, :low.shape[1]], low)
    high = moves[:, low.shape[1]:]
    assert len({tuple(c) for c in high.T.tolist()}) == high.shape[1]
    assert np.array_equal(_generate(moves, principal_rows(n)), _generate(every, principal_rows(n)))


def assert_generation_matches_union_find(alg, pairs, start):
    """The translation table against every column, then single calls,
    with and without start, and one batch of every principal congruence,
    each against the union-find."""
    assert_moves_match_all_columns(alg)
    n = alg.size
    assert congruence_from_pairs(alg, pairs) == congruence_by_union_find(alg, pairs)
    assert (congruence_from_pairs(alg, np.array(pairs, dtype=np.int64).reshape(-1, 2),
                                  start=start)
            == congruence_by_union_find(alg, pairs, start=start))
    batch = _generate(alg._moves, principal_rows(n))
    for row, (a, b) in zip(batch.tolist(), itertools.combinations(range(n), 2)):
        assert Partition(tuple(row)) == congruence_by_union_find(alg, [(a, b)]), (a, b)


def _some_partition(n, seed):
    labels = np.random.default_rng(seed).integers(0, max(1, n // 2), n).tolist()
    first = {}
    return Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))


def test_generation_matches_union_find_on_fixtures(algebra_corpus):
    for seed, (name, alg, _) in enumerate(algebra_corpus):
        n = alg.size
        pairs = [(a, b) for a, b in itertools.combinations(range(n), 2) if (a + b + seed) % 3 == 0]
        assert_generation_matches_union_find(alg, pairs, _some_partition(n, seed))


def test_tiny_chunk_budget_gives_the_same_congruences(monkeypatch, algebra_corpus):
    cases = [alg for _, alg, _ in algebra_corpus] + [fixtures.abelian_group((2, 2, 2))]
    want = [_generate(alg._moves, principal_rows(alg.size)) for alg in cases]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for alg, rows in zip(cases, want):
        assert np.array_equal(_generate(alg._moves, principal_rows(alg.size)), rows)
        assert_generation_matches_union_find(alg, [(0, alg.size - 1)], _some_partition(alg.size, 1))


def affine_z3_power(n):
    """The power of affine Z3, (Z3, x - y + z), on all n-tuples."""
    x, y, z = np.ogrid[:3, :3, :3]
    aff = FiniteAlgebra(3, [Operation("p", 3, (x - y + z) % 3)])
    return alpha_power_algebra(aff, Partition.one_block(3), n)[0]


def test_moves_keep_each_translation_once_at_a_tiny_chunk_budget(monkeypatch, algebra_corpus):
    # affine Z3 powers: the 2 * 3^n distinct maps x + c and c - x of
    # 3 * 3^(2n) columns; a seeded ternary table, whose slots give
    # different maps, beside a unary one
    powers = [affine_z3_power(n) for n in (2, 3)]
    assert [power._moves.shape for power in powers] == [(9, 18), (27, 54)]
    table = np.random.default_rng(0).integers(0, 3, 27)
    mixed = FiniteAlgebra(3, [make_operation("t", 3, table, 3),
                              make_operation("u", 1, [1, 1, 0], 3)])
    cases = [alg for _, alg, _ in algebra_corpus] + powers + [mixed]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for alg in cases:
        again = FiniteAlgebra(alg.size, alg.operations)  # its table built at one-row chunks
        assert_moves_match_all_columns(again)
        assert np.array_equal(again._moves, alg._moves)


@st.composite
def algebras_with_inputs(draw):
    n = draw(st.integers(1, 6))
    ops = []
    arities = [k for k in range(4) if n**k <= 216]
    for j, arity in enumerate(draw(st.lists(st.sampled_from(arities), max_size=3))):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        ops.append(make_operation("f%d" % j, arity, table, n))
    point = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(point, point), max_size=4))
    labels = draw(st.lists(point, min_size=n, max_size=n))
    first = {}
    start = Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))
    return FiniteAlgebra(n, ops), pairs, start


@settings(max_examples=80, deadline=None)
@given(algebras_with_inputs())
def test_generation_matches_union_find_on_random_algebras(case):
    alg, pairs, start = case
    assert_generation_matches_union_find(alg, pairs, start)


@pytest.mark.parametrize("orders", [(2, 2, 2, 2), (3, 3, 3)])
def test_principal_rows_of_powers_match_union_find(orders):
    # Z2^4 and Z3^3: 120 and 351 rows, each generated with the others
    alg = fixtures.abelian_group(orders)
    n = alg.size
    batch = _generate(alg._moves, principal_rows(n))
    for row, (a, b) in zip(batch.tolist(), itertools.combinations(range(n), 2)):
        assert Partition(tuple(row)) == congruence_by_union_find(alg, [(a, b)]), (a, b)


def test_each_row_pushes_its_start_points_and_absorbed_roots_once(monkeypatch,
                                                                   algebra_corpus):
    # a row pushes each point that is not its own rep once, then each root
    # that a join absorbs once: nontrivial + blocks(start) - blocks(result)
    # points, at most nontrivial + n - 1
    cases = [(alg, rows) for _, alg, _ in algebra_corpus
             for rows in (principal_rows(alg.size),
                          np.array([_some_partition(alg.size, seed).rep for seed in range(6)]))]
    cases += [(fixtures.abelian_group(orders), principal_rows(3 ** len(orders)))
              for orders in ((3, 3), (3, 3, 3))]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1 << 30)  # one range, so a row is pos // n
    pushed, push = [], algebras._pushed

    def counted(reps, pos, moves):
        pushed.append(pos // reps.shape[1])
        return push(reps, pos, moves)

    monkeypatch.setattr(algebras, "_pushed", counted)
    for alg, rows in cases:
        n = alg.size
        points = np.arange(n)
        pushed.clear()
        got = _generate(alg._moves, rows)
        counts = np.bincount(np.concatenate(pushed + [np.empty(0, dtype=np.intp)]),
                             minlength=len(rows))
        nontrivial = np.count_nonzero(rows != points, axis=1)
        blocks = np.count_nonzero(rows == points, axis=1) - np.count_nonzero(got == points, axis=1)
        assert np.array_equal(counts, nontrivial + blocks)
        assert (counts <= nontrivial + n - 1).all()


def delta_by_union_find(alg, alpha, beta):
    """Delta_{alpha,beta}'s reps over the points of A(alpha), in _delta's
    order, by the union-find closure of the generators ((a,a), (b,b)) for
    a beta b under the translations of A(alpha)."""
    n = alg.size
    arep = np.asarray(alpha.rep)
    x, y = np.nonzero(arep[:, None] == arep)
    index = np.zeros(n * n, dtype=np.intp)
    index[x * n + y] = np.arange(x.size)
    diagonal = index[np.arange(n) * (n + 1)]
    pairs = [(diagonal[a], diagonal[b]) for a, b in enumerate(beta.rep)]
    return closure_by_union_find(_translations(alg, x, y, index), pairs)


def assert_delta_matches_union_find(alg, alpha, beta):
    x, y, reps = _delta(alg, alpha, beta)
    assert tuple(reps.tolist()) == delta_by_union_find(alg, alpha, beta), (alpha, beta)


def test_delta_matches_union_find_on_fixtures(algebra_corpus):
    for _, alg, _ in algebra_corpus:
        congruences = con_lattice(alg).congruences
        for alpha, beta in itertools.product(congruences, repeat=2):
            assert_delta_matches_union_find(alg, alpha, beta)


@st.composite
def delta_inputs(draw):
    """An algebra of at most 4 points with a congruence alpha and any
    partition beta.  The algebra is Maltsev (affine Z_n, or Z_n with mul
    and inv, beside up to one random operation of arity at most 2),
    nullary-only, or random, most often not congruence permutable."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["maltsev", "nullary", "random"]))
    if kind == "maltsev":
        x, y, z = np.ogrid[:n, :n, :n]
        ops = ([Operation("p", 3, (x - y + z) % n)] if draw(st.booleans())
               else list(fixtures.cyclic_group(n).operations))
        arities = draw(st.lists(st.sampled_from([0, 1, 2]), max_size=1))
    else:
        ops = []
        arities = draw(st.lists(st.sampled_from([0] if kind == "nullary" else [0, 1, 2, 3]),
                                max_size=3))
    for j, k in enumerate(arities):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        ops.append(make_operation("f%d" % j, k, table, n))
    alg = FiniteAlgebra(n, ops)
    congruences = con_lattice(alg).congruences
    alpha = congruences[draw(st.integers(0, len(congruences) - 1))]
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    first = {}
    beta = Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))
    return alg, alpha, beta


@settings(max_examples=80, deadline=None)
@given(delta_inputs())
def test_delta_matches_union_find_on_random_algebras(case):
    assert_delta_matches_union_find(*case)


def test_one_point_algebra_has_no_principal_pairs():
    alg = FiniteAlgebra(1, [make_operation("f", 2, [0], 1)])
    assert _generate(alg._moves, principal_rows(1)).shape == (0, 1)
    con = con_lattice(alg)
    assert list(con.congruences) == [Partition((0,))]
    assert congruence_from_pairs(alg, [(0, 0)]) == Partition((0,))


def test_nullary_operations_leave_every_partition_a_congruence():
    alg = FiniteAlgebra(4, [make_operation("c", 0, [2], 4), make_operation("d", 0, [0], 4)])
    assert alg._moves.shape == (4, 0)
    assert list(con_lattice(alg).congruences) == sorted(all_partitions(4), key=lambda p: p.rep)
    start = Partition.from_blocks(4, [[0, 3], [1], [2]])
    want = p_join(start, Partition.from_blocks(4, [[0], [1, 2], [3]]))
    assert congruence_from_pairs(alg, [(2, 1)], start=start) == want


@pytest.mark.parametrize("a, b", [(-1, 0), (0, -4), (4, 0), (9, 0), (0, 4)])
def test_points_outside_the_universe_are_rejected(a, b):
    z4 = fixtures.cyclic_group(4)
    with pytest.raises(ValueError, match="0..3"):
        principal_congruence(z4, a, b)
    with pytest.raises(ValueError, match="0..3"):
        congruence_from_pairs(z4, [(0, 1), (a, b)])


def test_malformed_pairs_are_rejected():
    z4 = fixtures.cyclic_group(4)
    for pairs in ([(0, 1, 2)], [[0.0, 1.0]], np.zeros((2, 2), dtype=bool)):
        with pytest.raises(ValueError, match="pairs"):
            congruence_from_pairs(z4, pairs)


def test_start_on_another_base_set_is_rejected():
    z4 = fixtures.cyclic_group(4)
    for start in (Partition.singletons(3), Partition.one_block(5)):
        with pytest.raises(SizeMismatchError):
            congruence_from_pairs(z4, [(0, 2)], start=start)


# -- Con(A) as the join-closure of the principal congruences --------------------


def assert_con_matches_the_closure_oracle(alg):
    """con_lattice, the join-closure of the principal congruences, against
    the sublattice of Eq(A) that bottom and every principal congruence
    generate under join and meet."""
    n = alg.size
    con = con_lattice(alg, cap=None)
    principals = [Partition(tuple(row)) for row in _generate(alg._moves, principal_rows(n)).tolist()]
    eq = closed_sublattice([Partition.singletons(n)] + principals)
    assert con.congruences == eq.partitions
    assert np.array_equal(con.lattice.leq, eq.lattice.leq)
    assert con.bottom == eq.index[Partition.singletons(n)]
    assert con.top == eq.index[Partition.one_block(n)]


def _oracle_cases(algebra_corpus):
    """The fixture algebras, a nullary-only one, a 6-point unary one whose
    Con is all of Eq(A), and small abelian groups Z_p^k."""
    return ([alg for _, alg, _ in algebra_corpus]
            + [FiniteAlgebra(4, [make_operation("c", 0, [2], 4)]),
               FiniteAlgebra(6, [make_operation("id", 1, range(6), 6)])]
            + [fixtures.abelian_group(orders)
               for orders in ((2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3), (5, 5))])


def test_con_lattice_matches_the_closure_oracle(algebra_corpus):
    for alg in _oracle_cases(algebra_corpus):
        assert_con_matches_the_closure_oracle(alg)


def test_con_lattice_matches_the_closure_oracle_at_a_tiny_chunk_budget(monkeypatch,
                                                                        algebra_corpus):
    cases = _oracle_cases(algebra_corpus)
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for alg in cases:
        assert_con_matches_the_closure_oracle(alg)


@settings(max_examples=60, deadline=None)
@given(algebras_with_inputs())
def test_con_lattice_matches_the_closure_oracle_on_random_algebras(case):
    assert_con_matches_the_closure_oracle(case[0])


def test_con_lattice_far_over_the_element_cap_is_refused(monkeypatch):
    # Con of the 9-point identity algebra is all 21147 partitions, over the
    # default cap of 20000; the refusal comes within the round that crosses it
    monkeypatch.delenv("CONGFORGE_CAP", raising=False)
    alg = FiniteAlgebra(9, [make_operation("id", 1, range(9), 9)])
    with pytest.raises(limits.SizeLimitError, match="over the cap of 20000"):
        con_lattice(alg, cap=None)


def test_con_lattice_meets_the_element_cap_at_its_size(monkeypatch):
    # Con of the 5-point identity algebra is all Bell(5) = 52 partitions
    alg = FiniteAlgebra(5, [make_operation("id", 1, range(5), 5)])
    monkeypatch.setenv("CONGFORGE_CAP", "52")
    assert len(con_lattice(alg)) == 52
    monkeypatch.setenv("CONGFORGE_CAP", "51")
    with pytest.raises(limits.SizeLimitError, match="over the cap of 51"):
        con_lattice(alg)
