"""The 2x2-matrix closure against a definition-level fixpoint."""

import itertools
import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import algebras, fixtures, limits
from congforge.algebras import (
    FiniteAlgebra,
    Operation,
    _boxes,
    _close,
    _closure_by_rounds,
    _matrix_closure,
    commutator,
    con_lattice,
    make_operation,
)
from congforge.limits import SizeLimitError
from congforge.partitions import Partition


def closure_by_definition(algebra, alpha, beta):
    """Apply every operation entrywise to every k-tuple of the current
    matrices, on Python tuples, until nothing new appears."""
    n = algebra.size
    rows = {(a, a, b, b) for a in range(n) for b in range(n) if alpha.rep[a] == alpha.rep[b]}
    rows |= {(u, v, u, v) for u in range(n) for v in range(n) if beta.rep[u] == beta.rep[v]}
    ops = [(op.table.tolist(), op.arity) for op in algebra.operations]

    def apply(table, args):
        for a in args:
            table = table[a]
        return table

    while True:
        fresh = set()
        for table, k in ops:
            for tup in itertools.product(rows, repeat=k):
                fresh.add(tuple(apply(table, [m[e] for m in tup]) for e in range(4)))
        if fresh <= rows:
            return rows
        rows |= fresh


def as_rows(M):
    return [tuple(r) for r in np.argwhere(M).tolist()]


def test_closure_matches_definition_on_fixture_congruences(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        con = con_lattice(alg)
        for a in con.congruences:
            for b in con.congruences:
                got = as_rows(_matrix_closure(alg, a, b))
                assert got == sorted(closure_by_definition(alg, a, b)), (name, a, b)


def _partition(draw, n, blocks=None):
    labels = draw(st.lists(st.integers(0, (blocks or n) - 1), min_size=n, max_size=n))
    first = {}
    return Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))


def _random_operations(draw, n, names, min_size=0):
    # keep the definition's (n^4)^k tuples per round small
    arities = [k for k in range(4) if (n**4) ** k <= 1 << 16]
    ops = []
    drawn = st.lists(st.sampled_from(arities), min_size=min_size, max_size=len(names))
    for name, k in zip(names, draw(drawn)):
        flat = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        ops.append(make_operation(name, k, flat, n))
    return ops


@st.composite
def _algebras_with_partitions(draw):
    n = draw(st.integers(1, 4))
    alg = FiniteAlgebra(n, _random_operations(draw, n, ["f0", "f1", "f2"]))
    return alg, _partition(draw, n), _partition(draw, n)


@settings(max_examples=150, deadline=None)
@given(_algebras_with_partitions())
def test_closure_matches_definition_on_random_algebras(case):
    alg, alpha, beta = case
    got = as_rows(_matrix_closure(alg, alpha, beta))
    assert got == sorted(closure_by_definition(alg, alpha, beta))


def _associative_table(draw, n):
    """A drawn associative table on n points: min under a drawn order, a
    left- or right-zero band, or Z_n relabelled by a drawn permutation."""
    kind = draw(st.sampled_from(["min", "left-zero", "right-zero", "cyclic"]))
    order = draw(st.permutations(range(n)))
    place = {e: i for i, e in enumerate(order)}
    mul = {
        "min": lambda x, y: x if place[x] <= place[y] else y,
        "left-zero": lambda x, y: x,
        "right-zero": lambda x, y: y,
        "cyclic": lambda x, y: order[(place[x] + place[y]) % n],
    }[kind]
    return [mul(x, y) for x in range(n) for y in range(n)]


@st.composite
def _transformation_semigroup(draw):
    """(size, table) of composition in the semigroup spanned by one or two
    drawn maps of at most 3 points; over 4 elements it falls back to the
    powers of the first map, at most 3 of them on 3 points."""
    d = draw(st.integers(1, 3))
    maps = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * d), min_size=1, max_size=2))

    def compose(s, t):
        return tuple(s[x] for x in t)

    def span(gens):
        out, frontier = set(gens), set(gens)
        while frontier:
            frontier = {compose(a, g) for a in frontier for g in gens} - out
            out |= frontier
        return sorted(out)

    elements = span(maps)
    if len(elements) > 4:
        elements = span(maps[:1])
    index = {e: i for i, e in enumerate(elements)}
    return len(elements), [index[compose(a, b)] for a in elements for b in elements]


@st.composite
def _algebras_with_associative_operations(draw):
    """One or two associative binary operations (the first may be
    composition in a transformation semigroup) mixed with one or two random
    operations, in a drawn order, and two partitions."""
    if draw(st.booleans()):
        n, table = draw(_transformation_semigroup())
    else:
        n = draw(st.integers(2, 4))
        table = _associative_table(draw, n)
    tables = [table] + [_associative_table(draw, n) for _ in range(draw(st.integers(0, 1)))]
    ops = [make_operation("s%d" % j, 2, t, n) for j, t in enumerate(tables)]
    ops += _random_operations(draw, n, ["f0", "f1"], min_size=1)
    # at most 2^16 argument tuples per round of the definition, so two
    # binary operations need n <= 3
    while sum((n**4) ** op.arity for op in ops) > 1 << 16:
        ops.pop()
    alg = FiniteAlgebra(n, draw(st.permutations(ops)))
    # at most two blocks: coarse partitions give the largest closures
    return alg, _partition(draw, n, 2), _partition(draw, n, 2)


@settings(max_examples=80, deadline=None)
@given(_algebras_with_associative_operations())
def test_closure_matches_definition_with_associative_operations(case):
    alg, alpha, beta = case
    assert any(alg._associative)
    got = as_rows(_matrix_closure(alg, alpha, beta))
    assert got == sorted(closure_by_definition(alg, alpha, beta))


def associative_by_triples(alg):
    """One bool per operation of positive arity: binary and (xy)z = x(yz)."""
    n = alg.size
    return tuple(
        arr.ndim == 2 and all(arr[arr[x, y], z] == arr[x, arr[y, z]]
                              for x, y, z in itertools.product(range(n), repeat=3))
        for arr in alg.by_name.values() if arr.ndim
    )


@settings(max_examples=80, deadline=None)
@given(st.one_of(_algebras_with_partitions(), _algebras_with_associative_operations()))
def test_associative_matches_a_triple_loop(case):
    alg = case[0]
    assert alg._associative == associative_by_triples(alg)
    assert len(alg._associative) == len(alg._pair_tables)


def test_associative_on_the_fixtures(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        assert alg._associative == associative_by_triples(alg), name
    assert fixtures.sym3()._associative == (True, False)  # mul, inv
    assert fixtures.majority3()._associative == (False,)
    minus = make_operation("minus", 2, [(x - y) % 3 for x in range(3) for y in range(3)], 3)
    assert FiniteAlgebra(3, [minus])._associative == (False,)


@pytest.mark.parametrize("meet_first", [True, False])
def test_closure_grows_the_generators_of_an_associative_operation(meet_first):
    # all 16 matrices; with the generators of meet kept at the seeds, or
    # missing what not made before meet ran in a round, only 14 are found,
    # since some need meet applied to a matrix made by not
    ops = [make_operation("meet", 2, [0, 0, 0, 1], 2), make_operation("not", 1, [1, 0], 2)]
    alg = FiniteAlgebra(2, ops if meet_first else ops[::-1])
    top = Partition.one_block(2)
    assert alg._associative == ((True, False) if meet_first else (False, True))
    assert as_rows(_matrix_closure(alg, top, top)) == list(itertools.product(range(2), repeat=4))


def test_closure_of_a_lattice_grows_the_generators_of_both_operations():
    # all 81 matrices of the 3-element chain; with generators kept at the
    # seeds only 67, since meet needs matrices that join made and back
    meet = make_operation("meet", 2, [min(x, y) for x in range(3) for y in range(3)], 3)
    join = make_operation("join", 2, [max(x, y) for x in range(3) for y in range(3)], 3)
    alg = FiniteAlgebra(3, [meet, join])
    top = Partition.one_block(3)
    assert alg._associative == (True, True)
    got = as_rows(_matrix_closure(alg, top, top))
    assert len(got) == 81 and got == sorted(closure_by_definition(alg, top, top))


def _tiny_cases():
    maltsev = make_operation("p", 3, [(x - y + z) % 2 for x in range(2)
                                      for y in range(2) for z in range(2)], 2)
    two, z4 = FiniteAlgebra(2, [maltsev]), fixtures.cyclic_group(4)
    s3, m = fixtures.sym3(), fixtures.majority3()
    a3 = fixtures.sym3_a3_partition()
    return [
        (two, Partition.one_block(2), Partition.one_block(2)),
        (z4, Partition.one_block(4), Partition.one_block(4)),
        (s3, a3, a3),
        (m, Partition.one_block(3), Partition.singletons(3)),
        (s3, Partition.one_block(6), a3),  # 324 matrices
    ]


def test_tiny_chunk_budget_gives_the_same_closure(monkeypatch):
    cases = _tiny_cases()
    expected = [_matrix_closure(*case) for case in cases]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for case, want in zip(cases, expected):
        assert np.array_equal(_matrix_closure(*case), want)


def test_cached_tables_give_the_same_closure():
    s3 = fixtures.sym3()
    top = Partition.one_block(6)
    first = _matrix_closure(s3, top, top)
    tables = s3._pair_tables
    again = _matrix_closure(s3, top, top)
    assert s3._pair_tables is tables
    assert np.array_equal(first, again)
    assert first.dtype == bool and first.shape == (6,) * 4
    keys = np.argwhere(first) @ np.array([6**3, 6**2, 6, 1])
    assert np.all(np.diff(keys) > 0)  # ascending key order


def test_closure_bound_admits_twelve_elements_with_a_ternary_operation():
    z12 = fixtures.cyclic_group(12)
    p = make_operation("p", 3, [(x - y + z) % 12 for x in range(12)
                                for y in range(12) for z in range(12)], 12)
    alg = FiniteAlgebra(12, list(z12.operations) + [p])
    bottom = Partition.singletons(12)
    assert as_rows(_matrix_closure(alg, bottom, bottom)) == [(c, c, c, c) for c in range(12)]


def big_unary_algebra(n=300):
    return FiniteAlgebra(n, [make_operation("s", 1, [(x + 1) % n for x in range(n)], n)])


def test_closure_over_the_byte_bound_is_refused():
    alg = big_unary_algebra()
    top = Partition.one_block(alg.size)
    with pytest.raises(SizeLimitError, match="bytes"):
        commutator(alg, top, top)
    assert "_pair_tables" not in vars(alg)  # refused before building anything


def test_a_bottom_meet_is_decided_before_the_byte_bound():
    # [alpha, beta] <= alpha ^ beta, so [1, 0] = 0 needs no closure
    alg = big_unary_algebra()
    top, bottom = Partition.one_block(alg.size), Partition.singletons(alg.size)
    assert commutator(alg, top, bottom) == bottom
    assert commutator(alg, bottom, top) == bottom
    assert "_pair_tables" not in vars(alg)


def _chain_algebra(n, binary):
    """Successor mod n, and with binary the maximum of a chain."""
    ops = [make_operation("s", 1, [(x + 1) % n for x in range(n)], n)]
    if binary:
        ops.append(make_operation("max", 2, [max(x, y) for x in range(n) for y in range(n)], n))
    return FiniteAlgebra(n, ops)


@pytest.mark.parametrize("n", [15, 16, 17])
def test_closure_matches_definition_around_the_key_dtype_boundary(n):
    # keys run up to n^4 - 1: 50624 at 15 elements and 65535 at 16 fit
    # uint16, 83520 at 17 needs uint32
    bottom, top = Partition.singletons(n), Partition.one_block(n)
    ends = Partition.from_blocks(n, [[0, n - 1]] + [[x] for x in range(1, n - 1)])
    mod3 = Partition(tuple(x % 3 for x in range(n)))
    mod5 = Partition(tuple(x % 5 for x in range(n)))
    cases = [(_chain_algebra(n, True), bottom, bottom),
             (_chain_algebra(n, True), ends, bottom),
             (_chain_algebra(n, False), top, top),
             (_chain_algebra(n, False), mod3, mod5)]
    for alg, alpha, beta in cases:
        got = as_rows(_matrix_closure(alg, alpha, beta))
        assert got == sorted(closure_by_definition(alg, alpha, beta)), (alpha, beta)
        assert got[-1] == (n - 1,) * 4


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=3),
       st.integers(1, 4000), st.integers(8, 600))
def test_boxes_tile_the_product_within_the_byte_budget(spans, budget, row_bytes):
    spans = [(min(a, b), max(a, b)) for a, b in spans]
    saved = limits.CHUNK_BYTES
    limits.CHUNK_BYTES = budget
    try:
        boxes = [list(box) for box in _boxes(spans, 16, row_bytes)]
    finally:
        limits.CHUNK_BYTES = saved
    covered = [cell for box in boxes for cell in itertools.product(*(range(a, b) for a, b in box))]
    assert sorted(covered) == list(itertools.product(*(range(a, b) for a, b in spans)))
    for box in boxes:
        lead = math.prod(b - a for a, b in box[:-1])
        last = box[-1][1] - box[-1][0]
        # a box fits the budget, or is one gathered row of the fewest cells
        assert (lead * (last * 16 + row_bytes) <= budget
                or (lead == 1 and last <= max(1, budget // 16)))


def _median(lat):
    """(x ^ y) v (y ^ z) v (z ^ x) in a lattice, a majority operation, as
    a flat table."""
    j, m = lat.join, lat.meet
    return [int(j[j[m[x, y], m[y, z]], m[z, x]])
            for x, y, z in itertools.product(range(lat.size), repeat=3)]


def _median_algebra(lat):
    return FiniteAlgebra(lat.size, [make_operation("m", 3, _median(lat), lat.size)])


@st.composite
def _algebras_with_majority_operations(draw):
    """A majority operation, the median of a chain of 1-4 points in a drawn
    order or the lattice median of a 4-element fixture lattice, mixed with
    up to two random operations of arity at most 2, in a drawn order, and
    two drawn partitions (not congruences in general)."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        order = draw(st.permutations(range(n)))
        place = {e: i for i, e in enumerate(order)}
        table = [sorted((x, y, z), key=place.get)[1]
                 for x, y, z in itertools.product(range(n), repeat=3)]
    else:
        lat = draw(st.sampled_from([fixtures.chain(4), fixtures.boolean_square()]))
        n, table = lat.size, _median(lat)
    ops = [make_operation("m", 3, table, n)]
    arities = st.lists(st.sampled_from([0, 1, 2]), max_size=2)
    for name, k in zip(["f0", "f1"], draw(arities)):
        ops.append(make_operation(name, k, draw(st.lists(st.integers(0, n - 1),
                                                         min_size=n**k, max_size=n**k)), n))
    alg = FiniteAlgebra(n, draw(st.permutations(ops)))
    return alg, _partition(draw, n), _partition(draw, n)


def check_projection_route(alg, alpha, beta, chunk_bytes=None):
    """The projection route, at chunk_bytes if given, against the rounds,
    and against the definition where the closure is small enough for its
    Python tuples."""
    assert any(alg._majority)
    want = _closure_by_rounds(alg, alpha, beta)
    with mock.patch.object(limits, "CHUNK_BYTES", chunk_bytes or limits.CHUNK_BYTES):
        got = _matrix_closure(alg, alpha, beta)
    assert np.array_equal(got, want) and got.dtype == want.dtype == bool
    if np.count_nonzero(want) ** 3 <= 1 << 16:
        assert as_rows(got) == sorted(closure_by_definition(alg, alpha, beta))


@settings(max_examples=120, deadline=None)
@given(_algebras_with_majority_operations())
def test_closure_by_projections_matches_the_rounds_and_the_definition(case):
    check_projection_route(*case)


@settings(max_examples=40, deadline=None)  # 1-byte chunks evaluate one cell per box
@given(_algebras_with_majority_operations())
def test_closure_by_projections_at_one_byte_chunks(case):
    check_projection_route(*case, chunk_bytes=1)


def test_closure_by_projections_on_fixture_congruences():
    for alg in (fixtures.majority3(), _median_algebra(fixtures.boolean_square())):
        con = con_lattice(alg)
        for a, b in itertools.product(con.congruences, repeat=2):
            check_projection_route(alg, a, b)


def majority_by_loops(alg):
    """One bool per operation of positive arity: ternary and
    m(x,x,y) = m(x,y,x) = m(y,x,x) = x."""
    n = alg.size
    return tuple(
        arr.ndim == 3 and all(arr[x, x, y] == arr[x, y, x] == arr[y, x, x] == x
                              for x, y in itertools.product(range(n), repeat=2))
        for arr in alg.by_name.values() if arr.ndim)


@st.composite
def _near_majority_algebras(draw):
    """A chain median with up to two entries redrawn, beside a random
    operation: majority or not, by a hair."""
    n = draw(st.integers(1, 4))
    table = _median(fixtures.chain(n))
    for _ in range(draw(st.integers(0, 2))):
        table[draw(st.integers(0, n**3 - 1))] = draw(st.integers(0, n - 1))
    ops = [make_operation("m", 3, table, n)] + _random_operations(draw, n, ["f"])
    return FiniteAlgebra(n, draw(st.permutations(ops)))


@settings(max_examples=150, deadline=None)
@given(_near_majority_algebras())
def test_majority_matches_a_loop(alg):
    assert alg._majority == majority_by_loops(alg)


def _two_of_three(n):
    """The chain median with m(y,x,x) = y: two of the three majority laws."""
    return FiniteAlgebra(n, [make_operation("m", 3, [
        x if len({x, y, z}) < 3 else sorted((x, y, z))[1]
        for x, y, z in itertools.product(range(n), repeat=3)], n)])


def test_majority_refuses_near_majority_tables():
    assert fixtures.majority3()._majority == (True,)
    assert _two_of_three(3)._majority == (False,)
    median = _median(fixtures.chain(3))
    for pos in range(27):
        x, y, z = np.unravel_index(pos, (3, 3, 3))
        if len({x, y, z}) < 3:  # an entry the laws fix
            table = list(median)
            table[pos] = (table[pos] + 1) % 3
            assert FiniteAlgebra(3, [make_operation("m", 3, table, 3)])._majority == (False,)


def test_mutant_accepting_a_near_majority_table_fails():
    # read as a majority operation, a table with two of the three laws
    # gives all 81 matrices for [1, 1], where its closure holds 63
    alg = _two_of_three(3)
    top = Partition.one_block(3)
    want = _closure_by_rounds(alg, top, top)
    assert np.array_equal(_matrix_closure(alg, top, top), want) and np.count_nonzero(want) == 63
    alg.__dict__["_majority"] = (True,)
    assert np.count_nonzero(_matrix_closure(alg, top, top)) == 81
    with pytest.raises(AssertionError):
        check_projection_route(alg, top, top)


def test_mutant_dropping_theta_fails(monkeypatch):
    # on the median of the 4-chain with alpha = 01|23 and beta = 02|13 the
    # four other projections admit 4 matrices outside the closure
    alg = _median_algebra(fixtures.chain(4))
    alpha = Partition.from_blocks(4, [[0, 1], [2, 3]])
    beta = Partition.from_blocks(4, [[0, 2], [1, 3]])
    check_projection_route(alg, alpha, beta)
    monkeypatch.setattr(algebras, "_PROJECTIONS",
                        tuple(p for p in algebras._PROJECTIONS if p[2] != "theta"))
    assert (np.count_nonzero(_matrix_closure(alg, alpha, beta))
            == np.count_nonzero(_closure_by_rounds(alg, alpha, beta)) + 4)
    with pytest.raises(AssertionError):
        check_projection_route(alg, alpha, beta)


def test_projection_route_closes_only_what_is_not_closed(monkeypatch):
    # a congruence is its own Sg, and Theta is the larger of comparable
    # alpha and beta; on the median of the 4-chain the congruences are the
    # partitions into intervals
    alg = _median_algebra(fixtures.chain(4))
    one, zero = Partition.one_block(4), Partition.singletons(4)
    low, mid = Partition.from_blocks(4, [[0, 1], [2], [3]]), Partition.from_blocks(4, [[0], [1, 2], [3]])
    halves = Partition.from_blocks(4, [[0, 1], [2, 3]])
    cross = Partition.from_blocks(4, [[0, 2], [1, 3]])  # not a congruence
    cases = [(one, one, 0), (halves, halves, 0), (zero, halves, 0), (halves, one, 0),
             (low, mid, 1), (cross, one, 1), (one, cross, 1), (cross, halves, 2),
             (cross, cross, 2)]
    for alpha, beta, closes in cases:
        want = _closure_by_rounds(alg, alpha, beta)
        calls = []

        def counted(*args, calls=calls):
            calls.append(args)
            return _close(*args)

        with monkeypatch.context() as patch:
            patch.setattr(algebras, "_close", counted)
            got = _matrix_closure(alg, alpha, beta)
        assert np.array_equal(got, want) and len(calls) == closes, (alpha, beta)


@pytest.mark.parametrize("n", [6, 16])
def test_median_chain_has_total_commutator(n):
    # a majority operation makes the variety congruence distributive,
    # where [alpha, beta] = alpha ^ beta
    alg = _median_algebra(fixtures.chain(n))
    top = Partition.one_block(n)
    assert commutator(alg, top, top) == top
    assert "_pair_tables" not in vars(alg)  # the projection route builds none


def _chain_median(n):
    """The median algebra of the chain 0 < 1 < ... < n-1, built by numpy."""
    x, y, z = np.ogrid[:n, :n, :n]
    median = np.maximum(np.minimum(x, y), np.minimum(np.maximum(x, y), z))
    return FiniteAlgebra(n, [Operation("m", 3, median)])


def test_projection_route_counts_its_own_bytes():
    # at 25 points the ternary pair table alone (2 * 25^6 bytes) puts the
    # rounds over the bound; the projection route holds its n^4 bitmap
    alg = _median_algebra(fixtures.chain(25))
    assert algebras._closure_bytes(alg) > limits.CLOSURE_BYTES
    fives = Partition(tuple(x - x % 5 for x in range(25)))  # intervals: a congruence
    assert commutator(alg, fives, fives) == fives
    assert "_pair_tables" not in vars(alg)
    assert np.array_equal(_chain_median(25).by_name["m"], alg.by_name["m"])

    def over(n):  # the bytes of the route the closure would take
        chain = _chain_median(n)
        return algebras._closure_bytes(chain, any(chain._majority)) > limits.CLOSURE_BYTES

    # the smallest median chain over the bound, by bisection: bytes grow with n
    admitted, refused = 25, 128
    assert not over(admitted) and over(refused)
    while refused - admitted > 1:
        mid = (admitted + refused) // 2
        admitted, refused = (admitted, mid) if over(mid) else (mid, refused)
    assert not over(refused - 1) and refused > 60
    chain = _chain_median(refused)
    with pytest.raises(SizeLimitError, match="bytes"):
        _matrix_closure(chain, Partition.one_block(refused), Partition.one_block(refused))
    # refused before any table is built, and before the congruence checks
    assert not {"_pair_tables", "_moves"} & set(vars(chain))


def test_projection_route_counts_the_translation_table_it_holds(monkeypatch):
    # the route's own state is checked first, with nothing built; then the
    # bytes of the translation table is_congruence reads, as it is held
    n = 16
    top, quarters = Partition.one_block(n), Partition(tuple(x - x % 4 for x in range(n)))
    want = _matrix_closure(_chain_median(n), top, quarters)
    own = algebras._closure_bytes(_chain_median(n), True)
    table = _chain_median(n)._moves.nbytes
    assert table == 8 * n * (n * (n + 1) // 2)  # one column per distinct map, not 3 n^3
    monkeypatch.setattr(limits, "CLOSURE_BYTES", own + table)
    assert np.array_equal(_matrix_closure(_chain_median(n), top, quarters), want)
    for bound, built in ((own + table - 1, True), (own - 1, False)):
        monkeypatch.setattr(limits, "CLOSURE_BYTES", bound)
        chain = _chain_median(n)
        with pytest.raises(SizeLimitError, match="2x2-matrix closure on 16 elements needs %d bytes"
                           % (own + table if built else own)):
            _matrix_closure(chain, top, quarters)
        assert ("_moves" in vars(chain)) is built and "_pair_tables" not in vars(chain)
