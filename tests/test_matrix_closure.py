"""The 2x2-matrix closure against a definition-level fixpoint."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import fixtures, limits
from congforge.algebras import (
    FiniteAlgebra,
    _boxes,
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
    ops = [(op.table, op.arity) for op in algebra.operations]

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


def as_rows(quads):
    return [tuple(r) for r in quads.tolist()]


def test_closure_matches_definition_on_fixture_congruences(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        con = con_lattice(alg)
        for a in con.congruences:
            for b in con.congruences:
                got = as_rows(_matrix_closure(alg, a, b))
                assert got == sorted(closure_by_definition(alg, a, b)), (name, a, b)


@st.composite
def _algebras_with_partitions(draw):
    n = draw(st.integers(1, 4))
    # keep the definition's (n^4)^k tuples per round small
    arities = [k for k in range(4) if (n**4) ** k <= 1 << 16]
    ops = []
    for j, k in enumerate(draw(st.lists(st.sampled_from(arities), max_size=3))):
        flat = draw(st.lists(st.integers(0, n - 1), min_size=n**k, max_size=n**k))
        ops.append(make_operation("f%d" % j, k, flat, n))
    alg = FiniteAlgebra(n, ops)

    def partition():
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        first = {}
        return Partition(tuple(first.setdefault(lab, i) for i, lab in enumerate(labels)))

    return alg, partition(), partition()


@settings(max_examples=150, deadline=None)
@given(_algebras_with_partitions())
def test_closure_matches_definition_on_random_algebras(case):
    alg, alpha, beta = case
    got = as_rows(_matrix_closure(alg, alpha, beta))
    assert got == sorted(closure_by_definition(alg, alpha, beta))


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
    assert first.dtype == np.int64 and first.shape[1] == 4
    keys = first @ np.array([6**3, 6**2, 6, 1])
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
