"""The commutator of algebras with a Maltsev term through Delta_{alpha,beta},
against the 2x2-matrix closure, commutator_by_descent and the definition
of centrality."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import algebras, fixtures, limits
from congforge.algebras import (
    FiniteAlgebra,
    Operation,
    _commutator_fixpoint,
    _delta,
    _delta_commutator,
    _matrix_closure,
    _violations,
    alpha_power_algebra,
    centrality,
    commutator,
    commutator_by_descent,
    con_lattice,
    congruence_from_pairs,
    construct_delta,
    make_operation,
)
from congforge.limits import SizeLimitError
from congforge.partitions import Partition, _join_edges


def group_algebra(perms):
    """The permutations, a group, as an algebra with mul and inv."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    mul = [index[tuple(a[i] for i in b)] for a in perms for b in perms]
    inv = [index[tuple(sorted(range(len(p)), key=p.__getitem__))] for p in perms]
    n = len(perms)
    return FiniteAlgebra(n, [make_operation("mul", 2, mul, n), make_operation("inv", 1, inv, n)])


def span(gens):
    """The group the permutations generate."""
    out = frontier = {tuple(range(len(gens[0])))}
    while frontier:
        frontier = {tuple(a[i] for i in g) for a in frontier for g in gens} - out
        out = out | frontier
    return out


def affine(n):
    """Z_n with x - y + z, a Maltsev operation."""
    x, y, z = np.ogrid[:n, :n, :n]
    return FiniteAlgebra(n, [Operation("p", 3, (x - y + z) % n)])


def _points(alg, alpha):
    """x, y and index of A(alpha), as _delta builds them: the pairs of
    alpha, and the point of (a, b) at a * n + b."""
    n = alg.size
    arep = np.asarray(alpha.rep)
    x, y = np.nonzero(arep[:, None] == arep)
    index = np.zeros(n * n, dtype=np.intp)
    index[x * n + y] = np.arange(x.size)
    return x, y, index


def check_delta_route(alg):
    """Every commutator and centrality answer on the congruences of a
    Maltsev algebra equals the closure's, and the commutators equal
    commutator_by_descent."""
    assert alg._maltsev
    con = con_lattice(alg)
    for a, b in itertools.product(con.congruences, repeat=2):
        M = _matrix_closure(alg, a, b)
        got = commutator(alg, a, b)
        assert got == _commutator_fixpoint(alg, M), (a, b)
        assert got == commutator_by_descent(alg, a, b, con=con), (a, b)
        for d in con.congruences:
            assert centrality(alg, a, b, d) == (not _violations(M, d).any()), (a, b, d)


@st.composite
def maltsev_algebras(draw):
    """A permutation group of at most 8 elements (mul and inv, or on at
    most 4 elements mul and the Maltsev term x*y^-1*z) or affine Z_n for
    n <= 4, with up to one extra random operation of arity at most 2, in
    a drawn order.  The sizes keep the closure's rounds over argument
    triples of a ternary operation small: on 8 elements one check took
    over 10 s."""
    if draw(st.booleans()):
        d = draw(st.integers(2, 4))
        gens = draw(st.lists(st.permutations(range(d)).map(tuple), min_size=1, max_size=2))
        perms = span(gens)
        if len(perms) > 8:
            perms = span(gens[:1])  # a cyclic group of at most 4 elements
        alg = group_algebra(perms)
        if alg.size <= 4 and draw(st.booleans()):
            mul, inv = alg.by_name["mul"], alg.by_name["inv"]
            x, y, z = np.ogrid[:alg.size, :alg.size, :alg.size]
            ops = [Operation("mul", 2, mul), Operation("p", 3, mul[mul[x, inv[y]], z])]
        else:
            ops = list(alg.operations)
    else:
        ops = list(affine(draw(st.integers(1, 4))).operations)
    n = ops[0].table.shape[0]
    for k in draw(st.lists(st.sampled_from([0, 1, 2]), max_size=1)):
        ops.append(make_operation("f", k, draw(st.lists(st.integers(0, n - 1),
                                                        min_size=n**k, max_size=n**k)), n))
    return FiniteAlgebra(n, draw(st.permutations(ops)))


@settings(max_examples=100, deadline=None)  # about 5 ms an example, 30 ms at most
@given(maltsev_algebras())
def test_delta_route_matches_the_closure_on_random_maltsev_algebras(alg):
    check_delta_route(alg)


def test_delta_route_matches_the_closure_on_fixed_algebras():
    s4 = span([(1, 2, 3, 0), (1, 0, 2, 3)])
    cases = [fixtures.cyclic_group(6), fixtures.abelian_group((2, 4)), fixtures.sym3(),
             group_algebra(span([(1, 2, 3, 0), (3, 2, 1, 0)])),  # D4
             group_algebra([p for p in s4 if sum(p[i] > p[j] for i in range(4)
                                                 for j in range(i + 1, 4)) % 2 == 0]),  # A4
             affine(4), affine(6)]
    for alg in cases:
        check_delta_route(alg)


def dual_discriminator(n):
    """d(x,y,z) = x if x = y else z, a majority operation on n points."""
    x, y, z = np.ogrid[:n, :n, :n]
    return np.where(x == y, x, z)


def test_delta_route_on_arithmetical_algebras():
    # A Maltsev term beside a majority operation, so the variety is
    # congruence distributive and [a, b] = a ^ b: Z4 with the dual
    # discriminator is simple, [1, 1] = 1 where Z4 alone has 0; Z2^2 with
    # the coordinatewise majority has the four product congruences.
    z4, klein = fixtures.cyclic_group(4), fixtures.klein_group()
    x, y, z = np.ogrid[:4, :4, :4]
    bits = [((x >> i) & (y >> i) | (y >> i) & (z >> i) | (x >> i) & (z >> i)) & 1 for i in (0, 1)]
    top = Partition.one_block(4)
    for group, extra, congruences in ((z4, Operation("d", 3, dual_discriminator(4)), 2),
                                      (klein, Operation("m", 3, bits[0] + 2 * bits[1]), 4)):
        alg = FiniteAlgebra(4, list(group.operations) + [extra])
        assert alg._maltsev and any(alg._majority)
        assert len(con_lattice(alg).congruences) == congruences
        check_delta_route(alg)
        alg = FiniteAlgebra(4, alg.operations)
        assert commutator(alg, top, top) == top
        assert "_pair_tables" not in vars(alg)  # Delta, not the Baker-Pixley closure


def test_delta_route_at_one_byte_chunks(monkeypatch):
    # one constant tuple per block of translations, one row per _images pass
    z4, s3 = fixtures.cyclic_group(4), fixtures.sym3()
    x, y, z = np.ogrid[:4, :4, :4]
    z4p = FiniteAlgebra(4, list(z4.operations) + [Operation("p", 3, (x - y + z) % 4)])
    cases = [(alg, a, b) for alg in (affine(4), z4p, s3)
             for a, b in itertools.product(con_lattice(alg).congruences, repeat=2)]
    want = [_delta(*case)[2] for case in cases]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for case, reps in zip(cases, want):
        assert np.array_equal(_delta(*case)[2], reps)


def test_delta_route_builds_no_closure():
    perms = sorted(span([(1, 2, 3, 0), (1, 0, 2, 3)]))
    s4 = group_algebra(perms)
    top = Partition.one_block(24)
    odd = [sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 for p in perms]
    a4 = Partition.from_blocks(24, [[i for i in range(24) if odd[i] == s] for s in (0, 1)])
    assert commutator(s4, top, top) == a4
    assert "_pair_tables" not in vars(s4)
    z16 = affine(16)
    one = Partition.one_block(16)
    assert commutator(z16, one, one) == Partition.singletons(16)
    assert "_pair_tables" not in vars(z16)


def test_the_partition_with_fewer_pairs_takes_the_alpha_slot(monkeypatch):
    # the answer is symmetric, the cost is not: A(1) of S3 has 36 points,
    # A(A3) 18
    s3 = fixtures.sym3()
    a3, top = fixtures.sym3_a3_partition(), Partition.one_block(6)
    slots = []
    route = algebras._delta

    def spied(alg, a, b):
        slots.append((a, b))
        return route(alg, a, b)

    monkeypatch.setattr(algebras, "_delta", spied)
    assert commutator(s3, top, a3) == commutator(s3, a3, top) == a3
    assert centrality(s3, top, a3, a3) and not centrality(s3, top, a3, Partition.singletons(6))
    assert slots == [(a3, top)] * 3  # the first centrality is settled by a3 <= a3


def test_translations_over_the_byte_bound_fall_back_to_the_closure(monkeypatch):
    # S3: 36 points of A(1), 73 translations; affine Z4: 16 points and, of
    # 768 ternary columns, 32 distinct, the maps x + c and c - x.  Both
    # bounds admit the closure.
    for alg, columns in ((fixtures.sym3(), 73), (affine(4), 32)):
        top = Partition.one_block(alg.size)
        m = alg.size**2
        want = _commutator_fixpoint(alg, _matrix_closure(alg, top, top))
        per_column = m * (algebras._TRANSLATION_BYTES + algebras._GEN_BYTES)
        monkeypatch.setattr(limits, "CLOSURE_BYTES", columns * per_column)
        assert algebras._translations(alg, *_points(alg, top)).shape == (m, columns)
        alg = FiniteAlgebra(alg.size, alg.operations)
        monkeypatch.setattr(limits, "CLOSURE_BYTES", columns * per_column - 1)
        with pytest.raises(SizeLimitError, match="%d bytes" % (columns * per_column)):
            algebras._translations(alg, *_points(alg, top))
        with pytest.raises(SizeLimitError):
            _delta(alg, top, top)
        assert _delta_commutator(alg, top, top) is None
        assert commutator(alg, top, top) == want
        assert "_pair_tables" in vars(alg)  # the closure ran


def translations_by_definition(alg, alpha):
    """The set of columns (a, b) -> (f(..a..), f(..b..)) over every slot and
    every tuple of constants of A(alpha), one at a time."""
    x, y, index = _points(alg, alpha)
    points = list(zip(x.tolist(), y.tolist()))
    cols = set()
    for arr in alg.by_name.values():
        k = arr.ndim
        for slot in range(k):
            for consts in itertools.product(points, repeat=k - 1):
                col = []
                for p in points:
                    args = list(consts)
                    args.insert(slot, p)
                    col.append(int(index[arr[tuple(a for a, _ in args)] * alg.size
                                         + arr[tuple(b for _, b in args)]]))
                cols.add(tuple(col))
    return cols


def test_translations_match_the_definition():
    z2z2 = fixtures.klein_group()
    cases = [(affine(3), Partition.one_block(3)), (affine(4), Partition((0, 1, 0, 1))),
             (fixtures.sym3(), fixtures.sym3_a3_partition()), (z2z2, Partition((0, 0, 2, 2))),
             (fixtures.majority3(), Partition.one_block(3))]
    for alg, alpha in cases:
        moves = algebras._translations(alg, *_points(alg, alpha))
        got = {tuple(c) for c in moves.T.tolist()}
        assert got == translations_by_definition(alg, alpha)
        arities = [arr.ndim for arr in alg.by_name.values()]
        if 3 in arities:
            assert len(got) == moves.shape[1]  # ternary columns are kept once
        else:  # a column per slot and constant
            m = moves.shape[0]
            assert moves.shape[1] == sum(k * m ** (k - 1) for k in arities if k)


def maltsev_by_loops(alg):
    """Whether a basic ternary p, or b(b(x,u(y)),z) for a basic binary b
    and unary u, satisfies p(x,x,y) = y = p(y,x,x), entry by entry."""
    tables = {k: [arr.tolist() for arr in alg.by_name.values() if arr.ndim == k]
              for k in (1, 2, 3)}
    terms = [lambda x, y, z, p=p: p[x][y][z] for p in tables[3]]
    terms += [lambda x, y, z, b=b, u=u: b[b[x][u[y]]][z] for b in tables[2] for u in tables[1]]
    pairs = list(itertools.product(range(alg.size), repeat=2))
    return any(all(p(x, x, y) == y == p(y, x, x) for x, y in pairs) for p in terms)


@st.composite
def near_maltsev_algebras(draw):
    """Affine Z_n or a group's mul and inv on at most 4 points, with up to
    two entries redrawn, beside an optional random operation: Maltsev or
    not, by a hair."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        tables = [affine(n).by_name["p"].copy()]
    else:
        z = fixtures.cyclic_group(n)
        tables = [z.by_name["mul"].copy(), z.by_name["inv"].copy()]
    for _ in range(draw(st.integers(0, 2))):
        table = tables[draw(st.integers(0, len(tables) - 1))]
        table.flat[draw(st.integers(0, table.size - 1))] = draw(st.integers(0, n - 1))
    ops = [Operation("f%d" % j, t.ndim, t) for j, t in enumerate(tables)]
    k = draw(st.sampled_from([None, 1, 2, 3]))
    if k is not None:
        ops.append(make_operation("g", k, draw(st.lists(st.integers(0, n - 1),
                                                        min_size=n**k, max_size=n**k)), n))
    return FiniteAlgebra(n, draw(st.permutations(ops)))


@settings(max_examples=150, deadline=None)
@given(near_maltsev_algebras())
def test_maltsev_matches_a_loop(alg):
    assert alg._maltsev == maltsev_by_loops(alg)


def test_maltsev_on_the_fixtures(algebra_corpus):
    for name, alg, _ in algebra_corpus:
        assert alg._maltsev == maltsev_by_loops(alg), name
        assert alg._maltsev == ("mul" in alg.by_name), name  # the groups, not the others
    assert affine(5)._maltsev and affine(1)._maltsev
    # p(x,x,y) = y alone: x - y + z with p(y,x,x) = y broken at one entry
    broken = affine(3).by_name["p"].copy()
    broken[1, 0, 0] = 0
    assert not FiniteAlgebra(3, [Operation("p", 3, broken)])._maltsev


def test_construct_delta_takes_delta_from_the_route():
    # Delta_{alpha,alpha} on the points of A(alpha) is, index for index,
    # the congruence of the square power generated by the diagonal pairs
    algs = [alg for _, alg, _ in fixtures.standard_algebras()]
    algs += [fixtures.cyclic_group(6), fixtures.abelian_group((2, 4))]
    seen = 0
    for alg in algs:
        for alpha in con_lattice(alg).congruences:
            power, tuples, _, _ = alpha_power_algebra(alg, alpha, 2)
            first, second = np.array(tuples).T
            diagonal = np.flatnonzero(first == second)
            want = congruence_from_pairs(
                power, np.stack([diagonal, diagonal[list(alpha.rep)]], axis=1))
            x, y, reps = _delta(alg, alpha, alpha)
            assert list(zip(x.tolist(), y.tolist())) == tuples
            assert tuple(reps.tolist()) == want.rep
            assert construct_delta(alg, alpha).delta == want
            seen += 1
    assert seen == 31


def test_construct_delta_over_the_translation_bound_is_refused(monkeypatch):
    # S3 over the top: the power's tables, 36^2 + 36 cells at 16 bytes,
    # fit 21312 bytes; the 73 translations of its 36 points do not
    s3, top = fixtures.sym3(), Partition.one_block(6)
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 21312)
    assert alpha_power_algebra(s3, top, 2)[0].size == 36
    with pytest.raises(SizeLimitError, match="73 translations of A\\(alpha\\) on 36 points"):
        construct_delta(s3, top)


def test_alpha_power_tables_pass_the_byte_bound_before_the_cap():
    # Z2 at n = 12 over the top: 4096 tuples, at the element cap, but an
    # 4096^2 mul and a 4096-entry inv table need 16 * (4096^2 + 4096)
    # bytes, 65536 over CLOSURE_BYTES; refused before any allocation
    assert limits.DEFAULT_POWER_CAP == 4096 and limits.CLOSURE_BYTES == 1 << 28
    with pytest.raises(SizeLimitError, match="on 4096 elements need 268500992 bytes"):
        alpha_power_algebra(fixtures.cyclic_group(2), Partition.one_block(2), 12)


def test_alpha_power_tables_over_the_byte_bound_are_refused(monkeypatch):
    # Z2 at n = 3 over the top: 8 tuples, an 8^2 mul and an 8-entry inv
    # table, 16 bytes a cell: 1152 bytes
    z2 = fixtures.cyclic_group(2)
    one = Partition.one_block(2)
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 1152)
    assert alpha_power_algebra(z2, one, 3)[0].size == 8
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 1151)
    with pytest.raises(SizeLimitError, match="1152 bytes"):
        alpha_power_algebra(z2, one, 3)


def _reads(alg, alpha, beta):
    """[alpha, beta] read off Delta three ways: (x,x) Delta (x,y), as the
    route does; (x,x) Delta (y,x); and (x,x) Delta (y,y)."""
    x, y, reps = _delta(alg, alpha, beta)
    index = {p: i for i, p in enumerate(zip(x.tolist(), y.tolist()))}
    out = []
    for other in (lambda a, b: (a, b), lambda a, b: (b, a), lambda a, b: (b, b)):
        same = np.array([reps[index[(a, a)]] == reps[index[other(a, b)]]
                         for a, b in index], dtype=bool)
        rep = _join_edges(np.arange(alg.size).reshape(1, -1), x[same], y[same])[0]
        out.append(Partition(tuple(rep.tolist())))
    return out


def test_diagonal_reads():
    # The swap (x,y) -> (y,x) is an automorphism of A(alpha) that fixes
    # every generator of Delta, so reading (y,x) for (x,y) gives the same
    # commutator on every input: that mutant cannot fail.  Reading (y,y)
    # gives alpha ^ beta, and fails wherever the commutator lies lower.
    z4, s3 = fixtures.cyclic_group(4), fixtures.sym3()
    failed = 0
    for alg in (z4, s3, affine(4)):
        con = con_lattice(alg).congruences
        for a, b in itertools.product(con, repeat=2):
            want = _commutator_fixpoint(alg, _matrix_closure(alg, a, b))
            lo, hi = sorted((a, b), key=algebras._pairs)
            as_route, swapped, both = _reads(alg, lo, hi)
            assert as_route == swapped == _delta_commutator(alg, a, b) == want
            failed += both != want
    assert failed > 0


def test_mutant_taking_beta_from_alpha_fails(monkeypatch):
    # Delta_{alpha,alpha} gives [alpha, alpha]: on S3, [A3, 1] = A3 but
    # [A3, A3] = 0
    s3 = fixtures.sym3()
    a3, top = fixtures.sym3_a3_partition(), Partition.one_block(6)
    assert commutator(s3, a3, top) == a3
    check_delta_route(s3)
    route = algebras._delta
    monkeypatch.setattr(algebras, "_delta", lambda alg, a, b: route(alg, a, a))
    assert commutator(s3, a3, top) == Partition.singletons(6)
    with pytest.raises(AssertionError):
        check_delta_route(s3)


def _zero_product():
    """x*y = x if y = 0 else 0 on three points: not Maltsev, and its term
    condition is not symmetric: with alpha = 0|12, [alpha, 1] = 0 while
    [1, alpha] = alpha."""
    return FiniteAlgebra(3, [make_operation(
        "mul", 2, [x if y == 0 else 0 for x in range(3) for y in range(3)], 3)])


def test_mutant_taking_the_route_without_a_maltsev_term_fails(monkeypatch):
    alg = _zero_product()
    alpha, top = Partition((0, 1, 1)), Partition.one_block(3)
    assert not alg._maltsev
    assert commutator(alg, alpha, top) == Partition.singletons(3)
    assert commutator(alg, top, alpha) == alpha
    monkeypatch.setitem(vars(alg), "_maltsev", True)  # the cached test, overridden
    assert commutator(alg, alpha, top) == alpha
    with pytest.raises(AssertionError):
        check_delta_route(alg)
    # on the 2-element semilattice the route happens to agree: its only
    # pair left to either route is [1, 1], which both give as 1
    semilattice = fixtures.meet_semilattice2()
    assert not semilattice._maltsev
    monkeypatch.setitem(vars(semilattice), "_maltsev", True)
    check_delta_route(semilattice)
