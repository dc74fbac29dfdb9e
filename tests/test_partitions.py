import itertools
import os
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import fixtures, limits, partitions, terms, verify
from congforge.algebras import con_lattice
from congforge.lattice import FiniteLattice, NotALatticeError, find_sublattice
from congforge.limits import SizeLimitError
from congforge.partitions import (
    EqRelLattice,
    NotPermutingError,
    Partition,
    SizeMismatchError,
    _eval_reps,
    abelian_coset_partitions,
    all_partitions,
    closed_sublattice,
    full_partition_lattice,
    p_join,
    p_leq,
    p_meet,
    permutes,
    relation_compose,
    verify_dn_permuting,
)


def random_partition(rng, n):
    """A partition of n points by uniform labels from a drawn number of them."""
    first = {}
    labels = rng.integers(0, rng.integers(1, n + 1), size=n).tolist()
    return Partition(tuple(first.setdefault(label, i) for i, label in enumerate(labels)))


def test_meet_reps_on_uint8_rows_matches_p_meet():
    # the meet's key rep_a * n + rep_b passes 255 from 17 points on, so
    # uint8 rows catch a key computed in the rows' own dtype
    rng = np.random.default_rng(0)
    for n in (17, 20, 33):
        a = [random_partition(rng, n) for _ in range(40)]
        b = [random_partition(rng, n) for _ in range(40)]
        ra, rb = (np.array([p.rep for p in ps], dtype=np.uint8) for ps in (a, b))
        got = partitions._meet_reps(ra, rb).tolist()
        assert got == [list(p_meet(x, y).rep) for x, y in zip(a, b)]


def bell_numbers(limit):
    """Binomial recurrence, independent of the enumeration."""
    bell = [1]
    while len(bell) <= limit:
        n = len(bell)
        bell.append(sum(comb(n - 1, k) * bell[k] for k in range(n)))
    return bell


def test_canonical_form_validation():
    with pytest.raises(ValueError):
        Partition((1, 1))  # rep[0] must be 0
    with pytest.raises(ValueError):
        Partition((0, 0, 1))  # 1 is not its own representative
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1]])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])


def test_join_meet_examples():
    a = Partition.from_blocks(4, [[0, 1], [2], [3]])
    b = Partition.from_blocks(4, [[0], [1, 2], [3]])
    assert p_join(a, b).blocks() == [[0, 1, 2], [3]]
    assert p_meet(a, b) == Partition.singletons(4)
    with pytest.raises(SizeMismatchError):
        p_join(a, Partition.singletons(3))


def test_klein_coset_joins():
    h1 = Partition.from_blocks(4, [[0, 2], [1, 3]])  # cosets of <(1,0)>
    h2 = Partition.from_blocks(4, [[0, 1], [2, 3]])  # cosets of <(0,1)>
    assert p_join(h1, h2) == Partition.one_block(4)
    assert permutes(h1, h2)


def test_permutes_counterexample():
    a = Partition.from_blocks(3, [[0, 1], [2]])
    b = Partition.from_blocks(3, [[0], [1, 2]])
    assert not permutes(a, b)
    ab = relation_compose(a, b)
    ba = relation_compose(b, a)
    assert ab[0, 2] and not ba[0, 2]
    assert permutes(a, a)


def test_partition_lattice_sizes():
    bell = bell_numbers(6)
    assert len(full_partition_lattice(1)) == 1
    assert len(full_partition_lattice(3)) == 5
    assert len(full_partition_lattice(4)) == 15
    for n in range(1, 7):
        assert len(all_partitions(n)) == bell[n]


def test_all_partitions_in_restricted_growth_order():
    assert [p.rep for p in all_partitions(0)] == [()]
    assert [p.rep for p in all_partitions(3)] == [
        (0, 0, 0), (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 1, 2)]
    for n in range(1, 7):
        # each point's block, numbered by the order of the blocks' least elements
        rgs = [[sorted(set(p.rep)).index(v) for v in p.rep] for p in all_partitions(n)]
        assert rgs == sorted(rgs) and len(set(map(tuple, rgs))) == len(rgs)


def test_partition_lattice_is_capped_at_its_bell_number(monkeypatch):
    bell = bell_numbers(6)
    for n in (1, 2, 5, 6):
        monkeypatch.setenv("CONGFORGE_CAP", str(bell[n]))
        assert len(full_partition_lattice(n)) == bell[n]

    def refuse(n):
        raise AssertionError("all_partitions(%d) ran before the cap check" % n)

    monkeypatch.setattr(partitions, "all_partitions", refuse)
    for n in (2, 5, 6):
        monkeypatch.setenv("CONGFORGE_CAP", str(bell[n] - 1))
        with pytest.raises(SizeLimitError, match="on %d points has %d elements" % (n, bell[n])):
            full_partition_lattice(n)
    monkeypatch.delenv("CONGFORGE_CAP")
    with pytest.raises(SizeLimitError, match="on 9 points has 21147 elements"):
        full_partition_lattice(9)
    # the walk stops at the first Bell number over the cap
    monkeypatch.setenv("CONGFORGE_CAP", "100000")
    with pytest.raises(SizeLimitError, match="on 10 points has 115975 elements"):
        full_partition_lattice(10**6)


def test_join_meet_are_bounds_in_full_lattice():
    # the operations must agree with least upper / greatest lower bounds
    # relative to refinement, for every pair
    for n in range(2, 6):
        parts = all_partitions(n)
        for a, b in itertools.combinations(parts, 2):
            j, m = p_join(a, b), p_meet(a, b)
            assert p_leq(a, j) and p_leq(b, j)
            assert p_leq(m, a) and p_leq(m, b)
            for c in parts:
                if p_leq(a, c) and p_leq(b, c):
                    assert p_leq(j, c)
                if p_leq(c, a) and p_leq(c, b):
                    assert p_leq(c, m)


def test_compose_on_256_points():
    # every point is related through 256 middle points; a uint8 count wraps to 0
    whole = Partition.one_block(256)
    assert relation_compose(whole, whole).all()
    assert permutes(whole, Partition.singletons(256))


def test_permuting_implies_compose_equals_join():
    for n in range(2, 6):
        parts = all_partitions(n)
        for a, b in itertools.combinations(parts, 2):
            if permutes(a, b):
                j = p_join(a, b)
                r = np.asarray(j.rep)
                assert np.array_equal(relation_compose(a, b), r[:, None] == r[None, :])


def test_closed_sublattice():
    singletons = Partition.singletons(4)
    assert len(closed_sublattice([singletons])) == 1
    cosets = [
        Partition.from_blocks(4, [[0, 1], [2, 3]]),
        Partition.from_blocks(4, [[0, 2], [1, 3]]),
        Partition.from_blocks(4, [[0, 3], [1, 2]]),
    ]
    sub = closed_sublattice(cosets)
    assert len(sub) == 5
    assert find_sublattice(sub.lattice, fixtures.m3()) is not None
    everything = closed_sublattice(all_partitions(3))
    assert len(everything) == 5


def test_eqrel_lattice_rejects_non_closed():
    a = Partition.from_blocks(3, [[0, 1], [2]])
    b = Partition.from_blocks(3, [[0], [1, 2]])
    with pytest.raises(ValueError):
        EqRelLattice([a, b])  # join and meet are missing


def test_eqrel_lattice_rejects_missing_join_with_lattice_order():
    # ordered as a square, but the join of the two atoms in Eq(A) is 01|23
    atoms = [Partition.from_blocks(4, [[0, 1], [2], [3]]),
             Partition.from_blocks(4, [[0], [1], [2, 3]])]
    family = [Partition.singletons(4), *atoms, Partition.one_block(4)]
    assert p_join(*atoms) not in family
    with pytest.raises(ValueError, match="not closed"):
        EqRelLattice(family)
    assert len(EqRelLattice(family + [p_join(*atoms)])) == 5


def test_eqrel_lattice_rejects_missing_meet_with_lattice_order():
    # ordered as a square, but the meet of the two coatoms in Eq(A) is 0|12|3
    coatoms = [Partition.from_blocks(4, [[0, 1, 2], [3]]),
               Partition.from_blocks(4, [[0], [1, 2, 3]])]
    family = [Partition.singletons(4), *coatoms, Partition.one_block(4)]
    assert p_meet(*coatoms) not in family
    with pytest.raises(ValueError, match="not closed"):
        EqRelLattice(family)
    assert len(EqRelLattice(family + [p_meet(*coatoms)])) == 5


def _assert_tables_match_partition_operations(eq):
    lat, parts = eq.lattice, eq.partitions
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            assert parts[lat.join[i, j]] == p_join(a, b)
            assert parts[lat.meet[i, j]] == p_meet(a, b)
            assert lat.leq[i, j] == p_leq(a, b)


def test_derived_tables_match_partition_operations():
    for n in range(1, 6):
        _assert_tables_match_partition_operations(full_partition_lattice(n))
    gens = [(0, 0, 0, 3, 0, 3), (0, 0, 2, 3, 2, 2), (0, 1, 0, 1, 4, 4), (0, 0, 2, 2, 4, 5),
            (0, 1, 1, 0, 0, 0)]
    sub = closed_sublattice([Partition(g) for g in gens])
    assert len(sub) == 65  # a proper sublattice of Pi(6), which has 203 elements
    _assert_tables_match_partition_operations(sub)


def _closed_by_definition(family):
    return all(p_join(a, b) in family and p_meet(a, b) in family
               for a in family for b in family)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eqrel_lattice_accepts_exactly_the_closed_families(data):
    n = data.draw(st.integers(1, 5))
    parts = all_partitions(n)
    picks = data.draw(st.sets(st.integers(0, len(parts) - 1), min_size=1, max_size=8))
    family = {parts[i] for i in picks}
    if data.draw(st.booleans()):  # bounded families are lattices more often
        family |= {Partition.singletons(n), Partition.one_block(n)}
    if _closed_by_definition(family):
        _assert_tables_match_partition_operations(EqRelLattice(family))
    else:
        with pytest.raises(ValueError, match="not closed"):
            EqRelLattice(family)


def test_tiny_chunk_budget_gives_the_same_partition_lattices(monkeypatch):
    pi4 = full_partition_lattice(4)
    atoms = [Partition.from_blocks(4, [[0, 1], [2], [3]]),
             Partition.from_blocks(4, [[0], [1], [2, 3]])]
    family = [Partition.singletons(4), *atoms, Partition.one_block(4)]
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    again = full_partition_lattice(4)
    for table in ("leq", "join", "meet"):
        assert np.array_equal(getattr(again.lattice, table), getattr(pi4.lattice, table))
    with pytest.raises(ValueError, match="not closed"):
        EqRelLattice(family)


def closed_in_eq_by_pairs(reps, lattice):
    """Oracle of the closedness check: the derived join and meet of every
    incomparable pair, m^2/2 of them, against those of Eq(A), compared by
    block counts (the derived meet refines the meet of Eq(A) and the
    derived join coarsens the join, so equal counts mean equal
    partitions)."""
    m, n = reps.shape
    points = np.arange(n)
    blocks = np.count_nonzero(reps == points, axis=1)
    codes = reps.astype(limits.narrow_dtype(n * n)) * n
    incomparable = ~(lattice.leq | lattice.leq.T)
    rows = limits.chunk_rows(m * n * 64)
    for lo in range(0, m, rows):
        a, b = np.nonzero(incomparable[lo:lo + rows])
        a += lo
        a, b = a[a < b], b[a < b]
        if a.size == 0:
            continue
        if (partitions._distinct_counts(codes[a] + reps[b]) != blocks[lattice.meet[a, b]]).any():
            return False
        joins = np.count_nonzero(partitions._join_reps(reps[a], reps[b]) == points, axis=1)
        if (joins != blocks[lattice.join[a, b]]).any():
            return False
    return True


def _reps_and_order(family):
    """Sorted rep rows of a family and its refinement lattice, or None when
    the refinement order is not a lattice."""
    parts = sorted(set(family), key=lambda p: p.rep)
    reps = np.array([p.rep for p in parts], dtype=np.intp).reshape(len(parts), -1)
    try:
        return reps, FiniteLattice(partitions._refinement_order(reps))
    except NotALatticeError:
        return reps, None


def _irreducibles_by_covers(lattice):
    """Join- and meet-irreducibles by definition: exactly one lower
    (respectively upper) cover."""
    lower, upper = np.zeros(lattice.size, dtype=int), np.zeros(lattice.size, dtype=int)
    for lo, hi in lattice.covers():
        lower[hi] += 1
        upper[lo] += 1
    return np.flatnonzero(lower == 1).tolist(), np.flatnonzero(upper == 1).tolist()


def _assert_irreducible_check_matches_the_oracle(family):
    """Irreducibles and closedness against their oracles; returns the
    lattice and its join- and meet-irreducibles (None when the family's
    order is no lattice)."""
    reps, lattice = _reps_and_order(family)
    if lattice is None:
        return None, None
    found = (lattice.join_irreducibles.tolist(), lattice.meet_irreducibles.tolist())
    assert found == _irreducibles_by_covers(lattice)
    verdict = closed_in_eq_by_pairs(reps, lattice)
    assert partitions._closed_by_irreducibles(reps, lattice) == verdict
    assert verdict == _closed_by_definition(set(family))
    return lattice, found


def test_irreducible_check_matches_the_oracle_on_partition_lattices():
    for n in range(1, 6):
        lattice, found = _assert_irreducible_check_matches_the_oracle(all_partitions(n))
        # the atoms of Pi(n) are its join-irreducibles, the coatoms its meet-irreducibles
        assert found == (lattice.atoms(), lattice.coatoms())


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_irreducible_check_matches_the_oracle_on_closures_and_families(data):
    n = data.draw(st.integers(1, 5))
    parts = all_partitions(n)
    picks = data.draw(st.sets(st.integers(0, len(parts) - 1), min_size=1, max_size=6))
    family = {parts[i] for i in picks}
    _assert_irreducible_check_matches_the_oracle(closed_sublattice(family).partitions)
    # bounded families are lattices more often, and most are not closed
    _assert_irreducible_check_matches_the_oracle(
        family | {Partition.singletons(n), Partition.one_block(n)})


def test_the_irreducibles_of_a_square_that_is_not_closed():
    # {bottom, 01|2|3, 0|1|23, top} is a lattice under refinement, a square
    # whose atoms are its only join- and meet-irreducibles; the join of the
    # atoms in Eq(4) is 01|23, outside the family
    atoms = [Partition.from_blocks(4, [[0, 1], [2], [3]]),
             Partition.from_blocks(4, [[0], [1], [2, 3]])]
    family = [Partition.singletons(4), *atoms, Partition.one_block(4)]
    _, found = _assert_irreducible_check_matches_the_oracle(family)
    assert found == ([1, 2], [1, 2])  # in rep order: top, 01|2|3, 0|1|23, bottom
    assert not _closed_by_definition(set(family))
    with pytest.raises(ValueError, match="not closed"):
        EqRelLattice(family)


def test_verify_dn_permuting():
    singles = [Partition.singletons(3)] * 3
    assert verify_dn_permuting(singles, singles)
    cosets = [
        Partition.from_blocks(4, [[0, 1], [2, 3]]),
        Partition.from_blocks(4, [[0, 2], [1, 3]]),
        Partition.from_blocks(4, [[0, 3], [1, 2]]),
    ]
    assert verify_dn_permuting(cosets, cosets[::-1])
    bad_a = Partition.from_blocks(3, [[0, 1], [2]])
    bad_b = Partition.from_blocks(3, [[0], [1, 2]])
    with pytest.raises(NotPermutingError) as err:
        verify_dn_permuting([bad_a] * 3, [bad_b] * 3)
    assert err.value.index == 0
    good = Partition.singletons(3)
    with pytest.raises(NotPermutingError) as err:
        verify_dn_permuting([good, good, bad_a, bad_a], [good, good, bad_b, bad_b])
    assert err.value.index == 2


def test_verify_dn_permuting_rejects_mixed_base_sizes():
    # every pair permutes and matches in size, but the pairs do not
    small, large = Partition.singletons(3), Partition.singletons(4)
    with pytest.raises(SizeMismatchError):
        verify_dn_permuting([small, large, large], [small, large, large])
    with pytest.raises(SizeMismatchError):
        verify_dn_permuting([large, large, small], [large, large, small])


def _relabel(part, perm):
    return Partition.from_blocks(len(perm), [[perm[x] for x in b] for b in part.blocks()])


def _dn_star_in_sublattice(alphas, alphaps):
    """lhs and rhs of dn* evaluated on the tables of the generated sublattice."""
    n = len(alphas)
    sub = closed_sublattice(list(alphas) + list(alphaps))
    env = {"x%d" % i: sub.index[a] for i, a in enumerate(alphas)}
    env.update(("x%d'" % i, sub.index[a]) for i, a in enumerate(alphaps))
    phi = terms.generate_dn_star(n)
    lhs = terms.evaluate(phi.lhs, sub.lattice, env)
    rhs = terms.evaluate(phi.rhs, sub.lattice, env)
    return sub.partitions[lhs], sub.partitions[rhs], bool(sub.lattice.leq[lhs, rhs])


def _dn_star_in_eq(alphas, alphaps):
    env = {"x%d" % i: a.rep for i, a in enumerate(alphas)}
    env.update(("x%d'" % i, a.rep) for i, a in enumerate(alphaps))
    phi = terms.generate_dn_star(len(alphas))
    return Partition(_eval_reps(phi.lhs, env)), Partition(_eval_reps(phi.rhs, env))


_COSET_ORDERS = [(2,), (3,), (4,), (2, 2), (5,), (6,), (8,), (4, 2), (2, 2, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dn_star_in_eq_matches_the_sublattice_on_permuting_families(data):
    fam = abelian_coset_partitions(data.draw(st.sampled_from(_COSET_ORDERS)))
    size = fam[0].base_size
    perm = data.draw(st.permutations(range(size)))
    n = data.draw(st.integers(3, 5))
    picks = data.draw(st.lists(st.integers(0, len(fam) - 1), min_size=2 * n, max_size=2 * n))
    parts = [_relabel(fam[i], perm) for i in picks]
    lhs, rhs, holds = _dn_star_in_sublattice(parts[:n], parts[n:])
    assert _dn_star_in_eq(parts[:n], parts[n:]) == (lhs, rhs)
    assert verify_dn_permuting(parts[:n], parts[n:]) == holds


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dn_star_in_eq_matches_the_sublattice_on_any_partitions(data):
    # pairs need not permute here, so the two routes are compared on the terms
    points = data.draw(st.integers(1, 6))
    everything = all_partitions(points)
    n = data.draw(st.integers(3, 5))
    picks = data.draw(st.lists(st.integers(0, len(everything) - 1),
                               min_size=2 * n, max_size=2 * n))
    parts = [everything[i] for i in picks]
    lhs, rhs, _ = _dn_star_in_sublattice(parts[:n], parts[n:])
    assert _dn_star_in_eq(parts[:n], parts[n:]) == (lhs, rhs)


def _closure_by_definition(gens):
    """Every pairwise p_join and p_meet, repeated until nothing new appears."""
    closed = set(gens)
    while True:
        more = closed | {op(a, b) for a in closed for b in closed for op in (p_join, p_meet)}
        if more == closed:
            return closed
        closed = more


def _assert_closure_matches_definition(gens):
    expected = _closure_by_definition(gens)
    sub = closed_sublattice(gens)
    assert sub.partitions == tuple(sorted(expected, key=lambda p: p.rep))
    with mock.patch.dict(os.environ, {"CONGFORGE_CAP": str(len(expected))}):
        assert len(closed_sublattice(gens)) == len(expected)
    if len(expected) > 1:
        with mock.patch.dict(os.environ, {"CONGFORGE_CAP": str(len(expected) - 1)}):
            with pytest.raises(SizeLimitError):
                closed_sublattice(gens)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_closed_sublattice_matches_the_closure_by_definition(data):
    points = data.draw(st.integers(1, 5))
    everything = all_partitions(points)
    picks = data.draw(st.lists(st.integers(0, len(everything) - 1), min_size=1, max_size=4))
    _assert_closure_matches_definition([everything[i] for i in picks])


def test_closed_sublattice_matches_the_definition_at_a_tiny_chunk_budget(monkeypatch):
    cube = abelian_coset_partitions((2, 2, 2))
    gen_sets = [
        [Partition(g) for g in [(0, 0, 0, 3, 0, 3), (0, 0, 2, 3, 2, 2), (0, 1, 0, 1, 4, 4),
                                (0, 0, 2, 2, 4, 5), (0, 1, 1, 0, 0, 0)]],  # 65 elements
        [cube[3], cube[5], cube[9]],
        [Partition.from_blocks(4, [[0, 1], [2], [3]]), Partition.from_blocks(4, [[0], [1, 2], [3]]),
         Partition.from_blocks(4, [[0], [1], [2, 3]])],
    ]
    for gens in gen_sets:
        _assert_closure_matches_definition(gens)
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    for gens in gen_sets:
        _assert_closure_matches_definition(gens)


def test_abelian_coset_partitions():
    klein = abelian_coset_partitions((2, 2))
    assert len(klein) == 5  # trivial, three proper subgroups, full
    assert Partition.singletons(4) in klein
    assert Partition.one_block(4) in klein
    z8 = abelian_coset_partitions((8,))
    assert len(z8) == 4  # subgroup per divisor
    cube = abelian_coset_partitions((2, 2, 2))
    assert len(cube) == 16
    for a, b in itertools.combinations(cube, 2):
        assert permutes(a, b)


def test_abelian_coset_partitions_are_the_congruences_of_the_group():
    z2_4 = abelian_coset_partitions((2, 2, 2, 2))
    assert len(z2_4) == 67  # the subgroups of Z2^4, the whole group among them
    assert Partition.one_block(16) in z2_4
    for orders in verify._ABELIAN_ORDERS + [(2, 2, 2, 2)]:
        con = con_lattice(fixtures.abelian_group(orders), cap=None)
        assert set(abelian_coset_partitions(orders)) == set(con.congruences), orders


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_permuting_families_hold(instance_seed):
    rng = np.random.default_rng(instance_seed)
    orders = [(2,), (3,), (4,), (2, 2), (6,), (8,), (4, 2), (2, 2, 2)]
    fam = abelian_coset_partitions(orders[int(rng.integers(0, len(orders)))])
    n = int(rng.integers(3, 6))
    picks = rng.integers(0, len(fam), size=2 * n)
    alphas = [fam[int(i)] for i in picks[:n]]
    alphaps = [fam[int(i)] for i in picks[n:]]
    assert verify_dn_permuting(alphas, alphaps)


def test_partition_labels_are_built_on_first_read():
    from congforge.jsonio import lattice_to_dict
    from congforge.lattice import direct_product, interval

    eq = full_partition_lattice(4)
    lat = eq.lattice
    want = [p.label() for p in eq.partitions]
    mid = eq.index[Partition.from_blocks(4, [[0, 1], [2], [3]])]
    sub, elems = interval(lat, lat.bottom, mid)
    prod = direct_product(lat, fixtures.chain(2))
    for built in (lat, sub, prod):
        assert callable(built._labels)  # nothing built yet
    assert lat.label(5) == want[5] and lat.labels == want
    assert sub.labels == [want[e] for e in elems]
    assert prod.labels == ["(%s,%s)" % (w, j) for w in want for j in ("0", "1")]
    assert lattice_to_dict(lat)["labels"] == want
    assert interval(FiniteLattice(lat.leq), lat.bottom, mid)[0].labels is None
    with pytest.raises(ValueError, match="label count"):
        FiniteLattice(lat.leq, labels=lambda: want[1:]).labels
    with pytest.raises(ValueError, match="label count"):
        FiniteLattice(lat.leq, labels=want[1:])
