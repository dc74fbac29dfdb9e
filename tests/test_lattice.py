import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from congforge import fixtures, limits, projectivity
from congforge.algebras import _common_complements
from congforge.lattice import (
    BudgetExceededError,
    FiniteLattice,
    LatticeHom,
    NotALatticeError,
    NotAPartialOrderError,
    NotComparableError,
    _scan,
    beta_gamma_iteration,
    check_semidistributivity,
    direct_product,
    find_sublattice,
    from_cover_relation,
    interval,
    is_modular,
    m3_configurations,
    sublattice_closure,
)
from congforge.limits import NonConvergenceError, SizeLimitError
from congforge.partitions import all_partitions, closed_sublattice, full_partition_lattice
from congforge.subspaces import subspace_lattice


def test_two_chain_tables():
    lat = from_cover_relation(2, [(0, 1)])
    assert lat.join[0, 1] == 1
    assert lat.meet[0, 1] == 0
    assert lat.bottom == 0 and lat.top == 1


def test_n5_builds(n5):
    assert n5.size == 5
    assert n5.covers() == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]


def test_diamond_with_linearising_edge():
    # adding (1, 2) to the diamond turns it into a valid 4-chain: the
    # closure of the edge set is a total order, so construction succeeds
    lat = from_cover_relation(4, [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)])
    assert np.array_equal(lat.leq, np.triu(np.ones((4, 4), dtype=bool)))
    assert lat.height() == 3


def test_cycle_is_rejected():
    with pytest.raises(NotAPartialOrderError) as err:
        from_cover_relation(3, [(0, 1), (1, 2), (2, 0)])
    assert err.value.pair == (0, 1)


def test_missing_bound_is_rejected():
    # two minimal and two maximal elements: the pair (0, 1) has two
    # incomparable upper bounds, so no least one
    with pytest.raises(NotALatticeError) as err:
        from_cover_relation(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert err.value.pair == (0, 1)


def _closure_by_warshall(n, covers):
    leq = np.eye(n, dtype=bool)
    for lo, hi in covers:
        leq[lo, hi] = True
    for k in range(n):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    return leq


def _bounds_by_definition(leq):
    """Join and meet tables by scanning the common bounds of every pair in
    lexicographic order, or the first pair without a least bound."""
    n = len(leq)
    tables = []
    for kind, rel in (("least upper bound", leq), ("greatest lower bound", leq.T)):
        table = np.empty((n, n), dtype=np.int64)
        for a in range(n):
            for b in range(n):
                common = [c for c in range(n) if rel[a, c] and rel[b, c]]
                least = [c for c in common if all(rel[c, d] for d in common)]
                if len(least) != 1:
                    return None, ((a, b), kind)
                table[a, b] = least[0]
        tables.append(table)
    return tables, None


@st.composite
def _cover_relations(draw):
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    if draw(st.booleans()):  # bounded posets are lattices more often
        edges += [(0, i) for i in range(1, n)] + [(i, n - 1) for i in range(n - 1)]
    perm = draw(st.permutations(range(n)))
    return n, [(perm[a], perm[b]) for a, b in edges]


@settings(max_examples=300, deadline=None)
@given(_cover_relations())
def test_upset_lookup_matches_bounds_by_definition(relation):
    n, covers = relation
    leq = _closure_by_warshall(n, covers)
    tables, failure = _bounds_by_definition(leq)
    if failure is None:
        lat = from_cover_relation(n, covers)
        assert np.array_equal(lat.leq, leq)
        assert np.array_equal(lat.join, tables[0])
        assert np.array_equal(lat.meet, tables[1])
    else:
        with pytest.raises(NotALatticeError) as err:
            from_cover_relation(n, covers)
        assert (err.value.pair, err.value.kind) == failure


# two atoms with two minimal upper bounds
BOWTIE = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
# every join exists (0 is the top), but 1 and 4 have no common lower bound
NO_MEET = [(2, 1), (3, 1), (3, 5), (4, 5), (1, 0), (5, 0)]


def _scans(lat):
    return [is_modular(lat), check_semidistributivity(lat, "meet"),
            check_semidistributivity(lat, "join")]


def test_tiny_chunk_budget_gives_the_same_tables(monkeypatch, lattice_corpus, sub32):
    corpus = [lat for _, lat in lattice_corpus] + [sub32.lattice]
    expected = [((1, 2), "least upper bound"), ((1, 4), "greatest lower bound")]
    scans = [_scans(lat) for lat in corpus]
    for budget in (limits.CHUNK_BYTES, 1):
        monkeypatch.setattr(limits, "CHUNK_BYTES", budget)
        for lat, scan in zip(corpus, scans):
            again = FiniteLattice(lat.leq)
            assert np.array_equal(again.join, lat.join)
            assert np.array_equal(again.meet, lat.meet)
            assert _scans(lat) == scan
        for covers, witness in zip((BOWTIE, NO_MEET), expected):
            with pytest.raises(NotALatticeError) as err:
                from_cover_relation(6, covers)
            assert (err.value.pair, err.value.kind) == witness


def test_order_matrix_validation():
    with pytest.raises(ValueError, match="not reflexive"):
        FiniteLattice(np.zeros((2, 2), dtype=bool))
    # 0 < 1 < 2 without 0 < 2
    chain_gap = np.eye(3, dtype=bool)
    chain_gap[0, 1] = chain_gap[1, 2] = True
    with pytest.raises(ValueError, match="not transitive"):
        FiniteLattice(chain_gap)
    # neither transitive nor with all bounds: transitivity is reported first
    bowtie = _closure_by_warshall(6, BOWTIE)
    bowtie[0, 5] = False
    with pytest.raises(ValueError, match="not transitive"):
        FiniteLattice(bowtie)


def test_wide_diamond_with_256_atoms():
    # 256 paths from bottom to top: a path count kept in uint8 wraps to 0
    k = 256
    covers = [(0, i) for i in range(1, k + 1)] + [(i, k + 1) for i in range(1, k + 1)]
    lat = from_cover_relation(k + 2, covers)
    assert lat.leq[0, k + 1]
    assert lat.covers() == sorted(covers)
    assert lat.join[1, 2] == k + 1 and lat.meet[1, 2] == 0


def test_axioms_by_table_scan(lattice_corpus):
    for name, lat in lattice_corpus:
        J, M, leq = lat.join, lat.meet, lat.leq
        n = lat.size
        assert np.array_equal(J, J.T) and np.array_equal(M, M.T), name
        assert np.array_equal(J.diagonal(), np.arange(n)), name
        assert np.array_equal(M.diagonal(), np.arange(n)), name
        # absorption: a v (a ^ b) = a = a ^ (a v b)
        rows = np.arange(n)[:, None]
        assert np.array_equal(J[rows, M], np.broadcast_to(rows, (n, n))), name
        assert np.array_equal(M[rows, J], np.broadcast_to(rows, (n, n))), name
        # associativity
        left = J[J[:, :, None], np.arange(n)[None, None, :]]
        right = J[np.arange(n)[:, None, None], J[None, :, :]]
        assert np.array_equal(left, right), name
        left = M[M[:, :, None], np.arange(n)[None, None, :]]
        right = M[np.arange(n)[:, None, None], M[None, :, :]]
        assert np.array_equal(left, right), name
        # a <= b iff a v b = b iff a ^ b = a
        assert np.array_equal(leq, J == np.arange(n)[None, :]), name
        assert np.array_equal(leq, M == np.arange(n)[:, None]), name


def test_is_modular_values(m3, n5):
    assert is_modular(m3) == (True, None)
    ok, triple = is_modular(n5)
    assert not ok and triple == (1, 3, 2)  # (a, b, c) with a < c
    assert is_modular(fixtures.chain(5)) == (True, None)


def _scans_by_loops(lat):
    """What _scans, m3_configurations and is_complemented return, by plain loops."""
    J, M, leq, n = lat.join.tolist(), lat.meet.tolist(), lat.leq.tolist(), lat.size
    triples = list(itertools.product(range(n), repeat=3))
    # the first violation in (a, b, c) order
    loops = [[(a, b, c) for a, b, c in triples if leq[a][c] and J[a][M[b][c]] != M[J[a][b]][c]]]
    for P, Q in ((M, J), (J, M)):
        loops.append([(x, y, z) for x, y, z in triples if P[x][y] == P[x][z] != P[x][Q[y][z]]])
    diamonds = []
    for x, y, z in itertools.combinations(range(n), 3):
        o, i = M[x][y], J[x][y]
        if o not in (x, y) and M[x][z] == o and M[y][z] == o and \
           J[x][z] == i and J[y][z] == i and z not in (o, i):
            diamonds.append((o, x, y, z, i))
    complemented = all(any(M[x][d] == lat.bottom and J[x][d] == lat.top for d in range(n))
                       for x in range(n))
    return [(True, None) if not v else (False, v[0]) for v in loops] + [diamonds, complemented]


def _abx_by_loops(lat):
    J, M, leq, n = lat.join.tolist(), lat.meet.tolist(), lat.leq.tolist(), lat.size
    for x, xp, A, B in itertools.product(range(n), repeat=4):
        if leq[A][J[x][xp]] and leq[M[x][xp]][B] and \
           leq[A][J[xp][M[x][B]]] != leq[M[x][J[xp][A]]][B]:
            return False, (x, xp, A, B)
    return True, None


def _common_complements_by_loops(lat):
    J, M, n = lat.join.tolist(), lat.meet.tolist(), lat.size
    return [[any(M[d][a] == M[a][b] == M[d][b] and J[d][a] == lat.top == J[d][b] for d in range(n))
             for b in range(n)] for a in range(n)]


def _assert_scans_match_loops(lat, name):
    """Every mask scan against its loop, at the default and a 1-byte chunk
    budget.  abx_check is run whatever the lattice, with its modularity
    gate passed, so that its mask meets counterexamples.  Returns whether
    abx_check found one."""
    loops = _scans_by_loops(lat)
    common = _common_complements_by_loops(lat)
    abx = _abx_by_loops(lat) if lat.size <= 16 else None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projectivity, "is_modular", lambda _: (True, None))
        for budget in (limits.CHUNK_BYTES, 1):
            mp.setattr(limits, "CHUNK_BYTES", budget)
            assert _scans(lat) + [m3_configurations(lat), lat.is_complemented()] == loops, name
            assert _common_complements(lat, list(range(lat.size))).tolist() == common, name
            if abx is not None:
                assert projectivity.abx_check(lat) == abx, name
    return abx is not None and not abx[0]


def test_scans_match_triple_loops(lattice_corpus):
    corpus = list(lattice_corpus) + [
        ("pi%d" % k, full_partition_lattice(k).lattice) for k in range(1, 5)]
    failing = [name for name, lat in corpus if _assert_scans_match_loops(lat, name)]
    assert "n5" in failing


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_scans_match_loops_on_closed_sublattices(data):
    everything = all_partitions(data.draw(st.integers(1, 4)))
    picks = data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=4))
    _assert_scans_match_loops(closed_sublattice(picks).lattice, picks)


def test_scan_reads_masks_in_lexicographic_order(monkeypatch):
    rng = np.random.default_rng(0)
    for budget in (limits.CHUNK_BYTES, 1):
        monkeypatch.setattr(limits, "CHUNK_BYTES", budget)
        for _ in range(40):
            shape = tuple(rng.integers(1, 6, size=rng.integers(2, 5)).tolist())
            mask = rng.random(shape) < rng.choice([0.0, 0.02, 0.3])
            hits = np.argwhere(mask)
            args = (shape[0], mask[0].size, lambda rows: mask[rows])
            first = (False, tuple(hits[0])) if len(hits) else (True, None)
            assert _scan(*args, first=True) == first
            assert np.array_equal(_scan(*args, first=False), hits)


def test_first_hit_scan_grows_its_chunks(monkeypatch):
    monkeypatch.setattr(limits, "FIRST_CELLS", 4)  # 4 cells a row: chunks of 1, 2, 4, 8 rows
    chunks = [(0, 1), (1, 3), (3, 7), (7, 15), (15, 20)]
    for row, read_to in ((0, 1), (2, 2), (5, 3), (19, 5)):
        mask = np.zeros((20, 4), dtype=bool)
        mask[row, 3] = True
        mask[row + 1:] = True
        read = []

        def reading(rows):
            read.append((rows.start, min(rows.stop, 20)))
            return mask[rows]

        assert _scan(20, 4, reading, first=True) == (False, (row, 3))
        assert read == chunks[:read_to]
        read.clear()
        assert np.array_equal(_scan(20, 4, reading, first=False), np.argwhere(mask))
        assert read == [(0, 20)]  # every hit: chunks of the most rows the budget allows

    # settle runs once, after a first chunk without a hit, and a true
    # answer ends the scan
    empty = np.zeros((20, 4), dtype=bool)
    for answer, read_to in ((True, 1), (False, 5)):
        read, calls = [], []

        def reading(rows):
            read.append((rows.start, min(rows.stop, 20)))
            return empty[rows]

        assert _scan(20, 4, reading, first=True, settle=lambda: calls.append(1) or answer) == (
            True, None)
        assert read == chunks[:read_to] and calls == [1]
    never = lambda: pytest.fail("settle called")  # noqa: E731
    assert _scan(1, 4, lambda rows: empty[rows], first=True, settle=never) == (True, None)
    assert _scan(20, 4, lambda rows: ~empty[rows], first=True, settle=never) == (False, (0, 0))


def _modular_by_full_scan(lat):
    """is_modular's n^3 mask read by _scan alone, with no rank test."""
    J, M, leq, n = lat.join, lat.meet, lat.leq, lat.size
    return _scan(n, n * n, lambda a: leq[a, None, :] & (J[a][:, M] != M[J[a]]), first=True)


def _assert_is_modular_matches_full_scan(lat, name):
    """is_modular against the full scan, at the default and a 1-byte chunk
    budget; at 1 byte the first chunk is one row, so the rank test runs
    on every lattice of more than one element.  Returns the verdict."""
    want = _modular_by_full_scan(lat)
    with pytest.MonkeyPatch.context() as mp:
        for budget in (limits.CHUNK_BYTES, 1):
            mp.setattr(limits, "CHUNK_BYTES", budget)
            assert is_modular(lat) == want, name
    return want[0]


def _small_lattices(lattice_corpus):
    return list(lattice_corpus) + [
        ("pi%d" % k, full_partition_lattice(k).lattice) for k in range(1, 7)] + [
        ("sub(%d,%d)" % dp, subspace_lattice(*dp).lattice)
        for dp in ((1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3))]


def test_is_modular_matches_the_full_scan(lattice_corpus):
    verdicts = {name: _assert_is_modular_matches_full_scan(lat, name)
                for name, lat in _small_lattices(lattice_corpus)}
    assert verdicts["sub(4,2)"] and not verdicts["n5"] and not verdicts["pi6"]


@seed(12)
@settings(max_examples=40, deadline=None)
@example(points=4, picks=list(range(15)))  # all of Pi(4), not modular
@given(st.integers(1, 5), st.lists(st.integers(0, 51), min_size=1, max_size=5))
def test_is_modular_matches_the_full_scan_on_closed_sublattices(points, picks):
    everything = all_partitions(points)
    gens = [everything[i % len(everything)] for i in picks]
    _assert_is_modular_matches_full_scan(closed_sublattice(gens).lattice, gens)


def test_a_constant_rank_passes_the_pentagon(monkeypatch, n5):
    # with one row in the first chunk the rank test decides: the real rank
    # fails on N5, so the scan goes on to the first witness, while a
    # constant rank is a valuation and passes N5 as modular
    monkeypatch.setattr(limits, "FIRST_CELLS", 1)
    assert is_modular(FiniteLattice(n5.leq)) == (False, (1, 3, 2))
    mutant = FiniteLattice(n5.leq)
    vars(mutant)["_rank"] = np.zeros(n5.size, dtype=np.uint8)
    assert is_modular(mutant) == (True, None)


def test_height_is_a_longest_path_over_covers(lattice_corpus):
    for name, lat in _small_lattices(lattice_corpus):
        up_to = {}
        for a, b in sorted(lat.covers(), key=lambda ab: int(lat.leq[:, ab[0]].sum())):
            up_to[b] = max(up_to.get(b, 0), up_to.get(a, 0) + 1)
        assert lat._rank.tolist() == [up_to.get(x, 0) for x in range(lat.size)], name
        assert lat.height() == up_to.get(lat.top, 0), name


def test_semidistributivity(m3, n5):
    ok, witness = check_semidistributivity(m3, "meet")
    assert not ok and witness == (1, 2, 3)
    ok, _ = check_semidistributivity(m3, "join")
    assert not ok
    assert check_semidistributivity(n5, "meet") == (True, None)
    assert check_semidistributivity(n5, "join") == (True, None)
    boolean = fixtures.boolean_square()
    assert check_semidistributivity(boolean, "meet") == (True, None)
    assert check_semidistributivity(boolean, "join") == (True, None)


def test_sublattice_closure(m3):
    assert sublattice_closure(m3, [m3.bottom]) == {0}
    assert sublattice_closure(m3, [1, 2]) == {0, 1, 2, 4}
    assert sublattice_closure(m3, [1, 2, 3]) == {0, 1, 2, 3, 4}


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_closure_monotone_idempotent(data):
    lat = fixtures.m3_times_chain2()
    seed = data.draw(st.sets(st.integers(0, lat.size - 1), min_size=1, max_size=4))
    bigger = seed | data.draw(st.sets(st.integers(0, lat.size - 1), max_size=3))
    small = sublattice_closure(lat, seed)
    assert small <= sublattice_closure(lat, bigger)
    assert sublattice_closure(lat, small) == small


def _closure_by_definition(lat, seed):
    closed = set(seed)
    while True:
        more = {int(t[a, b]) for t in (lat.join, lat.meet) for a in closed for b in closed}
        if more <= closed:
            return closed
        closed |= more


def test_closure_matches_definition_in_any_chunks(monkeypatch, sub32):
    rng = np.random.default_rng(0)
    lats = [fixtures.m3_times_chain2(), sub32.lattice, subspace_lattice(4, 2).lattice]
    seeds = [(lat, rng.choice(lat.size, size=rng.integers(1, 5), replace=False).tolist())
             for lat in lats for _ in range(20)]
    want = [_closure_by_definition(lat, seed) for lat, seed in seeds]
    for budget in (limits.CHUNK_BYTES, 1):
        monkeypatch.setattr(limits, "CHUNK_BYTES", budget)
        assert [sublattice_closure(lat, seed) for lat, seed in seeds] == want


def test_find_sublattice_identity(m3):
    hom = find_sublattice(m3, m3)
    assert hom is not None and hom.map == (0, 1, 2, 3, 4)


def test_no_m3_in_n5(m3, n5):
    assert find_sublattice(n5, m3) is None


def test_m3_in_subspace_lattice(m3, sub22):
    hom = find_sublattice(sub22.lattice, m3)
    assert hom is not None and hom.is_injective()


def test_dedekind_criterion(lattice_corpus, n5):
    # nonmodularity is exactly the presence of a pentagon sublattice
    for name, lat in lattice_corpus:
        if lat.size > 12:
            continue
        modular, _ = is_modular(lat)
        assert modular == (find_sublattice(lat, n5) is None), name


def test_find_sublattice_budget(m3, sub32):
    with pytest.raises(BudgetExceededError):
        find_sublattice(sub32.lattice, m3, budget=3)


def _embeddings_by_brute_force(lat, pattern, cover_preserving):
    """Every injective map of pattern into lat that preserves join and
    meet (and covers, if asked), as rows of an array: all injections are
    listed and the tables compared, with no pruning and no order."""
    maps = np.array(list(itertools.permutations(range(lat.size), pattern.size)), dtype=np.intp)
    maps = maps.reshape(-1, pattern.size)
    rows, cols = maps[:, :, None], maps[:, None, :]
    keep = ((lat.join[rows, cols] == maps[:, pattern.join])
            & (lat.meet[rows, cols] == maps[:, pattern.meet])).all(axis=(1, 2))
    if cover_preserving:
        l_covers = np.zeros((lat.size, lat.size), dtype=bool)
        for a, b in lat.covers():
            l_covers[a, b] = True
        for a, b in pattern.covers():
            keep &= l_covers[maps[:, a], maps[:, b]]
    return maps[keep]


def test_find_sublattice_matches_brute_force():
    small = {
        **{"chain%d" % k: fixtures.chain(k) for k in range(1, 6)},
        "square": fixtures.boolean_square(), "M3": fixtures.m3(), "N5": fixtures.n5(),
        "M4": fixtures.m_k(4), "m3x2": fixtures.m3_times_chain2(),
        "Pi3": full_partition_lattice(3).lattice,
        "Sub22": subspace_lattice(2, 2).lattice, "Sub23": subspace_lattice(2, 3).lattice,
    }
    cases = 0
    for (pname, pattern), (lname, lat) in itertools.product(small.items(), repeat=2):
        if math.perm(lat.size, pattern.size) > 20000:
            continue
        for cover_preserving in (False, True):
            want = _embeddings_by_brute_force(lat, pattern, cover_preserving)
            hom = find_sublattice(lat, pattern, cover_preserving=cover_preserving)
            assert (hom is None) == (len(want) == 0), (pname, lname, cover_preserving)
            if hom is not None:
                assert (np.asarray(hom.map) == want).all(axis=1).any(), (pname, lname)
            cases += 1
    assert cases == 322


@pytest.mark.parametrize("pattern, dim, cover_preserving, nodes, found", [
    ("M4", 3, False, 996, None),
    ("M4", 3, True, 16, None),
    ("M4", 4, False, 78133, (0, 16, 26, 34, 40, 66)),
    ("M4", 4, True, 111487, None),
    ("Pi4", 3, False, 3082, None),  # joins and meets force images here
    ("Pi4", 3, True, 3082, None),
])
def test_find_sublattice_node_count(pattern, dim, cover_preserving, nodes, found):
    # the search's exact node count for a pattern in Sub(dim, 2): it
    # decides at a budget of nodes and runs out one node earlier
    pattern = {"M4": fixtures.m_k(4), "Pi4": full_partition_lattice(4).lattice}[pattern]
    target = subspace_lattice(dim, 2).lattice
    hom = find_sublattice(target, pattern, cover_preserving=cover_preserving, budget=nodes)
    assert (None if hom is None else hom.map) == found
    with pytest.raises(BudgetExceededError):
        find_sublattice(target, pattern, cover_preserving=cover_preserving, budget=nodes - 1)


def test_interval(m3, n5):
    sub, elems = interval(m3, m3.bottom, m3.top)
    assert sub is m3 and elems == list(range(5))  # the whole lattice is not derived again
    sub, elems = interval(m3, 0, 1)
    assert sub.size == 2
    sub, elems = interval(n5, 0, 2)  # 0 < a < c is a 3-chain
    assert sub.size == 3 and elems == [0, 1, 2]
    assert sub.covers() == [(0, 1), (1, 2)]
    with pytest.raises(NotComparableError):
        interval(n5, 1, 3)


def test_direct_product(m3):
    two = fixtures.chain(2)
    square = direct_product(two, two)
    assert square.size == 4
    assert find_sublattice(square, fixtures.boolean_square()) is not None
    prod = direct_product(m3, two)
    assert prod.size == 10 and is_modular(prod)[0]
    one = fixtures.chain(1)
    same = direct_product(m3, one)
    assert same.size == m3.size and np.array_equal(same.leq, m3.leq)


def test_product_size_cap(monkeypatch, m3):
    monkeypatch.setenv("CONGFORGE_CAP", "20")
    with pytest.raises(SizeLimitError):
        direct_product(fixtures.chain(5), fixtures.chain(5))


def test_lattice_hom_validation(m3, n5):
    # index-wise identity n5 -> m3 breaks meets: a ^ c = a but 1 ^ 2 = 0
    with pytest.raises(ValueError):
        LatticeHom(n5, m3, [0, 1, 2, 3, 4])
    # collapsing the pentagon chain a ~ c is a genuine homomorphism
    hom = LatticeHom(n5, m3, [0, 1, 1, 2, 4])
    assert not hom.surjective
    assert LatticeHom(m3, m3, range(5)).surjective


def test_m3_configurations(m3, m3x2):
    assert m3_configurations(m3) == [(0, 1, 2, 3, 4)]
    # the product contains exactly the two obvious copies
    configs = m3_configurations(m3x2)
    assert len(configs) == 2


def test_exchange_biconditional_on_modular_corpus(lattice_corpus):
    # the exchange property holds for every qualifying 4-tuple of every
    # modular fixture (the quantified form of the projectivity step)
    from congforge.projectivity import abx_check

    for name, lat in lattice_corpus:
        if not is_modular(lat)[0] or lat.size > 20:
            continue
        ok, witness = abx_check(lat)
        assert ok, (name, witness)


def test_beta_gamma_iteration(m3, n5):
    assert beta_gamma_iteration(m3, 1, 2, 3) == (0, 2, 3)
    # on the pentagon with alpha = a, beta = b, gamma = c the sides
    # descend for two steps: b -> 0, c -> c -> a
    m, b, c = beta_gamma_iteration(n5, 1, 3, 2)
    assert (m, b, c) == (2, 0, 1)
    # beta below alpha is a fixpoint immediately
    assert beta_gamma_iteration(n5, 2, 1, 3)[1] == 1


def test_beta_gamma_iteration_refuses_cycling_tables():
    # tables of no lattice, on which b and c swap at every step:
    # b' = meet[beta, join[alpha, c]] = c and c' = b
    second = np.tile(np.arange(3), (3, 1))  # second[x, y] = y
    swap = SimpleNamespace(size=3, join=second, meet=second)
    with pytest.raises(NonConvergenceError, match="past 4 steps"):
        beta_gamma_iteration(swap, 0, 0, 1)


def test_hasse_diagram_matches_covers_by_definition(lattice_corpus):
    for name, lat in lattice_corpus:
        leq = lat.leq
        want = [(a, b) for a in range(lat.size) for b in range(lat.size)
                if a != b and leq[a, b]
                and not any(c not in (a, b) and leq[a, c] and leq[c, b] for c in range(lat.size))]
        assert lat.covers() == want, name
        assert lat.atoms() == [b for a, b in want if a == lat.bottom], name
        assert lat.coatoms() == [a for a, b in want if b == lat.top], name


def test_covers_returns_a_fresh_list(n5):
    lat = FiniteLattice(n5.leq)
    covers = lat.covers()
    covers.clear()
    covers.append((4, 0))
    assert lat.covers() == [(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]
    assert lat.covers() is not lat.covers()
    hasse = vars(lat)["_hasse"]  # one cover computation serves every query
    assert lat.atoms() == [1, 3] and lat.coatoms() == [2, 3] and lat.height() == 3
    assert vars(lat)["_hasse"] is hasse


def test_atoms_coatoms_and_height_need_no_hasse_diagram(n5):
    lat = FiniteLattice(n5.leq)
    assert lat.atoms() == [1, 3] and lat.coatoms() == [2, 3] and lat.height() == 3
    assert "_hasse" not in vars(lat)
