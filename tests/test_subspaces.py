import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from congforge import fixtures, limits, terms, verify
from congforge.jsonio import lattice_to_json
from congforge.lattice import FiniteLattice, direct_product, find_sublattice, is_modular
from congforge.partitions import all_partitions, closed_sublattice
from congforge.subspaces import (
    DimensionMismatchError,
    FieldMismatchError,
    Subspace,
    embed_search,
    find_two_diamond,
    gaussian_binomial,
    k_infinity_member,
    s_intersect,
    s_sum,
    subspace_lattice,
)


def sp(p, dim, *rows):
    return Subspace.from_vectors(p, dim, rows)


def test_rref_canonical_equality():
    a = sp(2, 3, (1, 1, 0), (0, 1, 1))
    b = sp(2, 3, (1, 0, 1), (0, 1, 1))
    assert a == b  # same row space, same canonical form
    assert sp(3, 2, (2, 1)) == sp(3, 2, (1, 2))  # scaling normalises


def test_sum_and_intersection():
    e1, e2, e3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert s_sum(sp(2, 3, e1), sp(2, 3, e2)) == sp(2, 3, e1, e2)
    assert s_intersect(sp(2, 3, e1, e2), sp(2, 3, e2, e3)) == sp(2, 3, e2)
    u = sp(2, 3, e1, (0, 1, 1))
    assert s_sum(u, u) == u
    assert s_intersect(u, u) == u
    zero = Subspace(2, 3, ())
    assert s_intersect(sp(2, 3, e1), sp(2, 3, e2)) == zero


def test_mismatch_errors():
    with pytest.raises(FieldMismatchError):
        s_sum(sp(2, 2, (1, 0)), sp(3, 2, (1, 0)))
    with pytest.raises(DimensionMismatchError):
        s_sum(sp(2, 2, (1, 0)), sp(2, 3, (1, 0, 0)))


def test_membership_and_notation():
    u = sp(2, 3, (1, 0, 1), (0, 1, 0))
    assert u.contains((1, 1, 1))
    assert not u.contains((0, 0, 1))
    assert u.notation() == "101,010"
    assert Subspace.from_notation(2, 3, "101,010") == u
    assert Subspace.from_notation(2, 3, "0") == Subspace(2, 3, ())


def test_derived_tables_match_sum_and_intersection(sub32, sub23):
    for lattice in (sub32, sub23, subspace_lattice(4, 2)):
        lat, subs = lattice.lattice, lattice.subspaces
        for i, u in enumerate(subs):
            for j, w in enumerate(subs):
                assert subs[lat.join[i, j]] == s_sum(u, w)
                assert subs[lat.meet[i, j]] == s_intersect(u, w)
                assert lat.leq[i, j] == (s_sum(u, w) == w)


def test_lattice_sizes_against_span_oracle(sub22, sub32, sub23, span_count):
    cases = {(2, 2): sub22, (3, 2): sub32, (2, 3): sub23}
    for (dim, p), sl in cases.items():
        assert len(sl) == span_count(dim, p)
        assert len(sl) == sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
    sl42 = subspace_lattice(4, 2)
    assert len(sl42) == 67 == span_count(4, 2)


def test_suite_span_closure_oracle(span_count):
    # the suite's oracle grows subspaces as sets closed under span; it
    # must agree with the brute-force spans and the Gaussian counts
    for dim, p in ((1, 2), (2, 2), (3, 2), (2, 3), (1, 5)):
        assert verify._span_count_oracle(dim, p) == span_count(dim, p)
    for dim, p in ((4, 2), (5, 2), (3, 3), (2, 5)):
        want = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
        assert verify._span_count_oracle(dim, p) == want


def test_small_shapes(sub22, sub23):
    assert len(sub22) == 5
    assert find_sublattice(sub22.lattice, fixtures.m3()) is not None
    assert len(sub23) == 6
    two = subspace_lattice(1, 5)
    assert len(two) == 2 and two.lattice.height() == 1


def test_all_built_lattices_modular(sub22, sub32, sub23):
    for sl in (sub22, sub32, sub23, subspace_lattice(4, 2)):
        assert is_modular(sl.lattice)[0]


def test_k_infinity_decisions(m3, n5, sub32, sub23):
    ok, cert = k_infinity_member(m3)
    assert ok and cert == {"reason": "member"}
    ok, cert = k_infinity_member(sub23.lattice)
    assert ok
    ok, cert = k_infinity_member(n5)
    assert not ok and cert["reason"] == "not_modular"
    ok, cert = k_infinity_member(sub32.lattice)
    assert not ok and cert["reason"] == "not_2distributive"
    assert cert["two_diamond"] is not None
    # the recorded assignment genuinely refutes the identity
    phi = terms.generate_2distributive()
    env = cert["assignment"]
    assert terms.evaluate(phi.lhs, sub32.lattice, env) != terms.evaluate(
        phi.rhs, sub32.lattice, env
    )


def test_two_diamond_agrees_with_identity(lattice_corpus):
    for name, lat in lattice_corpus:
        if not is_modular(lat)[0]:
            continue
        fails = terms.holds(lat, terms.generate_2distributive(), budget=None).status == "fails"
        assert (find_two_diamond(lat) is not None) == fails, name


def two_diamond_by_loop(lat):
    """find_two_diamond's definition as a loop over x1 < x2 < x3, with one
    pass over the fourth element per triple: the oracle of the search."""
    n = lat.size
    J, M = lat.join, lat.meet
    elems = np.arange(n)
    for x1 in range(n):
        for x2 in range(x1 + 1, n):
            if int(M[x1, x2]) in (x1, x2):
                continue
            for x3 in range(x2 + 1, n):
                z = int(M[x1, int(J[x2, x3])])
                if z != int(M[x2, int(J[x1, x3])]) or z != int(M[x3, int(J[x1, x2])]):
                    continue
                if x1 == z or x2 == z or x3 == z:
                    continue
                if int(M[x1, x2]) != z or int(M[x1, x3]) != z or int(M[x2, x3]) != z:
                    continue
                u = int(J[int(J[x1, x2]), x3])
                x4 = elems
                j12, j13, j23 = int(J[x1, x2]), int(J[x1, x3]), int(J[x2, x3])
                ok = (x4 > x3) & (x4 != z) & (x4 != u)
                ok &= (M[x4, j12] == z) & (M[x4, j13] == z) & (M[x4, j23] == z)
                ok &= (M[x1, J[x2, x4]] == z) & (M[x1, J[x3, x4]] == z)
                ok &= (M[x2, J[x1, x4]] == z) & (M[x2, J[x3, x4]] == z)
                ok &= (M[x3, J[x1, x4]] == z) & (M[x3, J[x2, x4]] == z)
                ok &= (J[j12, x4] == u) & (J[j13, x4] == u) & (J[j23, x4] == u)
                hits = np.flatnonzero(ok)
                if hits.size:
                    return z, u, (x1, x2, x3, int(hits[0]))
    return None


def _relabelled(lat, order):
    """lat with its elements renumbered: new element i is old element order[i]."""
    return FiniteLattice(lat.leq[np.ix_(order, order)])


def _assert_search_matches_loop(lat, name):
    expected = two_diamond_by_loop(lat)
    assert find_two_diamond(lat) == expected, name
    # one row, pair and triple per range
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "CHUNK_BYTES", 1)
        assert find_two_diamond(lat) == expected, name
    return expected


def _closure_system(points, sets):
    """The lattice of the intersections of sets (bit masks over points)
    and the full set, ordered by inclusion."""
    family = {(1 << points) - 1, *sets}
    while True:
        new = {a & b for a in family for b in family} - family
        if not new:
            break
        family |= new
    family = sorted(family, key=lambda a: (bin(a).count("1"), a))
    return FiniteLattice(np.array([[a & b == a for b in family] for a in family]))


_FACTORS = {"m3": fixtures.m3, "n5": fixtures.n5, "boolean": fixtures.boolean_square,
            "kinf_b": fixtures.kinf_sample_b, "sub_2_3": lambda: subspace_lattice(2, 3).lattice}
_PRODUCTS = [("m3", 2), ("m3", "m3"), ("sub_2_3", 2), ("n5", 2), ("boolean", 3), ("m3", 3),
             ("n5", "n5"), ("kinf_b", 2), ("boolean", "boolean"), ("m3", "boolean")]


def test_two_diamond_search_matches_the_loop():
    corpus = list(fixtures.standard_lattices())
    for a, b in _PRODUCTS:
        right = fixtures.chain(b) if isinstance(b, int) else _FACTORS[b]()
        corpus.append(("%s x %s" % (a, b), direct_product(_FACTORS[a](), right)))
    for dim, p in [(3, 2), (3, 3), (4, 2), (3, 5)]:
        corpus.append(("sub(%d,%d)" % (dim, p), subspace_lattice(dim, p).lattice))
    # 18 elements; 1, 2, 4 and 10 meet pairwise at the bottom, every
    # three join to the top and each of 1, 2 and 4 meets the join of any
    # two others at the bottom, but 10 meets 1 + 2 and 1 + 4 above it
    corpus.append(("closure", _closure_system(5, [22, 10, 21, 7, 28, 25])))
    found = {name: _assert_search_matches_loop(lat, name) for name, lat in corpus}
    assert found["closure"] is None
    assert found["sub(4,2)"] == (0, 51, (1, 2, 4, 7))
    assert found["sub(3,5)"] == (0, 63, (1, 2, 7, 13))
    assert found["m3 x m3"] is None and found["kinf_b x 2"] is None


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_two_diamond_search_matches_the_loop_on_generated_lattices(data):
    kind = data.draw(st.sampled_from(["sub(3,2)", "closure", "partitions"]))
    if kind == "sub(3,2)":  # renumbered: the witness moves
        lat = subspace_lattice(3, 2).lattice
        lat = _relabelled(lat, data.draw(st.permutations(range(lat.size))))
    elif kind == "closure":
        points = data.draw(st.integers(3, 6))
        sets = data.draw(st.lists(st.integers(0, (1 << points) - 1), min_size=1, max_size=9))
        lat = _closure_system(points, sets)
    else:
        everything = all_partitions(data.draw(st.integers(1, 5)))
        picks = data.draw(st.lists(st.sampled_from(everything), min_size=1, max_size=4))
        lat = closed_sublattice(picks).lattice
        if data.draw(st.booleans()):
            lat = direct_product(lat, fixtures.m3())
    _assert_search_matches_loop(lat, lat)


def test_two_diamond_witness_structure(sub32):
    z, u, (x1, x2, x3, x4) = find_two_diamond(sub32.lattice)
    lat = sub32.lattice
    quad = [x1, x2, x3, x4]
    for i, j, k in itertools.permutations(range(4), 3):
        if j > k:
            continue
        assert lat.meet[quad[i], lat.join[quad[j], quad[k]]] == z
    for trip in itertools.combinations(quad, 3):
        acc = trip[0]
        for t in trip[1:]:
            acc = lat.join[acc, t]
        assert acc == u


def test_two_diamond_in_shifted_interval(sub32):
    # in a product with a chain the witness configuration lives inside a
    # proper interval; the detector must not assume the global bottom
    from congforge.lattice import direct_product
    from congforge.fixtures import chain

    prod = direct_product(sub32.lattice, chain(2))
    assert is_modular(prod)[0]
    found = find_two_diamond(prod)
    assert found is not None
    assert terms.holds(prod, terms.generate_2distributive(), budget=None).status == "fails"
    z, u, quad = found
    lat = prod
    for x in quad:
        assert lat.leq[z, x] and lat.leq[x, u] and x != z


def test_embed_search(m3, n5):
    res = embed_search(m3, 2, 2)
    assert res.status == "found" and res.hom.is_injective()
    assert len(set(res.hom.map)) == 5  # an isomorphism in this case
    res = embed_search(n5, 3, 2)
    assert res.status == "exhausted"  # modularity obstruction
    res = embed_search(fixtures.boolean_square(), 2, 3, cover_preserving=True)
    assert res.status == "found"
    images = res.images()
    assert images[0].dim == 0 and images[3].dim == 2
    res = embed_search(fixtures.m3_times_chain2(), 3, 2, budget=5)
    assert res.status == "budget_exceeded"


def test_embedding_preserves_identity_instances(m3):
    # a found embedding transports truth of identity instances
    res = embed_search(m3, 3, 2)
    assert res.status == "found"
    target = res.target.lattice
    phi = terms.generate_modular()
    names = sorted(phi.variables())
    for values in itertools.product(range(m3.size), repeat=3):
        env = dict(zip(names, values))
        mapped = {k: res.hom(v) for k, v in env.items()}
        src = terms.evaluate(phi.lhs, m3, env) == terms.evaluate(phi.rhs, m3, env)
        tgt = terms.evaluate(phi.lhs, target, mapped) == terms.evaluate(
            phi.rhs, target, mapped
        )
        assert src == tgt


def test_m3_not_embeddable_at_dim2_p3(m3):
    # three atoms need three pairwise-complementary lines, but the
    # 6-element lattice of GF(3)^2 has them: the diamond embeds there
    res = embed_search(m3, 2, 3)
    assert res.status == "found"


def test_cover_preserving_can_be_strictly_harder(m3):
    # the diamond embeds into the height-3 lattice of GF(2)^3 only
    # inside a plane interval, which is cover-preserving there
    res = embed_search(m3, 3, 2, cover_preserving=True)
    assert res.status == "found"
    dims = sorted(s.dim for s in res.images())
    assert dims == [0, 1, 1, 1, 2]


def test_subspace_labels_are_built_on_first_read():
    for dim, p in ((2, 2), (2, 3), (3, 2), (3, 3)):
        sub = subspace_lattice(dim, p)
        lat = sub.lattice
        assert callable(lat._labels)  # nothing built yet
        want = [s.notation() for s in sub.subspaces]
        # the JSON of gen sub, byte for byte that of the eager labels
        assert lattice_to_json(lat) == lattice_to_json(FiniteLattice(lat.leq, labels=want))
        assert lat.labels == want
