import itertools

import pytest

from congforge import fixtures, terms, verify
from congforge.lattice import find_sublattice, is_modular
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
