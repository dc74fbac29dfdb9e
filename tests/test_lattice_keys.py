"""The join and meet lookups keyed by the irreducibles, against the
full-width lookup and the order itself.

Up to 64 elements a whole up-set is one key word; above that the keys are
the up-sets cut to the meet-irreducibles (down-sets cut to the
join-irreducibles, for meets), so every input here has more than 64
elements.  Oracles: the full-width lookup (lattice._bound_table over the
whole up-sets), brute force over the order for the first pair without a
least bound, and the covers read off the order by one boolean product.
"""

import itertools

import numpy as np
import pytest

from congforge import fixtures, lattice, limits, partitions
from congforge.lattice import FiniteLattice, NotALatticeError, direct_product
from congforge.partitions import all_partitions, closed_sublattice
from congforge.subspaces import subspace_lattice

KINDS = ("least upper bound", "greatest lower bound")


def chain(n):
    return np.triu(np.ones((n, n), dtype=bool))


def boolean(k):
    sets = np.arange(1 << k)
    return (sets[:, None] & ~sets[None, :]) == 0


def partition_family(seed):
    """A closed_sublattice of Pi(6) with more than 64 elements."""
    parts = all_partitions(6)
    rng = np.random.default_rng(seed)
    while True:
        gens = [parts[i] for i in rng.choice(len(parts), size=4, replace=False)]
        eq = closed_sublattice(gens)
        if len(eq) > 64:
            return eq.lattice.leq


def refinement(n):
    return partitions._refinement_order(np.array([p.rep for p in all_partitions(n)]))


LATTICES = {
    "sub(4,2)": lambda: subspace_lattice(4, 2).lattice.leq,
    "sub(3,7)": lambda: subspace_lattice(3, 7).lattice.leq,
    "pi(5)": lambda: refinement(5),
    "pi(6)": lambda: refinement(6),
    "pi(7)": lambda: refinement(7),
    "closure(0)": lambda: partition_family(0),
    "closure(1)": lambda: partition_family(1),
    "sub(3,2)xpi(4)": lambda: direct_product(subspace_lattice(3, 2).lattice,
                                             FiniteLattice(refinement(4))).leq,
    "n5xsub(2,3)x2": lambda: direct_product(
        direct_product(fixtures.n5(), subspace_lattice(2, 3).lattice), fixtures.chain(2)).leq,
    "chain(200)": lambda: chain(200),
    "2^7": lambda: boolean(7),
}


def full_width(leq):
    """The tables by the full-width lookup, raising as FiniteLattice does."""
    try:
        join = lattice._bound_table(lattice._keys(leq), KINDS[0])
    except NotALatticeError:
        if not lattice._is_transitive(leq):
            raise ValueError("order matrix is not transitive") from None
        raise
    return join, lattice._bound_table(lattice._keys(np.ascontiguousarray(leq.T)), KINDS[1])


def covers_by_product(leq):
    strict = leq & ~np.eye(len(leq), dtype=bool)
    lo, hi = np.nonzero(strict & ~(strict @ strict))
    return list(zip(lo.tolist(), hi.tolist()))


def irreducibles_by_covers(leq):
    """Join- and meet-irreducibles: one lower, respectively upper, cover."""
    lower, upper = np.zeros(len(leq), dtype=int), np.zeros(len(leq), dtype=int)
    for lo, hi in covers_by_product(leq):
        lower[hi] += 1
        upper[lo] += 1
    return np.flatnonzero(lower == 1).tolist(), np.flatnonzero(upper == 1).tolist()


def first_pair_without_bound(leq):
    """(pair, kind) of the lexicographically first pair with no least upper
    bound, else of the first with no greatest lower bound, by brute force."""
    for order, kind in ((leq, KINDS[0]), (leq.T, KINDS[1])):
        for a, b in itertools.combinations_with_replacement(range(len(leq)), 2):
            bounds = np.flatnonzero(order[a] & order[b])
            least = [c for c in bounds if order[c, bounds].all()]
            if len(least) != 1:
                return (a, b), kind
    return None


@pytest.fixture(scope="module", params=sorted(LATTICES))
def case(request):
    return request.param, LATTICES[request.param]()


def check_lattice(name, leq):
    lat = FiniteLattice(leq)
    join, meet = full_width(leq)
    assert np.array_equal(lat.join, join) and np.array_equal(lat.meet, meet), name
    joins, meets = irreducibles_by_covers(leq)
    assert lat.join_irreducibles.tolist() == joins, name
    assert lat.meet_irreducibles.tolist() == meets, name
    assert lat.covers() == covers_by_product(leq), name


@pytest.mark.parametrize("chunk_bytes", [limits.CHUNK_BYTES, 1])
def test_tables_and_irreducibles_match_the_full_width_lookup(case, chunk_bytes, monkeypatch):
    name, leq = case
    monkeypatch.setattr(limits, "CHUNK_BYTES", chunk_bytes)
    check_lattice(name, leq)


def test_the_cut_keys_are_used_where_they_are_narrower(monkeypatch):
    embeds = []
    real = lattice._embeds
    monkeypatch.setattr(lattice, "_embeds", lambda order, keys: embeds.append(keys.nbytes) or
                        real(order, keys))
    # 2^7: seven coatoms and seven atoms, one word per key, under 16 full bytes
    lat = FiniteLattice(boolean(7))
    assert embeds == [8 * 128, 8 * 128]
    assert "meet_irreducibles" in vars(lat) and "join_irreducibles" in vars(lat)
    # a chain's irreducibles are all but one element: no narrower key
    embeds.clear()
    FiniteLattice(chain(200))
    assert embeds == []
    # up to 64 elements the whole up-set is one word and no irreducibles
    # are computed until asked for
    lat = FiniteLattice(boolean(6))
    assert embeds == [] and "meet_irreducibles" not in vars(lat)
    assert lat.meet_irreducibles.tolist() == [63 - (1 << i) for i in reversed(range(6))]
    assert lat.join_irreducibles.tolist() == [1 << i for i in range(6)]


def bowtie_on_top():
    """A 70-element order that is no lattice: 2^6 with a new bottom below
    it and a bowtie above its top (two atoms with two minimal upper
    bounds under a new top)."""
    n = 70
    leq = np.zeros((n, n), dtype=bool)
    leq[1:65, 1:65] = boolean(6)
    leq[0] = True  # the new bottom
    a, b, c, d, t = 65, 66, 67, 68, 69
    leq[1:65, a:] = True  # everything of 2^6 lies below the bowtie
    for lo, hi in ((a, c), (a, d), (b, c), (b, d), (a, t), (b, t), (c, t), (d, t)):
        leq[lo, hi] = True
    np.fill_diagonal(leq, True)
    return leq


def bowtie_with_distinct_keys():
    """A 72-element order that is no lattice, on which the cut keys embed
    the order: as bowtie_on_top, with a third meet-irreducible above each
    atom of the bowtie alone, so their cut keys differ."""
    n = 72
    leq = np.zeros((n, n), dtype=bool)
    leq[1:65, 1:65] = boolean(6)
    leq[0] = True
    a, b, c, d, e, f, t = range(65, 72)
    leq[1:65, a:] = True
    for lo, hi in ((a, c), (a, d), (a, e), (b, c), (b, d), (b, f)):
        leq[lo, hi] = True
    leq[a:, t] = True
    np.fill_diagonal(leq, True)
    return leq


def sub42_with_a_pair_dropped(transitive):
    leq = subspace_lattice(4, 2).lattice.leq.copy()
    strict = leq & ~np.eye(len(leq), dtype=bool)
    covers = strict & ~(strict @ strict)
    # a cover pair keeps the order transitive; a pair with an element
    # between its ends does not
    lo, hi = np.argwhere(covers if transitive else strict & ~covers)[7]
    leq[lo, hi] = False
    return leq


NON_LATTICES = {
    "glued bowtie": bowtie_on_top,
    "bowtie with distinct keys": bowtie_with_distinct_keys,
    "sub(4,2) without a cover pair": lambda: sub42_with_a_pair_dropped(True),
    "sub(4,2) without a longer pair": lambda: sub42_with_a_pair_dropped(False),
}


@pytest.mark.parametrize("chunk_bytes", [limits.CHUNK_BYTES, 1])
@pytest.mark.parametrize("name", sorted(NON_LATTICES))
def test_non_lattices_raise_the_full_width_error(name, chunk_bytes, monkeypatch):
    monkeypatch.setattr(limits, "CHUNK_BYTES", chunk_bytes)
    leq = NON_LATTICES[name]()
    assert len(leq) > 64
    with pytest.raises((NotALatticeError, ValueError)) as want:
        full_width(leq)
    with pytest.raises(type(want.value)) as got:
        FiniteLattice(leq)
    assert str(got.value) == str(want.value)
    if isinstance(want.value, NotALatticeError):
        assert (got.value.pair, got.value.kind) == first_pair_without_bound(leq)
    else:
        assert str(got.value) == "order matrix is not transitive"


def test_the_glued_bowtie_passes_the_cut_lookup_but_not_the_embedding():
    # the top of 2^6 and both atoms of the bowtie have the same two
    # meet-irreducibles above them, so the cut keys alone find a join for
    # the atoms, and one that is not above both
    leq = bowtie_on_top()
    irreducible = lattice._irreducibles(leq)
    assert irreducible.tolist() == [0] + [64 - (1 << i) for i in reversed(range(6))] + [67, 68]
    cut = lattice._keys(leq[:, irreducible])
    assert not lattice._embeds(leq, cut)
    join = lattice._bound_table(cut, KINDS[0])
    assert not (leq[65, join[65, 66]] and leq[66, join[65, 66]])
    with pytest.raises(NotALatticeError) as err:
        FiniteLattice(leq)
    assert (err.value.pair, err.value.kind) == ((65, 66), KINDS[0])


def test_a_miss_of_the_embedding_cut_keys_names_the_full_width_pair():
    # the cut keys embed this order, so its join lookup runs on them; the
    # atoms' keys {c, d, e} and {c, d, f} meet in {c, d}, no element's key,
    # the miss the full-width lookup has at the same first pair
    leq = bowtie_with_distinct_keys()
    irreducible = lattice._irreducibles(leq)
    coatoms = [64 - (1 << i) for i in reversed(range(6))]
    assert irreducible.tolist() == [0] + coatoms + [67, 68, 69, 70]
    cut = lattice._keys(leq[:, irreducible])
    assert cut.nbytes < lattice._keys(leq).nbytes and lattice._embeds(leq, cut)
    with pytest.raises(NotALatticeError) as err:
        lattice._bound_table(cut, KINDS[0])
    assert (err.value.pair, err.value.kind) == ((65, 66), KINDS[0])
    assert first_pair_without_bound(leq) == ((65, 66), KINDS[0])


def test_the_embedding_check_reads_every_word_both_ways():
    # 70-bit singletons embed the antichain on 70 elements; bits 64 to 69
    # lie in the second word
    n = 70
    order = np.eye(n, dtype=bool)
    keys = lattice._keys(np.eye(n, dtype=bool))
    assert keys.shape == (n, 9) and lattice._embeds(order, keys)
    # 65 <= 66 though key(66) is not inside key(65)
    order[65, 66] = True
    assert not lattice._embeds(order, keys)
    # key(66) inside key(65) though 65 is not below 66
    bits = np.eye(n, dtype=bool)
    bits[65, 66] = True
    assert not lattice._embeds(np.eye(n, dtype=bool), lattice._keys(bits))


def test_a_one_element_lattice_has_no_irreducibles():
    lat = FiniteLattice(np.ones((1, 1), dtype=bool))
    assert lat.join_irreducibles.tolist() == lat.meet_irreducibles.tolist() == []
    assert lat.covers() == []
