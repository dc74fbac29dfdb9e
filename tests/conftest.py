import itertools
from functools import cache

import pytest

from congforge import fixtures, subspaces


@cache
def _span_count(dim, p):
    vectors = list(itertools.product(range(p), repeat=dim))
    spans = set()
    # a span depends on neither the order nor the repetition of its
    # generators, so sets of k distinct vectors reach every subspace
    for k in range(dim + 1):
        for rows in itertools.combinations(vectors, k):
            span = set()
            for coeffs in itertools.product(range(p), repeat=k):
                span.add(
                    tuple(
                        sum(c * r[i] for c, r in zip(coeffs, rows)) % p
                        for i in range(dim)
                    )
                )
            spans.add(frozenset(span))
    return len(spans)


@pytest.fixture(scope="session")
def span_count():
    """Count the subspaces of GF(p)^dim by brute-force span enumeration
    over all small generating sets; no echelon forms involved.  Each
    (dim, p) is enumerated once per session."""
    return _span_count


@pytest.fixture(scope="session")
def m3():
    return fixtures.m3()


@pytest.fixture(scope="session")
def n5():
    return fixtures.n5()


@pytest.fixture(scope="session")
def m3x2():
    return fixtures.m3_times_chain2()


@pytest.fixture(scope="session")
def sub22():
    return subspaces.subspace_lattice(2, 2)


@pytest.fixture(scope="session")
def sub32():
    return subspaces.subspace_lattice(3, 2)


@pytest.fixture(scope="session")
def sub23():
    return subspaces.subspace_lattice(2, 3)


@pytest.fixture(scope="session")
def lattice_corpus():
    return fixtures.standard_lattices()


@pytest.fixture(scope="session")
def algebra_corpus():
    return fixtures.standard_algebras()
