"""Equivalence relations on finite sets and their lattices.

A partition is stored in canonical representative form: rep[i] is the
least element of the block containing i.  That makes equality and
hashing O(1) after construction, and the canonical form is unique, so
partitions double as dictionary keys when lattices of them are built.

Join and meet come in two forms: on one pair of rep tuples (union-find,
and one pass over the pairs of blocks), behind p_join, p_meet and the
permuting-family harness; and on arrays of rep rows, behind
closed_sublattice (and so algebras.con_lattice, which builds Con(A) as
the sublattice of Eq(A) generated by the principal congruences) and
EqRelLattice's check that a family is closed in Eq(A).  Every join on
arrays goes through one kernel, _join_edges, which joins each rep row
with a list of edges by scatter-min onto the roots and pointer jumping;
algebras' congruence generation runs on it too.  The harness evaluates
its inequality straight in Eq(A) and builds no lattice per instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .lattice import FiniteLattice, NotALatticeError
from .limits import CongforgeError, check_cap, chunk_rows, index_dtype, narrow_dtype, size_cap
from . import terms


class SizeMismatchError(CongforgeError):
    pass


class NotPermutingError(CongforgeError):
    def __init__(self, index):
        self.index = index
        super().__init__("pair %d does not permute" % index)


@dataclass(frozen=True)
class Partition:
    rep: tuple[int, ...]

    def __post_init__(self):
        r = self.rep
        for i, v in enumerate(r):
            if not (0 <= v <= i and r[v] == v):
                raise ValueError("rep is not in canonical least-element form")

    @property
    def base_size(self):
        return len(self.rep)

    def blocks(self):
        out = {}
        for i, v in enumerate(self.rep):
            out.setdefault(v, []).append(i)
        return [out[k] for k in sorted(out)]

    def block_count(self):
        return len(set(self.rep))

    def label(self):
        return "|".join(" ".join(str(x) for x in b) for b in self.blocks())

    @staticmethod
    def singletons(n):
        return Partition(tuple(range(n)))

    @staticmethod
    def one_block(n):
        return Partition((0,) * n)

    @staticmethod
    def from_blocks(n, blocks):
        rep = [-1] * n
        seen = set()
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            least = min(block)
            for x in block:
                if not (0 <= x < n) or x in seen:
                    raise ValueError("blocks must partition 0..%d" % (n - 1))
                seen.add(x)
                rep[x] = least
        if len(seen) != n:
            raise ValueError("blocks must cover 0..%d" % (n - 1))
        return Partition(tuple(rep))


def _check_sizes(a, b):
    if a.base_size != b.base_size:
        raise SizeMismatchError(
            "base sizes differ: %d vs %d" % (a.base_size, b.base_size)
        )


def _rep_meet(a, b):
    """Meet of two canonical rep tuples: each point goes to the first point
    with the same pair of blocks."""
    seen = {}
    return tuple([seen.setdefault(key, i) for i, key in enumerate(zip(a, b))])


def _rep_join(a, b):
    """Join of two canonical rep tuples by union-find over the blocks of a.

    A parent never exceeds its child, so every root is the least point of
    its component and the result is canonical.
    """
    parent = list(a)

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, v in enumerate(b):
        r, s = find(i), find(v)
        if r != s:
            parent[max(r, s)] = min(r, s)
    return tuple([find(i) for i in range(len(a))])


def p_meet(a, b):
    """Common refinement: blocks are the pairwise block intersections."""
    _check_sizes(a, b)
    return Partition(_rep_meet(a.rep, b.rep))


def p_join(a, b):
    """Transitive closure of the union relation."""
    _check_sizes(a, b)
    return Partition(_rep_join(a.rep, b.rep))


def p_leq(a, b):
    """a refines b: every a-block sits inside a b-block."""
    _check_sizes(a, b)
    return all(b.rep[i] == b.rep[a.rep[i]] for i in range(a.base_size))


def _relation_matrix(p):
    r = np.asarray(p.rep)
    return r[:, None] == r[None, :]


def permutes(a, b):
    """True iff a o b = b o a as relations (equivalently a o b = a v b)."""
    _check_sizes(a, b)
    A = _relation_matrix(a)
    B = _relation_matrix(b)
    ab = A @ B
    return np.array_equal(ab, ab.T)


def relation_compose(a, b):
    """The composite relation a o b as a boolean matrix ((x,z) iff x a y b z)."""
    _check_sizes(a, b)
    A = _relation_matrix(a)
    B = _relation_matrix(b)
    return A @ B


def _refinement_order(reps):
    """leq[a, b] iff partition a refines b: rep_b[rep_a[i]] == rep_b[i] for all i."""
    m, n = reps.shape
    leq = np.empty((m, m), dtype=bool)
    rows = chunk_rows(m * n * (reps.itemsize + 9))
    for lo in range(0, m, rows):
        lifted = reps[:, reps[lo:lo + rows]]  # [b, a, i] = rep_b[rep_a[i]]
        leq[lo:lo + rows] = (lifted == reps[:, None, :]).all(axis=2).T
    return leq


def _distinct_counts(codes):
    """Number of distinct values in each row."""
    ordered = np.sort(codes, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _meet_reps(ra, rb):
    """Canonical reps of the meet of each row pair.

    A point's representative is the first point with the same pair of
    blocks (rep_a[i], rep_b[i]): the first occurrence of its code, which
    is tagged with the row so that one flat pass serves every row.
    """
    k, n = ra.shape
    codes = (np.arange(k, dtype=index_dtype(k * n * n))[:, None] * n + ra) * n + rb
    _, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    return (first % n)[inverse].reshape(k, n)


def _join_edges(lab, u, v):
    """Canonical reps of each row of lab joined with the edges (u[e], v[e]).

    lab is a (k, n) array of canonical reps; an edge end is a flat
    position row * n + point, and both ends of an edge lie in one row.
    Each round hooks the larger root of every edge that still crosses two
    trees onto the smaller one (scatter-min onto the roots) and flattens
    the forest by pointer jumping, until no edge crosses.  A parent never
    exceeds its child, so every root is the least point of its component
    and the result is canonical.
    """
    k, n = lab.shape
    dtype = index_dtype(k * n)
    offset = np.arange(0, k * n, n, dtype=dtype)[:, None]
    root = (lab + offset).astype(dtype, copy=False).ravel()
    u, v = root[u], root[v]
    while True:
        cross = u != v
        if not cross.any():
            return root.reshape(k, n) - offset
        u, v = u[cross], v[cross]
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up
        u, v = root[u], root[v]


def _join_reps(ra, rb):
    """Canonical reps of the join of each row pair: ra joined with the
    edges from every point to its representative in rb."""
    k, n = ra.shape
    offset = np.arange(0, k * n, n, dtype=index_dtype(k * n))[:, None]
    return _join_edges(ra, np.arange(k * n), (rb + offset).ravel())


def _closed_in_eq(reps, lattice):
    """True iff the derived join and meet of every pair are those of Eq(A).

    The derived meet c of a and b refines their meet in Eq(A), and the
    derived join coarsens their join, so each is equal to it exactly when
    the block counts agree: the meet has one block per distinct pair
    (rep_a[i], rep_b[i]), the join one per component of the union.  A
    canonical partition has one block per point with rep[i] == i.
    Comparable pairs are skipped, since their bounds are a and b.
    """
    m, n = reps.shape
    points = np.arange(n)
    blocks = np.count_nonzero(reps == points, axis=1)
    codes = reps.astype(narrow_dtype(n * n)) * n
    incomparable = ~(lattice.leq | lattice.leq.T)
    rows = chunk_rows(m * n * 64)
    for lo in range(0, m, rows):
        a, b = np.nonzero(incomparable[lo:lo + rows])
        a += lo
        a, b = a[a < b], b[a < b]
        if a.size == 0:
            continue
        if (_distinct_counts(codes[a] + reps[b]) != blocks[lattice.meet[a, b]]).any():
            return False
        joins = np.count_nonzero(_join_reps(reps[a], reps[b]) == points, axis=1)
        if (joins != blocks[lattice.join[a, b]]).any():
            return False
    return True


class EqRelLattice:
    """A finite lattice whose elements are partitions of a fixed base set."""

    def __init__(self, partitions):
        parts = sorted(set(partitions), key=lambda p: p.rep)
        if not parts:
            raise ValueError("need at least one partition")
        base = parts[0].base_size
        for p in parts:
            if p.base_size != base:
                raise SizeMismatchError("mixed base sizes")
        index = {p: i for i, p in enumerate(parts)}
        reps = np.array([p.rep for p in parts], dtype=narrow_dtype(base))
        reps = reps.reshape(len(parts), base)
        # A family closed in Eq(A) is a lattice under refinement, so a
        # non-lattice order already proves it is not closed; otherwise the
        # derived tables are compared with the operations of Eq(A).
        try:
            lattice = FiniteLattice(
                _refinement_order(reps), labels=[p.label() for p in parts]
            )
        except NotALatticeError:
            lattice = None
        if lattice is None or not _closed_in_eq(reps, lattice):
            raise ValueError("partitions are not closed under join/meet")
        reps.setflags(write=False)
        self.base_size = base
        self.partitions = tuple(parts)
        self.reps = reps  # row i is the rep tuple of partitions[i]
        self.index = index
        self.lattice = lattice

    def __len__(self):
        return len(self.partitions)


def all_partitions(n):
    """All partitions of {0..n-1}, enumerated by restricted growth strings."""
    if n == 0:
        return [Partition(())]
    out = []

    def grow(rgs, mx):
        i = len(rgs)
        if i == n:
            blocks = {}
            for pos, cls in enumerate(rgs):
                blocks.setdefault(cls, pos)
            out.append(Partition(tuple(blocks[c] for c in rgs)))
            return
        for c in range(mx + 2):
            grow(rgs + [c], max(mx, c))

    grow([0], 0)
    return out


def full_partition_lattice(n):
    """The lattice of all equivalence relations on an n-element set.

    Its size, the Bell number of n, meets CONGFORGE_CAP before any
    partition is enumerated.  A row of length k of the Bell triangle ends
    in the Bell number of k; the walk stops at the first one over the
    cap, and the refusal names that k (Pi(k) sits inside Pi(n)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    row = [1]
    while len(row) < n and row[-1] <= size_cap():
        row = list(itertools.accumulate(row, initial=row[-1]))
    check_cap(row[-1], "partition lattice on %d points" % len(row))
    return EqRelLattice(all_partitions(n))


def closed_sublattice(gens):
    """Closure of the generators under join and meet in Eq(A), as an EqRelLattice.

    The closure runs in semi-naive rounds: each round pairs the partitions
    found in the last round with every partition found so far, each
    unordered pair once, and evaluates their joins and meets as arrays of
    reps, in chunks of limits.CHUNK_BYTES.  A round that finds nothing new
    ends it.  The size is checked against CONGFORGE_CAP after every round.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        _check_sizes(gens[0], g)
    base = gens[0].base_size
    closed = np.array([g.rep for g in gens], dtype=narrow_dtype(base))
    closed = np.unique(closed.reshape(len(gens), base), axis=0)
    key = np.dtype((np.void, base * closed.itemsize))
    start = 0  # rows from here on were found in the last round
    while start < len(closed):
        m = len(closed)
        rows = chunk_rows(m * base * 128)
        fresh = []
        for lo in range(start, m, rows):
            # row g of the closure pairs with every row before it
            a, b = np.nonzero(np.tri(min(rows, m - lo), m, lo - 1, dtype=bool))
            a += lo
            found = np.concatenate([_join_reps(closed[a], closed[b]),
                                    _meet_reps(closed[a], closed[b])])
            found = np.unique(found.astype(closed.dtype), axis=0)
            fresh.append(found[~np.isin(found.view(key).ravel(), closed.view(key).ravel())])
        closed = np.concatenate([closed, np.unique(np.concatenate(fresh), axis=0)])
        start = m
        check_cap(len(closed), "partition sublattice closure")
    return EqRelLattice(Partition(tuple(rep)) for rep in closed.tolist())


def _eval_reps(term, env):
    """Value of a lattice term in Eq(A), with variables bound to rep tuples."""
    if isinstance(term, terms.Var):
        return env[term.name]
    op = _rep_join if isinstance(term, terms.Join) else _rep_meet
    return op(_eval_reps(term.left, env), _eval_reps(term.right, env))


def verify_dn_permuting(alphas, alphaps):
    """Evaluate the n-th cyclic inequality on pairwise-permuting partitions.

    Each pair (alphas[i], alphaps[i]) must permute; a violation raises
    NotPermutingError rather than producing a verdict, and all 2n inputs
    must share one base size (SizeMismatchError).  The companion
    inequality dn* is evaluated directly in Eq(A), by join and meet on
    the rep tuples: a lattice term has the same value there as in every
    sublattice holding its inputs, so no sublattice is built, and no
    element cap applies however large the generated sublattice would be.
    In Eq(A) with permuting pairs the inequality always holds, so a
    False here signals a bug.
    """
    n = len(alphas)
    if len(alphaps) != n:
        raise ValueError("need equally many primed and unprimed partitions")
    if n < 3:
        raise terms.InvalidNError("need n >= 3")
    for i, (a, b) in enumerate(zip(alphas, alphaps)):
        if not permutes(a, b):
            raise NotPermutingError(i)
    for a in alphas:  # each alphaps[i] matches alphas[i] already
        _check_sizes(alphas[0], a)
    phi = terms.generate_dn_star(n)
    env = {}
    for i in range(n):
        env["x%d" % i] = alphas[i].rep
        env["x%d'" % i] = alphaps[i].rep
    lo, hi = _eval_reps(phi.lhs, env), _eval_reps(phi.rhs, env)
    return all(hi[i] == hi[v] for i, v in enumerate(lo))


# -- permuting families from abelian groups ----------------------------------


def abelian_coset_partitions(orders):
    """All coset partitions of the direct product of cyclic groups Z_d.

    Subgroup cosets of a single group pairwise permute, which makes these
    families the cheap source of permuting pairs; rejection sampling on
    random partitions essentially never finds permuting pairs.
    """
    orders = tuple(int(d) for d in orders)
    elements = list(itertools.product(*[range(d) for d in orders]))
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, orders))

    def close(gens):
        sub = {tuple(0 for _ in orders)}
        frontier = list(sub)
        while frontier:
            fresh = []
            for g in gens:
                for h in frontier:
                    s = add(g, h)
                    if s not in sub:
                        sub.add(s)
                        fresh.append(s)
            frontier = fresh
        return frozenset(sub)

    subgroups = {close(())}
    for k in (1, 2, 3):
        for gens in itertools.combinations(elements, k):
            subgroups.add(close(gens))
    out = []
    for sub in sorted(subgroups, key=lambda s: (len(s), sorted(index[e] for e in s))):
        rep = [-1] * n
        for e in elements:
            coset = sorted(index[add(e, h)] for h in sub)
            rep[index[e]] = coset[0]
        out.append(Partition(tuple(rep)))
    return out
