"""Equivalence relations on finite sets and their lattices.

A partition is stored in canonical representative form: rep[i] is the
least element of the block containing i.  That makes equality and
hashing O(1) after construction, and the canonical form is unique, so
partitions double as dictionary keys when lattices of them are built.

Join and meet come in two forms: on one pair of rep tuples (union-find,
and one pass over the pairs of blocks), behind p_join, p_meet, permutes
and the permuting-family harness; and on arrays of rep rows, behind the
closures and EqRelLattice's check that a family is closed in Eq(A).
Every join on arrays goes through one kernel, _join_edges, which joins
each rep row with a list of edges by scatter-min onto the roots and
pointer jumping; algebras' congruence generation runs on it too.  Every
kernel on arrays, the meet and the power construction's fibres, goes
through _first_reps: a point's rep is the first point with its key.

One semi-naive closure of rep rows, _close_rows, serves both families
that are built by closing: closed_sublattice, the sublattice of Eq(A)
that generators span under join and meet, and algebras.con_lattice,
the join-closure of the principal congruences.  It tells new rows from
found ones by their bytes, in a set local to the call, and checks the
element cap on the rows found so far after every chunk of pairs, before
a round's rows are added.  EqRelLattice checks closedness over the
irreducibles of the derived lattice: a family is closed under the join
of Eq(A) iff a v j lies in it for every member a and every
join-irreducible member j, and dually for meets.

The permuting-family harness works on rep tuples only.  permutes decides
a o b = b o a by Ore's criterion, on block counts of the join and the
meet, so no relation matrix is built; relation_compose keeps the matrix
product as the slow route.  The harness evaluates its inequality dn*
straight in Eq(A), as a straight-line program compiled once per n by the
sweep engine's compiler (terms._visit), and builds no lattice per
instance.  Each pair is joined once: the join that Ore's test computes
(_ore_join) is the program's input x_i v x_i'.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .lattice import FiniteLattice, NotALatticeError
from .limits import CongforgeError, check_cap, chunks, index_dtype, narrow_dtype, size_cap
from . import terms


class SizeMismatchError(CongforgeError):
    pass


class NotPermutingError(CongforgeError):
    def __init__(self, index):
        self.index = index
        super().__init__("pair %d does not permute" % index)


def _int_list(value):
    """Whether value is a list of integers (a bool is no integer)."""
    return isinstance(value, list) and all(type(v) is int for v in value)


@dataclass(frozen=True, slots=True)
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
        if not isinstance(blocks, list) or not all(_int_list(b) for b in blocks):
            raise ValueError("blocks must be a list of lists of integer points")
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


def _ore_join(ra, rb):
    """The join of two canonical rep tuples when they permute, else None.

    Ore's criterion (O. Ore, "Theory of equivalence relations", Duke
    Math. J. 9 (1942)), decided on block counts with no relation matrix.
    Within a block J of the join, x (a o b) z iff the a-block of x meets
    the b-block of z, so a o b covers J x J iff each of the p_J a-blocks
    of J meets each of its q_J b-blocks.  Those intersections are the
    blocks of the meet, and each meet block lies in one a-block and one
    b-block of one join block, so the meet has at most the sum over J of
    p_J * q_J blocks, with equality iff a o b = a v b.  That holds iff
    the pair permutes: a o b lies in a v b, a o b = b o a makes it
    transitive and so the join, and a o b = a v b makes it symmetric, so
    equal to its converse b o a.  The cost is the union-find join,
    _rep_join, and O(n) counting over the points.  The join is handed
    back, so the permuting harness reads each pair's join from here and
    does not join the pair again for dn*.
    """
    join = _rep_join(ra, rb)
    per_a, per_b = [0] * len(ra), [0] * len(ra)  # a- and b-blocks per join block
    for i, j in enumerate(join):
        if ra[i] == i:
            per_a[j] += 1
        if rb[i] == i:
            per_b[j] += 1
    if len(set(zip(ra, rb))) != sum(map(operator.mul, per_a, per_b)):
        return None
    return join


def permutes(a, b):
    """True iff a o b = b o a as relations (equivalently a o b = a v b),
    by Ore's criterion on block counts (_ore_join); the same one join per
    pair serves Ore's test here and dn* in verify_dn_permuting."""
    _check_sizes(a, b)
    return _ore_join(a.rep, b.rep) is not None


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
    for lo, hi in chunks(m, m * n * (reps.itemsize + 9)):
        lifted = reps[:, reps[lo:hi]]  # [b, a, i] = rep_b[rep_a[i]]
        leq[lo:hi] = (lifted == reps[:, None, :]).all(axis=2).T
    return leq


def _distinct_counts(codes):
    """Number of distinct values in each row."""
    ordered = np.sort(codes, axis=1)
    return 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)


def _first_reps(keys, span):
    """Canonical reps of the kernel of each row of keys, a (k, n) array of
    integers in 0..span-1: each point's rep is the first point of its row
    with the same key.  Keys are tagged with their row, so that one flat
    pass serves every row."""
    k, n = keys.shape
    codes = np.arange(k, dtype=index_dtype(k * span))[:, None] * span + keys
    _, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    return (first % n)[inverse].reshape(k, n)


def _meet_reps(ra, rb):
    """Canonical reps of the meet of each row pair: the kernel of (rep_a, rep_b)."""
    n = ra.shape[1]
    return _first_reps(ra.astype(index_dtype(n * n)) * n + rb, n * n)


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
    # count_nonzero, not any() or all(): a third of their call cost on the
    # small rows that congruence generation joins
    while True:
        cross = u != v
        if not np.count_nonzero(cross):
            return root.reshape(k, n) - offset
        u, v = u[cross], v[cross]
        np.minimum.at(root, np.maximum(u, v), np.minimum(u, v))
        while True:
            up = root[root]
            if not np.count_nonzero(up != root):
                break
            root = up
        u, v = root[u], root[v]


def _join_reps(ra, rb):
    """Canonical reps of the join of each row pair: ra joined with the
    edges from every point to its representative in rb."""
    k, n = ra.shape
    offset = np.arange(0, k * n, n, dtype=index_dtype(k * n))[:, None]
    return _join_edges(ra, np.arange(k * n), (rb + offset).ravel())


def _closed_by_irreducibles(reps, lattice):
    """True iff the derived join and meet of every pair are those of Eq(A).

    A family L is closed under the join of Eq(A) iff a v j lies in L for
    every a in L and every join-irreducible j of L: each b in L is the
    join in L of the join-irreducibles below it, so joining them into a
    one at a time stays in L and ends at a v b.  Meets are the dual, with
    the meet-irreducibles, so only those m * (|J| + |M|) pairs are
    evaluated; both sets are the lattice's (FiniteLattice.join_irreducibles
    and meet_irreducibles).  The derived meet c of a and b refines their
    meet in Eq(A), and the derived join coarsens their join, so each is
    equal to it exactly when the block counts agree: the meet has one
    block per distinct pair (rep_a[i], rep_b[i]), the join one per
    component of the union.  A canonical partition has one block per point with
    rep[i] == i.  Comparable pairs are skipped, since their bounds are a
    and b.
    """
    m, n = reps.shape
    points = np.arange(n)
    blocks = np.count_nonzero(reps == points, axis=1)
    codes = reps.astype(narrow_dtype(n * n)) * n
    leq = lattice.leq
    halves = (
        (lattice.join_irreducibles, lattice.join,
         lambda a, b: np.count_nonzero(_join_reps(reps[a], reps[b]) == points, axis=1)),
        (lattice.meet_irreducibles, lattice.meet,
         lambda a, b: _distinct_counts(codes[a] + reps[b])),
    )
    for members, table, count in halves:
        for lo, hi in chunks(m, len(members) * n * 64):
            a, b = np.nonzero(~(leq[lo:hi, members] | leq[members, lo:hi].T))
            a += lo
            b = members[b]
            if a.size and (count(a, b) != blocks[table[a, b]]).any():
                return False
    return True


class EqRelLattice:
    """A finite lattice whose elements are partitions of a fixed base set.

    The partitions are sorted by rep, ordered by refinement, and their
    join and meet tables derived from that order (FiniteLattice).  The
    family must be closed in Eq(A), or ValueError is raised: its order
    must be a lattice, and the derived join and meet must be those of
    Eq(A) on every pair of a member with a join-irreducible
    (respectively meet-irreducible) member, which implies it for every
    pair (_closed_by_irreducibles).
    """

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
                _refinement_order(reps), labels=lambda: [p.label() for p in parts]
            )
        except NotALatticeError:
            lattice = None
        if lattice is None or not _closed_by_irreducibles(reps, lattice):
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
    """All partitions of {0..n-1}, in the lexicographic order of their
    restricted growth strings: each point joins an existing block, in the
    order of the blocks' least elements, or starts a block of its own."""
    reps = [()]
    for i in range(n):
        reps = [rep + (j,) for rep in reps for j in sorted(set(rep)) + [i]]
    return [Partition(rep) for rep in reps]


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


# Bytes per pair of closure rows and row operation: 64 per point for the
# gathered rows and the operation's temporaries, and 120 for the result's
# bytes key, its list slot and its entry in the dedup dict and set.
_PAIR_POINT_BYTES = 64
_PAIR_KEY_BYTES = 120


def _fresh_rows(found, seen):
    """The distinct rows of found whose bytes are not in seen, in order of
    first occurrence; their bytes are added to seen."""
    found = np.ascontiguousarray(found)
    n = found.shape[1]
    keys = found.view(np.dtype((np.void, n * found.itemsize))).ravel().tolist()
    new = [key for key in dict.fromkeys(keys) if key not in seen]
    seen.update(new)
    return np.frombuffer(b"".join(new), dtype=found.dtype).reshape(len(new), n)


def _close_rows(rows, ops, partners=None):
    """The closure of rep rows under the row operations ops, semi-naive.

    Each round pairs the rows found in the last round with partners: the
    rows of partners when given, else every row found so far, each
    unordered pair once.  Every op maps two (k, n) arrays of reps to the
    reps of the k results, and the pairs are evaluated in the row ranges
    of limits.chunks.  Rows are deduplicated by their bytes, through a
    set local to the call; a round that finds nothing new ends it.  After
    every chunk the closure's size so far, the rows before the round and
    those it has found, is checked against CONGFORGE_CAP, before the
    round's rows are added.  Returns the distinct rows in order of
    discovery.
    """
    seen = set()
    closed = _fresh_rows(rows, seen)
    n = closed.shape[1]
    start = 0  # rows from here on were found in the last round
    while start < len(closed):
        m = len(closed)
        width = m if partners is None else len(partners)
        fresh, count = [], m
        row_bytes = width * len(ops) * (n * _PAIR_POINT_BYTES + _PAIR_KEY_BYTES)
        for lo, hi in chunks(m, row_bytes, start=start):
            if partners is None:
                # row g pairs with every row before it
                a, b = np.nonzero(np.tri(hi - lo, m, lo - 1, dtype=bool))
                left, right = closed[a + lo], closed[b]
            else:
                left = np.repeat(closed[lo:hi], width, axis=0)
                right = np.tile(partners, (hi - lo, 1))
            found = np.concatenate([op(left, right) for op in ops]).astype(closed.dtype)
            fresh.append(_fresh_rows(found, seen))
            count += len(fresh[-1])
            check_cap(count, "partition sublattice closure")
        closed = np.concatenate([closed, *fresh])
        start = m
    return closed


def closed_sublattice(gens):
    """Closure of the generators under join and meet in Eq(A), as an EqRelLattice.

    The closure runs in semi-naive rounds (_close_rows): each round pairs
    the partitions found in the last round with every partition found so
    far, each unordered pair once, and evaluates their joins and meets as
    arrays of reps, in the row ranges of limits.chunks.  New partitions are
    told apart from found ones by the bytes of their rows, and a round
    that finds nothing new ends the closure.  The size is checked
    against CONGFORGE_CAP after every chunk, on the partitions found so
    far, so an oversized closure is refused within the round that
    crosses the cap.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one generator")
    for g in gens:
        _check_sizes(gens[0], g)
    base = gens[0].base_size
    rows = np.array([g.rep for g in gens], dtype=narrow_dtype(base)).reshape(len(gens), base)
    closed = _close_rows(rows, (_join_reps, _meet_reps))
    return EqRelLattice(Partition(tuple(rep)) for rep in closed.tolist())


@lru_cache(maxsize=64)
def _dn_star_program(n):
    """The companion inequality dn* as a straight-line program on rep tuples.

    terms._visit compiles both sides into the sweep engine's postorder
    program, where a shared subterm is one node.  Here the 3n inputs are
    values 0..3n-1: x_i is value i, x_i' value n + i, and the pair join
    x_i + x_i' value 2n + i, which Ore's test has already computed, so
    it is read, not joined again.  Each other operation of the program,
    in its order, appends the value (op, left, right), op being
    _rep_join or _rep_meet.  Returns the steps and the values of the two
    sides; cached per n, like terms.generate_dn_star.
    """
    phi = terms.generate_dn_star(n)
    keys, program = {}, []
    lhs, _ = terms._visit(phi.lhs, keys, program)
    rhs, _ = terms._visit(phi.rhs, keys, program)
    value = {"x%d" % i: i for i in range(n)}
    value.update(("x%d'" % i, n + i) for i in range(n))
    steps, where = [], []
    for key in program:
        if key.__class__ is str:
            where.append(value[key])
            continue
        op, left, right = key
        left, right = where[left], where[right]
        if op == terms._JOIN and left < n and right == n + left:
            where.append(2 * n + left)  # the pair join x_i + x_i'
        else:
            where.append(3 * n + len(steps))
            steps.append((_rep_join if op == terms._JOIN else _rep_meet, left, right))
    return tuple(steps), where[lhs], where[rhs]


def _dn_star_reps(alphas, alphaps, joins):
    """The rep tuples of the two sides of dn* in Eq(A), its variables
    x_i and x_i' bound to alphas[i] and alphaps[i]; joins[i] is the rep
    tuple of alphas[i] v alphaps[i]."""
    steps, lhs, rhs = _dn_star_program(len(alphas))
    vals = [a.rep for a in alphas] + [a.rep for a in alphaps] + joins
    for op, left, right in steps:
        vals.append(op(vals[left], vals[right]))
    return vals[lhs], vals[rhs]


def verify_dn_permuting(alphas, alphaps):
    """Evaluate the n-th cyclic inequality on pairwise-permuting partitions.

    Each pair (alphas[i], alphaps[i]) must permute; a violation raises
    NotPermutingError rather than producing a verdict, and all 2n inputs
    must share one base size (SizeMismatchError).  The companion
    inequality dn* is evaluated directly in Eq(A), by join and meet on
    the rep tuples: a lattice term has the same value there as in every
    sublattice holding its inputs, so no sublattice is built, and no
    element cap applies however large the generated sublattice would be.
    dn* runs as a compiled straight-line program (_dn_star_program, one
    per n), each distinct subterm evaluated once.  Each pair is joined
    once: Ore's test (_ore_join) hands its join x_i v x_i' to the
    program as an input.  In Eq(A) with permuting pairs the inequality
    always holds, so a False here signals a bug.
    """
    n = len(alphas)
    if len(alphaps) != n:
        raise ValueError("need equally many primed and unprimed partitions")
    if n < 3:
        raise terms.InvalidNError("need n >= 3")
    joins = []
    for i, (a, b) in enumerate(zip(alphas, alphaps)):
        _check_sizes(a, b)
        join = _ore_join(a.rep, b.rep)
        if join is None:
            raise NotPermutingError(i)
        joins.append(join)
    for a in alphas:  # each alphaps[i] matches alphas[i] already
        _check_sizes(alphas[0], a)
    lo, hi = _dn_star_reps(alphas, alphaps, joins)
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
    for k in range(1, len(orders) + 1):  # r generators suffice in a product of r cyclic groups
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
