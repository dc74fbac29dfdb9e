"""Finite lattices stored as dense order/join/meet tables.

Elements are the integers 0..size-1.  The order matrix is computed once,
at construction, from a cover relation or an explicit order, and it is
all a builder supplies: join and meet tables are always derived from it
by one routine, a lookup of packed keys (_bound_table).  The key of an
element is its up-set for joins and its down-set for meets.  Up to 64
elements the whole set is one uint64 word.  Above that it is cut to the
meet-irreducibles (join-irreducibles, for meets), found from the order
alone, wherever that is narrower; in a finite lattice every element is
the meet of the meet-irreducibles above it (B. A. Davey and H. A.
Priestley, Introduction to Lattices and Order, 2nd ed., 2002, Ch. 2), so
the cut keys still name the elements, and a check that they embed the
order keeps the tables exact on any input (FiniteLattice).

Everything downstream is table-bound, so all checkers are simple scans
over these arrays.  The exhaustive scans over tuples of elements share
one mask scan that walks the first coordinate in the row ranges of
limits.chunks and reads the lexicographically first hit or every hit in
that order; a scan for the first hit asks for growing ranges, so an
early hit costs little.

All objects here are immutable after construction and safe to share.
Some things are derived from the order on first use and cached on the
lattice: the rank of each element (the length of a longest chain up to
it from the bottom), which height() and the modularity test read; the
join- and meet-irreducibles, unless the table derivation found them
already; and the Hasse diagram, read off the joins with the
join-irreducibles, which only covers() reads.  atoms() and coatoms() are
counted from the order directly.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .limits import BudgetExceededError, CongforgeError, NonConvergenceError, check_cap, chunks
from .limits import narrow_dtype


class LatticeError(CongforgeError):
    pass


class NotAPartialOrderError(LatticeError):
    """The cover relation closes into a cyclic (non-antisymmetric) relation."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__("not a partial order: elements %d and %d lie on a cycle" % pair)


class NotALatticeError(LatticeError):
    """Some pair of elements lacks a unique least upper / greatest lower bound."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind
        super().__init__(
            "not a lattice: pair (%d, %d) has no unique %s" % (pair[0], pair[1], kind)
        )


class NotComparableError(LatticeError):
    def __init__(self, lo, hi):
        self.pair = (lo, hi)
        super().__init__("interval endpoints %d and %d are not comparable" % (lo, hi))


def _keys(bits):
    """The rows of a boolean array packed into keys, row i the set
    {j : bits[i, j]}: one uint64 word per row when the packed bytes fit in
    8 (zero-padded), else the bytes."""
    packed = np.packbits(bits, axis=1)
    n, width = packed.shape
    if width > 8:
        return np.ascontiguousarray(packed)
    words = np.zeros((n, 8), dtype=np.uint8)
    words[:, :width] = packed
    return words.view(np.uint64)


def _is_transitive(leq):
    """a <= b must imply up(b) <= up(a), checked on each column of the packed up-sets."""
    up = _keys(leq)
    n, width = up.shape
    ok, _ = _scan(n, n * width, lambda a: leq[a, :, None] & (up & ~up[a, None, :] != 0), first=True)
    return ok


def _irreducibles(order):
    """The elements with exactly one upper cover in order, ascending: x
    such that some y > x has |up(y)| = |up(x)| - 1, for then up(y) is
    up(x) without x.  Exact for a partial order; on order = leq these are
    the meet-irreducibles, on leq.T the join-irreducibles."""
    n = len(order)
    size = order.sum(axis=1)
    found = np.empty(n, dtype=bool)
    for lo, hi in chunks(n, 2 * n):  # the size test and its AND with the rows
        found[lo:hi] = (order[lo:hi] & (size == size[lo:hi, None] - 1)).any(axis=1)
    found = np.flatnonzero(found)
    found.setflags(write=False)
    return found


def _embeds(order, keys):
    """Whether order[c, d] iff keys[d] is a subset of keys[c], for all c, d.
    The keys are compared a uint64 word at a time, one column of words
    per step."""
    n, width = keys.shape
    if keys.itemsize == 1:
        words = np.zeros((n, -(-width // 8) * 8), dtype=np.uint8)
        words[:, :width] = keys
        keys = words.view(np.uint64)
    columns = [np.ascontiguousarray(column) for column in keys.T]

    def outside(c):
        found = columns[0] & ~columns[0][c, None]
        for column in columns[1:]:
            found |= column & ~column[c, None]
        return (found != 0) == order[c]

    ok, _ = _scan(n, n * len(columns), outside, first=True)
    return ok


def _bound_table(keys, kind):
    """Least-bound table from one key per element (_keys).

    The keys must be distinct, the order must be c <= d iff key(d) is a
    subset of key(c), and the key of the least bound c of a and b must be
    key(a) & key(b).  The AND of each pair's keys is looked up among the
    sorted keys, and a miss means the pair has no such c.  One-word keys
    are compared as integers, wider ones as raw bytes.  The table is
    symmetric, so each chunk of rows is computed from the diagonal on and
    written to both triangles; the first miss is then the
    lexicographically first offending pair.
    """
    n, width = keys.shape
    if width == 1:
        packed = keys = keys[:, 0]
    else:
        packed, keys = keys, keys.view(np.dtype((np.void, width)))[:, 0]
    order = np.argsort(keys)
    keys = keys[order]
    table = np.empty((n, n), dtype=np.int64)
    for lo, hi in chunks(n, n * (2 * keys.itemsize + 24)):
        common = packed[lo:hi, None] & packed[None, lo:]
        if width > 1:
            common = common.view(keys.dtype)[..., 0]
        pos = np.searchsorted(keys, common)
        missing = keys.take(pos, mode="clip") != common
        if missing.any():
            a, b = np.argwhere(missing)[0].tolist()
            raise NotALatticeError((a + lo, b + lo), kind)
        cand = order[pos]
        table[lo:hi, lo:] = cand
        table[lo:, lo:hi] = cand.T
    return table


# Up to this many elements a whole up-set is one word, and no irreducibles
# are computed.
_ONE_WORD = 64


def _least_bounds(order, kind):
    """The least-upper-bound table of order (leq for joins, leq.T for
    meets), and its irreducibles if they were computed, else None.

    Up to _ONE_WORD elements the keys are the up-sets, one word each.
    Above that they are the up-sets cut to the irreducibles M of order,
    phi(c) = up(c) & M, wherever that takes fewer bytes and order embeds
    by phi; otherwise the full-width up-sets.  Both give the same table
    or the same first offending pair (see FiniteLattice).
    """
    n = len(order)
    if n <= _ONE_WORD:
        return _bound_table(_keys(order), kind), None
    irreducible = _irreducibles(order)
    cut = _keys(order[:, irreducible])
    if cut.shape[1] * cut.itemsize < -(-n // 8) and _embeds(order, cut):
        return _bound_table(cut, kind), irreducible
    return _bound_table(_keys(order), kind), irreducible


class FiniteLattice:
    """A finite lattice on elements 0..size-1 with full operation tables.

    The join table comes from an order leq that is checked to be
    reflexive and antisymmetric, by _least_bounds(leq); the meet table is
    the same on leq.T.  Why each table is exact, or an error names the
    lexicographically first offending pair:

    - Full-width keys, up(c) = {d : c <= d}.  If up(c) = up(a) & up(b)
      then c is the least upper bound of a and b: c lies above both, and
      any d above both is in up(c).  Conversely a least upper bound has
      that up-set if the order is transitive.  So a miss means a pair
      without one, or no transitivity; and a complete table implies
      transitivity, since for a <= b the c found has b in up(c) and c in
      up(b), so c = b and up(b) = up(a) & up(b) lies in up(a).  After a
      miss, _is_transitive tells the two apart.
    - Cut keys, phi(c) = up(c) & M for a set M, used above 64 elements
      where they are narrower, once phi is checked to order-embed:
      c <= d iff phi(d) is a subset of phi(c), for all pairs.  Then, with
      M any set at all, the order is transitive (so is inclusion) and
      phi is injective (antisymmetry).  If phi(c) = phi(a) & phi(b) then
      c is a v b: phi(c) is inside phi(a) and phi(b), so c lies above
      both, and any d above both has phi(d) inside phi(a) & phi(b) =
      phi(c), so c <= d.  Conversely, if a v b exists, each m in
      phi(a) & phi(b) lies above a and b, so above a v b, and
      phi(a) & phi(b) = phi(a v b).  So the cut lookup hits exactly
      where the full-width one does, with the same element, and its
      first miss is the same pair.  A finite lattice passes the check
      with M its meet-irreducibles: each element is the meet of those
      above it (Davey and Priestley, Ch. 2), so phi(d) inside phi(c)
      gives c <= meet of phi(d) = d.  An order that fails it runs the
      full-width lookup.

    M is found from the order (_irreducibles): x has exactly one upper
    cover y iff some y > x has |up(y)| = |up(x)| - 1, for then up(y) is
    up(x) without x and every z > x lies above y.
    """

    def __init__(self, leq, labels=None):
        leq = np.ascontiguousarray(np.asarray(leq, dtype=bool))
        n = leq.shape[0]
        if leq.shape != (n, n) or n == 0:
            raise ValueError("order matrix must be square and nonempty")
        if not leq.diagonal().all():
            raise ValueError("order matrix is not reflexive")
        both = leq & leq.T
        if np.count_nonzero(both) != n:
            cyclic = np.argwhere(both & ~np.eye(n, dtype=bool))
            raise NotAPartialOrderError(tuple(cyclic[0].tolist()))
        # A complete join table implies transitivity (see above), so a
        # non-transitive order always ends in a miss and is reported here.
        try:
            join, meet_irreducibles = _least_bounds(leq, "least upper bound")
        except NotALatticeError:
            if not _is_transitive(leq):
                raise ValueError("order matrix is not transitive") from None
            raise
        meet, join_irreducibles = _least_bounds(np.ascontiguousarray(leq.T),
                                                "greatest lower bound")

        self.size = n
        self.leq = leq
        self.join = join
        self.meet = meet
        # irreducibles a cut lookup found are the cached properties' values
        for name, found in (("meet_irreducibles", meet_irreducibles),
                            ("join_irreducibles", join_irreducibles)):
            if found is not None:
                vars(self)[name] = found
        self.bottom = int(leq.all(axis=1).argmax())
        self.top = int(leq.all(axis=0).argmax())
        self._labels = labels if labels is None or callable(labels) else self._counted(labels)
        for arr in (self.leq, self.join, self.meet):
            arr.setflags(write=False)

    def _counted(self, labels):
        labels = list(labels)
        if len(labels) != self.size:
            raise ValueError("label count does not match size")
        return labels

    @property
    def labels(self):
        """The element labels, or None.  labels= may be given as a list or
        as a function of no arguments that returns one; the function is
        called on the first read."""
        if callable(self._labels):
            self._labels = self._counted(self._labels())
        return self._labels

    # -- basic queries ----------------------------------------------------

    def le(self, a, b):
        return bool(self.leq[a, b])

    def label(self, a):
        return self.labels[a] if self.labels else str(a)

    @cached_property
    def _rank(self):
        """The length of a longest chain from the bottom to each element,
        in narrow_dtype(2 * size) so that two ranks add without overflow.

        One pass over the linear extension by down-set size: each element
        ranks one above the highest element strictly below it, read from
        its row of leq.T.  Elements with down-sets of equal size are
        incomparable, so each run of them is ranked at once, in the ranges
        of limits.chunks.  While the pass runs, rank holds rank + 1, and 0
        for the elements not yet reached, the element itself among them.
        """
        n = self.size
        below = np.ascontiguousarray(self.leq.T)
        down = below.sum(axis=1)
        order = np.argsort(down, kind="stable")
        rank = np.zeros(n, dtype=narrow_dtype(2 * n))
        for run in np.split(order, np.flatnonzero(np.diff(down[order])) + 1):
            for lo, hi in chunks(len(run), (1 + rank.itemsize) * n):  # leq.T rows, products
                rows = run[lo:hi]
                rank[rows] = (below[rows] * rank).max(axis=1) + 1
        rank -= 1
        rank.setflags(write=False)
        return rank

    @cached_property
    def meet_irreducibles(self):
        """The elements with exactly one upper cover, ascending (a
        read-only int64 array)."""
        return _irreducibles(self.leq)

    @cached_property
    def join_irreducibles(self):
        """The elements with exactly one lower cover, ascending (a
        read-only int64 array)."""
        return _irreducibles(self.leq.T)

    @cached_property
    def _hasse(self):
        """The cover pairs (lower, upper) in ascending order, on first use.

        The upper covers of x are the minimal elements of
        S = {x v j : j in J, j not <= x}, J the join-irreducibles.  An
        upper cover c of x is the join of the join-irreducibles below it,
        one of which, j, is not below x, so x < x v j <= c gives
        c = x v j in S.  Every element of S lies strictly above x, so
        above some upper cover of x, which is in S; so the minimal
        elements of S are exactly the covers.  n |J|^2 order lookups, in
        the row ranges of limits.chunks.
        """
        n, irreducible = self.size, self.join_irreducibles
        k = len(irreducible)
        covered = np.zeros((n, n), dtype=bool)
        for lo, hi in chunks(n, k * k * 11 + 1):  # the pairwise gather, its tests and indices
            joins = self.join[lo:hi, irreducible]
            fresh = ~self.leq[irreducible, lo:hi].T
            lower, upper = joins[:, :, None], joins[:, None, :]
            below = self.leq[lower, upper] & (lower != upper) & fresh[:, :, None]
            x, col = np.nonzero(fresh & ~below.any(axis=1))
            covered[x + lo, joins[x, col]] = True
        lo, hi = np.nonzero(covered)  # row-major, so ascending
        return tuple(zip(lo.tolist(), hi.tolist()))

    @cached_property
    def narrow_tables(self):
        """The join and meet tables, flat, in limits.narrow_dtype(size):
        the gather tables of the term sweep, built on first use."""
        narrow = narrow_dtype(self.size)
        tables = self.join.ravel().astype(narrow), self.meet.ravel().astype(narrow)
        for table in tables:
            table.setflags(write=False)
        return tables

    def covers(self):
        """Hasse diagram as a sorted list of (lower, upper) pairs."""
        return list(self._hasse)

    def atoms(self):
        """The elements with exactly two elements below them, ascending."""
        return np.flatnonzero(self.leq.sum(axis=0) == 2).tolist()

    def coatoms(self):
        """The elements with exactly two elements above them, ascending."""
        return np.flatnonzero(self.leq.sum(axis=1) == 2).tolist()

    def height(self):
        """Length of a longest chain (number of covers bottom to top)."""
        return int(self._rank[self.top])

    def is_complemented(self):
        """True iff every element has a complement."""
        return bool(((self.meet == self.bottom) & (self.join == self.top)).any(axis=1).all())

    def __repr__(self):
        return "FiniteLattice(size=%d)" % self.size

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLattice)
            and self.size == other.size
            and np.array_equal(self.leq, other.leq)
        )

    def __hash__(self):
        return hash((self.size, self.leq.tobytes()))


def from_cover_relation(size, covers, labels=None):
    """Build a FiniteLattice from Hasse-diagram edges (lower, upper).

    The reflexive-transitive closure of the edges is computed and
    validated; redundant (non-cover) edges are tolerated since the order
    is always recomputed.  Raises NotAPartialOrderError on a cycle and
    NotALatticeError when some pair lacks a unique bound, reporting the
    lexicographically first offending pair.
    """
    check_cap(size, "lattice")
    adj = np.eye(size, dtype=bool)
    for lo, hi in covers:
        if not (0 <= lo < size and 0 <= hi < size):
            raise ValueError("cover pair (%r, %r) out of range" % (lo, hi))
        adj[lo, hi] = True
    # reflexive-transitive closure by repeated boolean squaring
    reach = adj
    while True:
        nxt = reach @ reach
        if np.array_equal(nxt, reach):
            break
        reach = nxt
    return FiniteLattice(reach, labels=labels)


# -- structural predicates ------------------------------------------------


def _scan(n, row_cells, mask, first, settle=None):
    """Read a boolean mask over tuples whose first coordinate runs over 0..n-1.

    mask(rows) gives the mask of the tuples whose first coordinate lies in
    the slice rows, row_cells cells per row over any number of trailing
    axes.  The rows are walked in the ranges of limits.chunks, which fit
    the byte budget with two int64 temporaries and two boolean ones per
    cell.  With first, returns (True, None) or (False, the
    lexicographically first hit), asking for growing ranges and stopping
    at the first with a hit; when the first range holds none and rows
    remain, settle() is called if given, and a true answer ends the scan
    with (True, None).  Otherwise every hit, in lexicographic order, as
    the rows of an int64 array.
    """
    hits = []
    for lo, hi in chunks(n, 18 * row_cells, cells=row_cells if first else None):
        chunk = mask(slice(lo, hi))
        if not first:
            found = np.argwhere(chunk)
            found[:, 0] += lo
            hits.append(found)
            continue
        # argmax stops at the first True; np.nonzero would list them all
        flat = int(chunk.argmax())
        if chunk.flat[flat]:
            hit = np.unravel_index(flat, chunk.shape)
            return False, (lo + int(hit[0]),) + tuple(int(i) for i in hit[1:])
        if lo == 0 and hi < n and settle is not None and settle():
            break
    return (True, None) if first else np.concatenate(hits)


def _rank_is_a_valuation(lat):
    """Whether r(x) + r(y) = r(x v y) + r(x ^ y) for all x, y, r the rank."""
    r, J, M = lat._rank, lat.join, lat.meet
    ok, _ = _scan(lat.size, lat.size, lambda x: r[J[x]] + r[M[x]] != r[x, None] + r, first=True)
    return ok


def is_modular(lat):
    """Modularity check: a <= c implies a v (b ^ c) = (a v b) ^ c.

    Returns (True, None) or (False, (a, b, c)) with the lexicographically
    first witnessing triple.  The n^3 scan reads its first chunk of rows;
    if that holds no witness and rows remain, an n^2 test settles the
    modular case.  A lattice of finite length is modular iff its rank
    (height) function r is a valuation, r(x) + r(y) = r(x v y) + r(x ^ y)
    (G. Birkhoff, Lattice Theory, 3rd ed., 1967, Ch. II): for a <= c,
    a v (b ^ c) <= (a v b) ^ c always, the valuation gives both sides the
    same rank, and r is strictly monotone.  When the test fails the
    lattice is not modular and the n^3 scan goes on from its second
    chunk, so the witness is still the lexicographically first triple.
    Lattices whose whole scan fits the first chunk never compute a rank.
    """
    J, M, leq, n = lat.join, lat.meet, lat.leq, lat.size
    # the values are gathered from the narrow tables, the indices read
    # from the int64 ones: Jn[a][:, M][a, b, c] = a v (b ^ c) and
    # Mn[J[a]][a, b, c] = (a v b) ^ c
    Jn, Mn = (table.reshape(n, n) for table in lat.narrow_tables)
    return _scan(n, n * n, lambda a: leq[a, None, :] & (Jn[a][:, M] != Mn[J[a]]), first=True,
                 settle=lambda: _rank_is_a_valuation(lat))


def check_semidistributivity(lat, side):
    """SD-meet / SD-join quasi-identity check.

    meet side: x^y = x^z  ->  x^y = x^(y v z); join side is the dual.
    Returns (True, None) or (False, (x, y, z)), the lexicographically
    first violation.
    """
    n = lat.size
    # the values are gathered from the narrow tables, the indices read
    # from the int64 ones, as in is_modular
    join, meet = (table.reshape(n, n) for table in lat.narrow_tables)
    if side == "meet":
        M, J = meet, lat.join
    elif side == "join":
        M, J = join, lat.meet
    else:
        raise ValueError("side must be 'meet' or 'join'")

    def violated(x):
        xy = M[x][:, :, None]  # x.y
        xz = M[x][:, None, :]  # x.z
        return (xy == xz) & (xy != M[x][:, J])  # M[x][:, J] is x.(y+z)

    return _scan(n, n * n, violated, first=True)


def sublattice_closure(lat, seed):
    """Least subset containing seed and closed under join and meet."""
    seed = sorted(set(int(s) for s in seed))
    if not seed:
        raise ValueError("seed must be nonempty")
    if seed[0] < 0 or seed[-1] >= lat.size:
        raise ValueError("seed element out of range")
    closed = np.zeros(lat.size, dtype=bool)
    closed[seed] = True
    while True:
        idx = np.flatnonzero(closed)
        for lo, hi in chunks(len(idx), 8 * len(idx)):  # one table's gathered rows
            for table in (lat.join, lat.meet):
                closed[table[np.ix_(idx[lo:hi], idx)]] = True
        if np.count_nonzero(closed) == len(idx):
            return frozenset(idx.tolist())


def interval(lat, lo, hi):
    """The interval sublattice {x : lo <= x <= hi} plus its element map.

    Returns (sub, elements) where elements[i] is the index in lat of the
    i-th element of sub; the whole lattice is lat itself.
    """
    if not lat.le(lo, hi):
        raise NotComparableError(lo, hi)
    if (lo, hi) == (lat.bottom, lat.top):
        return lat, list(range(lat.size))
    idx = np.flatnonzero(lat.leq[lo] & lat.leq[:, hi])
    elems = idx.tolist()
    sub_leq = lat.leq[np.ix_(idx, idx)]
    labels = None if lat._labels is None else (lambda: [lat.label(x) for x in elems])
    return FiniteLattice(sub_leq, labels=labels), elems


def direct_product(lat1, lat2, labels=True):
    """Componentwise product lattice; element (i, j) gets index i*size2 + j."""
    n1, n2 = lat1.size, lat2.size
    check_cap(n1 * n2, "direct product")
    leq = np.kron(lat1.leq, lat2.leq)
    lab = None
    if labels:
        def lab():
            return ["(%s,%s)" % (lat1.label(i), lat2.label(j))
                    for i in range(n1) for j in range(n2)]
    return FiniteLattice(leq, labels=lab)


# -- homomorphisms and sublattice search ------------------------------------


class LatticeHom:
    """A join- and meet-preserving map between finite lattices."""

    def __init__(self, source, target, mapping):
        self.source = source
        self.target = target
        self.map = tuple(int(m) for m in mapping)
        if len(self.map) != source.size:
            raise ValueError("map length does not match source size")
        arr = np.asarray(self.map)
        if arr.min() < 0 or arr.max() >= target.size:
            raise ValueError("map image out of range")
        if not np.array_equal(arr[source.join], target.join[arr[:, None], arr[None, :]]):
            raise ValueError("map does not preserve joins")
        if not np.array_equal(arr[source.meet], target.meet[arr[:, None], arr[None, :]]):
            raise ValueError("map does not preserve meets")
        self.surjective = len(set(self.map)) == target.size

    def __call__(self, a):
        return self.map[a]

    def is_injective(self):
        return len(set(self.map)) == self.source.size

    def __repr__(self):
        return "LatticeHom(%d -> %d)" % (self.source.size, self.target.size)


def find_sublattice(lat, pattern, cover_preserving=False, budget=None):
    """Search for an injective join/meet-preserving copy of pattern in lat.

    Backtracking over order-compatible injections; candidates are pruned
    by (down-set size, up-set size) degree vectors and by join/meet
    values forced by already-placed elements.  Branching is lexicographic,
    so the returned embedding is deterministic; None is a proof of
    absence at this size.  With a budget, BudgetExceededError may fire
    before the search is decisive.
    """
    p, n = pattern.size, lat.size
    if p > n:
        return None
    p_down, p_up = pattern.leq.sum(axis=0), pattern.leq.sum(axis=1)
    l_down, l_up = lat.leq.sum(axis=0), lat.leq.sum(axis=1)
    candidates = [np.flatnonzero((l_down >= p_down[x]) & (l_up >= p_up[x])).tolist()
                  for x in range(p)]
    # placement order: bottom, top, then most-constrained first (largest
    # degree vector), ties broken by index for determinism
    order = sorted(range(p), key=lambda x: (x != pattern.bottom, x != pattern.top,
                                            -int(p_down[x] + p_up[x]), x))
    pos = {x: k for k, x in enumerate(order)}

    # forcing[k]: the pairs of elements placed before order[k] whose join
    # or meet is order[k], each with the table of lat that gives the
    # forced image; covering[k]: the covers of pattern whose later-placed
    # end is order[k]
    p_leq = pattern.leq.tolist()
    tables = ((pattern.join.tolist(), lat.join), (pattern.meet.tolist(), lat.meet))
    forcing = [[] for _ in order]
    for ptable, table in tables:
        for q, r in itertools.combinations(range(p), 2):
            z = ptable[q][r]
            if pos[z] > max(pos[q], pos[r]):
                forcing[pos[z]].append((table, q, r))
    covering, l_covers = [[] for _ in order], set()
    if cover_preserving:
        l_covers = set(lat.covers())
        for a, b in pattern.covers():
            covering[max(pos[a], pos[b])].append((a, b))

    mapping, used, nodes = {}, set(), 0

    def consistent(k, x, y):
        # x is in mapping already, so a join or meet that is x, q or a
        # placed element is checked by the same lookup; bool() because a
        # Python bool compared with a numpy bool takes numpy's slow path
        for q in order[:k]:
            im = mapping[q]
            if p_leq[x][q] != bool(lat.leq[y, im]) or p_leq[q][x] != bool(lat.leq[im, y]):
                return False
            for ptable, table in tables:
                z = mapping.get(ptable[x][q])
                if z is not None and z != table[y, im]:
                    return False
        return all((mapping[a], mapping[b]) in l_covers for a, b in covering[k])

    def extend(k):
        nonlocal nodes
        if k == p:
            return True
        x = order[k]
        forced = {int(table[mapping[q], mapping[r]]) for table, q, r in forcing[k]}
        if len(forced) > 1:
            return False
        for y in forced or candidates[x]:
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceededError("sublattice search exceeded %d nodes" % budget)
            mapping[x] = y
            if y not in used and consistent(k, x, y):
                used.add(y)
                if extend(k + 1):
                    return True
                used.discard(y)
        mapping.pop(x, None)
        return False

    if extend(0):
        return LatticeHom(pattern, lat, [mapping[x] for x in range(p)])
    return None


def m3_configurations(lat):
    """All (o, x, y, z, i) with {o, x, y, z, i} a diamond sublattice.

    x, y, z are scanned with x < y < z, so each M3 sublattice is reported
    once; o and i are its pairwise meet and join.
    """
    J, M, n = lat.join, lat.meet, lat.size
    ascending = np.arange(n)[:, None] < np.arange(n)
    bounds = (M * n + J).astype(narrow_dtype(n * n))  # the pair (meet, join) as one key

    # three distinct elements with one pairwise meet o and join i are a
    # diamond's atoms: o or i equal to an atom would make two atoms equal
    def diamond(x):
        xy = bounds[x][:, :, None]
        return ascending[x][:, :, None] & ascending & (bounds[x][:, None, :] == xy) & (bounds == xy)

    xyz = _scan(n, n * n, diamond, first=False)
    o, i = M[xyz[:, 0], xyz[:, 1]], J[xyz[:, 0], xyz[:, 1]]
    return [tuple(t) for t in np.column_stack([o, xyz, i]).tolist()]


def beta_gamma_iteration(lat, alpha, beta, gamma):
    """Iterate b_{k+1} = b ^ (a v c_k), c_{k+1} = c ^ (a v b_k) to a fixpoint.

    Both sequences descend, and each step short of the fixpoint moves one
    of them down a chain of the lattice, so they stabilise within
    2 * (size - 1) steps; past that NonConvergenceError is raised.
    Returns (m, beta_m, gamma_m) for the first index m with
    beta_m = beta_{m+1} and gamma_m = gamma_{m+1}.
    """
    J, M = lat.join, lat.meet
    b, c = beta, gamma
    for m in range(2 * lat.size - 1):
        nb = int(M[beta, J[alpha, c]])
        nc = int(M[gamma, J[alpha, b]])
        if nb == b and nc == c:
            return m, b, c
        b, c = nb, nc
    raise NonConvergenceError("beta/gamma iteration past %d steps" % (2 * lat.size - 2))
