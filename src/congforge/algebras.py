"""Finite algebras, congruence lattices, and the term-condition commutator.

An algebra is a universe 0..size-1 with named finitary operation tables.
Each table is held once, as the algebra's read-only int64 array of shape
(size,)*arity: FiniteAlgebra copies whatever array-like an Operation
brings (nested tuples included) and builds its own operations around
the copies, so alg.operations[i].table is alg.by_name[name].
Congruences are Partitions compatible with every operation.  They are
generated in batches: a (k, n) array of canonical reps is closed under
the algebra's unary translations, cached as one (n, C) table, by a
fixpoint that joins into each row the pairs (t(a), t(rep[a])) it does
not yet relate (partitions._join_edges), in the row ranges of
limits.chunks.  Con(A) is the join-closure of bottom and the
principal congruences, which are generated as one batch: the semi-naive
closure of partitions._close_rows joins each new row with the
principals only, its size meets the CONGFORGE_CAP check after every
chunk of a round, and every row of the result is then checked for
compatibility in one vectorised pass.
Centrality C(a, b; d) and the commutator [a, b] of congruences a and b
are read off the closure M(a, b) of the 2x2 matrices under the basic
operations, unless the order settles them first.  For a congruence d,
C(a, b; d) holds when b <= d, since the bottom row of a matrix is then
d-related, and when a <= d, since a d-related top row then gives
t(b,u) d t(a,u) d t(a,v) d t(b,v).  Meets keep the term condition, so
[a, b] <= a ^ b, and it is the bottom when a ^ b is.  A bound is used
only once the partitions it needs are checked to be congruences, so
other partitions get the closure's answer, which reads a partition that
is not a congruence as a relation, through the subalgebras of A^2 it
spans.  Otherwise M is read as a bitmap: the matrices violating
C(a, b; d) are M & (top row in d) & (bottom row not in d), one n^4 bool
pass with d's relation broadcast onto each row, centrality asks whether
any is left, and the commutator is the ascending fixpoint that joins
their bottom rows into d.

M is held as a bool array of shape (n, n, n, n), true at
[m00, m01, m10, m11] exactly for the members; both routes build it in
place and return it.  The rounds work on integer keys: a matrix is the
key hi*n^2 + lo with hi = m00*n + m01 and lo = m10*n + m11, its flat
index in M, so one key is a pair of pair codes, held in the narrowest
unsigned dtype that holds n^4 - 1.  For each k-ary operation f the
algebra caches a pair table of shape (n^2,)*k,
T[(x0,y0),...] = f(x0,...)*n + f(y0,...), which applies f to both top
entries (or both bottom entries) at once: the image of k matrices is
T[their his]*n^2 + T[their los].  A box of argument tuples is gathered
rows first: the leading k-1 arguments pick whole rows of the table and
one take picks the last argument's columns from them.  Rounds are
semi-naive, so every argument tuple with a new matrix in it is
evaluated once; an associative binary operation is applied only to
pairs of a matrix and one of its generators.  Duplicates are removed by
the bitmap M itself, not by sorting.  The same rounds (_close) run in
A^2, on pairs of points and the operation tables themselves, for
algebras with a majority basic operation: by the Baker-Pixley theorem M
is then the set of 4-tuples whose six pairs of coordinates lie in the
subalgebras of A^2 spanned by the projected seeds, b, a and Sg(a u b)
on the diagonals, so M is the AND of six broadcast n x n relations (a
congruence among them is used as it is, not closed) and no n^(2k) pair
table is built.  The byte bound counts M, a violation pass's bool
temporary and each route's own state.  The tables, which of them are
associative or majority operations and the translation table are
derived lazily on first use and cached on the algebra; no closure or
congruence is cached across calls.

The power construction holds its universe, the alpha-constant n-tuples
in lexicographic order, as one (m, n) array.  A k-ary table is one
gather over the (m,)*k grid of argument rows, coordinates last, in row
ranges of limits.chunks; image tuples are found among the rows by an
integer key that grows with the lexicographic order (searchsorted).
alpha_bar and the kernels eta_i are fibres, read off by
partitions._first_reps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from .lattice import FiniteLattice, interval, is_modular
from .limits import CongforgeError, NonConvergenceError, SizeLimitError, narrow_dtype
from .partitions import (
    EqRelLattice,
    Partition,
    SizeMismatchError,
    _close_rows,
    _first_reps,
    _fresh_rows,
    _join_edges,
    _join_reps,
    p_join,
    p_leq,
    p_meet,
)

class ArityError(CongforgeError):
    pass


class UnknownOperationError(CongforgeError):
    def __init__(self, name):
        self.name = name
        super().__init__("the algebra has no operation named %r" % name)


class PreconditionFailedError(CongforgeError):
    pass


@dataclass(frozen=True, eq=False)
class Operation:
    name: str
    arity: int
    table: np.ndarray  # shape (size,)*arity; in a FiniteAlgebra its read-only int64 array


class FiniteAlgebra:
    def __init__(self, size, operations):
        if size < 1:
            raise ValueError("an algebra needs size >= 1, got %r" % (size,))
        self.size = size
        self.by_name = {}
        for op in operations:
            if op.name in self.by_name:
                raise ValueError("operation names must be unique")
            arr = np.array(op.table, dtype=np.int64).reshape((size,) * op.arity)
            if arr.size and (arr.min() < 0 or arr.max() >= size):
                raise ValueError("operation %s has out-of-range entries" % op.name)
            arr.setflags(write=False)
            self.by_name[op.name] = arr
        self.operations = tuple(Operation(name, arr.ndim, arr)
                                for name, arr in self.by_name.items())

    @cached_property
    def _moves(self):
        """Every unary translation by a basic operation, one per column of
        an (n, C) table: each operation with one argument slot moved
        first, flattened over the other slots.  These generate congruence
        closure; C is 0 when every operation is nullary."""
        cols = [np.moveaxis(arr, pos, 0).reshape(self.size, -1)
                for arr in self.by_name.values() for pos in range(arr.ndim)]
        moves = np.concatenate(cols, axis=1) if cols else np.empty((self.size, 0))
        moves = moves.astype(np.intp)
        moves.setflags(write=False)
        return moves

    @cached_property
    def _pair_tables(self):
        """For each operation f of arity k >= 1, f applied to k pairs at
        once: T[x0*n+y0, ..., x(k-1)*n+y(k-1)] = f(x0,...)*n + f(y0,...),
        of shape (n^2,)*k in the narrowest unsigned dtype."""
        n = self.size
        dtype = narrow_dtype(n * n)
        out = []
        for arr in self.by_name.values():
            k = arr.ndim
            if k == 0:
                continue
            first = arr.astype(dtype).reshape((n, 1) * k) * dtype.type(n)
            table = (first + arr.astype(dtype).reshape((1, n) * k)).reshape((n * n,) * k)
            table.setflags(write=False)
            out.append(table)
        return tuple(out)

    @cached_property
    def _majority(self):
        """For each operation of positive arity, whether it is a majority
        operation: ternary, with m(x,x,y) = m(x,y,x) = m(y,x,x) = x for
        all x and y (3 n^2 entries each)."""
        x, y = np.indices((self.size, self.size))
        return tuple(arr.ndim == 3 and bool(((arr[x, x, y] == x) & (arr[x, y, x] == x)
                                             & (arr[y, x, x] == x)).all())
                     for arr in self.by_name.values() if arr.ndim)

    @cached_property
    def _associative(self):
        """For each pair table, whether its operation is binary and
        associative: (x*y)*z = x*(y*z) on all triples, read as
        arr[arr] = arr[:, arr] (n^3 entries each; the matrix closure asks
        only after its byte bound has admitted the algebra)."""
        return tuple(arr.ndim == 2 and np.array_equal(arr[arr], arr[:, arr])
                     for arr in self.by_name.values() if arr.ndim)

    def __repr__(self):
        return "FiniteAlgebra(size=%d, ops=%s)" % (
            self.size,
            [op.name for op in self.operations],
        )


def make_operation(name, arity, flat_table, size):
    """Build an Operation from a flat row-major table."""
    arr = np.array(flat_table, dtype=np.int64)
    if arr.size != size**arity:
        raise ValueError(
            "operation %s: expected %d entries, got %d" % (name, size**arity, arr.size)
        )
    return Operation(name, arity, arr.reshape((size,) * arity))


# -- algebra-side terms -------------------------------------------------------


@dataclass(frozen=True)
class TVar:
    name: str


@dataclass(frozen=True)
class TOp:
    name: str
    args: tuple


TermExpr = TVar | TOp


def eval_term_expr(algebra, expr, env):
    """Evaluate a term expression; env maps variable names to elements
    (or to equal-length numpy arrays for a vectorised sweep)."""
    if isinstance(expr, TVar):
        return env[expr.name]
    args = [eval_term_expr(algebra, a, env) for a in expr.args]
    arr = algebra.by_name.get(expr.name)
    if arr is None:
        raise UnknownOperationError(expr.name)
    if arr.ndim != len(args):
        raise ArityError(
            "operation %s has arity %d, got %d arguments"
            % (expr.name, arr.ndim, len(args))
        )
    if not args:
        return int(arr)
    return arr[tuple(args)]


def term_expr_variables(expr):
    if isinstance(expr, TVar):
        return {expr.name}
    out = set()
    for a in expr.args:
        out |= term_expr_variables(a)
    return out


def parse_term_expr(text):
    """Prefix notation: IDENT or IDENT(arg, ...); bare idents are variables."""
    text = text.strip()
    pos = 0

    def skip():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def ident():
        nonlocal pos
        start = pos
        while pos < len(text) and (text[pos].isalnum() or text[pos] in "_'"):
            pos += 1
        if start == pos:
            raise ValueError("expected identifier at position %d in %r" % (pos, text))
        return text[start:pos]

    def expr():
        nonlocal pos
        skip()
        name = ident()
        skip()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            skip()
            args = []
            if pos < len(text) and text[pos] == ")":
                pos += 1
                return TOp(name, ())
            while True:
                args.append(expr())
                skip()
                if pos < len(text) and text[pos] == ",":
                    pos += 1
                    continue
                if pos < len(text) and text[pos] == ")":
                    pos += 1
                    return TOp(name, tuple(args))
                raise ValueError(
                    "expected ',' or ')' at position %d in %r" % (pos, text)
                )
        return TVar(name)

    out = expr()
    skip()
    if pos != len(text):
        raise ValueError("trailing input at position %d in %r" % (pos, text))
    return out


# -- congruences --------------------------------------------------------------


# Bytes per (row, point, translation) cell of congruence generation: the
# flat positions of both images and the gather behind one (8 each), the
# reps found there (up to 8 each) and their comparison.
_GEN_BYTES = 41


def _images(reps, moves):
    """For every row of reps, point a and translation t (a column of
    moves): the flat positions row * n + t(a) and row * n + t(rep[a]),
    and whether the row relates them (False) or not (True)."""
    k, n = reps.shape
    base = np.arange(0, k * n, n)[:, None, None]
    at_point = base + moves
    at_rep = base + moves[reps]
    flat = reps.ravel()
    return at_point, at_rep, flat[at_point] != flat[at_rep]


def _compatible(algebra, reps):
    """True iff every row of reps, a canonical partition of the universe,
    is compatible with every basic operation.

    A partition is compatible iff each unary translation t keeps every
    point related to its representative: rep[t(a)] == rep[t(rep[a])] for
    all a.  All rows are checked at once, in the row ranges of
    limits.chunks.
    """
    moves = algebra._moves
    return not any(_images(reps[lo:hi], moves)[2].any()
                   for lo, hi in limits.chunks(len(reps), _GEN_BYTES * moves.size))


def _generate(algebra, reps):
    """The least congruence above each row of reps, a (k, n) array of
    canonical partitions.

    A fixpoint per row range of limits.chunks: while some row fails
    the compatibility test of _compatible, the pairs (t(a), t(rep[a])) it
    does not relate are joined into it by partitions._join_edges.  Each
    round merges blocks, so at most n - 1 rounds change a row.
    """
    moves = algebra._moves
    out = np.array(reps)
    for lo, hi in limits.chunks(len(out), _GEN_BYTES * moves.size):
        chunk = out[lo:hi]
        while True:
            at_point, at_rep, apart = _images(chunk, moves)
            if not apart.any():
                break
            chunk = _join_edges(chunk, at_point[apart], at_rep[apart])
        out[lo:hi] = chunk
    return out


def is_congruence(algebra, part):
    """Full-scan compatibility check of a partition with every operation."""
    if part.base_size != algebra.size:
        return False
    return _compatible(algebra, np.array(part.rep, dtype=np.intp).reshape(1, -1))


def congruence_from_pairs(algebra, pairs, start=None):
    """Least congruence containing the pairs (and the start partition).

    pairs is an (m, 2) array of points of the universe, or anything
    np.asarray turns into one.  The pairs are joined into the start (or
    the bottom) and the result is closed under the unary translations by
    _generate.  Points outside 0..size-1 raise ValueError, a start on
    another base set SizeMismatchError.
    """
    n = algebra.size
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        pairs = np.empty((0, 2), dtype=np.intp)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
        raise ValueError("pairs must be an (m, 2) array of integer points")
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("pair points must lie in 0..%d" % (n - 1))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    if start is None:
        if not pairs.size:
            return Partition.singletons(n)  # the bottom is a congruence
        reps = np.arange(n)
    elif start.base_size != n:
        raise SizeMismatchError(
            "start partition has base size %d, the algebra %d" % (start.base_size, n)
        )
    else:
        reps = np.array(start.rep, dtype=np.intp)
    reps = _join_edges(reps.reshape(1, n), pairs[:, 0], pairs[:, 1])
    return Partition(tuple(_generate(algebra, reps)[0].tolist()))


def principal_congruence(algebra, a, b):
    """Cg(a, b): least congruence relating a and b."""
    return congruence_from_pairs(algebra, [(a, b)])


class ConLattice:
    """The congruence lattice of a finite algebra, as the EqRelLattice of
    its congruences."""

    def __init__(self, algebra, eq):
        self.algebra = algebra
        self.congruences = eq.partitions
        self.index = eq.index
        self.lattice = eq.lattice
        self.bottom = self.index[Partition.singletons(algebra.size)]
        self.top = self.index[Partition.one_block(algebra.size)]

    def __len__(self):
        return len(self.congruences)


def con_lattice(algebra, cap=limits.DEFAULT_ALGEBRA_CAP):
    """All congruences: the join-closure of bottom and the principal
    congruences.

    Every congruence is the join of the principal congruences below it,
    and the join of two congruences in Eq(A) is a congruence, so Con(A)
    is reached by joining each new row with the P distinct principal
    congruences only, m * P pairs in all and no meets
    (partitions._close_rows; R. Freese, "Computing congruences
    efficiently", Algebra Universalis 59 (2008)).  Its size is checked
    against CONGFORGE_CAP after every chunk of a round, before the
    round's rows are added.  The n(n-1)/2 principal congruences are
    generated as one batch.  EqRelLattice re-checks that the result is
    closed under the join and meet of Eq(A), and compatibility of every
    row is re-verified, as self-tests (both must hold automatically).
    Algebras over cap elements are refused; cap=None lifts that.
    """
    n = algebra.size
    if cap is not None:
        limits.check_cap(n, "con_lattice's algebra", cap)
    a, b = np.triu_indices(n, 1)
    rows = np.tile(np.arange(n), (a.size, 1))
    rows[np.arange(a.size), b] = a  # row p relates a[p] and b[p] alone
    dtype = narrow_dtype(n)
    principals = _fresh_rows(_generate(algebra, rows).astype(dtype), set())
    bottom = np.arange(n, dtype=dtype).reshape(1, n)
    reps = _close_rows(np.concatenate([bottom, principals]), (_join_reps,), principals)
    if not _compatible(algebra, reps):
        raise RuntimeError(
            "the join-closure of the principal congruences holds a partition "
            "that is not a congruence; this indicates a bug in the closure"
        )
    return ConLattice(algebra, EqRelLattice(Partition(tuple(r)) for r in reps.tolist()))


# -- centrality and the commutator --------------------------------------------

# Bytes per cell of the closure M, an n^4 bitmap whichever route builds it:
# M itself and the bool temporary of a violation pass (1 + 1).
_BITMAP_BYTES = 2
# Worst-case bytes per element of a closure's rounds beside its bitmap seen:
# the mark bitmap (1) and the codes hi and lo (8 + 8).
_ELEMENT_BYTES = 17
# Worst-case bytes per element for each binary operation, which may be
# associative: its own image bitmap (1) and the hi and lo codes of its
# generators (8 + 8).
_GENERATOR_BYTES = 17
# Bytes per evaluated argument tuple: two table gathers (up to 2 each), the
# key (up to 4) and the intp copy of it that the bitmap scatter makes.
_CELL_BYTES = 16


def _closure_bytes(algebra, by_projections=False):
    """Bytes of a closure's state: the n^4 bitmap M and a violation pass's
    temporary, plus each route's own state.  By rounds in A^4: the other
    n^4-entry bitmaps, codes, generators and pair tables.  By projections:
    the same state of rounds in A^2, over n^2 pairs, on narrow copies of
    the tables, the three relations they give, and the translation table
    that is_congruence caches (n rows of k n^(k-1) intp columns per k-ary
    table).  Every binary operation is counted as associative, so the
    bound is settled before associativity is."""
    n = algebra.size
    n2 = n * n
    arities = [arr.ndim for arr in algebra.by_name.values() if arr.ndim]
    per_element = _ELEMENT_BYTES + _GENERATOR_BYTES * arities.count(2)
    if by_projections:
        item = narrow_dtype(n).itemsize
        return (n2 * n2 * _BITMAP_BYTES + n2 * (per_element + 3)
                + sum(item * n**k + 8 * k * n**k for k in arities))
    item = narrow_dtype(n2).itemsize
    return n2 * n2 * (_BITMAP_BYTES + per_element) + sum(item * n2**k for k in arities)


def _boxes(spans, cell_bytes, row_bytes):
    """Split the product of index spans [(start, stop), ...] into boxes,
    trailing spans whole first, so that a box fits one chunk (limits.fits) at
    cell_bytes per cell plus row_bytes per cell of its leading spans (one
    gathered table row each); an empty span yields no box."""
    lead = math.prod(stop - start for start, stop in spans[:-1])
    start, stop = spans[-1]
    if limits.fits(lead * ((stop - start) * cell_bytes + row_bytes)):
        return (spans,) if lead and stop > start else ()  # the whole product
    last = max(1, min(stop - start, limits.chunk_rows(cell_bytes)))
    steps = [last]
    budget = limits.chunk_rows(last * cell_bytes + row_bytes)
    for start, stop in reversed(spans[:-1]):
        step = max(1, min(stop - start, budget))
        steps.append(step)
        budget = max(1, budget // step)
    cuts = [
        [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
        for (start, stop), step in zip(spans, reversed(steps))
    ]
    return itertools.product(*cuts)


def _gather(table, codes, box):
    """table[c0[s0:e0], ..., c(k-1)[s(k-1):e(k-1)]] over the box, where
    ci = codes[i] holds the codes of coordinate i, gathered rows first: the
    leading k-1 coordinates pick whole rows of the table viewed as
    (n^2)^(k-1) rows of n^2 entries, and one take then picks the columns of
    the last coordinate from them."""
    start, stop = box[-1]
    cols = codes[-1][start:stop]
    if len(box) == 1:
        return table[cols]
    n2 = table.shape[-1]
    start, stop = box[0]
    lead = codes[0][start:stop]
    for coord, (start, stop) in zip(codes[1:-1], box[1:-1]):
        lead = (lead[:, None] * n2 + coord[start:stop]).ravel()
    return table.reshape(-1, n2)[lead].take(cols, axis=1)


def _close(tables, associative, base, seen):
    """Close the keys marked in the bitmap seen, in place, under every
    table, and return seen.

    An element is a pair of digits (hi, lo) in 0..base-1, the key
    hi*base + lo; tables[j] has shape (base,)*k and applies a k-ary
    operation to digits, so k elements map to
    table[their his]*base + table[their los].  The matrix closure runs
    in A^4 on pair codes (base n^2, the pair tables) and the projection
    route in A^2 on points (base n, the operation tables).

    Rounds are semi-naive.  With old the elements found before the last
    round, new those found in it and current their union, a k-ary table
    takes new in argument slot i, old in the slots before it and current
    in the slots after it, so each argument tuple holding a new element
    is evaluated exactly once.

    A table whose associative flag is set is applied only to pairs
    (element, generator), m * |G_f| products instead of m^2, as
    V. Froidure and J.-E. Pin enumerate a semigroup by its right Cayley
    graph ("Algorithms for computing finite semigroups", 1997).  G_f
    starts as the seeds, and each round adds every fresh element that f
    did not produce in that round, read from a bitmap of f's own images.
    By induction every element is then an f-product g1*...*gk of elements
    of G_f: it is in G_f, or f produced it as a*g from a found element a
    and g in G_f.  So S*G_f within S gives S*S within S, since
    a*(g1*...*gk) = ((a*g1)*...)*gk (f acts entrywise, so it is
    associative on the power too).  Each round evaluates f on new x all
    of G_f and on old x the generators added in the last round, so each
    pair is evaluated exactly once.

    Images are scattered into a mark bitmap, minus seen, and
    np.flatnonzero yields the next round's elements; once every key is
    seen nothing can be new.  Argument tuples are evaluated in boxes
    whose keys and gathered table rows fit one chunk (limits.fits).
    """
    key_dtype = narrow_dtype(base * base)
    mark = np.zeros_like(seen)
    hi, lo = np.divmod(np.flatnonzero(seen), base)
    # per associative table: its image bitmap, its generators' hi and lo
    # codes, and how many of them the last round added
    gens = {j: [np.zeros_like(seen), hi, lo, hi.size]
            for j, assoc in enumerate(associative) if assoc}
    n_old = 0
    while n_old < hi.size < seen.size:
        m = hi.size
        for j, table in enumerate(tables):
            k = table.ndim
            # a gathered row of base table entries, and for k >= 3 the
            # flat row index and its product (8 each)
            row_bytes = base * table.itemsize + 16
            if j in gens:
                images, ghi, glo, added = gens[j]
                images.fill(False)
                g = ghi.size
                products = [((0, n_old), (g - added, g)), ((n_old, m), (0, g))]
                his, los = (hi, ghi), (lo, glo)
            else:
                images = mark
                products = [[(0, n_old)] * i + [(n_old, m)] + [(0, m)] * (k - 1 - i)
                            for i in range(k)]
                his, los = (hi,) * k, (lo,) * k
            for spans in products:
                for box in _boxes(spans, _CELL_BYTES, row_bytes):
                    key = _gather(table, his, box).astype(key_dtype)
                    key *= base
                    key += _gather(table, los, box)
                    images[key] = True
            if j in gens:
                mark |= images
        np.greater(mark, seen, out=mark)
        fresh = np.flatnonzero(mark)
        seen[fresh] = True
        mark[fresh] = False
        fresh_hi, fresh_lo = np.divmod(fresh, base)
        for gen in gens.values():
            images, ghi, glo, _ = gen
            other = ~images[fresh]  # fresh elements this table did not produce
            added = np.count_nonzero(other)
            if added:
                ghi = np.concatenate([ghi, fresh_hi[other]])
                glo = np.concatenate([glo, fresh_lo[other]])
            gen[1:] = ghi, glo, added
        hi = np.concatenate([hi, fresh_hi])
        lo = np.concatenate([lo, fresh_lo])
        n_old = m
    return seen


def _matrix_closure(algebra, alpha, beta):
    """All 2x2 matrices [[t(a,u), t(a,v)], [t(b,u), t(b,v)]] with t a term
    operation, the two rows alpha-related and the two columns beta-related
    componentwise: the subalgebra M of the 4th power spanned by the row
    seeds (a,a,b,b) for a alpha b and the column seeds (u,v,u,v) for
    u beta v; the diagonal seeds (c,c,c,c) supply every constant.

    When some basic operation is a majority operation, M is read off its
    projections onto pairs of coordinates (_closure_by_projections);
    otherwise it is generated by rounds (_closure_by_rounds).  Both
    return M as a bool array of shape (n, n, n, n), true at
    [m00, m01, m10, m11] exactly for the members, and both must fit
    limits.CLOSURE_BYTES or SizeLimitError is raised before anything is
    allocated.
    """
    by_projections = any(algebra._majority)
    need = _closure_bytes(algebra, by_projections)
    if need > limits.CLOSURE_BYTES:
        raise SizeLimitError(
            "2x2-matrix closure on %d elements needs %d bytes, over the bound of %d"
            % (algebra.size, need, limits.CLOSURE_BYTES)
        )
    if by_projections:
        return _closure_by_projections(algebra, alpha, beta)
    return _closure_by_rounds(algebra, alpha, beta)


def _closure_by_rounds(algebra, alpha, beta):
    """The matrix closure generated by _close in A^4, for any algebra; its
    caller settles the byte bound.  A matrix is the key hi*n^2 + lo with
    hi = m00*n + m01 and lo = m10*n + m11, its flat index in M, so a
    k-ary operation maps k matrices to pair_table[his]*n^2 +
    pair_table[los]."""
    n = algebra.size
    n2 = n * n
    arep = np.asarray(alpha.rep)
    brep = np.asarray(beta.rep)
    x, y = np.divmod(np.arange(n2), n)
    seen = np.zeros(n2 * n2, dtype=bool)
    rows = np.flatnonzero(arep[x] == arep[y])
    seen[x[rows] * (n + 1) * n2 + y[rows] * (n + 1)] = True
    cols = np.flatnonzero(brep[x] == brep[y])
    seen[cols * n2 + cols] = True
    return _close(algebra._pair_tables, algebra._associative, n2, seen).reshape((n,) * 4)


# Each pair of coordinates of a matrix (m00, m01, m10, m11), and the seeds
# whose projection onto it spans that projection of the closure: the
# columns (u, v) for u beta v, the rows (a, b) for a alpha b, and on the
# diagonals (m00, m11) and (m01, m10) both.
_PROJECTIONS = ((0, 1, "beta"), (2, 3, "beta"), (0, 2, "alpha"), (1, 3, "alpha"),
                (0, 3, "theta"), (1, 2, "theta"))


def _closure_by_projections(algebra, alpha, beta):
    """The matrix closure M when some basic operation m is a majority
    operation: m(x,x,y) = m(x,y,x) = m(y,x,x) = x.

    Then every subalgebra R of A^3 or A^4 is the set of tuples whose
    projections onto every pair of coordinates lie in those of R
    (K. Baker, A. Pixley, "Polynomial interpolation and the Chinese
    remainder theorem for algebraic systems", Math. Z. 143 (1975)).
    Proof: let t have every pair in the projections of R.  In A^3, for
    i = 1, 2, 3 some r_i in R agrees with t on the two coordinates other
    than i; at each coordinate two of r_1, r_2, r_3 agree with t, so
    m(r_1, r_2, r_3) = t lies in R.  In A^4, the A^3 case, applied to the
    projections of R onto three coordinates, gives r_i in R agreeing with
    t off coordinate i for i = 1, 2, 3; m(r_1, r_2, r_3) agrees with t at
    coordinates 1-3 as before, and at coordinate 4, where all three do.

    A projection is a homomorphism, so the projection of M onto a pair of
    coordinates is the subalgebra of A^2 spanned by the projected seeds:
    Sg(beta) on the rows (m00, m01) and (m10, m11), Sg(alpha) on the
    columns, and Theta = Sg(alpha u beta) on both diagonals (the column
    seed (u,v,u,v) gives (v, u), and beta is symmetric).  A congruence
    is its own Sg, so alpha and beta are closed by _close in A^2, on the
    n^2 pair codes and the n^k operation tables, only when is_congruence
    refuses them.  Theta is closed from Sg(alpha) u Sg(beta), unless
    alpha and beta are comparable: Sg is monotone, so that union is then
    the larger one's Sg.  No pair table is built.  M is the AND of the six
    relations, each broadcast onto its pair of coordinates.  Its caller
    settles the byte bound.
    """
    n = algebra.size
    dtype = narrow_dtype(n)
    tables = tuple(arr.astype(dtype) for arr in algebra.by_name.values() if arr.ndim)
    relations = {}
    for name, part in (("alpha", alpha), ("beta", beta)):
        rep = np.asarray(part.rep)
        relations[name] = rep[:, None] == rep
        if not is_congruence(algebra, part):  # ravel is a view, so _close works in place
            _close(tables, algebra._associative, n, relations[name].ravel())
    relations["theta"] = relations["alpha"] | relations["beta"]
    if not (p_leq(alpha, beta) or p_leq(beta, alpha)):
        _close(tables, algebra._associative, n, relations["theta"].ravel())
    M = np.ones((n,) * 4, dtype=bool)
    for i, j, name in _PROJECTIONS:
        shape = [1, 1, 1, 1]
        shape[i] = shape[j] = n
        M &= relations[name].reshape(shape)
    return M


def _check_base(algebra, *parts):
    for part in parts:
        if part.base_size != algebra.size:
            raise SizeMismatchError(
                "a partition has base size %d, the algebra %d" % (part.base_size, algebra.size)
            )


def _violations(M, delta):
    """Which matrices of a closure M break C(alpha, beta; delta): the top
    row delta-related and the bottom row not, as a bitmap like M."""
    drep = np.asarray(delta.rep)
    rel = drep[:, None] == drep
    out = M & rel[:, :, None, None]
    out &= ~rel
    return out


def centrality(algebra, alpha, beta, delta):
    """Decide the term condition C(alpha, beta; delta).

    The rows of every matrix lie in the subalgebra of A^2 that beta spans,
    its columns in the one alpha spans, and a congruence delta holds
    either subalgebra when it holds alpha or beta.  So C holds when delta
    is a congruence and beta <= delta, since the bottom row t(b,u), t(b,v)
    is then delta-related, and when delta is a congruence and
    alpha <= delta, since a delta-related top row then gives
    t(b,u) delta t(a,u) delta t(a,v) delta t(b,v).  Otherwise the matrix
    closure is scanned.  Partitions of another base size raise
    SizeMismatchError.

    Partitions that are not congruences are read as relations: the
    matrices are those of the subalgebras of A^2 that alpha and beta
    span, and the condition asks that no matrix have a delta-related top
    row and a bottom row outside delta.
    """
    _check_base(algebra, alpha, beta, delta)
    if (p_leq(alpha, delta) or p_leq(beta, delta)) and is_congruence(algebra, delta):
        return True
    return not _violations(_matrix_closure(algebra, alpha, beta), delta).any()


def commutator(algebra, alpha, beta):
    """[alpha, beta]: the least congruence delta with C(alpha, beta; delta).

    For congruences alpha and beta, C(alpha, beta; alpha) and
    C(alpha, beta; beta) hold (see centrality), and the term condition is
    kept by meets of its deltas, so [alpha, beta] <= alpha ^ beta: when
    that meet is the bottom it is the answer.  Otherwise an ascending
    fixpoint over the matrix closure (_commutator_fixpoint).  Partitions
    of another base size raise SizeMismatchError.

    Partitions that are not congruences are read as relations, through
    the subalgebras of A^2 they span (see centrality); the result is
    still a congruence, but need not lie below alpha ^ beta: on the median
    algebra of the 4-element chain, b = 02|13 gives [b, b] = 1.
    """
    _check_base(algebra, alpha, beta)
    meet = p_meet(alpha, beta)
    if (meet == Partition.singletons(algebra.size) and is_congruence(algebra, alpha)
            and is_congruence(algebra, beta)):
        return meet
    return _commutator_fixpoint(algebra, _matrix_closure(algebra, alpha, beta))


def _commutator_fixpoint(algebra, M):
    """The least congruence delta that no matrix of the closure M violates.

    Seed delta with the bottom rows of matrices whose top rows are equal
    (read off M.diagonal over the first two axes, a view with the
    diagonal axis last), close to a congruence, re-scan, repeat.  Each
    round strictly grows delta, so failing to stabilise within size^2
    rounds signals a bug.
    """
    n = algebra.size
    delta = congruence_from_pairs(algebra, np.argwhere(M.diagonal(0, 0, 1).any(axis=-1)))
    for _ in range(n * n + 1):
        pairs = np.argwhere(_violations(M, delta).any(axis=(0, 1)))
        if not pairs.size:
            return delta
        delta = congruence_from_pairs(algebra, pairs, start=delta)
    raise NonConvergenceError("commutator iteration failed to stabilise")


def commutator_by_descent(algebra, alpha, beta, con=None):
    """Test oracle: the meet of every congruence delta with C(alpha, beta;
    delta), each decided on one matrix closure, without the order bounds."""
    _check_base(algebra, alpha, beta)
    if con is None:
        con = con_lattice(algebra)
    M = _matrix_closure(algebra, alpha, beta)
    out = Partition.one_block(algebra.size)
    for delta in con.congruences:
        if not _violations(M, delta).any():
            out = p_meet(out, delta)
    return out


def solvable_series(algebra, alpha):
    """[a]^0 = a, [a]^{k+1} = [[a]^k, [a]^k], up to the first repeat.

    [t, t] <= t, so the series descends, and each strict step adds a
    block: it stabilises within size commutators, and
    NonConvergenceError is raised when it does not.
    """
    series = [alpha]
    for _ in range(algebra.size):
        nxt = commutator(algebra, series[-1], series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)
    raise NonConvergenceError("solvable series past %d commutators" % algebra.size)


def is_solvable_interval(algebra, beta, alpha):
    """True iff some term of the solvable series for alpha drops below beta.

    The series stabilises, so stabilising strictly above beta is a
    decisive no.
    """
    if not p_leq(beta, alpha):
        raise ValueError("beta must lie below alpha")
    series = solvable_series(algebra, alpha)
    return any(p_leq(term, beta) for term in series)


def abelian_interval(algebra, beta, alpha):
    """Decide C(alpha, alpha; beta) for beta <= alpha."""
    _check_base(algebra, beta, alpha)
    if not p_leq(beta, alpha):
        raise ValueError("beta must lie below alpha")
    return centrality(algebra, alpha, alpha, beta)


def check_weak_difference_term(algebra, d):
    """Does the ternary term d (in variables x, y, z) satisfy
    a [t,t] d(a,b,b) and d(a,a,b) [t,t] b for every congruence t and
    every (a, b) in t?

    Returns (True, None) or (False, (a, b, theta)) with the first
    violating instance.
    """
    names = term_expr_variables(d)
    if not names <= {"x", "y", "z"}:
        raise ArityError(
            "weak difference term must use variables x, y, z; found %s" % sorted(names)
        )
    con = con_lattice(algebra)
    n = algebra.size
    a_grid, b_grid = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    aa, bb = a_grid.ravel(), b_grid.ravel()
    d_abb = np.broadcast_to(
        eval_term_expr(algebra, d, {"x": aa, "y": bb, "z": bb}), aa.shape
    )
    d_aab = np.broadcast_to(
        eval_term_expr(algebra, d, {"x": aa, "y": aa, "z": bb}), aa.shape
    )
    for theta in con.congruences:
        trep = np.asarray(theta.rep)
        related = trep[aa] == trep[bb]
        crep = np.asarray(commutator(algebra, theta, theta).rep)
        ok = (crep[aa] == crep[d_abb]) & (crep[d_aab] == crep[bb])
        bad = np.flatnonzero(related & ~ok)
        if bad.size:
            j = int(bad[0])
            return False, (int(aa[j]), int(bb[j]), theta)
    return True, None


# -- the power-algebra construction -------------------------------------------


def alpha_power_algebra(algebra, alpha, n):
    """The subalgebra of the n-th power on tuples constant modulo alpha.

    Returns (power, tuples, alpha_bar, etas): the algebra on the
    alpha-constant tuples, the tuple universe in index order, the
    congruence relating tuples drawn from the same alpha class, and the
    kernels of the n coordinate projections.
    """
    if n < 1:
        raise ValueError("the construction needs n >= 1, got %d" % n)
    if not is_congruence(algebra, alpha):
        raise ValueError("alpha is not a congruence of the algebra")
    blocks = alpha.blocks()
    m = limits.check_cap(sum(len(block) ** n for block in blocks), "power subalgebra",
                         limits.DEFAULT_POWER_CAP)
    tup = np.concatenate([np.array(block)[np.indices((len(block),) * n).reshape(n, -1).T]
                          for block in blocks])
    tup = tup[np.lexsort(tup.T[::-1])]
    dtype = narrow_dtype(algebra.size)
    rows = tup.astype(dtype)
    # A tuple's key is mixed-radix: its first point, then the place of each
    # later point in its block (all share the first point's block), in
    # base the largest block size s.  It grows with the lexicographic
    # order, and stays below size * s^(n-1) <= size * m.
    s = max(map(len, blocks))
    place = np.zeros(algebra.size, dtype=np.int64)
    for block in blocks:
        place[block] = np.arange(len(block))

    def key(points):
        out = points[..., 0].astype(np.int64)
        for i in range(1, n):
            out *= s
            out += place[points[..., i]]
        return out

    keys = key(rows)

    def find(images):
        return np.searchsorted(keys, key(images))

    ops = []
    for op in algebra.operations:
        arr = algebra.by_name[op.name].astype(dtype)
        k = arr.ndim
        if k == 0:
            ops.append(Operation(op.name, 0, find(np.full(n, arr))))
            continue
        # argument j runs along axis j of the grid, its coordinates last
        grid = [rows.reshape((1,) * j + (m,) + (1,) * (k - 1 - j) + (n,)) for j in range(k)]
        out = np.empty((m,) * k, dtype=np.int64)
        # per argument tuple: its image, then its key, a place and a row (8 each)
        for lo, hi in limits.chunks(m, m ** (k - 1) * (n * dtype.itemsize + 24)):
            out[lo:hi] = find(arr[(grid[0][lo:hi], *grid[1:])])
        ops.append(Operation(op.name, k, out))
    # the fibres of the first coordinate's alpha class, then of each coordinate
    fibres = np.concatenate([np.asarray(alpha.rep)[tup[:, :1].T], tup.T])
    alpha_bar, *etas = (Partition(tuple(r)) for r in _first_reps(fibres, algebra.size).tolist())
    return FiniteAlgebra(m, ops), list(map(tuple, tup.tolist())), alpha_bar, etas


@dataclass
class DeltaConstruction:
    algebra: FiniteAlgebra  # the square subalgebra
    tuples: list
    delta: Partition
    alpha_bar: Partition
    etas: list
    checks: dict | None  # complement equations, verified when alpha is abelian


def construct_delta(algebra, alpha):
    """On the square subalgebra, the congruence generated by identifying
    the diagonal pairs ((a,a), (b,b)) for a alpha b.

    When alpha is abelian the construction also records the element-wise
    complement checks: delta v eta_i is the saturation congruence and
    delta ^ eta_i is trivial.
    """
    power, tuples, alpha_bar, etas = alpha_power_algebra(algebra, alpha, 2)
    first, second = np.array(tuples).T
    diagonal = np.flatnonzero(first == second)  # the index of (a, a), by a
    # the pairs ((a, a), (rep(a), rep(a))) generate the same congruence
    delta = congruence_from_pairs(power, np.stack([diagonal, diagonal[list(alpha.rep)]], axis=1))
    checks = None
    if abelian_interval(algebra, Partition.singletons(algebra.size), alpha):
        bottom = Partition.singletons(power.size)
        checks = {"%s_eta_%d" % (kind, i): op(delta, eta) == want
                  for kind, op, want in (("join", p_join, alpha_bar), ("meet", p_meet, bottom))
                  for i, eta in enumerate(etas)}
    return DeltaConstruction(power, tuples, delta, alpha_bar, etas, checks)


@dataclass
class EmbeddingReport:
    n: int
    universe_size: int
    interval_size: int
    checks: dict
    ln: FiniteLattice
    ln_elements: list  # indices into the congruence lattice
    con: ConLattice
    eta_indices: list

    @property
    def passed(self):
        return all(self.checks.values())


def _common_complements(lat, elems):
    """common[i, j]: some d meets elems[i] and elems[j] in their meet and
    joins each of them to the top."""
    meets, tops = lat.meet[:, elems], lat.join[:, elems] == lat.top
    lows = lat.meet[np.ix_(elems, elems)]
    return ((meets[:, :, None] == lows) & (meets[:, None, :] == lows)
            & tops[:, :, None] & tops[:, None, :]).any(axis=0)


def verify_embedding_construction(algebra, alpha, n):
    """Build Con of the alpha-constant power and check the interval below
    the saturation congruence: it must be a complemented modular lattice
    of length n whose bottom is the meet of the coatoms, with an element
    complementing each pair of projection kernels inside their interval.

    Requires alpha abelian; that is what forces the structure.
    """
    if not abelian_interval(algebra, Partition.singletons(algebra.size), alpha):
        raise PreconditionFailedError("alpha must be an abelian congruence")
    power, tuples, alpha_bar, etas = alpha_power_algebra(algebra, alpha, n)
    con = con_lattice(power, cap=None)
    ln, elems = interval(con.lattice, con.bottom, con.index[alpha_bar])
    pos = {e: i for i, e in enumerate(elems)}
    eta_idx = [pos[con.index[e]] for e in etas]

    modular, _ = is_modular(ln)
    checks = {
        "modular": modular,
        "length_n": ln.height() == n,
        "complemented": ln.is_complemented(),
    }
    coatoms = ln.coatoms()

    def meet_is_bottom(elems):  # the bottom alone lies below all of them
        return bool(np.count_nonzero(ln.leq[:, elems].all(axis=1)) == 1)

    checks["bottom_is_meet_of_coatoms"] = meet_is_bottom(coatoms)
    checks["etas_are_coatoms"] = all(e in coatoms for e in eta_idx)
    checks["bottom_is_meet_of_etas"] = meet_is_bottom(eta_idx)

    common = _common_complements(ln, eta_idx)
    for i, j in zip(*np.triu_indices(n, 1)):
        checks["common_complement_%d_%d" % (i, j)] = bool(common[i, j])
    return EmbeddingReport(
        n=n,
        universe_size=power.size,
        interval_size=ln.size,
        checks=checks,
        ln=ln,
        ln_elements=elems,
        con=con,
        eta_indices=eta_idx,
    )
