"""Finite algebras, congruence lattices, and the term-condition commutator.

An algebra is a universe 0..size-1 with named finitary operation tables.
Congruences are Partitions compatible with every operation.  They are
generated in batches: a (k, n) array of canonical reps is closed under
the algebra's unary translations, cached as one (n, C) table, by a
fixpoint that joins into each row the pairs (t(a), t(rep[a])) it does
not yet relate (partitions._join_edges), in row chunks of
limits.CHUNK_BYTES.  Con(A) is the sublattice of Eq(A) generated by
bottom and the principal congruences, which are generated as one batch;
it is built by partitions.closed_sublattice, so its size meets the
CONGFORGE_CAP check after every closure round, and every row of the
result is then checked for compatibility in one vectorised pass.
Centrality C(a, b; d) is decided by generating the closure of the 2x2
matrix set from its generators under the basic operations and scanning;
the commutator [a, b] is the ascending fixpoint of the induced closure.

The closure works on integer keys.  A matrix (m00, m01, m10, m11) is the
key hi*n^2 + lo with hi = m00*n + m01 and lo = m10*n + m11, so one key
is a pair of pair codes, held in the narrowest unsigned dtype that holds
n^4 - 1.  For each k-ary operation f the algebra caches a pair table of
shape (n^2,)*k, T[(x0,y0),...] = f(x0,...)*n + f(y0,...), which applies
f to both top entries (or both bottom entries) at once: the image of k
matrices is T[their his]*n^2 + T[their los].  A box of argument tuples
is gathered rows first: the leading k-1 arguments pick whole rows of
the table and one take picks the last argument's columns from them.
Rounds are semi-naive, so every argument tuple with a new matrix in it
is evaluated once, and duplicates are removed by an n^4 bitmap, not by
sorting.  The tables and the translation table are derived lazily on
first use and cached on the algebra; no closure or congruence is cached
across calls.
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
    Partition,
    SizeMismatchError,
    _join_edges,
    closed_sublattice,
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


@dataclass(frozen=True)
class Operation:
    name: str
    arity: int
    table: tuple  # nested tuples of shape (size,)*arity; a plain value for arity 0

    def array(self, size):
        return np.array(self.table, dtype=np.int64).reshape((size,) * self.arity)


class FiniteAlgebra:
    def __init__(self, size, operations):
        self.size = size
        self.operations = tuple(operations)
        names = [op.name for op in self.operations]
        if len(set(names)) != len(names):
            raise ValueError("operation names must be unique")
        self.by_name = {}
        for op in self.operations:
            arr = op.array(size)
            if arr.size and (arr.min() < 0 or arr.max() >= size):
                raise ValueError("operation %s has out-of-range entries" % op.name)
            arr.setflags(write=False)
            self.by_name[op.name] = arr

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
    shaped = arr.reshape((size,) * arity) if arity else arr.reshape(())
    return Operation(name, arity, _to_nested(shaped))


def _to_nested(arr):
    if arr.ndim == 0:
        return int(arr)
    return tuple(_to_nested(sub) for sub in arr)


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
    all a.  All rows are checked at once, in row chunks of
    limits.CHUNK_BYTES.
    """
    moves = algebra._moves
    rows = limits.chunk_rows(_GEN_BYTES * moves.size)
    return not any(_images(reps[lo:lo + rows], moves)[2].any()
                   for lo in range(0, len(reps), rows))


def _generate(algebra, reps):
    """The least congruence above each row of reps, a (k, n) array of
    canonical partitions.

    A fixpoint per row chunk of limits.CHUNK_BYTES: while some row fails
    the compatibility test of _compatible, the pairs (t(a), t(rep[a])) it
    does not relate are joined into it by partitions._join_edges.  Each
    round merges blocks, so at most n - 1 rounds change a row.
    """
    moves = algebra._moves
    rows = limits.chunk_rows(_GEN_BYTES * moves.size)
    out = np.array(reps)
    for lo in range(0, len(out), rows):
        chunk = out[lo:lo + rows]
        while True:
            at_point, at_rep, apart = _images(chunk, moves)
            if not apart.any():
                break
            chunk = _join_edges(chunk, at_point[apart], at_rep[apart])
        out[lo:lo + rows] = chunk
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
    """All congruences: the sublattice of Eq(A) generated by bottom and the
    principal congruences.

    Every congruence is the join of the principal congruences below it,
    and joins and meets of congruences are congruences, so the closure is
    Con(A); its size is checked against CONGFORGE_CAP after every round.
    The n(n-1)/2 principal congruences are generated as one batch.
    Compatibility of every result row is re-verified as a self-test (it
    must hold automatically).  Algebras over cap elements are refused;
    cap=None lifts that.
    """
    n = algebra.size
    if cap is not None:
        limits.check_cap(n, "con_lattice's algebra", cap)
    a, b = np.triu_indices(n, 1)
    rows = np.tile(np.arange(n), (a.size, 1))
    rows[np.arange(a.size), b] = a  # row p relates a[p] and b[p] alone
    principals = np.unique(_generate(algebra, rows), axis=0)
    gens = [Partition.singletons(n)] + [Partition(tuple(r)) for r in principals.tolist()]
    eq = closed_sublattice(gens)
    if not _compatible(algebra, eq.reps):
        raise RuntimeError(
            "the closure of the principal congruences holds a partition "
            "that is not a congruence; this indicates a bug in the closure"
        )
    return ConLattice(algebra, eq)


# -- centrality and the commutator --------------------------------------------

# Worst-case bytes per matrix of the closure: the seen and mark bitmaps
# (1 + 1), the row codes hi and lo (8 + 8), and the returned row (4 * 8)
# with the transients of decoding it (4 * 8).
_MATRIX_BYTES = 82
# Bytes per evaluated argument tuple: two table gathers (up to 2 each), the
# key (up to 4) and the intp copy of it that the bitmap scatter makes.
_CELL_BYTES = 16


def _closure_bytes(algebra):
    """Bytes of the closure's state: bitmaps, rows and pair tables."""
    n2 = algebra.size**2
    item = narrow_dtype(n2).itemsize
    tables = sum(item * n2**arr.ndim for arr in algebra.by_name.values() if arr.ndim)
    return n2 * n2 * _MATRIX_BYTES + tables


def _boxes(spans, cell_bytes, row_bytes):
    """Split the product of index spans [(start, stop), ...] into boxes,
    trailing spans whole first, so that a box fits limits.CHUNK_BYTES at
    cell_bytes per cell plus row_bytes per cell of its leading spans (one
    gathered table row each); an empty span yields no box."""
    lead = math.prod(stop - start for start, stop in spans[:-1])
    start, stop = spans[-1]
    if lead * ((stop - start) * cell_bytes + row_bytes) <= limits.CHUNK_BYTES:
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
    """table[codes[s0:e0], ..., codes[s(k-1):e(k-1)]] over the box, gathered
    rows first: the leading k-1 coordinates pick whole rows of the table
    viewed as (n^2)^(k-1) rows of n^2 entries, and one take then picks the
    columns of the last coordinate from them."""
    start, stop = box[-1]
    cols = codes[start:stop]
    if len(box) == 1:
        return table[cols]
    n2 = table.shape[-1]
    start, stop = box[0]
    lead = codes[start:stop]
    for start, stop in box[1:-1]:
        lead = (lead[:, None] * n2 + codes[start:stop]).ravel()
    return table.reshape(-1, n2)[lead].take(cols, axis=1)


def _matrix_closure(algebra, alpha, beta):
    """All 2x2 matrices [[t(a,u), t(a,v)], [t(b,u), t(b,v)]] with t a term
    operation, the two rows alpha-related and the two columns beta-related
    componentwise.

    Generated as the subalgebra of the 4th power spanned by the row seeds
    (a,a,b,b) for a alpha b and the column seeds (u,v,u,v) for u beta v,
    closed under every basic operation entrywise; the diagonal seeds
    (c,c,c,c) supply every constant.  A matrix is the key hi*n^2 + lo with
    hi = m00*n + m01 and lo = m10*n + m11, and a k-ary operation maps k
    matrices to pair_table[his]*n^2 + pair_table[los].

    Rounds are semi-naive: with old the matrices found before the last
    round, new those found in it and current their union, argument slot i
    takes new, the slots before it old and the slots after it current, so
    each argument tuple holding a new matrix is evaluated exactly once.
    Images are scattered into an n^4 mark bitmap, minus the seen bitmap,
    and np.flatnonzero yields the next round's matrices.  Argument tuples
    are evaluated in boxes whose keys and gathered table rows fit
    limits.CHUNK_BYTES; the bitmaps, rows and pair tables must fit
    limits.CLOSURE_BYTES or SizeLimitError is raised before anything is
    allocated.

    Returns an (m, 4) int64 array of rows (m00, m01, m10, m11) in ascending
    key order, i.e. lexicographically ascending rows.
    """
    need = _closure_bytes(algebra)
    if need > limits.CLOSURE_BYTES:
        raise SizeLimitError(
            "2x2-matrix closure on %d elements needs %d bytes, over the bound of %d"
            % (algebra.size, need, limits.CLOSURE_BYTES)
        )
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

    tables = algebra._pair_tables
    key_dtype = narrow_dtype(n2 * n2)
    mark = np.zeros_like(seen)
    hi, lo = np.divmod(np.flatnonzero(seen), n2)
    n_old = 0
    while n_old < hi.size:
        m = hi.size
        for table in tables:
            k = table.ndim
            # a gathered row of n^2 table entries, and for k >= 3 the
            # flat row index and its product (8 each)
            row_bytes = n2 * table.itemsize + 16
            for i in range(k):
                spans = [(0, n_old)] * i + [(n_old, m)] + [(0, m)] * (k - 1 - i)
                for box in _boxes(spans, _CELL_BYTES, row_bytes):
                    key = _gather(table, hi, box).astype(key_dtype)
                    key *= n2
                    key += _gather(table, lo, box)
                    mark[key] = True
        np.greater(mark, seen, out=mark)
        fresh = np.flatnonzero(mark)
        seen[fresh] = True
        mark[fresh] = False
        fresh_hi, fresh_lo = np.divmod(fresh, n2)
        hi = np.concatenate([hi, fresh_hi])
        lo = np.concatenate([lo, fresh_lo])
        n_old = m
    hi, lo = np.divmod(np.flatnonzero(seen), n2)
    out = np.empty((hi.size, 4), dtype=np.int64)
    out[:, 0], out[:, 1] = np.divmod(hi, n)
    out[:, 2], out[:, 3] = np.divmod(lo, n)
    return out


def centrality(algebra, alpha, beta, delta):
    """Decide the term condition C(alpha, beta; delta)."""
    quads = _matrix_closure(algebra, alpha, beta)
    drep = np.asarray(delta.rep)
    top = drep[quads[:, 0]] == drep[quads[:, 1]]
    bottom = drep[quads[:, 2]] == drep[quads[:, 3]]
    return not bool((top & ~bottom).any())


def commutator(algebra, alpha, beta):
    """[alpha, beta]: the least congruence delta with C(alpha, beta; delta).

    Ascending fixpoint: seed delta with the bottom rows of matrices whose
    top rows are equal, close to a congruence, re-scan, repeat.  Each
    round strictly grows delta, so failing to stabilise within size^2
    rounds signals a bug.
    """
    quads = _matrix_closure(algebra, alpha, beta)
    n = algebra.size
    delta = congruence_from_pairs(algebra, quads[quads[:, 0] == quads[:, 1], 2:4])
    for _ in range(n * n + 1):
        drep = np.asarray(delta.rep)
        top = drep[quads[:, 0]] == drep[quads[:, 1]]
        bottom = drep[quads[:, 2]] == drep[quads[:, 3]]
        viol = quads[top & ~bottom]
        if viol.shape[0] == 0:
            return delta
        delta = congruence_from_pairs(algebra, viol[:, 2:4], start=delta)
    raise NonConvergenceError("commutator iteration failed to stabilise")


def commutator_by_descent(algebra, alpha, beta, con=None):
    """Test oracle: meet of every congruence delta with C(alpha, beta; delta)."""
    if con is None:
        con = con_lattice(algebra)
    out = Partition.one_block(algebra.size)
    for delta in con.congruences:
        if centrality(algebra, alpha, beta, delta):
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
    if not is_congruence(algebra, alpha):
        raise ValueError("alpha is not a congruence of the algebra")
    blocks = alpha.blocks()
    m = limits.check_cap(sum(len(block) ** n for block in blocks), "power subalgebra",
                         limits.DEFAULT_POWER_CAP)
    tuples = []
    for block in blocks:
        tuples.extend(itertools.product(block, repeat=n))
    tuples.sort()
    index = {t: i for i, t in enumerate(tuples)}
    tup_arr = np.array(tuples, dtype=np.int64)

    ops = []
    for op in algebra.operations:
        arr = algebra.by_name[op.name]
        k = arr.ndim
        if k == 0:
            c = (int(arr),) * n
            ops.append(Operation(op.name, 0, index[c]))
            continue
        shape = (m,) * k
        out = np.empty(shape, dtype=np.int64)
        for args in itertools.product(range(m), repeat=k):
            coords = tuple(
                int(arr[tuple(tup_arr[args[j], i] for j in range(k))]) for i in range(n)
            )
            out[args] = index[coords]
        ops.append(Operation(op.name, k, _to_nested(out)))
    power = FiniteAlgebra(m, ops)

    block_of = {}
    for bi, block in enumerate(blocks):
        for x in block:
            block_of[x] = bi
    bar_rep = [-1] * m
    first_in_block = {}
    for i, t in enumerate(tuples):
        b = block_of[t[0]]
        bar_rep[i] = first_in_block.setdefault(b, i)
    alpha_bar = Partition(tuple(bar_rep))

    etas = []
    for coord in range(n):
        firsts = {}
        rep = [firsts.setdefault(t[coord], i) for i, t in enumerate(tuples)]
        etas.append(Partition(tuple(rep)))
    return power, tuples, alpha_bar, etas


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
    index = {t: i for i, t in enumerate(tuples)}
    arep = alpha.rep
    pairs = []
    for a in range(algebra.size):
        for b in range(algebra.size):
            if arep[a] == arep[b]:
                pairs.append((index[(a, a)], index[(b, b)]))
    delta = congruence_from_pairs(power, pairs)
    checks = None
    if abelian_interval(algebra, Partition.singletons(algebra.size), alpha):
        bottom = Partition.singletons(power.size)
        checks = {
            "join_eta_0": p_join(delta, etas[0]) == alpha_bar,
            "join_eta_1": p_join(delta, etas[1]) == alpha_bar,
            "meet_eta_0": p_meet(delta, etas[0]) == bottom,
            "meet_eta_1": p_meet(delta, etas[1]) == bottom,
        }
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
    if n < 1:
        raise ValueError("the construction needs n >= 1, got %d" % n)
    if not abelian_interval(algebra, Partition.singletons(algebra.size), alpha):
        raise PreconditionFailedError("alpha must be an abelian congruence")
    power, tuples, alpha_bar, etas = alpha_power_algebra(algebra, alpha, n)
    con = con_lattice(power, cap=None)
    lo = con.bottom
    hi = con.index[alpha_bar]
    ln, elems = interval(con.lattice, lo, hi)
    pos = {e: i for i, e in enumerate(elems)}
    eta_idx = [pos[con.index[e]] for e in etas]

    modular, _ = is_modular(ln)
    checks = {
        "modular": modular,
        "length_n": ln.height() == n,
        "complemented": ln.is_complemented(),
    }
    coatoms = ln.coatoms()
    meet_coatoms = coatoms[0] if coatoms else ln.top
    for c in coatoms[1:]:
        meet_coatoms = int(ln.meet[meet_coatoms, c])
    checks["bottom_is_meet_of_coatoms"] = meet_coatoms == ln.bottom
    checks["etas_are_coatoms"] = all(e in coatoms for e in eta_idx)
    bottom_eta = eta_idx[0]
    for e in eta_idx[1:]:
        bottom_eta = int(ln.meet[bottom_eta, e])
    checks["bottom_is_meet_of_etas"] = bottom_eta == ln.bottom

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
