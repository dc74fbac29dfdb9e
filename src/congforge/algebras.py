"""Finite algebras, congruence lattices, and the term-condition commutator.

An algebra is a universe 0..size-1 with named finitary operation tables.
Congruences are Partitions compatible with every operation.  Centrality
C(a, b; d) is decided by generating the closure of the 2x2 matrix set
from its generators under the basic operations and scanning; the
commutator [a, b] is the ascending fixpoint of the induced closure.

The closure works on integer keys.  A matrix (m00, m01, m10, m11) is the
key hi*n^2 + lo with hi = m00*n + m01 and lo = m10*n + m11, so one key
is a pair of pair codes.  For each k-ary operation f the algebra caches
a pair table of shape (n^2,)*k, T[(x0,y0),...] = f(x0,...)*n + f(y0,...),
which applies f to both top entries (or both bottom entries) at once:
the image of k matrices is T[their his]*n^2 + T[their los].  Rounds are
semi-naive, so every argument tuple with a new matrix in it is
evaluated once, and duplicates are removed by an n^4 bitmap, not by
sorting.  The tables and the unary translations behind congruence
generation are derived lazily on first use and cached on the algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import limits
from .lattice import FiniteLattice, interval
from .limits import SizeLimitError
from .partitions import EqRelLattice, Partition, p_join, p_leq, p_meet

DEFAULT_ALGEBRA_CAP = 12
DEFAULT_POWER_CAP = 4096


class ArityError(Exception):
    pass


class UnknownOperationError(Exception):
    def __init__(self, name):
        self.name = name
        super().__init__("the algebra has no operation named %r" % name)


class NonConvergenceError(Exception):
    pass


class PreconditionFailedError(Exception):
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

    def apply(self, name, *args):
        arr = self.by_name[name]
        if len(args) != arr.ndim:
            raise ArityError(
                "operation %s has arity %d, got %d arguments"
                % (name, arr.ndim, len(args))
            )
        return int(arr[args]) if args else int(arr)

    @cached_property
    def _translations(self):
        """Each basic operation, one argument slot moved first, flattened
        over the other slots: the unary polynomials that generate
        congruence closure."""
        out = []
        for arr in self.by_name.values():
            for pos in range(arr.ndim):
                out.append(np.moveaxis(arr, pos, 0).reshape(self.size, -1))
        return tuple(out)

    @cached_property
    def _pair_tables(self):
        """For each operation f of arity k >= 1, f applied to k pairs at
        once: T[x0*n+y0, ..., x(k-1)*n+y(k-1)] = f(x0,...)*n + f(y0,...),
        of shape (n^2,)*k in the narrowest unsigned dtype."""
        n = self.size
        dtype = _pair_dtype(n)
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


def is_congruence(algebra, part):
    """Full-scan compatibility check of a partition with every operation."""
    if part.base_size != algebra.size:
        return False
    rep = np.asarray(part.rep)
    for moved in algebra._translations:
        for a in range(algebra.size):
            b = part.rep[a]
            if b != a and not np.array_equal(rep[moved[a]], rep[moved[b]]):
                return False
    return True


def congruence_from_pairs(algebra, pairs, start=None):
    """Least congruence containing the pairs (and the start partition).

    Union-find closure: whenever two classes merge, every unary
    translation by a basic operation is applied to the merged pair,
    until no merge produces new identifications.
    """
    n = algebra.size
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    worklist = []

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if ra > rb:
            ra, rb = rb, ra
        parent[rb] = ra
        worklist.append((ra, rb))

    if start is not None:
        for i, r in enumerate(start.rep):
            union(r, i)
    for a, b in pairs:
        union(int(a), int(b))

    while worklist:
        a, b = worklist.pop()
        for moved in algebra._translations:
            ra, rb = moved[a], moved[b]
            for j in np.flatnonzero(ra != rb):
                union(int(ra[j]), int(rb[j]))
    return Partition(tuple(find(i) for i in range(n)))


def principal_congruence(algebra, a, b):
    """Cg(a, b): least congruence relating a and b."""
    return congruence_from_pairs(algebra, [(a, b)])


class ConLattice:
    """The congruence lattice of a finite algebra."""

    def __init__(self, algebra, congruences):
        self.algebra = algebra
        eq = EqRelLattice(congruences)
        self.congruences = eq.partitions
        self.index = eq.index
        self.lattice = eq.lattice
        self.bottom = self.index[Partition.singletons(algebra.size)]
        self.top = self.index[Partition.one_block(algebra.size)]

    def __len__(self):
        return len(self.congruences)


def con_lattice(algebra, cap=DEFAULT_ALGEBRA_CAP):
    """All congruences: join-closure of the principal ones plus bottom.

    Joins are computed as partition joins; compatibility of each join is
    re-verified as a self-test (it must hold automatically).
    """
    n = algebra.size
    if cap is not None and n > cap:
        raise SizeLimitError(
            "congruence computation capped at algebra size %d (got %d)" % (cap, n)
        )
    principals = set()
    for a in range(n):
        for b in range(a + 1, n):
            principals.add(principal_congruence(algebra, a, b))
    congruences = set(principals)
    congruences.add(Partition.singletons(n))
    frontier = list(principals)
    while frontier:
        fresh = []
        current = list(congruences)
        for p in frontier:
            for q in current:
                j = p_join(p, q)
                if j not in congruences:
                    if not is_congruence(algebra, j):
                        raise RuntimeError(
                            "partition join of congruences failed compatibility; "
                            "this indicates a bug in the closure"
                        )
                    congruences.add(j)
                    fresh.append(j)
        frontier = fresh
    return ConLattice(algebra, congruences)


# -- centrality and the commutator --------------------------------------------

# Worst-case bytes per matrix of the closure: the seen and mark bitmaps
# (1 + 1), the row codes hi and lo (8 + 8), and the returned row (4 * 8)
# with the transients of decoding it (4 * 8).
_MATRIX_BYTES = 82
# Bytes per evaluated argument tuple: two table gathers and the intp key.
_CELL_BYTES = 16


def _pair_dtype(n):
    return np.min_scalar_type(max(n * n - 1, 0))


def _closure_bytes(algebra):
    """Bytes of the closure's state: bitmaps, rows and pair tables."""
    n2 = algebra.size**2
    item = _pair_dtype(algebra.size).itemsize
    tables = sum(item * n2**arr.ndim for arr in algebra.by_name.values() if arr.ndim)
    return n2 * n2 * _MATRIX_BYTES + tables


def _boxes(spans, cell_bytes):
    """Split the product of index spans [(start, stop), ...] into boxes of
    at most limits.chunk_rows(cell_bytes) cells, trailing spans whole first;
    an empty span yields no box."""
    budget = limits.chunk_rows(cell_bytes)
    steps = []
    for start, stop in reversed(spans):
        step = max(1, min(stop - start, budget))
        steps.append(step)
        budget = max(1, budget // step)
    cuts = [
        [(lo, min(lo + step, stop)) for lo in range(start, stop, step)]
        for (start, stop), step in zip(spans, reversed(steps))
    ]
    return itertools.product(*cuts)


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
    are evaluated in boxes of limits.CHUNK_BYTES; the bitmaps, rows and
    pair tables must fit limits.CLOSURE_BYTES or SizeLimitError is raised
    before anything is allocated.

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
    mark = np.zeros_like(seen)
    hi, lo = np.divmod(np.flatnonzero(seen), n2)
    n_old = 0
    while n_old < hi.size:
        m = hi.size
        for table in tables:
            k = table.ndim
            for i in range(k):
                spans = [(0, n_old)] * i + [(n_old, m)] + [(0, m)] * (k - 1 - i)
                for box in _boxes(spans, _CELL_BYTES):
                    idx_hi, idx_lo = [], []
                    for axis, (start, stop) in enumerate(box):
                        shape = [1] * k
                        shape[axis] = stop - start
                        idx_hi.append(hi[start:stop].reshape(shape))
                        idx_lo.append(lo[start:stop].reshape(shape))
                    key = table[tuple(idx_hi)].astype(np.intp)
                    key *= n2
                    key += table[tuple(idx_lo)]
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
    delta = congruence_from_pairs(
        algebra, quads[quads[:, 0] == quads[:, 1]][:, 2:4].tolist()
    )
    for _ in range(n * n + 1):
        drep = np.asarray(delta.rep)
        top = drep[quads[:, 0]] == drep[quads[:, 1]]
        bottom = drep[quads[:, 2]] == drep[quads[:, 3]]
        viol = quads[top & ~bottom]
        if viol.shape[0] == 0:
            return delta
        delta = congruence_from_pairs(algebra, viol[:, 2:4].tolist(), start=delta)
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


def solvable_series(algebra, alpha, max_n=None):
    """[a]^0 = a, [a]^{k+1} = [[a]^k, [a]^k], cut off at stabilisation."""
    if max_n is None:
        max_n = algebra.size * algebra.size
    series = [alpha]
    for _ in range(max_n):
        nxt = commutator(algebra, series[-1], series[-1])
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_solvable_interval(algebra, beta, alpha, max_n=None):
    """True iff some term of the solvable series for alpha drops below beta.

    The series stabilises, so stabilising strictly above beta is a
    decisive no.
    """
    if not p_leq(beta, alpha):
        raise ValueError("beta must lie below alpha")
    series = solvable_series(algebra, alpha, max_n=max_n)
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


def alpha_power_algebra(algebra, alpha, n, cap=DEFAULT_POWER_CAP):
    """The subalgebra of the n-th power on tuples constant modulo alpha.

    Returns (power, tuples, alpha_bar, etas): the algebra on the
    alpha-constant tuples, the tuple universe in index order, the
    congruence relating tuples drawn from the same alpha class, and the
    kernels of the n coordinate projections.
    """
    if not is_congruence(algebra, alpha):
        raise ValueError("alpha is not a congruence of the algebra")
    blocks = alpha.blocks()
    tuples = []
    for block in blocks:
        tuples.extend(itertools.product(block, repeat=n))
    tuples.sort()
    m = len(tuples)
    if m > cap:
        raise SizeLimitError("power subalgebra would have %d elements (cap %d)" % (m, cap))
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


def verify_embedding_construction(algebra, alpha, n, con_cap=None):
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
    cap = con_cap if con_cap is not None else max(DEFAULT_ALGEBRA_CAP, power.size)
    con = con_lattice(power, cap=cap)
    lo = con.bottom
    hi = con.index[alpha_bar]
    ln, elems = interval(con.lattice, lo, hi)
    pos = {e: i for i, e in enumerate(elems)}
    eta_idx = [pos[con.index[e]] for e in etas]

    from .lattice import is_modular

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
    checks["etas_are_coatoms"] = all(e in ln.coatoms() for e in eta_idx)
    bottom_eta = eta_idx[0]
    for e in eta_idx[1:]:
        bottom_eta = int(ln.meet[bottom_eta, e])
    checks["bottom_is_meet_of_etas"] = bottom_eta == ln.bottom

    for i in range(n):
        for j in range(i + 1, n):
            lo_ij = int(ln.meet[eta_idx[i], eta_idx[j]])
            found = False
            for d in range(ln.size):
                if (
                    int(ln.meet[d, eta_idx[i]]) == lo_ij
                    and int(ln.meet[d, eta_idx[j]]) == lo_ij
                    and int(ln.join[d, eta_idx[i]]) == ln.top
                    and int(ln.join[d, eta_idx[j]]) == ln.top
                ):
                    found = True
                    break
            checks["common_complement_%d_%d" % (i, j)] = found
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
