"""Subspace lattices of GF(p)^d, 2-distributivity decisions, embeddings.

Subspaces are kept in reduced row-echelon canonical form, so equality is
syntactic and subspaces can live in dictionaries.  All arithmetic is
plain integer arithmetic mod p with p < 2^16.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import terms
from .lattice import (
    BudgetExceededError,
    FiniteLattice,
    LatticeHom,
    find_sublattice,
    is_modular,
)
from .limits import CongforgeError, check_cap, chunks


class FieldMismatchError(CongforgeError):
    pass


class DimensionMismatchError(CongforgeError):
    pass


def is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def rref(mat, p):
    """Reduced row-echelon form mod p; returns the nonzero rows."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] % p:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * pow(int(m[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % p
        r += 1
        if r == rows:
            break
    return m[:r]


@dataclass(frozen=True)
class Subspace:
    p: int
    dim_ambient: int
    basis: tuple[tuple[int, ...], ...]  # RREF rows, possibly empty

    @staticmethod
    def from_vectors(p, dim_ambient, vectors):
        vectors = list(vectors)
        if not vectors:
            return Subspace(p, dim_ambient, ())
        mat = rref(np.array(vectors, dtype=np.int64).reshape(len(vectors), dim_ambient), p)
        return Subspace(p, dim_ambient, tuple(tuple(int(x) for x in row) for row in mat))

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        if not self.basis:
            return np.zeros((0, self.dim_ambient), dtype=np.int64)
        return np.array(self.basis, dtype=np.int64)

    def contains(self, vector):
        """Membership test by reduction against the echelon basis."""
        v = np.array(vector, dtype=np.int64) % self.p
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if x)
            if v[lead]:
                v = (v - v[lead] * np.array(row)) % self.p
        return not v.any()

    def notation(self):
        """Digit-row notation, e.g. '101,010' for two basis rows."""
        if not self.basis:
            return "0"
        return ",".join("".join(str(x) for x in row) for row in self.basis)

    @staticmethod
    def from_notation(p, dim_ambient, text):
        if text.strip() == "0":
            return Subspace(p, dim_ambient, ())
        rows = [[int(ch) for ch in part.strip()] for part in text.split(",")]
        for row in rows:
            if len(row) != dim_ambient:
                raise DimensionMismatchError("row length != ambient dimension")
        return Subspace.from_vectors(p, dim_ambient, rows)


def _check_compatible(u, w):
    if u.p != w.p:
        raise FieldMismatchError("fields GF(%d) and GF(%d) differ" % (u.p, w.p))
    if u.dim_ambient != w.dim_ambient:
        raise DimensionMismatchError(
            "ambient dimensions %d and %d differ" % (u.dim_ambient, w.dim_ambient)
        )


def s_sum(u, w):
    """Subspace sum: RREF of the stacked bases."""
    _check_compatible(u, w)
    return Subspace.from_vectors(u.p, u.dim_ambient, list(u.basis) + list(w.basis))


def s_intersect(u, w):
    """Subspace intersection by the Zassenhaus block-reduction method."""
    _check_compatible(u, w)
    p, d = u.p, u.dim_ambient
    if not u.basis or not w.basis:
        return Subspace(p, d, ())
    um, wm = u.matrix(), w.matrix()
    block = np.zeros((um.shape[0] + wm.shape[0], 2 * d), dtype=np.int64)
    block[: um.shape[0], :d] = um
    block[: um.shape[0], d:] = um
    block[um.shape[0]:, :d] = wm
    reduced = rref(block, p)
    rows = [row[d:] for row in reduced if not row[:d].any()]
    return Subspace.from_vectors(p, d, rows)


def gaussian_binomial(n, k, p):
    """Number of k-dimensional subspaces of GF(p)^n."""
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def all_subspaces(dim, p):
    """Every subspace of GF(p)^dim, enumerated by RREF shape.

    For each dimension k and each pivot-column set, the free entries
    (right of a pivot, off the pivot columns) range over GF(p).
    Deterministic order: k ascending, pivots lexicographic, free values
    counting up.
    """
    out = [Subspace(p, dim, ())]
    for k in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), k):
            free = [
                (i, c)
                for i in range(k)
                for c in range(pivots[i] + 1, dim)
                if c not in pivots
            ]
            base = np.zeros((k, dim), dtype=np.int64)
            for i, c in enumerate(pivots):
                base[i, c] = 1
            for values in itertools.product(range(p), repeat=len(free)):
                mat = base.copy()
                for (i, c), v in zip(free, values):
                    mat[i, c] = v
                out.append(Subspace(p, dim, tuple(tuple(int(x) for x in r) for r in mat)))
    return out


def _containment_order(subs, dim, p):
    """leq[u, w] iff subspace u lies in w, for subspaces sorted by dimension.

    Each subspace becomes a bitset over the p^dim vectors, a vector being
    encoded base p: its members are all combinations of its basis rows.
    u lies in w exactly when every basis vector of u is a member of w;
    missing basis slots point at the zero vector, which every subspace
    contains.
    """
    m = len(subs)
    weights = p ** np.arange(dim - 1, -1, -1, dtype=np.int64)
    members = np.zeros((m, p**dim), dtype=bool)
    basis_codes = np.zeros((m, dim), dtype=np.int64)
    stop = 0
    for k, group in itertools.groupby(sub.dim for sub in subs):
        start, stop = stop, stop + sum(1 for _ in group)
        coeffs = np.indices((p,) * k).reshape(k, p**k).T  # all of GF(p)^k
        for lo, hi in chunks(stop, p**k * dim * 16, start=start):
            bases = np.array([s.basis for s in subs[lo:hi]], dtype=np.int64)
            bases = bases.reshape(hi - lo, k, dim)
            basis_codes[lo:hi, :k] = bases @ weights
            codes = (coeffs @ bases) % p @ weights  # (rows, p^k)
            members[np.arange(lo, hi)[:, None], codes] = True
    leq = np.empty((m, m), dtype=bool)
    for lo, hi in chunks(m, m * dim * 9):
        # [w, u, j] = the j-th basis vector of u lies in w
        inside = members[:, basis_codes[lo:hi]]
        leq[lo:hi] = inside.all(axis=2).T
    return leq


class SubspaceLattice:
    """The full lattice of subspaces of GF(p)^dim with element dictionary."""

    def __init__(self, dim, p):
        if dim < 0:
            raise ValueError("dim must be >= 0, got %r" % (dim,))
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        check_cap(p**dim, "GF(%d)^%d" % (p, dim))
        subs = all_subspaces(dim, p)
        expected = sum(gaussian_binomial(dim, k, p) for k in range(dim + 1))
        check_cap(expected, "subspace lattice")
        if len(subs) != expected or len(set(subs)) != expected:
            raise RuntimeError("subspace enumeration does not match the count formula")
        subs.sort(key=lambda s: (s.dim, s.basis))
        index = {s: i for i, s in enumerate(subs)}
        leq = _containment_order(subs, dim, p)
        self.p = p
        self.dim = dim
        self.subspaces = subs = tuple(subs)
        self.index = index
        self.lattice = FiniteLattice(leq, labels=lambda: [s.notation() for s in subs])

    def __len__(self):
        return len(self.subspaces)


def subspace_lattice(dim, p):
    return SubspaceLattice(dim, p)


# -- 2-distributivity and the finite membership decision ---------------------


def find_two_diamond(lat):
    """Search for a 2-diamond: four elements of an interval [z, u] such
    that every three of them join to u and every one of them meets the
    join of any other two at z, with all four strictly above z.

    In a modular lattice such a configuration exists exactly when the
    2-distributive law fails, so this is the structural counterpart of
    the identity check.  Returns (z, u, (x1, x2, x3, x4)) or None; the
    scan order is lexicographic, so the witness is deterministic.
    """
    n = lat.size
    J, M = lat.join, lat.meet
    rng = range(n)
    elems = np.arange(n)
    for x1 in rng:
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
                # vectorised pass over the fourth element
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


def k_infinity_member(lat):
    """Decide membership in the class of finite modular 2-distributive
    lattices (those embeddable in subspace lattices over every prime field).

    Returns (verdict, certificate).  The identity route (2-distributive
    law) and the structural route (2-diamond search) are both run on
    modular inputs and must agree; disagreement raises, since it would
    mean one of the detectors is broken.
    """
    modular, triple = is_modular(lat)
    if not modular:
        return False, {"reason": "not_modular", "triple": triple}
    verdict = terms.holds(lat, terms.generate_2distributive(), budget=None)
    diamond = find_two_diamond(lat)
    if verdict.holds and diamond is not None:
        raise RuntimeError(
            "detector disagreement: 2-distributive but a 2-diamond was found: %r"
            % (diamond,)
        )
    if not verdict.holds and diamond is None:
        raise RuntimeError(
            "detector disagreement: 2-distributivity fails at %r but no 2-diamond found"
            % (verdict.assignment,)
        )
    if verdict.holds:
        return True, {"reason": "member"}
    return False, {
        "reason": "not_2distributive",
        "assignment": verdict.assignment,
        "two_diamond": diamond,
    }


# -- embedding search ---------------------------------------------------------


@dataclass
class EmbedResult:
    status: str  # "found" | "exhausted" | "budget_exceeded"
    hom: LatticeHom | None = None
    target: SubspaceLattice | None = None

    def images(self):
        """The subspace each source element maps to, if an embedding was found."""
        if self.hom is None:
            return None
        return [self.target.subspaces[i] for i in self.hom.map]


def embed_search(lat, dim, p, cover_preserving=False, budget=None):
    """Look for an injective join/meet-preserving map of lat into the
    lattice of subspaces of GF(p)^dim, optionally cover-preserving.

    Nonmodular inputs can never embed (subspace lattices are modular and
    modularity passes to sublattices), so they short-circuit to
    'exhausted'.  Otherwise the search is exhaustive backtracking:
    'exhausted' is a decisive no at this dim and p, while
    'budget_exceeded' merely means the node budget ran out.
    """
    modular, _ = is_modular(lat)
    if not modular:
        return EmbedResult("exhausted")
    target = subspace_lattice(dim, p)
    try:
        hom = find_sublattice(
            target.lattice, lat, cover_preserving=cover_preserving, budget=budget
        )
    except BudgetExceededError:
        return EmbedResult("budget_exceeded", target=target)
    if hom is None:
        return EmbedResult("exhausted", target=target)
    return EmbedResult("found", hom=hom, target=target)
