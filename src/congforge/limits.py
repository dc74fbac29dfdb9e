"""Every bound congforge enforces, and the errors that report them.

Element caps: one check, check_cap, refuses (SizeLimitError) whatever
has more elements than its cap; nothing is truncated.  Lattice
constructors use size_cap(), DEFAULT_SIZE_CAP unless the environment
variable CONGFORGE_CAP overrides it; con_lattice and alpha_power_algebra
use the fixed DEFAULT_ALGEBRA_CAP and DEFAULT_POWER_CAP.  Work: an
exhaustive identity check spends at most DEFAULT_BUDGET term evaluations
by default, and a check or search past its budget raises
BudgetExceededError.  Bytes: every vectorised scan takes its chunk size
from CHUNK_BYTES (scans that stop at a first hit grow their chunks up to
it from FIRST_CELLS cells, by doubling_chunks), and state that cannot be
chunked (the 2x2-matrix closure) must fit CLOSURE_BYTES before it is
allocated.  Iterations: every iteration to a fixpoint walks a monotone
chain in a finite lattice, so it stops within a bound fixed by the size
of its input; running past that bound raises NonConvergenceError.
Widths: narrow_dtype and index_dtype pick the dtypes of value and index
arrays.
Every exception class congforge defines derives from CongforgeError.
"""

import os

import numpy as np

DEFAULT_SIZE_CAP = 20_000
DEFAULT_ALGEBRA_CAP = 12
DEFAULT_POWER_CAP = 4096
DEFAULT_BUDGET = 10**8

# Byte budget for the temporaries of one chunk of a vectorised scan.
CHUNK_BYTES = 1 << 24

# Scans that stop at their first hit read rows in growing chunks: the first
# chunk covers about FIRST_CELLS cells, so a hit among the first few costs
# little, and each later chunk twice the rows of the one before, up to the
# CHUNK_BYTES bound (see doubling_chunks).
FIRST_CELLS = 1 << 14

# Byte bound on the state of one 2x2-matrix closure (algebras._matrix_closure):
# its bitmaps, its rows in the worst case and its pair tables.
CLOSURE_BYTES = 1 << 28


class CongforgeError(Exception):
    """Base of every exception class congforge defines."""


class SizeLimitError(CongforgeError):
    """Requested object would exceed the configured size cap."""


class BudgetExceededError(CongforgeError):
    """A check or search would exceed its budget: an exhaustive identity
    sweep its term evaluations (use sampled mode), a sublattice search its
    nodes."""


class NonConvergenceError(CongforgeError):
    """An iteration ran past the bound within which it must stabilise."""


def size_cap():
    raw = os.environ.get("CONGFORGE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError("CONGFORGE_CAP must be a positive integer")
    return cap


def check_cap(requested, what, fixed=None):
    """Raise SizeLimitError when what has more elements than the cap:
    size_cap(), or the fixed cap when one is given.  Returns requested."""
    cap, hint = fixed, ""
    if fixed is None:
        cap, hint = size_cap(), " (set CONGFORGE_CAP to raise it)"
    if requested > cap:
        raise SizeLimitError(
            "%s has %d elements, over the cap of %d%s" % (what, requested, cap, hint)
        )
    return requested


def chunk_rows(bytes_per_row):
    """Rows per chunk that keep one chunk's temporaries within CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // max(1, bytes_per_row))


def doubling_chunks(total, cells, most):
    """(lo, hi) row ranges covering 0..total-1 in order: the first of about
    FIRST_CELLS cells at `cells` cells per row, each later one twice the
    rows of the one before, and none over `most` rows."""
    rows, lo = max(1, min(most, FIRST_CELLS // cells)), 0
    while lo < total:
        hi = min(total, lo + rows)
        yield lo, hi
        lo, rows = hi, min(most, 2 * rows)


def narrow_dtype(limit):
    """Narrowest unsigned dtype holding the integers 0..limit-1."""
    return np.min_scalar_type(max(limit - 1, 0))


def index_dtype(limit):
    """Signed dtype for indices below limit: int32 halves the temporaries."""
    return np.dtype(np.int32 if limit <= 1 << 31 else np.int64)
