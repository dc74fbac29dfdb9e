"""Every bound congforge enforces, and the errors that report them.

Element caps: one check, check_cap, refuses (SizeLimitError) whatever
has more elements than its cap; nothing is truncated.  Lattice
constructors use size_cap(), DEFAULT_SIZE_CAP unless the environment
variable CONGFORGE_CAP overrides it; con_lattice and alpha_power_algebra
use the fixed DEFAULT_ALGEBRA_CAP and DEFAULT_POWER_CAP.  Work: an
exhaustive identity check spends at most DEFAULT_BUDGET term evaluations
by default, and a check or search past its budget raises
BudgetExceededError.  Bytes: every vectorised pass walks its rows in the
ranges of chunks, each within CHUNK_BYTES; sampled draws come in rounds
of HOLDS_ROUND or PAIR_ROUND, held in the value dtype; and state that cannot be chunked (the
2x2-matrix closure, the translation tables of congruence generation
and of the commutator's Delta route, the tables of a power algebra) must
fit CLOSURE_BYTES before it is allocated.
Iterations: every iteration to a fixpoint walks a monotone chain in a
finite lattice, so it stops within a bound fixed by the size of its
input; running past that bound raises NonConvergenceError.  Widths:
narrow_dtype and index_dtype pick the dtypes of value and index arrays.
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

# A pass that can stop at its first hit reads rows in growing ranges: the
# first covers about FIRST_CELLS cells, so a hit among the first few costs
# little, and each later range twice the rows of the one before, up to the
# CHUNK_BYTES bound (see chunks).
FIRST_CELLS = 1 << 14

# Values per variable in one round of the seeded draws of terms.holds and
# of verify.dn_pair_agreement; they fix the seeded streams.  A round is held
# whole in the lattice's value dtype (narrow_dtype), draws * variables *
# itemsize bytes: 32 MiB for PAIR_ROUND at n = 4 on up to 256 elements.  It
# is drawn as int64 in the slices of chunks, one slice within CHUNK_BYTES at
# a time; numpy's Generator.integers gives the same values drawn in slices
# as drawn whole, because the bit generator keeps the spare half of a
# 64-bit output in its state between calls.
HOLDS_ROUND = 1 << 18
PAIR_ROUND = 1 << 22

# Byte bound on the state of one 2x2-matrix closure (algebras._matrix_closure):
# its n^4 bitmap, the bool temporary of a violation pass over it, and its
# route's rounds (bitmaps and codes in the worst case) and tables.  The same
# bound holds a translation table, of an algebra or of A(alpha), with one
# pass over it (algebras._translations; past it congruence generation and
# construct_delta raise SizeLimitError, and the commutator runs the
# closure) and the operation tables of alpha_power_algebra (past it
# SizeLimitError).
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


def fits(nbytes):
    """Whether temporaries of nbytes fit one chunk, CHUNK_BYTES."""
    return nbytes <= CHUNK_BYTES


def chunk_rows(bytes_per_row, fixed=0):
    """Rows per chunk (at least one) that keep fixed bytes plus
    bytes_per_row per row within CHUNK_BYTES."""
    return max(1, (CHUNK_BYTES - fixed) // max(1, bytes_per_row))


def first_steps(cells, step):
    """How many divisions by step bring cells nearest FIRST_CELLS by
    ratio, the larger over the smaller, the fewest on a tie: none at or
    below FIRST_CELLS."""
    steps = 0
    while cells > FIRST_CELLS:
        smaller = cells // step
        # below FIRST_CELLS, smaller is nearer iff FIRST_CELLS / smaller
        # < cells / FIRST_CELLS
        if smaller < FIRST_CELLS and FIRST_CELLS * FIRST_CELLS >= cells * smaller:
            break
        cells, steps = smaller, steps + 1
    return steps


def chunks(stop, bytes_per_row, start=0, cells=None, fixed=0, period=None, first=None):
    """(lo, hi) row ranges covering start..stop-1 in order, each of
    chunk_rows(bytes_per_row, fixed) rows but the last; given cells, the
    cells per row of a pass that can stop at its first hit, they grow
    instead, from about FIRST_CELLS cells, doubling up to that bound;
    given first, they grow from that many rows.
    Given period, no range crosses a multiple of it: a range that would
    ends at the multiple, and the next range starts the schedule again."""
    most = chunk_rows(bytes_per_row, fixed)
    if first is None:
        first = most if cells is None else FIRST_CELLS // cells
    first = max(1, min(most, first))
    lo, rows = start, first
    while lo < stop:
        hi, rows = min(stop, lo + rows), min(most, 2 * rows)
        if period is not None and hi >= lo - lo % period + period:
            hi, rows = lo - lo % period + period, first
        yield lo, hi
        lo = hi


def narrow_dtype(limit):
    """Narrowest unsigned dtype holding the integers 0..limit-1."""
    return np.min_scalar_type(max(limit - 1, 0))


def index_dtype(limit):
    """Signed dtype for indices below limit: int32 halves the temporaries."""
    return np.dtype(np.int32 if limit <= 1 << 31 else np.int64)
