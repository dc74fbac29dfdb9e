"""Global size caps guarding combinatorial blowups.

Every constructor that can explode (direct products, closures, full
partition lattices, subspace enumerations) checks against a single cap.
The default is 20000 elements; the environment variable CONGFORGE_CAP
overrides it.  Exceeding the cap raises, never silently truncates.
Every vectorised scan, including the identity sweeps and the n^3 table
scans, takes its chunk size from one byte budget, CHUNK_BYTES, so its
temporaries stay bounded whatever the element count.  State that cannot
be chunked, such as the bitmaps of the 2x2-matrix closure, is checked
against a fixed byte bound before anything is allocated.  A check or
search that would run past its own budget raises BudgetExceededError.
Every exception class congforge defines derives from CongforgeError.
"""

import os

DEFAULT_SIZE_CAP = 20_000

# Byte budget for the temporaries of one chunk of a vectorised scan.
CHUNK_BYTES = 1 << 24

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


def size_cap():
    raw = os.environ.get("CONGFORGE_CAP")
    if raw is None:
        return DEFAULT_SIZE_CAP
    cap = int(raw)
    if cap <= 0:
        raise ValueError("CONGFORGE_CAP must be a positive integer")
    return cap


def check_cap(requested, what):
    cap = size_cap()
    if requested > cap:
        raise SizeLimitError(
            "%s would have %d elements, over the cap of %d "
            "(set CONGFORGE_CAP to raise it)" % (what, requested, cap)
        )
    return requested


def chunk_rows(bytes_per_row):
    """Rows per chunk that keep one chunk's temporaries within CHUNK_BYTES."""
    return max(1, CHUNK_BYTES // max(1, bytes_per_row))
