"""The machine-speed probe that normalises task times.

The reference host shares its cores with other tenants, and its speed
swings by 1.5x within seconds and drifts over minutes; process CPU time
moves with wall time, so the process runs slower rather than waiting.
A fixed kernel of the benchmark's own, timed between short segments of
tasks, slows down with the tasks: each segment's task times are scaled
by REF_S over the mean of the probes before and after it, which puts
them in seconds of a host running the probe in REF_S.  The kernel
touches no congforge code, so a change to the program moves the task
times and not the probe.
"""

from __future__ import annotations

import random
import time

import numpy as np

REF_S = 0.006  # the probe's time on the reference host, at its usual speed

_N = 48
_rng = random.Random(20230625)
_PAIRS = [[(_rng.randrange(_N), _rng.randrange(_N)) for _ in range(24)] for _ in range(72)]
_KEYS = np.array([_rng.randrange(4096) for _ in range(512)], dtype=np.int64)


def kernel():
    """Union-find joins of fixed partitions and small numpy set operations:
    the mix of small Python objects and small arrays the workloads run."""
    count = 0
    for pairs in _PAIRS:
        parent = list(range(_N))
        for a, b in pairs:
            while parent[a] != a:
                a = parent[a]
            while parent[b] != b:
                b = parent[b]
            if a != b:
                parent[max(a, b)] = min(a, b)
        blocks = {}
        for x in range(_N):
            r = x
            while parent[r] != r:
                r = parent[r]
            blocks.setdefault(r, []).append(x)
        count += len({tuple(v) for v in blocks.values()})
        keys = np.concatenate([_KEYS[count % 7:], _KEYS[: count % 7]]) * 3 % 4099
        uniq, first = np.unique(keys, return_index=True)
        count += int(first[uniq.size // 2])
    return count


def probe():
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
