"""permuting: the permuting-family harness.

Thousands of seeded instances, each one partitions.verify_dn_permuting
call on pairwise-permuting coset partitions of a small abelian group,
plus one bulk verify.suite_dnperm call.  It runs the same builders as
structure, but through thousands of tiny closures and EqRelLattice
builds, so a fixed cost per build shows here.  Every instance must hold.

Each (family, n) stratum holds the same 60 instance shapes for every
seed, drawn once from a fixed generator; the seed draws a relabelling of
the group's elements for each instance.  A relabelled instance is
isomorphic to its shape, so a seed changes the inputs but not their
cost: on the Z2^3 family the cost of a freely drawn instance ranges from
1 to 9 ms, and free draws moved task_p95_ms by 2x between seeds.
"""

from __future__ import annotations

import numpy as np

import congforge as cf
from congforge import verify

from tasks import Task, Workload, must

ORDERS = [(2,), (3,), (4,), (2, 2), (5,), (6,), (7,), (8,), (4, 2), (2, 2, 2)]
NS = (3, 4, 5)

SHAPES_SEED = 3
SCALE = {  # instances per (family, n), instances of the bulk suite call
    "full": (60, 200),
    "tiny": (1, 5),
}


def instance_task(name, alphas, alphaps):
    return Task(name,
                lambda ctx: cf.verify_dn_permuting(alphas, alphaps),
                lambda out: must(out is True, "the companion inequality fails"))


def suite_task(seed, instances):
    def check(res):
        return must(res.passed and [c.check_id for c in res.checks] ==
                    ["dnperm-instances", "dnperm-bell-counts"] and
                    res.checks[0].witness["instances"] == instances,
                    "suite_dnperm did not pass all of its %d instances and counts" % instances)

    return Task("suite_dnperm", lambda ctx: verify.suite_dnperm(seed, instances=instances), check,
                lambda res: (res.passed, [c.check_id for c in res.checks]))


def relabel(part, perm):
    """The partition moved by a permutation (a list) of its base set."""
    least = {}  # least image of each block, keyed by the block's old least element
    for x, r in enumerate(part.rep):
        if perm[x] < least.get(r, len(perm)):
            least[r] = perm[x]
    moved = [0] * len(perm)
    for x, r in enumerate(part.rep):
        moved[perm[x]] = least[r]
    return cf.Partition(tuple(moved))


def draw_instances(seed, scale="full"):
    """(name, alphas, alphaps) of every instance: fixed shapes, seeded labels."""
    per_stratum = SCALE[scale][0]
    shapes = np.random.default_rng(SHAPES_SEED)
    rng = np.random.default_rng([seed, 3])
    for orders in ORDERS:
        fam = cf.abelian_coset_partitions(orders)
        size = fam[0].base_size
        for n in NS:
            for i in range(per_stratum):
                picks = shapes.integers(0, len(fam), size=2 * n)
                perm = rng.permutation(size).tolist()
                parts = [relabel(fam[int(j)], perm) for j in picks]
                yield "dnperm-%s-n%d-%d" % ("x".join(map(str, orders)), n, i), parts[:n], parts[n:]


def build(seed, scale="full"):
    tasks = [instance_task(*inst) for inst in draw_instances(seed, scale)]
    tasks.append(suite_task(seed, SCALE[scale][1]))
    return Workload("permuting", tasks)
