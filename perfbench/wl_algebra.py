"""algebra: congruences, the commutator and the power construction.

Groups up to 12 elements (cyclic products, S3, D4, A4, D6) and the
non-group fixtures.  Tasks are con_lattice, commutator and centrality
on seeded congruence pairs, solvable_series, check_weak_difference_term
and verify_embedding_construction.  The 2x2-matrix closure does almost
all the work while the lattices stay small; it is the only workload
that reaches algebras.

Seeds change the inputs but not the scale: every seed draws one pair
from each class of congruence pairs (classes by the block sizes of both
congruences), so each algebra gets the same number of pairs of the same
cost.  Pair classes whose closure would exceed CLOSURE_CAP rows are left
out; that drops [1,1] of A4 and D6, which alone take seconds, and of the
abelian 12-element groups.
"""

from __future__ import annotations

import itertools

import numpy as np

import congforge as cf
from congforge import fixtures
from congforge.algebras import commutator_by_descent

from tasks import Task, Workload, first_problem, must

CLOSURE_CAP = 1500  # estimated rows of the 2x2-matrix closure of a pair
DESCENT_MAX = 8  # commutator_by_descent cross-check up to this many elements


def perm_group(generators):
    """A permutation group as an algebra with mul and inv; identity is element 0."""
    degree = len(generators[0])
    ident = tuple(range(degree))
    elements, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                c = tuple(a[g[i]] for i in range(degree))
                if c not in elements:
                    elements.add(c)
                    fresh.append(c)
        frontier = fresh
    elements = sorted(elements)
    index = {e: i for i, e in enumerate(elements)}
    mul = tuple(tuple(index[tuple(a[b[i]] for i in range(degree))] for b in elements)
                for a in elements)
    inv = tuple(index[tuple(sorted(range(degree), key=lambda i: a[i]))] for a in elements)
    return cf.FiniteAlgebra(len(elements), [cf.Operation("mul", 2, mul), cf.Operation("inv", 1, inv)])


ALGEBRAS = {
    "z2": lambda: fixtures.cyclic_group(2),
    "z3": lambda: fixtures.cyclic_group(3),
    "z4": lambda: fixtures.cyclic_group(4),
    "z2z2": fixtures.klein_group,
    "z6": lambda: fixtures.cyclic_group(6),
    "z2z4": lambda: fixtures.abelian_group((2, 4)),
    "z2z2z2": lambda: fixtures.abelian_group((2, 2, 2)),
    "z3z3": lambda: fixtures.abelian_group((3, 3)),
    "z2z6": lambda: fixtures.abelian_group((2, 6)),
    "z12": lambda: fixtures.cyclic_group(12),
    "s3": fixtures.sym3,
    "d4": lambda: perm_group([(1, 2, 3, 0), (3, 2, 1, 0)]),
    "a4": lambda: perm_group([(1, 2, 0, 3), (0, 2, 3, 1)]),
    "d6": lambda: perm_group([(1, 2, 3, 4, 5, 0), (5, 4, 3, 2, 1, 0)]),
    "majority3": fixtures.majority3,
    "semilattice2": fixtures.meet_semilattice2,
}
WDT_TERMS = {"majority3": fixtures.majority_wdt_term, "semilattice2": fixtures.semilattice_wdt_term}
EMBEDDINGS = [("z2", 2), ("z2", 3), ("z2", 4), ("z3", 2)]

SCALE = {
    "full": list(ALGEBRAS),
    "tiny": ["z2", "z2z2", "s3", "majority3"],
}


# -- group-theoretic oracle ------------------------------------------------------


class Group:
    """Subgroup arithmetic on a group algebra's multiplication table."""

    def __init__(self, alg):
        self.mul = alg.by_name["mul"].tolist()
        self.inv = alg.by_name["inv"].tolist()
        self.n = alg.size

    def generated(self, gens):
        """Closure of the identity under right multiplication by gens."""
        sub, frontier = {0}, [0]
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    c = self.mul[a][g]
                    if c not in sub:
                        sub.add(c)
                        fresh.append(c)
            frontier = fresh
        return frozenset(sub)

    def cosets(self, sub):
        blocks = {frozenset(self.mul[g][h] for h in sub) for g in range(self.n)}
        return cf.Partition.from_blocks(self.n, [sorted(b) for b in blocks])

    def normal_subgroups(self):
        """Every subgroup, grown from the trivial one an element at a time; the normal ones."""
        subs, frontier = set(), [frozenset({0})]
        while frontier:
            sub = frontier.pop()
            if sub not in subs:
                subs.add(sub)
                frontier += [self.generated(sub | {g}) for g in range(self.n) if g not in sub]
        return [s for s in subs
                if all(self.mul[self.mul[g][h]][self.inv[g]] in s for g in range(self.n) for h in s)]

    def commutator(self, a, b):
        return self.generated({self.mul[self.mul[x][y]][self.mul[self.inv[x]][self.inv[y]]]
                               for x in a for y in b})

    def subgroup(self, part):
        return frozenset(i for i in range(self.n) if part.rep[i] == part.rep[0])


def compatible_partitions(alg):
    """Every congruence of a small algebra, by brute force over all partitions."""
    n = alg.size
    out = []
    for labels in itertools.product(range(n), repeat=n):
        if any(labels[i] > max(labels[:i], default=-1) + 1 for i in range(n)):
            continue  # not a restricted growth string
        ok = True
        for arr in alg.by_name.values():
            for args in itertools.product(range(n), repeat=arr.ndim):
                for alt in itertools.product(range(n), repeat=arr.ndim):
                    if all(labels[a] == labels[b] for a, b in zip(args, alt)):
                        ok &= labels[int(arr[args])] == labels[int(arr[alt])]
        if ok:
            out.append(cf.Partition.from_blocks(
                n, [[i for i in range(n) if labels[i] == c] for c in sorted(set(labels))]))
    return out


# -- tasks -----------------------------------------------------------------------


def shape(part):
    return tuple(sorted(len(b) for b in part.blocks()))


def build_algebra(name, rng, tasks, by_name):
    alg = ALGEBRAS[name]()
    n = alg.size
    group = Group(alg) if "mul" in alg.by_name else None
    if group:
        congruences = sorted((group.cosets(s) for s in group.normal_subgroups()), key=lambda p: p.rep)
    else:
        congruences = compatible_partitions(alg)
    by_name[name] = alg
    oracle_cache = {}

    def oracle(a, b):
        """[a, b] by an independent route: group commutator, or descent."""
        key = (a, b)
        if key not in oracle_cache:
            if group:
                oracle_cache[key] = group.cosets(group.commutator(group.subgroup(a), group.subgroup(b)))
            else:
                oracle_cache[key] = commutator_by_descent(alg, a, b)
        return oracle_cache[key]

    def cost(a, b):
        if group:
            return n * (n // a.block_count()) * (n // b.block_count()) * len(
                group.commutator(group.subgroup(a), group.subgroup(b)))
        return n**4

    tasks.append(Task(
        name + "/con_lattice", lambda ctx: cf.con_lattice(alg),
        lambda con: must(set(con.congruences) == set(congruences),
                         "%d congruences, expected %d" % (len(con), len(congruences))),
        lambda con: tuple(p.rep for p in con.congruences)))

    classes = {}
    for a, b in itertools.product(congruences, repeat=2):
        classes.setdefault((shape(a), shape(b)), []).append((a, b))
    cheap = {key for key, pairs in classes.items() if max(cost(a, b) for a, b in pairs) <= CLOSURE_CAP}
    for key in sorted(classes):
        if key not in cheap:
            continue
        pairs = classes[key]
        a, b = pairs[int(rng.integers(0, len(pairs)))]
        delta = congruences[int(rng.integers(0, len(congruences)))]
        label = "%s/%s,%s" % (name, ".".join(map(str, key[0])), ".".join(map(str, key[1])))

        def check_comm(got, a=a, b=b):
            return first_problem(
                must(got == oracle(a, b), "commutator %r, oracle %r" % (got.rep, oracle(a, b).rep)),
                must(n > DESCENT_MAX or got == commutator_by_descent(alg, a, b),
                     "commutator differs from commutator_by_descent"))

        tasks.append(Task(label + "/commutator", lambda ctx, a=a, b=b: cf.commutator(alg, a, b),
                          check_comm, lambda p: p.rep))
        tasks.append(Task(label + "/centrality",
                          lambda ctx, a=a, b=b, d=delta: cf.centrality(alg, a, b, d),
                          lambda got, a=a, b=b, d=delta: must(got == cf.p_leq(oracle(a, b), d),
                                                              "C(a, b; d) disagrees with [a, b] <= d")))

    top = cf.Partition.one_block(n)
    if (shape(top), shape(top)) in cheap:
        def check_series(series):
            want = [top]
            while True:
                nxt = oracle(want[-1], want[-1])
                if nxt == want[-1]:
                    break
                want.append(nxt)
            return must(series == want, "series differs from the iterated oracle commutator")

        tasks.append(Task(name + "/solvable_series", lambda ctx: cf.solvable_series(alg, top),
                          check_series, lambda s: tuple(p.rep for p in s)))
    if all((shape(t), shape(t)) in cheap for t in congruences):
        term = WDT_TERMS.get(name, fixtures.group_wdt_term)()
        tasks.append(Task(name + "/weak_difference_term",
                          lambda ctx: cf.check_weak_difference_term(alg, term),
                          lambda out: must(out == (True, None), "difference term rejected: %r" % (out,))))


def embedding_task(name, alg, n):
    alpha = cf.Partition.one_block(alg.size)
    return Task("embedding/%s/n%d" % (name, n),
                lambda ctx: cf.verify_embedding_construction(alg, alpha, n),
                lambda rep: must(rep.passed and rep.n == n, "checks failed: %r" % (rep.checks,)),
                lambda rep: (rep.universe_size, rep.interval_size, sorted(rep.checks.items())))


def build(seed, scale="full"):
    rng = np.random.default_rng([seed, 4])
    tasks, by_name = [], {}
    for name in SCALE[scale]:
        build_algebra(name, rng, tasks, by_name)
    for name, n in EMBEDDINGS:
        if name in by_name and (scale == "full" or n == 2):
            tasks.append(embedding_task(name, by_name[name], n))
    return Workload("algebra", tasks)
