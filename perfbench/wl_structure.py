"""structure: lattice builders, table derivation and the structural scans.

Builds subspace lattices, partition lattices, seeded closed sublattices
of partitions on 6 and 7 points, direct products and lattices loaded
from JSON, then classifies each one.  Builder loops and the O(n^3)
table derivation dominate; the products stay at 25 elements or fewer,
so the term sweep stays minor.

Seeds change the inputs but not the scale: closed sublattices are fixed
generator templates moved by a seeded permutation of the points, and
products and JSON lattices are seeded relabellings of fixed lattices.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from math import comb

import numpy as np

import congforge as cf
from congforge import fixtures, jsonio

from tasks import Task, Workload, expect, first_problem, must
from wl_identities import falsified

TABLE_CHECK_MAX = 70  # element-level table comparison up to this many elements
KINF_MAX = 120  # membership decision up to this many elements
M3_MAX = 70  # diamond enumeration up to this many elements
ABX_MAX = 12  # exchange-biconditional scan (order n^4) up to this many elements
EMBED_BUDGET = 20_000

# Closure sizes and generator templates (partitions as rep tuples).
CLOSURE_TEMPLATES = [
    (65, (0, 0, 0, 3, 0, 3), (0, 0, 2, 3, 2, 2), (0, 1, 0, 1, 4, 4), (0, 0, 2, 2, 4, 5),
     (0, 1, 1, 0, 0, 0)),
    (104, (0, 0, 0, 3, 0, 0), (0, 1, 1, 3, 3, 3), (0, 1, 2, 2, 4, 1), (0, 1, 2, 1, 1, 2),
     (0, 1, 2, 3, 0, 3)),
    (147, (0, 1, 2, 0, 1, 0, 6), (0, 0, 0, 3, 4, 4, 3), (0, 1, 2, 2, 0, 2, 6), (0, 1, 0, 3, 3, 5, 3),
     (0, 1, 1, 3, 4, 1, 1)),
    (120, (0, 0, 2, 3, 2, 0, 6), (0, 1, 2, 2, 4, 1, 2), (0, 1, 2, 1, 2, 0, 2), (0, 1, 0, 3, 1, 1, 6),
     (0, 1, 0, 1, 1, 1, 6), (0, 1, 2, 0, 4, 1, 6)),
]

# Known classes of the fixed lattices: (modular, semidistributive, member of K-infinity).
_M3_LIKE = (True, False, True)
_DISTRIBUTIVE = (True, True, True)
FACTORS = {
    "m3": (fixtures.m3, _M3_LIKE),
    "n5": (fixtures.n5, (False, True, False)),
    "chain2": (lambda: fixtures.chain(2), _DISTRIBUTIVE),
    "chain3": (lambda: fixtures.chain(3), _DISTRIBUTIVE),
    "chain4": (lambda: fixtures.chain(4), _DISTRIBUTIVE),
    "boolean": (fixtures.boolean_square, _DISTRIBUTIVE),
    "m3x2": (fixtures.m3_times_chain2, _M3_LIKE),
    "sub_2_2": (lambda: cf.subspace_lattice(2, 2).lattice, _M3_LIKE),
    "sub_2_3": (lambda: cf.subspace_lattice(2, 3).lattice, _M3_LIKE),
    "sub_3_2": (lambda: cf.subspace_lattice(3, 2).lattice, (True, False, False)),
    "kinf_a": (fixtures.kinf_sample_a, _M3_LIKE),
    "kinf_b": (fixtures.kinf_sample_b, _M3_LIKE),
}
PRODUCTS = [
    ("m3", "chain2"), ("m3", "m3"), ("sub_2_3", "chain2"), ("n5", "chain2"), ("boolean", "chain3"),
    ("m3", "chain3"), ("n5", "n5"), ("kinf_b", "chain2"), ("boolean", "boolean"), ("m3", "boolean"),
]
JSON_SOURCES = ["m3", "n5", "m3x2", "chain4", "boolean", "sub_2_2", "sub_3_2", "sub_2_3",
                "kinf_a", "kinf_b"]
JSON_CORPUS = ["m3", "n5", "m3x2", "chain4", "boolean", "sub_2_2", "sub_2_3", "kinf_b"]

SCALE = {
    "full": {
        "subspaces": [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (3, 5), (3, 7), (4, 3)],
        "partitions": [3, 4, 5, 6],
        "closures": CLOSURE_TEMPLATES,
        "products": PRODUCTS,
        "json": JSON_SOURCES,
        "json_copies": 10,
        "bowties": 2,
    },
    "tiny": {
        "subspaces": [(2, 2), (3, 2)],
        "partitions": [3, 4],
        "closures": CLOSURE_TEMPLATES[:1],
        "products": PRODUCTS[:2],
        "json": JSON_SOURCES[:2],
        "json_copies": 1,
        "bowties": 1,
    },
}


def bell(n):
    b = [1]
    while len(b) <= n:
        b.append(sum(comb(len(b) - 1, k) * b[k] for k in range(len(b))))
    return b[n]


def relabelled(lat, perm):
    """Covers of lat with element i renamed perm[i]."""
    return sorted((int(perm[a]), int(perm[b])) for a, b in lat.covers())


def lattice_json(size, covers):
    return json.dumps({"size": size, "covers": [list(c) for c in covers]})


def bowtie(rng):
    """A poset that is not a lattice: two atoms with two minimal upper bounds."""
    size = 6
    covers = [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 5), (4, 5)]
    perm = rng.permutation(size)
    covers = sorted((int(perm[a]), int(perm[b])) for a, b in covers)
    return size, covers


def no_unique_bound(size, covers, pair, kind):
    """Brute force on the order: does the pair really lack the reported bound?"""
    leq = np.eye(size, dtype=bool)
    for a, b in covers:
        leq[a, b] = True
    for k in range(size):
        leq |= leq[:, k:k + 1] & leq[k:k + 1, :]
    a, b = pair
    if kind == "least upper bound":
        bounds = [c for c in range(size) if leq[a, c] and leq[b, c]]
        least = [c for c in bounds if all(leq[c, d] for d in bounds)]
    else:
        bounds = [c for c in range(size) if leq[c, a] and leq[c, b]]
        least = [c for c in bounds if all(leq[d, c] for d in bounds)]
    return not least


def table_sig(lat):
    """Identity of a FiniteLattice by its order, cheap to compare across passes."""
    return (lat.size, hashlib.sha1(np.packbits(lat.leq).tobytes()).hexdigest())


def relabel(perm, rep):
    """A partition (as a rep tuple) moved by a permutation of its base set."""
    n = len(rep)
    blocks = {}
    for i in range(n):
        blocks.setdefault(rep[i], []).append(perm[i])
    out = [0] * n
    for block in blocks.values():
        low = min(block)
        for x in block:
            out[x] = low
    return tuple(out)


def rep_join(a, b):
    """Join of two partitions given as rep tuples, by union-find."""
    parent = list(range(len(a)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for rep in (a, b):
        for i, r in enumerate(rep):
            x, y = find(i), find(r)
            if x != y:
                parent[max(x, y)] = min(x, y)
    roots = [find(i) for i in range(len(a))]
    low = {}
    for i, r in enumerate(roots):
        low.setdefault(r, i)
    return tuple(low[r] for r in roots)


def rep_meet(a, b):
    low = {}
    return tuple(low.setdefault((a[i], b[i]), i) for i in range(len(a)))


def rep_closure(gens):
    """Sublattice of the partition lattice generated by rep tuples."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        fresh = []
        current = list(closed)
        for a in frontier:
            for b in current:
                for v in (rep_join(a, b), rep_meet(a, b)):
                    if v not in closed:
                        closed.add(v)
                        fresh.append(v)
        frontier = fresh
    return closed


def tables_match(lat, elements, join, meet):
    """Pairwise check of a lattice's tables against element-level operations."""
    index = {e: i for i, e in enumerate(elements)}
    for i, a in enumerate(elements):
        for j in range(i, len(elements)):
            b = elements[j]
            if lat.join[i, j] != index[join(a, b)] or lat.meet[i, j] != index[meet(a, b)]:
                return "tables disagree with element operations at (%d, %d)" % (i, j)
    return None


# -- independent checks of the scans -------------------------------------------


def modular_witness_ok(lat, triple):
    a, b, c = triple
    J, M = lat.join, lat.meet
    return bool(lat.leq[a, c]) and J[a, M[b, c]] != M[J[a, b], c]


def sd_witness_ok(lat, side, triple):
    x, y, z = triple
    M, J = (lat.meet, lat.join) if side == "meet" else (lat.join, lat.meet)
    return M[x, y] == M[x, z] and M[x, y] != M[x, J[y, z]]


def check_modular(lat, out, known):
    ok, triple = out
    if ok:
        return must(known is not False, "modular, but known not to be")
    return first_problem(must(modular_witness_ok(lat, triple), "witness %r is not one" % (triple,)),
                         must(known is not True, "not modular, but known to be"))


def check_sd(lat, side, out, known):
    ok, triple = out
    if ok:
        return must(known is not False, "SD-%s holds, but is known to fail" % side)
    return first_problem(must(sd_witness_ok(lat, side, triple), "witness %r is not one" % (triple,)),
                         must(known is not True, "SD-%s fails, but is known to hold" % side))


def check_kinf(lat, out, known):
    verdict, cert = out
    if known is not None and verdict != known:
        return "membership verdict %r, known %r" % (verdict, known)
    if cert["reason"] == "not_modular":
        return must(modular_witness_ok(lat, cert["triple"]), "bad nonmodularity witness")
    if cert["reason"] == "not_2distributive":
        return must(falsified(cf.generate_2distributive(), lat, cert["assignment"]),
                    "2-distributivity counterexample does not falsify")
    return None


def check_m3(lat, out, known_count):
    J, M = lat.join, lat.meet
    for o, x, y, z in ((t[0], t[1], t[2], t[3]) for t in out):
        i = J[x, y]
        if not all(M[u, v] == o and J[u, v] == i for u, v in ((x, y), (x, z), (y, z))):
            return "(%d, %d, %d) is not a diamond" % (x, y, z)
    return must(known_count is None or len(out) == known_count,
                "%d diamonds, expected %r" % (len(out), known_count))


def check_embed(lat, out):
    if out.status != "found":
        return "no embedding of a modular lattice into a subspace lattice that holds it"
    images = [out.target.subspaces[i] for i in out.hom.map]
    for a, b in itertools.combinations(range(lat.size), 2):
        if images[int(lat.join[a, b])] != cf.s_sum(images[a], images[b]):
            return "image of a join is not the sum of the images"
        if images[int(lat.meet[a, b])] != cf.s_intersect(images[a], images[b]):
            return "image of a meet is not the intersection of the images"
    return None


# -- task construction -------------------------------------------------------------


def classify(tasks, key, size, known, m3_count=None):
    """Scan tasks for the lattice that the task named key leaves in ctx[key].

    Each scan looks its congforge function up when it runs, so the traced
    passes see the wrapped one.
    """
    modular, sd, kinf = known

    def scan(name, call, check):
        tasks.append(Task("%s/%s" % (key, name), lambda ctx: (ctx[key], call(ctx[key])),
                          lambda out: check(*out), lambda out: repr(out[1])))

    scan("is_modular", lambda lat: cf.is_modular(lat),
         lambda lat, out: check_modular(lat, out, modular))
    for side in ("meet", "join"):
        scan("sd-" + side, lambda lat, s=side: cf.check_semidistributivity(lat, s),
             lambda lat, out, s=side: check_sd(lat, s, out, sd))
    if size <= KINF_MAX:
        scan("k_infinity", lambda lat: cf.k_infinity_member(lat),
             lambda lat, out: check_kinf(lat, out, kinf))
    if size <= ABX_MAX and modular:
        scan("abx_check", lambda lat: cf.abx_check(lat),
             lambda lat, out: must(out == (True, None), "exchange biconditional fails: %r" % (out,)))
    if size <= M3_MAX:
        scan("m3_configurations", lambda lat: cf.m3_configurations(lat),
             lambda lat, out: check_m3(lat, out, m3_count))


def build_task(key, make, check):
    """A build whose lattice later tasks read from the pass context."""

    def run(ctx):
        out = make()
        ctx[key] = out if isinstance(out, cf.FiniteLattice) else out.lattice
        return out

    sig = lambda out: table_sig(out if isinstance(out, cf.FiniteLattice) else out.lattice)  # noqa
    return Task(key, run, check, sig)


def subspace_tasks(tasks, dim, p):
    key = "sub(%d,%d)" % (dim, p)
    expected = sum(cf.gaussian_binomial(dim, k, p) for k in range(dim + 1))

    def check(sub):
        return first_problem(
            must(len(sub) == expected, "%d subspaces, expected %d" % (len(sub), expected)),
            tables_match(sub.lattice, sub.subspaces, cf.s_sum, cf.s_intersect)
            if expected <= TABLE_CHECK_MAX else None,
        )

    tasks.append(build_task(key, lambda: cf.subspace_lattice(dim, p), check))
    known = (True, False, dim <= 2)
    classify(tasks, key, expected, known, comb(p + 1, 3) if dim == 2 else None)


def partition_tasks(tasks, n):
    key = "pi(%d)" % n

    def check(eq):
        return first_problem(
            must(len(eq) == bell(n), "%d partitions, Bell(%d) = %d" % (len(eq), n, bell(n))),
            tables_match(eq.lattice, eq.partitions, cf.p_join, cf.p_meet)
            if len(eq) <= TABLE_CHECK_MAX else None,
        )

    tasks.append(build_task(key, lambda: cf.full_partition_lattice(n), check))
    known = (n <= 3, n <= 2, n <= 3)
    classify(tasks, key, bell(n), known, 1 if n == 3 else None)


def closure_tasks(tasks, i, template, rng):
    size, *template = template
    n = len(template[0])
    perm = [int(v) for v in rng.permutation(n)]
    gens = [cf.Partition(relabel(perm, rep)) for rep in template]
    key = "closure%d" % i

    def check(eq):
        got = {p.rep for p in eq.partitions}
        return first_problem(
            must(len(got) == size, "%d elements, expected %d" % (len(got), size)),
            must(got == rep_closure([g.rep for g in gens]), "closure differs from union-find closure"),
            tables_match(eq.lattice, eq.partitions, cf.p_join, cf.p_meet)
            if len(eq) <= TABLE_CHECK_MAX else None,
        )

    tasks.append(build_task(key, lambda: cf.closed_sublattice(gens), check))
    classify(tasks, key, size, (None, None, None))


def product_tasks(tasks, i, left, right, rng):
    (make_a, known_a), (make_b, known_b) = FACTORS[left], FACTORS[right]
    a, b = seeded_copy(make_a(), rng), seeded_copy(make_b(), rng)
    key = "product%d(%s,%s)" % (i, left, right)

    def check(lat):
        n2 = b.size
        idx = np.arange(lat.size)
        i1, i2 = idx // n2, idx % n2
        join = a.join[i1[:, None], i1[None, :]] * n2 + b.join[i2[:, None], i2[None, :]]
        meet = a.meet[i1[:, None], i1[None, :]] * n2 + b.meet[i2[:, None], i2[None, :]]
        return first_problem(
            must(lat.size == a.size * b.size, "size is not the product of the sizes"),
            must(np.array_equal(lat.join, join) and np.array_equal(lat.meet, meet),
                 "tables are not componentwise"),
        )

    tasks.append(build_task(key, lambda: cf.direct_product(a, b, labels=False), check))
    known = tuple(x and y for x, y in zip(known_a, known_b))
    classify(tasks, key, a.size * b.size, known)


def seeded_copy(lat, rng):
    perm = rng.permutation(lat.size)
    return cf.from_cover_relation(lat.size, relabelled(lat, perm))


def json_load_task(key, src, rng):
    """Load a seeded relabelling of src from JSON; later tasks find it in ctx[key]."""
    perm = rng.permutation(src.size)
    text = lattice_json(src.size, relabelled(src, perm))

    def check(lat):
        inv = np.argsort(perm)  # element of src at each loaded index
        return must(lat.size == src.size and
                    np.array_equal(lat.leq, src.leq[inv[:, None], inv[None, :]]) and
                    np.array_equal(lat.join, perm[src.join[inv[:, None], inv[None, :]]]),
                    "loaded order or tables differ from the source lattice")

    return build_task(key, lambda: jsonio.lattice_from_json(text), check)


def json_tasks(tasks, name, rng):
    make, known = FACTORS[name]
    src = make()
    key = "json(%s)" % name
    tasks.append(json_load_task(key, src, rng))
    classify(tasks, key, src.size, known, 1 if name in ("m3", "sub_2_2") else None)


def json_corpus_tasks(tasks, copies, rng):
    """Many loads of equally small lattices: the typical task of this workload is a
    small build, so its median latency sits among like tasks, not between unlike ones."""
    for i in range(copies):
        for name in JSON_CORPUS:
            tasks.append(json_load_task("json-corpus%d(%s)" % (i, name), FACTORS[name][0](), rng))


def bowtie_task(tasks, i, rng):
    size, covers = bowtie(rng)
    text = lattice_json(size, covers)

    def check(out):
        if not isinstance(out, cf.NotALatticeError):
            return "a non-lattice loaded without NotALatticeError"
        return must(no_unique_bound(size, covers, out.pair, out.kind),
                    "reported pair %r has a unique %s" % (out.pair, out.kind))

    tasks.append(Task("bowtie%d" % i,
                      lambda ctx: expect(cf.NotALatticeError, jsonio.lattice_from_json, text),
                      check, lambda out: repr(out)))


def embed_tasks(tasks):
    """Small modular lattices into subspace lattices known to hold them."""
    for name, dim, p in (("m3", 2, 2), ("boolean", 2, 2), ("m3x2", 3, 2), ("sub_2_3", 2, 3)):
        lat = FACTORS[name][0]()
        tasks.append(Task("embed(%s,%d,%d)" % (name, dim, p),
                          lambda ctx, lat=lat, dim=dim, p=p: cf.embed_search(lat, dim, p,
                                                                            budget=EMBED_BUDGET),
                          lambda out, lat=lat: check_embed(lat, out),
                          lambda out: (out.status, out.hom.map if out.hom else None)))


def witness_tasks(tasks):
    """The diamond-recovery pipeline on two surjections that succeed and one that fails."""
    m3 = fixtures.m3()
    prod = fixtures.m3_times_chain2()
    glued, glued_hom, glued_triple = fixtures.m3_quotient_nonmodular_fixture()
    cases = [
        ("m3-identity", m3, cf.LatticeHom(m3, m3, range(5)), (1, 2, 3), None),
        ("m3x2-projection", prod, cf.LatticeHom(prod, m3, [i // 2 for i in range(10)]), (3, 4, 7),
         None),
        ("nonmodular", glued, glued_hom, glued_triple, "verify"),
    ]
    for name, lat, hom, triple, failure in cases:
        tasks.append(Task(
            "m3_witness(%s)" % name,
            lambda ctx, lat=lat, hom=hom, triple=triple: cf.m3_witness(lat, hom, *triple),
            lambda rep, failure=failure: must(
                rep.success == (failure is None) and rep.failure_stage == failure,
                "pipeline ended with success=%r at stage %r" % (rep.success, rep.failure_stage)),
            lambda rep: rep.to_json()))


def build(seed, scale="full"):
    conf = SCALE[scale]
    rng = np.random.default_rng([seed, 2])
    tasks = []
    for dim, p in conf["subspaces"]:
        subspace_tasks(tasks, dim, p)
    for n in conf["partitions"]:
        partition_tasks(tasks, n)
    for i, template in enumerate(conf["closures"]):
        closure_tasks(tasks, i, template, rng)
    for i, (left, right) in enumerate(conf["products"]):
        product_tasks(tasks, i, left, right, rng)
    for name in conf["json"]:
        json_tasks(tasks, name, rng)
    json_corpus_tasks(tasks, conf["json_copies"], rng)
    for i in range(conf["bowties"]):
        bowtie_task(tasks, i, rng)
    embed_tasks(tasks)
    witness_tasks(tasks)
    return Workload("structure", tasks)
