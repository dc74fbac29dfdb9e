import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congforge import fixtures, lattice, limits, subspaces, terms, verify
from congforge.lattice import LatticeHom
from congforge.limits import SizeLimitError
from congforge.partitions import Partition, closed_sublattice, full_partition_lattice
from congforge.terms import (
    BudgetExceededError,
    Identity,
    InvalidNError,
    Join,
    Meet,
    QuasiIdentity,
    TermSyntaxError,
    UnboundVariableError,
    Var,
    VectorEvaluator,
    Verdict,
    builtin_formula,
    evaluate,
    generate_2distributive,
    generate_dn,
    generate_dn_star,
    generate_modular,
    generate_sd,
    holds,
    parse,
    substitute,
    to_str,
)
from congforge.verify import dn_pair_agreement


def _in_rounds_of(draws, check):
    """check() with both sampling rounds, limits.HOLDS_ROUND and
    limits.PAIR_ROUND, at `draws` values per variable."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "HOLDS_ROUND", draws)
        mp.setattr(limits, "PAIR_ROUND", draws)
        return check()


def test_parse_meet_join():
    assert parse("x0 * (x1 + x2)") == Meet(Var("x0"), Join(Var("x1"), Var("x2")))


def test_parse_quasi_identity():
    assert parse("x*y = x*z -> x*y = x*(y+z)") == generate_sd("meet")


def test_parse_error_offset():
    with pytest.raises(TermSyntaxError) as err:
        parse("x0 + (")
    assert err.value.offset == 7


def test_parse_inequation_kind():
    phi = parse("x <= x + y")
    assert isinstance(phi, Identity) and phi.kind == "le"


def test_2distributive_printed_form():
    assert to_str(generate_2distributive()) == "u*(x+y+z) = u*(x+y) + u*(x+z) + u*(y+z)"


def test_dn_star_structure():
    phi = generate_dn_star(3)
    assert sorted(phi.variables()) == ["x0", "x0'", "x1", "x1'", "x2", "x2'"]
    y1 = Meet(Join(Var("x1"), Var("x2")), Join(Var("x1'"), Var("x2'")))
    y2 = Meet(Join(Var("x2"), Var("x0")), Join(Var("x2'"), Var("x0'")))
    cross = Join(
        Var("x1"), Meet(Join(Var("x0'"), Var("x1'")), Join(y1, y2))
    )
    assert phi.rhs == Join(Var("x0'"), Meet(Var("x0"), cross))
    assert phi.kind == "le"


def test_dn_rejects_small_n():
    with pytest.raises(InvalidNError):
        generate_dn(2)
    with pytest.raises(InvalidNError):
        generate_dn_star(2)


_names = st.sampled_from(["x", "y", "z", "x0", "x0'", "u_1"])


def _term_strategy():
    return st.recursive(
        _names.map(Var),
        lambda sub: st.builds(Join, sub, sub) | st.builds(Meet, sub, sub),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(_term_strategy())
def test_print_parse_roundtrip_terms(term):
    assert parse(to_str(term)) == term


@settings(max_examples=100, deadline=None)
@given(_term_strategy(), _term_strategy(), st.sampled_from(["eq", "le"]))
def test_print_parse_roundtrip_identities(lhs, rhs, kind):
    phi = Identity(lhs, rhs, kind)
    assert parse(to_str(phi)) == phi


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(_term_strategy(), _term_strategy()), min_size=2, max_size=4))
def test_print_parse_roundtrip_quasi(idents):
    premises = tuple(Identity(a, b) for a, b in idents[:-1])
    phi = QuasiIdentity(premises, Identity(*idents[-1]))
    assert parse(to_str(phi)) == phi


def test_premise_free_quasi_prints_as_its_conclusion():
    conc = Identity(Var("x"), Var("y"))
    assert parse(to_str(QuasiIdentity((), conc))) == conc


def test_evaluate_basics(m3):
    two = fixtures.chain(2)
    assert evaluate(Join(Var("x"), Var("y")), two, {"x": 0, "y": 1}) == 1
    assert evaluate(Meet(Var("x"), Var("x")), m3, {"x": 2}) == 2
    with pytest.raises(UnboundVariableError):
        evaluate(Var("w"), m3, {"x": 0})


def test_evaluate_2dist_witness_in_sub32(sub32):
    from congforge.subspaces import Subspace

    idx = sub32.index
    u = idx[Subspace.from_vectors(2, 3, [(1, 1, 1)])]
    x = idx[Subspace.from_vectors(2, 3, [(1, 0, 0)])]
    y = idx[Subspace.from_vectors(2, 3, [(0, 1, 0)])]
    z = idx[Subspace.from_vectors(2, 3, [(0, 0, 1)])]
    phi = generate_2distributive()
    env = {"u": u, "x": x, "y": y, "z": z}
    assert evaluate(phi.lhs, sub32.lattice, env) == u
    assert evaluate(phi.rhs, sub32.lattice, env) == sub32.lattice.bottom


def test_a_deep_flat_term_is_evaluated_and_substituted(m3):
    # the 5000-term x+...+x that check --identity accepts, nested 4999
    # levels deep on the left, past the default recursion limit
    flat = parse("+".join(["x"] * 5000))
    assert evaluate(flat, m3, {"x": 2}) == 2
    with pytest.raises(UnboundVariableError):
        evaluate(flat, m3, {"y": 2})
    # a right operand deeper than the left, under a meet
    deep = Meet(Var("y"), substitute(flat, {"x": Join(Var("x"), Var("y"))}))
    assert to_str(deep) == "y*(x+y" + "+(x+y)" * 4999 + ")"
    assert evaluate(deep, m3, {"x": 1, "y": 2}) == m3.meet[2, m3.join[1, 2]]
    swapped = substitute(deep, {"x": Meet(Var("u"), Var("v")), "y": Var("w")})
    assert to_str(swapped) == "w*(u*v+w" + "+(u*v+w)" * 4999 + ")"
    assert terms.variables(swapped) == {"u", "v", "w"}
    assert evaluate(swapped, m3, {"u": 1, "v": 1, "w": 3}) == 3
    # variables absent from the mapping stay, as the same objects
    assert substitute(flat, {}).left.left.right is flat.left.left.right


def test_a_deep_flat_term_is_compared_hashed_and_printed():
    # the same 5000-term x+...+x, past the default recursion limit for the
    # dataclass ==, hash and repr
    flat, again = (parse("+".join(["x"] * 5000)) for _ in range(2))
    assert flat == again and flat is not again and hash(flat) == hash(again)
    assert {flat: 1}[again] == 1 and Identity(flat, again) == Identity(again, flat)
    assert repr(flat) == "Join(left=" * 4999 + "Var(name='x')" + ", right=Var(name='x'))" * 4999
    # one differing leaf, at the bottom or the top, or a meet in place of a join
    assert flat != parse("y+" + "+".join(["x"] * 4999))
    assert flat != parse("+".join(["x"] * 4999) + "+y")
    assert flat != Meet(flat.left, flat.right) and flat != flat.left
    assert flat.__eq__("x") is NotImplemented and flat != "x"


def test_shallow_terms_keep_their_dataclass_repr():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert repr(x) == "Var(name='x')"
    assert repr(Meet(Join(x, y), z)) == (
        "Meet(left=Join(left=Var(name='x'), right=Var(name='y')), right=Var(name='z'))")
    assert repr(Identity(Join(x, y), y, "le")) == (
        "Identity(lhs=Join(left=Var(name='x'), right=Var(name='y')), "
        "rhs=Var(name='y'), kind='le')")
    assert Join(x, y) != Meet(x, y) and Join(x, y) == Join(Var("x"), Var("y"))
    assert len({Join(x, y), Join(Var("x"), Var("y")), Meet(x, y)}) == 2


# Recursive references for the term walks: the dataclass semantics, which
# hold on shallow terms.


def _ref_eq(s, t):
    if s.__class__ is not t.__class__:
        return False
    if s.__class__ is Var:
        return s.name == t.name
    return _ref_eq(s.left, t.left) and _ref_eq(s.right, t.right)


def _ref_key(t):
    """The fields of t with its class, nested: two terms are equal exactly
    when their keys are, so a hash that reads the whole term tells apart
    what the keys tell apart."""
    if t.__class__ is Var:
        return ("Var", t.name)
    return (t.__class__.__name__, _ref_key(t.left), _ref_key(t.right))


def _ref_variables(t):
    return {t.name} if t.__class__ is Var else _ref_variables(t.left) | _ref_variables(t.right)


def _ref_substitute(t, mapping):
    if t.__class__ is Var:
        return mapping.get(t.name, t)
    return t.__class__(_ref_substitute(t.left, mapping), _ref_substitute(t.right, mapping))


def _ref_evaluate(t, lat, env):
    if t.__class__ is Var:
        if t.name not in env:
            raise UnboundVariableError(t.name)
        return int(env[t.name])
    left = _ref_evaluate(t.left, lat, env)
    right = _ref_evaluate(t.right, lat, env)
    return int((lat.join if t.__class__ is Join else lat.meet)[left, right])


@st.composite
def _term_pairs(draw):
    """A term and a second one: a fresh copy, one drawn apart, or the copy
    with one variable renamed."""
    s = draw(_term_strategy())
    how = draw(st.sampled_from(["copy", "drawn", "renamed"]))
    if how == "copy":
        return s, _ref_substitute(s, {})
    if how == "drawn":
        return s, draw(_term_strategy())
    return s, _ref_substitute(s, {draw(_names): Var(draw(_names))})


@settings(max_examples=300, deadline=None)
@given(_term_pairs())
def test_eq_hash_and_variables_match_the_recursive_references(pair):
    s, t = pair
    assert (s == t) is _ref_eq(s, t) and (s != t) is not _ref_eq(s, t)
    assert (hash(s) == hash(t)) is (_ref_key(s) == _ref_key(t))
    assert len({s, t}) == len({_ref_key(s), _ref_key(t)})
    assert terms.variables(s) == _ref_variables(s)


@settings(max_examples=300, deadline=None)
@given(_term_strategy(), st.dictionaries(_names, st.integers(0, 4)))
def test_evaluate_matches_the_recursive_reference(term, env):
    lat = fixtures.n5()
    try:
        want = _ref_evaluate(term, lat, env)
    except UnboundVariableError as err:
        with pytest.raises(UnboundVariableError) as got:
            evaluate(term, lat, env)
        assert got.value.name == err.name  # the leftmost unbound variable
    else:
        assert evaluate(term, lat, env) == want


@settings(max_examples=300, deadline=None)
@given(_term_strategy(), st.dictionaries(_names, _term_strategy(), max_size=3))
def test_substitute_matches_the_recursive_reference(term, mapping):
    got, want = substitute(term, mapping), _ref_substitute(term, mapping)
    assert to_str(got) == to_str(want) and _ref_eq(got, want)


def _oracle_verdict(lat, phi):
    """Straightforward nested-loop scan in the same enumeration order."""
    names = sorted(phi.variables())
    prem, conc = (
        (phi.premises, phi.conclusion)
        if isinstance(phi, QuasiIdentity)
        else ((), phi)
    )

    def truth(ident, env):
        l = evaluate(ident.lhs, lat, env)
        r = evaluate(ident.rhs, lat, env)
        return l == r if ident.kind == "eq" else lat.join[l, r] == r

    checked = 0
    for values in itertools.product(range(lat.size), repeat=len(names)):
        env = dict(zip(names, values))
        checked += 1
        if all(truth(p, env) for p in prem) and not truth(conc, env):
            return Verdict("fails", env, checked)
    return Verdict("holds", None, checked)


def test_holds_modular_law(m3, n5):
    verdict = holds(n5, generate_modular())
    assert verdict.status == "fails"
    assert verdict == _oracle_verdict(n5, generate_modular())
    assert holds(m3, generate_modular()).status == "holds"


def test_holds_2dist(m3, sub32):
    assert holds(m3, generate_2distributive()).status == "holds"
    verdict = holds(sub32.lattice, generate_2distributive())
    assert verdict.status == "fails"
    assert verdict == _oracle_verdict(sub32.lattice, generate_2distributive())


def test_holds_semidistributive(m3):
    assert holds(fixtures.chain(4), generate_sd("meet")).status == "holds"
    verdict = holds(m3, generate_sd("join"))
    assert verdict.status == "fails"
    assert verdict == _oracle_verdict(m3, generate_sd("join"))


def _random_lattice(labelings):
    """The sublattice of Eq(4) generated by partitions given as block labels."""
    gens = []
    for labels in labelings:
        blocks = {}
        for x, label in enumerate(labels):
            blocks.setdefault(label, []).append(x)
        gens.append(Partition.from_blocks(len(labels), list(blocks.values())))
    return closed_sublattice(gens).lattice


def _terms_over(names, shared):
    return st.recursive(
        st.sampled_from(names).map(Var) | st.just(shared),
        lambda sub: st.builds(Join, sub, sub) | st.builds(Meet, sub, sub),
        max_leaves=5,
    )


@st.composite
def _formulas(draw):
    """A conclusion in x, y, z and up to two premises in w, x, which the
    conclusion never uses; one drawn term object may recur at several
    places of both."""
    shared = draw(st.recursive(st.sampled_from(["x", "y"]).map(Var),
                               lambda sub: st.builds(Join, sub, sub) | st.builds(Meet, sub, sub),
                               max_leaves=3))
    kinds = st.sampled_from(["eq", "le"])
    sides = _terms_over(["x", "y", "z"], shared)
    conclusion = draw(st.builds(Identity, sides, sides, kinds))
    sides = _terms_over(["w", "x"], shared)
    premises = draw(st.lists(st.builds(Identity, sides, sides, kinds), max_size=2))
    return conclusion, tuple(premises)


_x, _y, _z, _w = Var("x"), Var("y"), Var("z"), Var("w")
_xy = Meet(_x, _y)
# block labels of partitions of {0, 1, 2, 3} generating N5, M3 and the
# one-element lattice
_N5 = [[0, 1, 0, 2], [0, 1, 0, 1], [0, 0, 1, 1]]
_M3 = [[0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 0]]
_ONE = [[0, 0, 0, 0]]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=3),
    _formulas(),
)
@example(_N5, (Identity(_x, Join(_x, Meet(_y, _z))), ()))  # a bare variable as a side
@example(_M3, (Identity(Join(_x, _y), Meet(_z, _w), "le"), ()))  # disjoint variable sets
@example(_N5, (Identity(Join(_xy, Meet(_z, _xy)), Meet(Join(_z, _xy), _xy)), ()))  # repeats
@example(_M3, (Identity(_xy, Meet(_y, _x)), (Identity(Meet(_w, _z), _w),)))
@example(_N5, (Identity(Meet(_x, Join(_y, _z)), Join(_xy, Meet(_x, _z))),
               (Identity(_w, Join(_w, _z), "le"), Identity(_z, _w))))
@example(_ONE, (Identity(_x, _y), ()))
@example(_ONE, (Identity(_xy, Join(_y, _z), "le"), (Identity(_w, _x),)))
def test_holds_matches_scalar_evaluation(labelings, formula):
    lat = _random_lattice(labelings)
    conclusion, premises = formula
    for phi in (conclusion, QuasiIdentity(premises, conclusion)):
        expected = _oracle_verdict(lat, phi)
        assert holds(lat, phi) == expected
        def sampled_check():
            return holds(lat, phi, mode="sampled", samples=200, seed=3)

        sampled = _in_rounds_of(70, sampled_check)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "CHUNK_BYTES", 1)
            assert holds(lat, phi) == expected
            assert _in_rounds_of(70, sampled_check) == sampled


@pytest.mark.parametrize("size, values, index", [
    (17, np.uint8, np.uint16),
    (256, np.uint8, np.uint16),
    (257, np.uint16, np.uint32),
])
def test_sweep_crosses_the_narrow_dtype_boundary(size, values, index):
    # values are held in narrow_dtype(size) and gather indices in
    # narrow_dtype(size**2); an index left in the values' dtype would wrap
    # from 17 elements on, read a wrong cell and break one of these laws
    # somewhere on the size**k grid
    assert limits.narrow_dtype(size) == values
    assert limits.narrow_dtype(size ** 2) == index
    chain = fixtures.chain(size)
    for text in ("x*(x+y) = x", "x + x*y = x", "x*y = y*x", "x+y = y+x", "x*y <= x+y",
                 "x*(y+z) = x*y + x*z"):
        phi = parse(text)
        k = len(phi.variables())
        assert holds(chain, phi, budget=None) == Verdict("holds", None, size ** k), text
        assert holds(chain, phi, "sampled", samples=4000, seed=size).status == "sampled_pass"
    # the first counterexamples, pinned by hand: y above x first at (0, 1);
    # y below both x and z, z not below x, first at (0, 0, 1)
    assert holds(chain, parse("x + y = x")) == Verdict("fails", {"x": 0, "y": 1}, 2)
    phi = parse("x*y = y & y + x = x & y + z = z -> z <= x")
    assert holds(chain, phi, budget=None) == Verdict("fails", {"x": 0, "y": 0, "z": 1}, 2)


def test_pinned_sweep_results_on_n5(n5):
    # the first counterexample and the seeded draws are part of the output
    dn = generate_dn(3)
    names = sorted(dn.variables())

    def env(*values):
        return dict(zip(names, values))

    assert dn_pair_agreement(n5, 3, "exhaustive") == (15625, 155, env(2, 3, 0, 1, 1, 0))
    assert dn_pair_agreement(n5, 3, "sampled", samples=5000, seed=7) == (
        5000, 49, env(3, 1, 1, 2, 4, 0))
    assert _in_rounds_of(1000, lambda: dn_pair_agreement(n5, 3, "sampled", samples=5000,
                                                         seed=7)) == (
        5000, 51, env(3, 1, 2, 1, 2, 1))
    assert holds(n5, dn) == Verdict("fails", env(2, 0, 0, 2, 1, 3), 6309)
    assert holds(n5, dn, mode="sampled", samples=5000, seed=7) == Verdict(
        "fails", env(2, 0, 1, 2, 1, 3), 185)


def test_tiny_chunk_budget_gives_the_same_sweeps(monkeypatch, m3, n5):
    def outcomes():
        return [
            holds(n5, generate_dn(3)),
            holds(n5, generate_sd("meet")),
            holds(m3, generate_2distributive()),
            _in_rounds_of(70, lambda: holds(m3, generate_sd("join"), mode="sampled",
                                            samples=300, seed=5)),
            holds(m3, generate_dn_star(3), mode="sampled", samples=300, seed=5),
            _in_rounds_of(70, lambda: dn_pair_agreement(n5, 3, "sampled", samples=300, seed=2)),
            dn_pair_agreement(fixtures.chain(2), 3, "exhaustive"),
            dn_pair_agreement(n5, 3, "exhaustive"),
            terms._dn_transfer(fixtures.chain(3), 4),
        ]

    expected = outcomes()
    monkeypatch.setattr(limits, "CHUNK_BYTES", 1)
    assert outcomes() == expected
    monkeypatch.undo()
    monkeypatch.setattr(limits, "FIRST_CELLS", 1)  # the shared schedule starts at one row
    assert outcomes() == expected


# -- the folded sweep ------------------------------------------------------------
#
# On a range where a variable is one-valued, the grid sweep folds the
# operations it absorbs (the bottom under a meet, the top under a join, the
# bottom on the left of <= and the top on its right) and computes what only
# one-valued operands feed on single values.  These tests hold that path to
# scalar evaluation under settings that reach it in each of its forms, on
# lattices whose element 0 is the bottom, the top, or neither.


def _relabelled(lat, order):
    """lat with its elements renumbered: new element i is old element order[i]."""
    return lattice.FiniteLattice(lat.leq[np.ix_(order, order)])


def _relabellings(lat):
    """lat renumbered so that element 0 is its bottom, its top, and (given
    a third element) neither; the other elements keep their order."""
    middle = [x for x in range(lat.size) if x not in (lat.bottom, lat.top)]
    return [_relabelled(lat, [first] + [x for x in range(lat.size) if x != first])
            for first in [lat.bottom, lat.top] + middle[:1]]


def _settings(lat, identities):
    """(CHUNK_BYTES, FIRST_CELLS) settings of a sweep of identities on lat.

    The defaults; a first range of one row of the first variable (the
    split's row then holds FIRST_CELLS cells), so that the first variable
    is one-valued there and the others are not; FIRST_CELLS = 1, where
    every variable is a prefix variable, and the first range one
    assignment; room for three prefix rows of the split after the first
    variable, so that ranges are cut at each value of it (for a lattice of
    more than three elements); and, up to 10**4 assignments, one byte,
    where every range is one assignment.
    """
    ev = VectorEvaluator(lat, identities)
    fixed, per_row = ev._layout(2) if len(ev.names) > 1 else (0, 0)
    out = [(limits.CHUNK_BYTES, limits.FIRST_CELLS),
           (limits.CHUNK_BYTES, lat.size ** (len(ev.names) - 1)), (limits.CHUNK_BYTES, 1),
           (fixed + 3 * per_row, limits.FIRST_CELLS)]
    return out + [(1, limits.FIRST_CELLS)] * (lat.size ** len(ev.names) <= 10 ** 4)


def _under(setting, check):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "CHUNK_BYTES", setting[0])
        mp.setattr(limits, "FIRST_CELLS", setting[1])
        return check()


def _matches_scalar_evaluation(lat, phi):
    premises, conclusion = terms._formula_parts(phi)
    expected = _oracle_verdict(lat, phi)
    for setting in _settings(lat, (conclusion,) + premises):
        assert _under(setting, lambda: holds(lat, phi, budget=None)) == expected, (
            lat, to_str(phi), setting)


# each side of = and <= meets a one-valued operand on either side of an
# operation, and some identities fail only past element 0's block
_FOLDING = [parse(text) for text in (
    "y <= x", "x <= y", "x*y <= z", "z <= x + y", "x + y*z <= (x + y)*(x + z)",
    "u*(x + y) = u*x + u*y", "u + x*y = (u + x)*(u + y)", "x*y = x*z -> x*y = x*(y + z)",
)] + [generate_2distributive(), generate_modular(), generate_sd("join")]


@pytest.mark.parametrize("name", ["corpus", "pi_3", "pi_4"])
def test_folded_sweeps_match_scalar_evaluation(lattice_corpus, name):
    if name == "corpus":  # up to 16 elements, for the scalar oracle's sake
        lats = [lat for _, lat in lattice_corpus if lat.size <= 16]
    else:
        lats = [full_partition_lattice(int(name[-1])).lattice]
    for lat in lats:
        for relabelled in _relabellings(lat):
            for phi in _FOLDING:
                _matches_scalar_evaluation(relabelled, phi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=3),
       st.sampled_from(_FOLDING), st.integers(0, 2))
def test_folded_sweeps_match_scalar_evaluation_on_generated_lattices(labelings, phi, which):
    variants = _relabellings(_random_lattice(labelings))
    _matches_scalar_evaluation(variants[min(which, len(variants) - 1)], phi)


def _scalar_pair_agreement(lat, n):
    """dn_pair_agreement by scalar evaluation of every assignment."""
    pair = [generate_dn(n), generate_dn_star(n)]
    names = sorted(pair[0].variables())
    discrepancies, first = 0, None
    for values in itertools.product(range(lat.size), repeat=len(names)):
        env = dict(zip(names, values))
        truths = [lat.le(evaluate(ident.lhs, lat, env), evaluate(ident.rhs, lat, env))
                  for ident in pair]
        if truths[0] != truths[1]:
            discrepancies += 1
            first = first or env
    return lat.size ** len(names), discrepancies, first


def test_folded_pair_sweeps_match_scalar_evaluation(n5, m3):
    # the sweep runs only where the two disagree, up to the first
    # disagreement, so n5 and its relabellings carry the test
    for lat in _relabellings(n5) + [m3, fixtures.chain(3)]:
        expected = _scalar_pair_agreement(lat, 3)
        for setting in _settings(lat, [generate_dn(3), generate_dn_star(3)]):
            assert _under(setting, lambda: dn_pair_agreement(lat, 3)) == expected, (lat, setting)


def test_sweep_ranges_hold_one_value_of_the_first_variable():
    # Sub(3,7) has 116 elements; 2-distributivity takes two prefix
    # variables and fails at u = 1, x = 2, past the whole block of u = 0
    lat = subspaces.subspace_lattice(3, 7).lattice
    ev = VectorEvaluator(lat, [generate_2distributive()])
    blocks = list(itertools.islice(ev.sweep("exhaustive", None, None, None), 9))
    starts = [offset // 116 ** 3 for offset, _, _ in blocks]
    ends = [(offset + truths[0].size - 1) // 116 ** 3 for offset, _, truths in blocks]
    assert starts == ends == [0] * 7 + [1, 1]
    # the schedule starts again at u = 1, so its first rows cost little
    assert [truths[0].shape[0] for _, _, truths in blocks] == [1, 2, 4, 8, 16, 32, 53, 1, 2]
    assert holds(lat, generate_2distributive(), budget=None) == Verdict(
        "fails", {"u": 1, "x": 2, "y": 9, "z": 17}, 1588870)


def _split_first_fit(ev):
    """The split rule before the ratio: the first split whose prefix row
    fits a chunk, or every variable if none does."""
    k = len(ev.names)
    for split in range(1, k + 1):
        fixed, per_row = ev._layout(split)
        if limits.fits(fixed + per_row):
            break
    return split, fixed, per_row


def _verdict_under(rule, lat, phi):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(VectorEvaluator, "_split", rule)
        return holds(lat, phi, budget=None)


@pytest.mark.parametrize("case", ["sub(4,2)", "sub(3,5)", "kinf_b", "one-byte"])
def test_the_split_rule_keeps_every_verdict(case):
    # the split changes which blocks a sweep yields, never the verdict, the
    # rank it stops at or the counterexample
    if case == "kinf_b":  # 7**5 = 16807 cells per row, just over FIRST_CELLS: still split 1
        lat, phi, split = fixtures.kinf_sample_b(), generate_dn(3), 1
    elif case == "one-byte":  # no split fits: every variable is a prefix variable
        lat, phi, split = fixtures.m3(), generate_2distributive(), 4
    else:  # rows of 67**3 and 64**3 cells at split 1; 67**2 and 64**2 at split 2
        lat = subspaces.subspace_lattice(int(case[4]), int(case[6])).lattice
        phi, split = generate_2distributive(), 2
    with pytest.MonkeyPatch.context() as mp:
        if case == "one-byte":
            mp.setattr(limits, "CHUNK_BYTES", 1)
        ev = VectorEvaluator(lat, [phi])
        assert ev._split()[0] == split
        old, new = _verdict_under(_split_first_fit, lat, phi), holds(lat, phi, budget=None)
    assert (new.status, new.checked, new.assignment) == (old.status, old.checked, old.assignment)
    expected = {"sub(4,2)": ("fails", 310017, {"u": 1, "x": 2, "y": 4, "z": 7}),
                "sub(3,5)": ("fails", 270798, {"u": 1, "x": 2, "y": 7, "z": 13}),
                "kinf_b": ("holds", 7 ** 6, None),
                "one-byte": ("holds", 5 ** 4, None)}[case]
    assert (new.status, new.checked, new.assignment) == expected


def test_grid_bytes_do_not_grow_with_the_split():
    # _split goes on from the first fitting split: every later one fits
    for phi in _FOLDING + [generate_dn(3), generate_dn_star(4)]:
        premises, conclusion = terms._formula_parts(phi)
        for size in (2, 5, 67):
            ev = VectorEvaluator(fixtures.chain(size), (conclusion,) + premises)
            grid = [sum(ev._layout(split)) for split in range(1, len(ev.names) + 1)]
            assert grid == sorted(grid, reverse=True), (to_str(phi), size)


def test_the_first_range_past_the_folded_block_holds_about_first_cells():
    # Sub(4,2): split 1 would evaluate rows of 67**3 = 300763 assignments,
    # two of them past u = 0, for a hit 9254 assignments into u = 1
    lat = subspaces.subspace_lattice(4, 2).lattice
    ev = VectorEvaluator(lat, [generate_2distributive()])
    block = next(truths[0] for offset, _, truths in ev.sweep("exhaustive", None, None, None)
                 if offset >= 67 ** 3)
    assert block.size <= limits.FIRST_CELLS
    assert not block.all()  # the first counterexample, rank 310016, lies in it


def test_split_is_the_fitting_row_nearest_first_cells_by_ratio(monkeypatch):
    lat = fixtures.m3_times_chain2()  # 10 elements, six variables
    ev = VectorEvaluator(lat, [generate_dn(3)])
    assert ev._split()[0] == 2  # 10**4 cells, a ratio of 1.6, against 6.1 for 10**5
    monkeypatch.setattr(limits, "FIRST_CELLS", 10 ** 5)
    assert ev._split()[0] == 1
    monkeypatch.setattr(limits, "FIRST_CELLS", 1)
    assert ev._split()[0] == 6
    # on a tie the smaller split: 4**4 and 4**3 cells are both twice from 128
    monkeypatch.setattr(limits, "FIRST_CELLS", 128)
    assert VectorEvaluator(fixtures.chain(4), [generate_dn(3)])._split()[0] == 2
    # only fitting splits are candidates
    monkeypatch.setattr(limits, "FIRST_CELLS", 10 ** 5)
    monkeypatch.setattr(limits, "CHUNK_BYTES", sum(ev._layout(2)))
    assert ev._split()[0] == 2 and _split_first_fit(ev)[0] == 2


def test_sampled_columns_are_the_seeded_int64_stream_in_the_value_dtype(monkeypatch, n5):
    # the seeded sampled results rest on this: a round's column drawn as
    # int64 slices and stored narrow holds the values of one whole draw
    lats = [fixtures.chain(2), n5, fixtures.m3_times_chain2(),
            lattice.direct_product(fixtures.boolean_square(), fixtures.boolean_square()),
            fixtures.chain(67), fixtures.chain(300)]
    assert [lat.size for lat in lats] == [2, 5, 10, 16, 67, 300]
    samples, draws, seed = 301, 200, 11  # two rounds, the second one short
    phi = generate_modular()
    names = sorted(phi.variables())

    def stream(size):
        rng = np.random.default_rng(seed)
        cols = {v: [] for v in names}
        for done in range(0, samples, draws):
            for v in names:
                cols[v].append(rng.integers(0, size, size=min(draws, samples - done),
                                            dtype=np.int64))
        return {v: np.concatenate(c) for v, c in cols.items()}

    def swept(lat):
        ev = VectorEvaluator(lat, [phi])
        blocks = _in_rounds_of(draws, lambda: [
            (offset, env) for offset, env, _ in
            ev.sweep("sampled", samples, seed, limits.HOLDS_ROUND)])
        sizes = [len(env[names[0]]) for _, env in blocks]
        assert [offset for offset, _ in blocks] == np.cumsum([0] + sizes[:-1]).tolist()
        for _, env in blocks:
            assert all(col.dtype == limits.narrow_dtype(lat.size) for col in env.values())
        return {v: np.concatenate([env[v] for _, env in blocks]) for v in names}

    assert limits.narrow_dtype(lats[-1].size) == np.uint16
    # the default budget, slices of 37 values, and slices of one value
    for chunk_bytes in (limits.CHUNK_BYTES, 8 * 37, 1):
        monkeypatch.setattr(limits, "CHUNK_BYTES", chunk_bytes)
        for lat in lats:
            got, want = swept(lat), stream(lat.size)
            assert all(np.array_equal(got[v], want[v]) for v in names), (lat.size, chunk_bytes)


def test_a_sampled_round_is_held_in_the_value_dtype(m3):
    # 2**20 draws of 8 variables: an 8 MiB round in uint8, with one int64
    # slice and the sweep's chunks within CHUNK_BYTES
    tracemalloc.start()
    try:
        got = dn_pair_agreement(m3, 4, "sampled", samples=1 << 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (1 << 20, 0, None)
    assert peak < 24 << 20


def test_sampled_mode_needs_a_positive_count(m3):
    phi = generate_dn_star(3)
    for samples in (0, -5):
        with pytest.raises(ValueError):
            holds(m3, phi, mode="sampled", samples=samples, seed=1)
        with pytest.raises(ValueError):
            dn_pair_agreement(m3, 3, "sampled", samples=samples, seed=1)


def test_budget_and_sampling(sub32):
    phi = generate_dn_star(3)
    with pytest.raises(BudgetExceededError):
        holds(sub32.lattice, phi)  # 16**6 assignments blow the default budget
    v1 = holds(sub32.lattice, phi, mode="sampled", samples=2000, seed=11)
    v2 = holds(sub32.lattice, phi, mode="sampled", samples=2000, seed=11)
    assert v1 == v2
    with pytest.raises(ValueError):
        holds(sub32.lattice, phi, mode="sampled")  # seed is mandatory
    # one budget error for sweeps and searches
    assert BudgetExceededError is limits.BudgetExceededError is lattice.BudgetExceededError


def test_the_budget_counts_every_term_node_of_each_builtin(m3):
    # the budget is a refusal threshold on size**k times the term nodes of
    # the formula, every occurrence counted, whatever the engine evaluates;
    # the figures on the 5-element M3 are pinned so refusals cannot drift
    costs = {
        ("modular", None): 1750, ("2dist", None): 15000, ("sd-meet", None): 1750,
        ("sd-join", None): 1750, ("dn", 3): 500000, ("dn", 4): 17187500,
        ("dn", 5): 546875000, ("dn-star", 3): 562500, ("dn-star", 4): 18750000,
        ("dn-star", 5): 585937500, ("arguesian-d3", None): 562500,
    }
    for (name, n), cost in costs.items():
        phi = builtin_formula(name, n)
        parts = (phi.conclusion,) + phi.premises if isinstance(phi, QuasiIdentity) else (phi,)
        assert VectorEvaluator(m3, parts).cost == cost, name
        with pytest.raises(BudgetExceededError, match="needs %d term evaluations" % cost):
            holds(m3, phi, budget=cost - 1)


def test_dn_star_substitution_fails_in_n5(n5):
    # sending the head variable to x, the other plain variables to y + z
    # and all primed variables to y * z turns the companion inequality
    # into a modularity consequence, which the pentagon refutes
    x, y, z = Var("x"), Var("y"), Var("z")
    for n in (3, 4):
        phi = generate_dn_star(n)
        mapping = {"x0": x}
        for i in range(n):
            if i > 0:
                mapping["x%d" % i] = Join(y, z)
            mapping["x%d'" % i] = Meet(y, z)
        inst = Identity(
            substitute(phi.lhs, mapping), substitute(phi.rhs, mapping), "le"
        )
        assert holds(n5, inst).status == "fails"


def test_dn_equals_dn_star_per_assignment_small(m3):
    # modular fixture: the two inequalities agree assignment by assignment
    dn, ds = generate_dn(3), generate_dn_star(3)
    names = sorted(dn.variables())
    for values in itertools.product(range(m3.size), repeat=2):
        # spot-check a slice of the full space: first two variables vary,
        # rest pinned to atoms
        env = dict(zip(names, values + (1, 2, 3, 0)))
        t1 = m3.join[evaluate(dn.lhs, m3, env), evaluate(dn.rhs, m3, env)] == evaluate(
            dn.rhs, m3, env
        )
        t2 = m3.join[evaluate(ds.lhs, m3, env), evaluate(ds.rhs, m3, env)] == evaluate(
            ds.rhs, m3, env
        )
        assert t1 == t2


def test_evaluate_respects_homomorphisms(m3, m3x2):
    proj = LatticeHom(m3x2, m3, [i // 2 for i in range(10)])
    phi = generate_2distributive()
    for values in itertools.product(range(0, 10, 3), repeat=4):
        env = dict(zip(sorted(phi.variables()), values))
        mapped = {k: proj(v) for k, v in env.items()}
        assert proj(evaluate(phi.lhs, m3x2, env)) == evaluate(phi.lhs, m3, mapped)
        assert proj(evaluate(phi.rhs, m3x2, env)) == evaluate(phi.rhs, m3, mapped)


# -- the transfer behind exhaustive dn/dn* agreement ---------------------------

_SWEEP_LIMIT = 1_100_000  # assignments a reference sweep may take


def _swept_pair_agreement(lat, n):
    """Exhaustive dn/dn* agreement by enumerating every assignment."""
    discrepancies = 0
    first = None
    for _, env, bad in verify._disagreements(lat, n, "exhaustive", None, 0):
        if first is None and bad.any():
            first = verify._witness(env, bad)
        discrepancies += int(np.count_nonzero(bad))
    return lat.size ** (2 * n), discrepancies, first


def _transfer_matches_sweep(lat):
    compared = 0
    for n in (3, 4, 5):
        if lat.size ** (2 * n) <= _SWEEP_LIMIT:
            assert dn_pair_agreement(lat, n) == _swept_pair_agreement(lat, n), (lat, n)
            compared += 1
    return compared


def test_transfer_matches_the_sweep_on_the_fixtures(lattice_corpus):
    # the corpus holds n5, m3, the 2x2 square and the 4-chain
    lats = [fixtures.chain(k) for k in (1, 2, 3)] + [lat for _, lat in lattice_corpus]
    assert sum(_transfer_matches_sweep(lat) for lat in lats) == 24


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1, max_size=3))
def test_transfer_matches_the_sweep_on_generated_lattices(labelings):
    _transfer_matches_sweep(_random_lattice(labelings))


def test_pinned_discrepancy_counts_on_n5(n5, monkeypatch):
    for n, count in ((3, 155), (4, 2531), (5, 41548)):
        assert terms._dn_transfer(n5, n) == (5 ** (2 * n), count)
    # a budget that cuts the 25 next pairs into slices of 7, 7, 7 and 4
    monkeypatch.setattr(limits, "CHUNK_BYTES", 16 * 8 * 180)
    assert terms._dn_transfer(n5, 4) == (5 ** 8, 2531)


def test_transfer_raises_when_its_walk_misses_assignments(n5, monkeypatch):
    real = terms.chunks
    monkeypatch.setattr(terms, "chunks", lambda *args, **kw: list(real(*args, **kw))[:-1])
    with pytest.raises(RuntimeError, match="indicates a bug"):
        terms._dn_transfer(n5, 3)


def test_transfer_refuses_counts_past_int64():
    two = fixtures.chain(2)
    assert terms._dn_transfer(two, 31) == (2 ** 62, 0)
    with pytest.raises(SizeLimitError):
        dn_pair_agreement(two, 32)
    with pytest.raises(InvalidNError):
        terms._dn_transfer(two, 2)
