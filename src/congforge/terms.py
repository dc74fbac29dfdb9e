"""Lattice terms, identities, quasi-identities: parsing, printing, checking.

Concrete syntax: `+` is join, `*` is meet and binds tighter, `=` separates
the sides of an equation, `<=` writes an inequation (s <= t, that is s+t = t),
`&`-separated equations followed by `->` form a quasi-identity.
Identifiers match [A-Za-z][A-Za-z0-9_']*, so primed variables like x0'
are single tokens.

Checking is exhaustive by default; above the evaluation budget the
caller must switch to sampled mode with an explicit seed so that runs
stay reproducible.  Every check that visits assignments, `holds` and the
paired sweep of the verification suite alike, runs on one engine,
`VectorEvaluator`.  It compiles the formula once into a program over its
structurally distinct subterms and evaluates that program either on a
broadcast grid of all assignments, each subterm over the axes of its own
variables only (exhaustive mode, walked in the leading-variable row
ranges of `limits.chunks`), or on the seeded stream of
`VectorEvaluator.assignments` (sampled mode, drawn in the rounds of
`limits.HOLDS_ROUND` or `PAIR_ROUND`).  The one exception is the
exhaustive count of assignments at which the n-th cyclic inequality and
its companion disagree: `_dn_transfer` counts them by a transfer over
the cycle of variable pairs, without visiting the assignments one by one.

A term may nest thousands of levels deep (`generate_dn(2000)`, or a flat
`x+x+...+x` from the command line), so no walk over a term recurses.  One
walk, `_postorder`, lists a term's nodes bottom-up on a stack of its own;
`==` and `hash` read the tuple of its tokens, `variables` collects its
names, and `substitute` and `evaluate` run a value stack over it.  Four
walks stay separate.  `repr` and `_term_str` write strings top-down on a
stack of pending pieces: a bottom-up fold would copy each subterm's string
at every level above it, which is quadratic on a deep chain.  `_visit`
compiles formulas for the sweep engine, on the timed path of `holds`, and
`evaluate` is its independent oracle.  The parser keeps its own descent:
it recurses only into parentheses, and the tests pin the depth at which
it gives up.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import limits
from .limits import DEFAULT_BUDGET, BudgetExceededError, CongforgeError, SizeLimitError
from .limits import chunk_rows, chunks, index_dtype, narrow_dtype


class TermSyntaxError(CongforgeError):
    """Parse failure; offset is the 1-based byte position in the input."""

    def __init__(self, offset, expected, found):
        self.offset = offset
        self.expected = tuple(expected)
        self.found = found
        super().__init__(
            "syntax error at offset %d: expected %s, found %s"
            % (offset, " or ".join(expected), found)
        )


class UnboundVariableError(CongforgeError):
    def __init__(self, name):
        self.name = name
        super().__init__("unbound variable %r" % name)


class InvalidNError(ValueError, CongforgeError):
    pass


class _Node:
    """==, hash and repr for terms, in place of the dataclass ones, which
    recurse once per nesting level.  == and hash read the tuple of the
    term's postorder tokens, each variable's name and each operation's
    class (_postorder); operations are binary, so this tuple names the term
    exactly, and equal terms hash alike.  repr keeps its own walk, as
    _term_str does: it writes its string top-down on a stack of pending
    pieces, where a bottom-up fold would copy strings at every level.  It
    gives what the dataclass repr gives (repr(Var("x")) is
    "Var(name='x')")."""

    __slots__ = ()

    def _tokens(self):
        return tuple(node.name if node.__class__ is Var else node.__class__
                     for node in _postorder(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tokens() == other._tokens()

    def __hash__(self):
        return hash(self._tokens())

    def __repr__(self):
        out, stack = [], [self]  # pieces pushed right to left
        while stack:
            piece = stack.pop()
            if piece.__class__ is str:
                out.append(piece)
            elif piece.__class__ is Var:
                out.append("Var(name=%r)" % (piece.name,))
            else:
                stack += (")", piece.right, ", right=", piece.left,
                          piece.__class__.__name__ + "(left=")
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class Var(_Node):
    name: str


@dataclass(frozen=True, eq=False, repr=False)
class Join(_Node):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False, repr=False)
class Meet(_Node):
    left: "Term"
    right: "Term"


Term = Var | Join | Meet


@dataclass(frozen=True)
class Identity:
    """An equation s = t, or an inequation s <= t recorded by kind."""

    lhs: Term
    rhs: Term
    kind: str = "eq"  # "eq" | "le"

    def __post_init__(self):
        if self.kind not in ("eq", "le"):
            raise ValueError("kind must be 'eq' or 'le'")

    def variables(self):
        return variables(self.lhs) | variables(self.rhs)


@dataclass(frozen=True)
class QuasiIdentity:
    """premise_1 & ... & premise_k -> conclusion (k may be zero)."""

    premises: tuple[Identity, ...]
    conclusion: Identity

    def variables(self):
        out = self.conclusion.variables()
        for p in self.premises:
            out |= p.variables()
        return out


def _postorder(term):
    """The nodes of term, each after its left and then its right operand:
    its root-right-left preorder, walked on a stack of its own, reversed.
    So a deep term needs no deep Python stack."""
    order, stack = [], [term]
    while stack:
        node = stack.pop()
        order.append(node)
        while node.__class__ is not Var:  # down the right spine, holding left operands
            stack.append(node.left)
            node = node.right
            order.append(node)
    order.reverse()
    return order


def variables(term):
    return {node.name for node in _postorder(term) if node.__class__ is Var}


def substitute(term, mapping):
    """Replace variables by terms; variables absent from mapping stay.
    The result is built on a value stack over _postorder."""
    values = []
    for node in _postorder(term):
        if node.__class__ is Var:
            values.append(mapping.get(node.name, node))
        else:
            right = values.pop()
            values[-1] = node.__class__(values[-1], right)
    return values[0]


# -- printing ---------------------------------------------------------------


def _term_str(term):
    """The concrete syntax of a term, written by an explicit stack of
    pending pieces, so a deep term needs no deep Python stack.  A piece is
    a string or a subterm framed as (term, parent_prec, right_child,
    tight); pieces are pushed right to left."""
    out, stack = [], [(term, 0, False, False)]
    while stack:
        piece = stack.pop()
        if piece.__class__ is str:
            out.append(piece)
            continue
        term, parent_prec, right_child, tight = piece
        if isinstance(term, Var):
            out.append(term.name)
            continue
        prec = 1 if isinstance(term, Join) else 2
        # the grammar is left-associative, so a right child at equal
        # precedence needs parentheses to round-trip
        parens = parent_prec > prec or (parent_prec == prec and right_child)
        inner_tight = tight or parens or isinstance(term, Meet)
        if isinstance(term, Join):
            sep = "+" if inner_tight else " + "
        else:
            sep = "*"
        if parens:
            stack.append(")")
        stack += (term.right, prec, True, inner_tight), sep, (term.left, prec, False, inner_tight)
        if parens:
            stack.append("(")
    return "".join(out)


def to_str(obj):
    """Canonical concrete syntax; parse(to_str(x)) == x."""
    if isinstance(obj, (Var, Join, Meet)):
        return _term_str(obj)
    if isinstance(obj, Identity):
        op = " = " if obj.kind == "eq" else " <= "
        return to_str(obj.lhs) + op + to_str(obj.rhs)
    if isinstance(obj, QuasiIdentity):
        if not obj.premises:
            # premise-free implications degenerate to their conclusion
            return to_str(obj.conclusion)
        left = " & ".join(to_str(p) for p in obj.premises)
        return left + " -> " + to_str(obj.conclusion)
    raise TypeError("cannot print %r" % (obj,))


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_']*)|(<=|->|[+*()=&]))")


def _lex(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise TermSyntaxError(at + 1, ("a token",), repr(stripped[0]))
        if m.group(1):
            tokens.append(("IDENT", m.group(1), m.start(1) + 1))
        else:
            tokens.append((m.group(2), m.group(2), m.start(2) + 1))
        pos = m.end()
    tokens.append(("END", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise TermSyntaxError(tok[2], (repr(kind),), repr(tok[1]) if tok[1] else "end of input")
        return tok

    def fail(self, expected):
        tok = self.tokens[self.i]
        raise TermSyntaxError(tok[2], expected, repr(tok[1]) if tok[1] else "end of input")

    def atom(self):
        kind = self.peek()
        if kind == "IDENT":
            return Var(self.next()[1])
        if kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        self.fail(("IDENT", "'('"))

    def prod(self):
        t = self.atom()
        while self.peek() == "*":
            self.next()
            t = Meet(t, self.atom())
        return t

    def term(self):
        t = self.prod()
        while self.peek() == "+":
            self.next()
            t = Join(t, self.prod())
        return t

    def identity(self):
        lhs = self.term()
        kind = self.peek()
        if kind == "=":
            self.next()
            return Identity(lhs, self.term(), "eq")
        if kind == "<=":
            self.next()
            return Identity(lhs, self.term(), "le")
        self.fail(("'='", "'<='"))


def parse(text):
    """Parse a term, an identity, or a quasi-identity, per what appears."""
    p = _Parser(text)
    lhs = p.term()
    kind = p.peek()
    if kind == "END":
        return lhs
    if kind not in ("=", "<="):
        p.fail(("'='", "'<='", "'+'", "'*'", "end of input"))
    p.next()
    first = Identity(lhs, p.term(), "eq" if kind == "=" else "le")
    if p.peek() == "END":
        return first
    premises = [first]
    while p.peek() == "&":
        p.next()
        premises.append(p.identity())
    p.expect("->")
    conclusion = p.identity()
    p.expect("END")
    return QuasiIdentity(tuple(premises), conclusion)


# -- fixed and parametric formulas -------------------------------------------


def _fold_join(terms):
    out = terms[0]
    for t in terms[1:]:
        out = Join(out, t)
    return out


def _fold_meet(terms):
    out = terms[0]
    for t in terms[1:]:
        out = Meet(out, t)
    return out


def _check_n(n):
    if n < 3:
        raise InvalidNError("the family is defined for n >= 3, got %d" % n)


def _dn_parts(n):
    _check_n(n)
    x = [Var("x%d" % i) for i in range(n)]
    xp = [Var("x%d'" % i) for i in range(n)]

    def y(i):
        j = (i + 1) % n
        return Meet(Join(x[i], x[j]), Join(xp[i], xp[j]))

    tail_meet = _fold_meet([Join(x[i], xp[i]) for i in range(1, n)])
    cross = Join(x[1], Meet(Join(xp[0], xp[1]), _fold_join([y(i) for i in range(1, n)])))
    return x, xp, tail_meet, cross


def _dn_transfer(lat, n):
    """Count the assignments at which generate_dn(n) and generate_dn_star(n)
    disagree in lat, without enumerating them.

    Returns (checked, discrepancies); checked is size**(2n), the summed
    weight of the walk.  Both truth values depend only on x0, x0', x1,
    x1', T (tail_meet) and Y = y1 + ... + y(n-1), and y_i couples only the
    pairs i and i+1, so the count is a transfer (variable elimination)
    around the cycle.  For each outer pair (x1, x1') the walk holds
    weighted states (x_i, x_i', Y, T), the weight being the number of
    assignments to x2..x_i that reach the state.  The walk starts at pair
    2 with one state per (outer pair, pair 2), all distinct and of weight
    1: Y = y1, T = (x1 + x1')*(x2 + x2').  Each step adds the next pair:
    Y joins y_i, T meets x_(i+1) + x_(i+1)', and equal states merge.  The
    last step adds (x0, x0') and completes Y with y(n-1), leaving T alone;
    each merged state is then evaluated once.

    States merge by exact int64 accumulation into a dense table of the
    next states.  Outer pairs are taken in batches and next pairs in
    slices so that the table holds at most a sixteenth of a chunk (one
    slice of size**2 cells when a single next pair needs more), and states
    expand and are evaluated in the row ranges of limits.chunks at the
    same share.  A batch's live states are the table's nonzero cells, so
    they stay within that bound too unless the next pairs had to be
    sliced, which takes a lattice of 20 or more elements.  Raises
    SizeLimitError when size**(2n) does not fit an int64; as n >= 3, that
    also keeps every state key below size**6 within int64.
    """
    _check_n(n)
    size = lat.size
    if size ** (2 * n) >= 1 << 63:
        raise SizeLimitError(
            "counting %d**%d assignments overflows int64" % (size, 2 * n))
    pairs = size * size
    join, meet, leq = lat.join.ravel(), lat.meet.ravel(), lat.leq.ravel()
    narrow = narrow_dtype(size)
    join_scaled = join * size  # (a + b) * size, for the key of a joined Y
    hi, lo = np.divmod(np.arange(pairs), size)  # pair q is (x, x') = divmod(q, size)
    pair_join = join[hi * size + lo]
    elements = np.arange(size)[:, None]
    # the table and each chunk get a sixteenth of the byte budget: a batch's
    # live states number at most the table's cells, so this keeps them, and
    # the whole transfer, within a few MiB at no measured cost in time
    share = 16
    cells = chunk_rows(8 * share)
    span = min(pairs, max(1, cells // pairs))  # next pairs per slice
    batch = max(1, cells // (pairs * span))  # outer pairs per batch

    def advance(o, p, y, t, w, count, close):
        """Yield the merged next states, one slice of next pairs at a time."""
        for q0 in range(0, pairs, span):
            q = np.arange(q0, min(pairs, q0 + span))
            m = q.size
            # row tables: y_i of each current pair with each next pair, and
            # each T's update, offset by the next pair's place in the key
            y_row = meet[join[hi[:, None] * size + hi[q]] * size
                         + join[lo[:, None] * size + lo[q]]].astype(narrow)
            t_row = (elements if close else meet[elements * size + pair_join[q]]) \
                + np.arange(m) * pairs
            acc = np.zeros(count * m * pairs, np.int64)
            for a, b in chunks(w.size, 40 * share * m):
                s = slice(a, b)
                key = join_scaled[(y[s] * size)[:, None] + y_row[p[s]]]
                key += t_row[t[s]]
                key += (o[s] * (m * pairs))[:, None]
                np.add.at(acc, key.ravel(), np.repeat(w[s], m))
            keys = np.flatnonzero(acc)
            # the states' parts and every index built from them are below
            # the table's length
            o_next, rest = np.divmod(keys.astype(index_dtype(acc.size)), m * pairs)
            j, rest = np.divmod(rest, pairs)
            y_next, t_next = np.divmod(rest, size)
            yield o_next, q0 + j, y_next, t_next, acc[keys]

    checked = discrepancies = 0
    for first in range(0, pairs, batch):
        outer = np.arange(first, min(pairs, first + batch))
        # pair 2's states, one per (outer pair, next pair) and all distinct:
        # Y is y1 = (x1 + x2)*(x1' + x2'), T the meet of x1 + x1' and x2 + x2'
        o = np.repeat(np.arange(outer.size), pairs)
        p = np.tile(np.arange(pairs), outer.size)
        x = outer[o]
        y = meet[join[hi[x] * size + hi[p]] * size + join[lo[x] * size + lo[p]]]
        state = (o, p, y, meet[pair_join[x] * size + pair_join[p]], np.ones(o.size, np.int64))
        for _ in range(n - 3):
            state = tuple(map(np.concatenate, zip(*advance(*state, outer.size, False))))
        for o, p, y, t, w in advance(*state, outer.size, True):
            for a, b in chunks(w.size, 128 * share):
                s = slice(a, b)
                x1, x1p = np.divmod(first + o[s], size)
                x0, x0p, ys, ts = hi[p[s]], lo[p[s]], y[s], t[s]
                cross = join[x1 * size + meet[join[x0p * size + x1p] * size + ys]]
                t_dn = leq[meet[x0 * size + join[x0p * size + ts]] * size + cross]
                t_ds = leq[meet[pair_join[p[s]] * size + ts] * size
                           + join[x0p * size + meet[x0 * size + cross]]]
                discrepancies += int(w[s][t_dn != t_ds].sum())
            checked += int(w.sum())
    if checked != size ** (2 * n):
        raise RuntimeError(
            "the dn transfer weighed %d of %d**%d assignments; this indicates a bug"
            % (checked, size, 2 * n))
    return checked, discrepancies


@lru_cache(maxsize=64)
def generate_dn(n):
    """The n-th higher Arguesian inequality in 2n variables, cyclic form.

    Terms are immutable, so each n is built once and the result shared."""
    x, xp, tail_meet, cross = _dn_parts(n)
    lhs = Meet(x[0], Join(xp[0], tail_meet))
    return Identity(lhs, cross, "le")


@lru_cache(maxsize=64)
def generate_dn_star(n):
    """The companion inequality equivalent to generate_dn(n) on modular
    lattices; cached per n like generate_dn."""
    x, xp, tail_meet, cross = _dn_parts(n)
    lhs = Meet(Join(x[0], xp[0]), tail_meet)
    rhs = Join(xp[0], Meet(x[0], cross))
    return Identity(lhs, rhs, "le")


def generate_modular():
    """Equational form of the modular law: x*(y + x*z) = x*y + x*z."""
    x, y, z = Var("x"), Var("y"), Var("z")
    return Identity(Meet(x, Join(y, Meet(x, z))), Join(Meet(x, y), Meet(x, z)), "eq")


def generate_2distributive():
    """u*(x+y+z) = u*(x+y) + u*(x+z) + u*(y+z)."""
    u, x, y, z = Var("u"), Var("x"), Var("y"), Var("z")
    lhs = Meet(u, Join(Join(x, y), z))
    rhs = Join(
        Join(Meet(u, Join(x, y)), Meet(u, Join(x, z))),
        Meet(u, Join(y, z)),
    )
    return Identity(lhs, rhs, "eq")


def generate_sd(side):
    """The meet (or join) semidistributivity quasi-identity."""
    x, y, z = Var("x"), Var("y"), Var("z")
    if side == "meet":
        prem = Identity(Meet(x, y), Meet(x, z), "eq")
        conc = Identity(Meet(x, y), Meet(x, Join(y, z)), "eq")
    elif side == "join":
        prem = Identity(Join(x, y), Join(x, z), "eq")
        conc = Identity(Join(x, y), Join(x, Meet(y, z)), "eq")
    else:
        raise ValueError("side must be 'meet' or 'join'")
    return QuasiIdentity((prem,), conc)


# -- evaluation --------------------------------------------------------------


def evaluate(term, lat, assignment):
    """Value of a term in lat under a variable->element assignment, on a
    value stack over _postorder; UnboundVariableError names the leftmost
    variable that the assignment lacks."""
    join, meet, values = lat.join.item, lat.meet.item, []
    try:
        for node in _postorder(term):
            if node.__class__ is Var:
                values.append(int(assignment[node.name]))
            else:
                right = values.pop()
                values[-1] = (join if node.__class__ is Join else meet)(values[-1], right)
    except KeyError:
        raise UnboundVariableError(node.name) from None
    return values[0]


# instruction codes of a compiled program: a variable, the two operations,
# and the truth of an equation or of an inequation
_VAR, _JOIN, _MEET, _EQ, _LE = range(5)


def _intern(key, keys, program):
    """The node of key in program, appended when new."""
    node = keys.get(key)
    if node is None:
        node = keys[key] = len(program)
        program.append(key)
    return node


def _visit(term, keys, program):
    """Compile term into program, postorder, and return its node and its
    size, the number of its term nodes with every occurrence counted; a
    variable's key is its name, an operation's (op, left node, right node).
    The walk keeps its own stack, so a deep term needs no deep Python
    stack: it goes down left operands, holding each operation passed as
    (op, right operand) until its left node is known, then as (op, left
    node) until its right node is."""
    get, pending, walked = keys.get, [], 0
    while True:
        while term.__class__ is not Var:
            pending.append((_JOIN if term.__class__ is Join else _MEET, term.right))
            term = term.left
        key = term.name
        while True:
            walked += 1
            node = get(key)
            if node is None:
                node = keys[key] = len(program)
                program.append(key)
            if not pending:
                return node, walked
            op, other = pending.pop()
            if other.__class__ is int:
                key = (op, other, node)
            else:
                pending.append((op, node))
                term = other
                break


class VectorEvaluator:
    """The sweep engine: evaluates (in)equations at many assignments at once.

    The constructor compiles the identities into a postorder program over
    the structurally distinct subterms of their sides, keyed bottom-up by
    small int tuples, so a subterm occurring more than once is evaluated
    once.  `names` are the variables in sorted order, `nodes` the node
    count of the sides with every occurrence counted, and `cost` the
    term-node evaluations of an exhaustive check, size**len(names) *
    nodes: the figure `holds` compares with its budget.  Values are held in
    limits.narrow_dtype(size), and a join, a meet or an inequation is one
    gather from its flat table at left * size + right, that index being
    computed in narrow_dtype(size**2), named as the dtype of the multiply
    so that no promotion rule can leave it in the narrower dtype of the
    values; sampled mode stores its seeded draws in that dtype.
    """

    def __init__(self, lat, identities):
        self.size = size = lat.size
        keys, program, checks, self.nodes = {}, [], [], 0
        for ident in identities:
            left, left_size = _visit(ident.lhs, keys, program)
            right, right_size = _visit(ident.rhs, keys, program)
            checks.append(_intern((_EQ if ident.kind == "eq" else _LE, left, right), keys, program))
            self.nodes += left_size + right_size
        self.names = sorted(key for key in program if key.__class__ is str)
        axis = {v: i for i, v in enumerate(self.names)}
        # per node: its variables as a bit mask; and the last node to read
        # each node, so that a value can be dropped once it is read for the
        # last time
        masks, last, inner = [], [None] * len(program), []
        for node, key in enumerate(program):
            if key.__class__ is str:
                program[node] = (_VAR, axis[key], 0)
                masks.append(1 << axis[key])
            else:
                _, a, b = key
                masks.append(masks[a] | masks[b])
                last[a] = last[b] = node
                inner.append(node)
        self.cost = size ** len(self.names) * self.nodes
        self._program, self._masks, self._checks, self._last = program, masks, checks, last
        self._var_nodes = [keys[v] for v in self.names]
        self._inner = inner
        join, meet = lat.narrow_tables
        self._narrow = join.dtype
        self._tables = (None, join, meet, None, lat.leq.ravel())
        self._wide_size = narrow_dtype(size * size).type(size)
        self._bounds = lat.bottom, lat.top

    def _run(self, vals, todo, free=frozenset()):
        """Fill vals[node] for each node of todo, in program order, and drop
        the value of each node of free once its last reader has run.  On a
        range with one-valued variables, sweep first hands todo to _fold,
        which folds the operations they absorb to constants without a
        gather, and runs only the nodes it leaves."""
        size, program, tables, last = self._wide_size, self._program, self._tables, self._last
        wide = size.dtype
        for node in todo:
            op, a, b = program[node]
            if op == _EQ:
                vals[node] = vals[a] == vals[b]
            else:
                vals[node] = tables[op].take(np.multiply(vals[a], size, dtype=wide) + vals[b])
            if last[a] == node and a in free:
                vals[a] = None
            if last[b] == node and b in free:
                vals[b] = None

    def _fold(self, vals, todo, one, ones):
        """Evaluate the one-valued nodes of todo and return, in program
        order, the other nodes of todo that the checks need, for _run.

        one maps each node whose value is the same at every assignment of
        the range to that value, a Python int (a bool for a truth).  It
        starts with the one-valued variables and gains, in program order,
        each node whose operands are both one-valued, computed on those
        values, and each operation with a one-valued operand whose line in
        the operation's table is constant (the bottom under a meet, the
        top under a join, the bottom on the left of <= and the top on its
        right), which becomes that constant without a gather.  A needed
        one-valued node is stored as an array of shape `ones`, which
        broadcasts to the block; nodes of todo that no check needs are
        neither computed nor kept, so where every check folds, as on the
        bottom's block of 2-distributivity, nothing is gathered.
        """
        program, tables, size = self._program, self._tables, self.size
        # per instruction code, the constant lines of its table as
        # {operand: value}, for a left and for a right operand.  A lattice
        # has no others: a meet line constant at c has c = a*a = a and
        # c = a*0 = 0, and dually for a join and the two sides of <=.
        bottom, top = self._bounds
        lines = (None, ({top: top},) * 2, ({bottom: bottom},) * 2, ({}, {}),
                 ({bottom: True}, {top: True}))
        for node in todo:
            op, a, b = program[node]
            if a in one and b in one:
                one[node] = (one[a] == one[b] if op == _EQ
                             else tables[op][one[a] * size + one[b]].item())
            else:
                left, right = lines[op]
                value = left.get(one.get(a), right.get(one.get(b)))
                if value is not None:
                    one[node] = value
        needed, rest = set(self._checks), []
        for node in reversed(todo):
            if node not in needed:
                vals[node] = None
            elif node in one:
                op = program[node][0]
                vals[node] = np.full(ones, one[node], bool if op >= _EQ else self._narrow)
            else:
                rest.append(node)
                needed.update(program[node][1:])
        rest.reverse()
        return rest

    def _layout(self, split):
        """Bytes of the grid whose first `split` variables form the prefix
        axis: (fixed, per_row).  fixed holds the values of the nodes over
        trailing variables only, computed once; per_row the values of the
        other nodes in one prefix row, the index temporaries of a gather
        filling the row (two in the wide dtype and numpy's intp copy) and
        the boolean combination of the truths."""
        size, prefix = self.size, (1 << split) - 1
        item = self._narrow.itemsize
        fixed = row = 0
        for (op, _, _), mask in zip(self._program, self._masks):
            cells = size ** (mask >> split).bit_count() * (1 if op >= _EQ else item)
            if mask & prefix:
                row += cells
            else:
                fixed += cells
        cells = size ** (len(self.names) - split)
        return fixed, row + cells * (2 * self._wide_size.itemsize + 9) + 16

    def _split(self):
        """(split, fixed, per_row): the number of prefix variables of the
        exhaustive grid, with its _layout.  Of the splits whose prefix row
        fits a chunk (limits.fits), it is the one whose row holds nearest
        limits.FIRST_CELLS assignments by ratio, the smaller split on a
        tie; if none fits, every variable is a prefix variable.  Each
        split past the first that fits fits too, as both its row and its
        fixed part are no larger, and each row is size times the next, so
        limits.first_steps counts the splits to go on from the first fit.
        """
        k = len(self.names)
        for split in range(1, k + 1):
            fixed, per_row = self._layout(split)
            if limits.fits(fixed + per_row):
                break
        nearer = split + limits.first_steps(self.size ** (k - split), self.size)
        if nearer != split:
            split, (fixed, per_row) = nearer, self._layout(nearer)
        return split, fixed, per_row

    def sweep(self, mode, samples, seed, draws):
        """Yield (offset, env, truths) blocks of assignments to `names`.

        truths holds one boolean array per identity handed to the
        constructor, in that order, all of one shape; env maps each
        variable to its values in the block, arrays that broadcast to that
        shape; offset is the number of assignments before the block.
        Exhaustive mode covers all size**len(names) assignments in
        lexicographic order, last variable fastest, on a broadcast grid:
        variable i is arange(size) on its own axis, and each subterm is
        gathered only over the axes of its own variables.  The leading
        variables are flattened into one prefix axis, walked in chunks of
        rows; the subterms over the trailing variables alone are computed
        once per call.  The split (_split) is the fitting one whose prefix
        row holds nearest limits.FIRST_CELLS assignments by ratio, and the
        rows are walked in the growing ranges of limits.chunks, so that
        the first range holds about FIRST_CELLS assignments, also where
        one row of the first fitting split holds many more (2-distributivity
        on Sub(4,2): 67**3 at split 1, 67**2 at split 2), and no range's
        live arrays and gather temporaries outgrow the chunk.  The split
        changes which blocks are yielded, not the order of the
        assignments in them, so the first hit is the lexicographically
        first at any split.  With two or more prefix variables the ranges
        are cut at each value of the first, so that no range spans two
        values of it, and each value starts the growth again.  A variable
        whose value is the same across a range is one-valued there: the
        first in every such cut range, every prefix variable in a one-row
        range.  On those ranges _fold folds the operations that absorb a
        one-valued operand and evaluates what only one-valued operands
        feed on single values; truths still broadcast to the block's
        shape, so callers read each block as before and find the same
        first hit.  A range of several rows under a single prefix variable has no
        one-valued variable and is evaluated in full, with no added work.
        Flattened in C order, a block's arrays list its assignments in
        lexicographic order.  Sampled mode evaluates the same program on
        the seeded stream of `assignments`, drawn `draws` values per
        variable at a time.
        """
        if mode == "sampled":
            free = set(self._inner)
            for offset, env in self.assignments(samples, seed, draws):
                vals = [None] * len(self._program)
                for v, node in zip(self.names, self._var_nodes):
                    vals[node] = env[v]
                self._run(vals, self._inner, free)
                yield offset, env, [vals[c] for c in self._checks]
            return
        if mode != "exhaustive":
            raise ValueError("mode must be 'exhaustive' or 'sampled'")
        size, k, narrow, var_nodes = self.size, len(self.names), self._narrow, self._var_nodes
        split, fixed, per_row = self._split()
        cells = size ** (k - split)  # assignments per prefix row
        vals = [None] * len(self._program)
        axis = np.arange(size, dtype=narrow)
        for i in range(split, k):
            vals[var_nodes[i]] = axis.reshape((1,) * (i - split + 1) + (size,) + (1,) * (k - i - 1))
        prefix = (1 << split) - 1
        self._run(vals, [node for node in self._inner if not self._masks[node] & prefix])
        row_nodes = [node for node in self._inner if self._masks[node] & prefix]
        free = set(row_nodes)
        column = (-1,) + (1,) * (k - split)
        ones = (1,) * len(column)
        lead = size ** (split - 1)  # prefix rows per value of the first variable
        for lo, hi in chunks(size ** split, per_row, cells=cells, fixed=fixed,
                             period=lead if split > 1 else None):
            if split == 1:
                vals[var_nodes[0]] = axis[lo:hi].reshape(column)
            else:
                at = np.arange(lo, hi)
                vals[var_nodes[0]] = np.full(ones, lo // lead, narrow)
                for i in range(1, split):
                    col = at // size ** (split - 1 - i) % size
                    vals[var_nodes[i]] = col.astype(narrow).reshape(column)
            if hi - lo == 1:
                one = {var_nodes[i]: lo // size ** (split - 1 - i) % size for i in range(split)}
            elif split > 1:
                one = {var_nodes[0]: lo // lead}
            else:
                one = None
            self._run(vals, row_nodes if one is None else self._fold(vals, row_nodes, one, ones),
                      free)
            shape = (hi - lo,) + (size,) * (k - split)
            truths = [vals[c] for c in self._checks]
            yield lo * cells, dict(zip(self.names, (vals[v] for v in var_nodes))), [
                t if t.shape == shape else np.broadcast_to(t, shape) for t in truths]

    def assignments(self, samples, seed, draws):
        """Yield (offset, env) blocks of seeded uniform assignments to `names`.

        env maps each variable to an array of elements in the value dtype,
        limits.narrow_dtype(size), one per assignment; offset is the number
        of assignments yielded before the block.  `samples` assignments are
        drawn in rounds of `draws` values per variable (the last round
        takes the rest), which fixes the seeded stream: variable by
        variable, each round's column is rng.integers(0, size, dtype=int64).
        A column is drawn in the int64 slices of limits.chunks and stored
        narrow, which gives the same values as one whole draw, since the
        generator keeps the spare half of a 64-bit output in its state
        between calls.  So a round holds draws * len(names) narrow values
        and one int64 slice within CHUNK_BYTES at a time.  Each round is
        yielded in the row ranges of limits.chunks at room for one int64
        per variable and per node, which covers the program's values and
        the index temporaries of a gather.
        """
        if samples is None or seed is None:
            raise ValueError("sampled mode needs samples and an explicit seed")
        if samples < 1:
            raise ValueError("sampled mode needs samples >= 1, got %d" % samples)
        row_bytes = 8 * (len(self.names) + self.nodes)
        rng = np.random.default_rng(seed)
        for done in range(0, samples, draws):
            m = min(draws, samples - done)
            draw = {}
            for v in self.names:
                col = draw[v] = np.empty(m, self._narrow)
                for lo, hi in chunks(m, 8):
                    col[lo:hi] = rng.integers(0, self.size, size=hi - lo, dtype=np.int64)
            for lo, hi in chunks(m, row_bytes):
                yield done + lo, {v: col[lo:hi] for v, col in draw.items()}


def assignment_at(env, shape, j):
    """The assignment at flat index j, in C order, of a block of the given
    shape, read from env's columns, which broadcast to that shape."""
    at = []
    for n in reversed(shape):
        j, r = divmod(j, n)
        at.append(r)
    at.reverse()
    return {v: int(col[tuple(i if n > 1 else 0 for i, n in zip(at, col.shape))])
            for v, col in env.items()}


def _assignment_of_rank(names, size, rank):
    """The assignment at 0-based `rank` in the lexicographic order of an
    exhaustive sweep, the last name fastest: rank's digits in base size."""
    values = []
    for _ in names:
        rank, value = divmod(rank, size)
        values.append(value)
    return dict(zip(names, reversed(values)))


@dataclass
class Verdict:
    status: str  # "holds" | "fails" | "sampled_pass"
    assignment: dict | None
    checked: int

    @property
    def holds(self):
        return self.status in ("holds", "sampled_pass")


def _formula_parts(phi):
    if isinstance(phi, Identity):
        return (), phi
    if isinstance(phi, QuasiIdentity):
        return phi.premises, phi.conclusion
    raise TypeError("holds() expects an Identity or QuasiIdentity")


def holds(lat, phi, mode="exhaustive", samples=None, seed=None, budget=DEFAULT_BUDGET):
    """Check an identity or quasi-identity in a finite lattice.

    Exhaustive mode covers all size**k assignments (variables in
    lexicographic name order, last variable fastest) on the broadcast grid
    of VectorEvaluator.sweep and is decisive; the first counterexample in
    that order is returned, with `checked` its rank + 1.  Sampled mode
    draws `samples` seeded random assignments in rounds of
    limits.HOLDS_ROUND, and can only report sampled_pass or fails.
    Exhaustive mode refuses when VectorEvaluator.cost, size**k times the
    term nodes of the formula, exceeds `budget` (pass budget=None to
    lift); that figure is a refusal threshold, kept although the grid
    evaluates each distinct subterm only over its own variables and so
    does fewer.
    """
    premises, conclusion = _formula_parts(phi)
    ev = VectorEvaluator(lat, (conclusion,) + tuple(premises))
    if mode == "exhaustive" and budget is not None and ev.cost > budget:
        raise BudgetExceededError(
            "exhaustive check needs %d term evaluations, budget is %d; "
            "use sampled mode with an explicit seed" % (ev.cost, budget)
        )
    checked = 0
    for offset, env, (concluded, *premised) in ev.sweep(mode, samples, seed, limits.HOLDS_ROUND):
        bad = ~concluded
        for truth in premised:
            bad &= truth
        j = int(bad.argmax())
        if bad.flat[j]:
            # an exhaustive block lists its assignments in lexicographic
            # order from offset, so its first counterexample is read from
            # its rank, without indexing the columns
            assignment = (_assignment_of_rank(ev.names, lat.size, offset + j)
                          if mode == "exhaustive" else assignment_at(env, bad.shape, j))
            return Verdict("fails", assignment, offset + j + 1)
        checked = offset + bad.size
    return Verdict("holds" if mode == "exhaustive" else "sampled_pass", None, checked)


def builtin_formula(name, n=None):
    """Formula registry used by the command-line surface."""
    if name == "modular":
        return generate_modular()
    if name == "2dist":
        return generate_2distributive()
    if name == "sd-meet":
        return generate_sd("meet")
    if name == "sd-join":
        return generate_sd("join")
    if name == "dn":
        if n is None:
            raise ValueError("builtin 'dn' needs --n")
        return generate_dn(n)
    if name == "dn-star":
        if n is None:
            raise ValueError("builtin 'dn-star' needs --n")
        return generate_dn_star(n)
    if name == "arguesian-d3":
        return generate_dn_star(3)
    raise ValueError("unknown builtin %r" % name)
