"""Regular path expressions over label expressions, with a counted Tick step.

The grammar is deliberately restricted to the shapes the formula compiler
can handle: single steps, stars over label expressions (never over
sequences), the tick step `Tick{lo,hi}` (from lo to hi Ticks, each Tick
being `t . (-t)*`; plain `Tick` is `Tick{1,1}`), union, and the empty word
`eps`.

Each expression compiles once, on first use, to one automaton (`build_nfa`).
The word matcher runs it as a lazily built DFA, and the brute-force oracles
that cross-validate the formula compiler run it in an NFA x graph product,
with no mu-calculus involved.  Independent of the automaton stay the tests'
`naive_match`, which splits words on the expression itself; `eval_fott` on
the trace formula (criterion 4, perfbench's `trace_sweep`); and the
mu-calculus route (`oracle_agreement`, `random_crosscheck`'s set checks).
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Sequence

from ._scan import Cursor, Node, ParseError, _set, tick_count_error, tokenize
from .lts import NOT_TICK, TICK, LabelExpr, Lts, StateSet, eval_label_expr, parse_label_operand_at

Word = tuple[str, ...]


class PathRegex(Node):
    __slots__ = ("_compiled",)  # set by _automaton on first use


class Step(Node):
    __slots__ = ()


class Eps(PathRegex):
    __slots__ = ()


class Seq(PathRegex):
    __slots__ = _fields = ("head", "step")

    def __init__(self, head: PathRegex, step: Step):
        _set(self, "head", head)
        _set(self, "step", step)


class Union(PathRegex):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: PathRegex, right: PathRegex):
        _set(self, "left", left)
        _set(self, "right", right)


class One(Step):
    __slots__ = _fields = ("label",)

    def __init__(self, label: LabelExpr):
        _set(self, "label", label)


class Star(Step):
    __slots__ = _fields = ("label",)

    def __init__(self, label: LabelExpr):
        _set(self, "label", label)


class Tick(Step):
    """`Tick{lo,hi}`: any number of Ticks from lo to hi, both included;
    plain `Tick` is `Tick{1,1}`."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: int = 1, hi: int = 1):
        if error := tick_count_error(lo, hi):
            raise ValueError(error)
        _set(self, "lo", lo)
        _set(self, "hi", hi)


EPS = Eps()


def seq_of(steps: Iterable[Step], regex: PathRegex = EPS) -> PathRegex:
    """Left-nested sequence of `steps` after `regex` (by default the empty word)."""
    for step in steps:
        regex = Seq(regex, step)
    return regex


# ---------------------------------------------------------------------------
# Parsing
#
# regex  := seq ('\/' seq)*          union is n-ary, binarized left to right
# seq    := ('eps' | step) ('.' step)*
# step   := 'Tick' ('{' INT ',' INT '}')? | operand '*'?
# operand:= IDENT | 'T' | '-' operand | '(' labelexpr ')'


def parse_regex(text: str) -> PathRegex:
    if not text.strip():
        raise ParseError("empty path expression", 0)
    cur = Cursor(tokenize(text))
    regex = _parse_union(cur)
    cur.expect_end()
    return regex


def _parse_union(cur: Cursor) -> PathRegex:
    regex = _parse_seq(cur)
    while cur.take("\\/"):
        regex = Union(regex, _parse_seq(cur))
    return regex


def _parse_seq(cur: Cursor) -> PathRegex:
    regex: PathRegex = EPS
    if cur.at_ident("eps"):
        cur.advance()
    else:
        regex = Seq(regex, _parse_step(cur))
    while cur.take("."):
        regex = Seq(regex, _parse_step(cur))
    return regex


def _parse_step(cur: Cursor) -> Step:
    if cur.at_ident("Tick"):
        cur.advance()
        return Tick(*cur.take_tick_count())
    label = _parse_operand(cur)
    if cur.take("*"):
        return Star(label)
    return One(label)


def _parse_operand(cur: Cursor) -> LabelExpr:
    mark = cur.mark()
    try:
        return parse_label_operand_at(cur)
    except ParseError as err:
        # Distinguish a star over a parenthesized sub-regex, which the
        # restricted grammar rejects, from a plain syntax error.
        cur.reset(mark)
        while cur.take("-"):
            pass
        if not cur.take("("):
            raise
        try:
            _parse_union(cur)
            closed = cur.take(")")
        except ParseError:
            raise err from None
        if closed and cur.at("*"):
            raise ParseError(
                "'*' applies only to label expressions, not to sequences or unions",
                cur.peek().pos,
            ) from None
        raise ParseError(
            "parenthesized sub-expressions must be label expressions",
            cur.peek().pos,
        ) from None


# ---------------------------------------------------------------------------
# The automaton, which match_word and the product oracles both run


class Nfa(Node):
    """Nondeterministic automaton whose edges carry label expressions.

    State 0 is the start.  `accepting` is a mask: bit q is set iff state q
    accepts.  `accepts` runs the automaton as a plain set simulation, the
    reference that `match_word`'s DFA memo is checked against.
    """

    __slots__ = _fields = ("num_states", "accepting", "edges")

    def __init__(self, num_states: int, accepting: int, edges: tuple[tuple[tuple[LabelExpr, int], ...], ...]):
        _set(self, "num_states", num_states)
        _set(self, "accepting", accepting)
        _set(self, "edges", edges)

    def accepts(self, word: Sequence[str]) -> bool:
        current = {0}
        for symbol in word:
            nxt = set()
            for q in current:
                for label, q2 in self.edges[q]:
                    if eval_label_expr(label, symbol):
                        nxt.add(q2)
            if not nxt:
                return False
            current = nxt
        return any(self.accepting >> q & 1 for q in current)


def build_nfa(regex: PathRegex) -> Nfa:
    """Compile to an automaton accepting exactly the word language.

    All branches share the single initial state 0; the restricted grammar
    needs no epsilon edges.  Every path into a state reads a word of the
    sub-expression that made it.
    A `Tick{lo,hi}` becomes hi states in a row, each entered by `t` and
    looping on `-t`, and ends at each of them whose count is at least lo
    (and where it started, if lo is 0).  The automaton is compiled once per
    expression and kept on it.
    """
    return _automaton(regex)[0]


def _automaton(regex: PathRegex) -> tuple:
    """(automaton, {symbol: {state set: next state set}} for the DFA steps met
    so far), compiled once and kept on the expression, to be freed with it."""
    compiled = getattr(regex, "_compiled", None)
    if compiled is None:
        edges: list[list[tuple[LabelExpr, int]]] = [[]]
        accepting = sum(1 << q for q in _nfa_ends(regex, edges))
        compiled = Nfa(len(edges), accepting, tuple(map(tuple, edges))), defaultdict(dict)
        _set(regex, "_compiled", compiled)
    return compiled


def _nfa_ends(node: PathRegex, edges: list[list[tuple[LabelExpr, int]]]) -> frozenset[int]:
    # The states that end `node`.  The left spine (sequence heads and union
    # left operands) is walked in a loop, then compiled from the bottom up;
    # only a union's right operand recurses, and the parser puts none there.
    spine = []
    while type(node) is not Eps:
        spine.append(node)
        node = node.left if type(node) is Union else node.head
    ends = frozenset((0,))
    for node in reversed(spine):
        if type(node) is Union:
            ends = ends | _nfa_ends(node.right, edges)
        elif type(node.step) is Tick:
            exits = set(ends) if node.step.lo == 0 else set()
            for count in range(1, node.step.hi + 1):
                q = len(edges)
                edges.append([(NOT_TICK, q)])
                for f in ends:
                    edges[f].append((TICK, q))
                ends = (q,)
                if count >= node.step.lo:
                    exits.add(q)
            ends = frozenset(exits)
        else:
            label = node.step.label
            q = len(edges)
            edges.append([])
            for f in ends:
                edges[f].append((label, q))
            if type(node.step) is Star:
                edges[q].append((label, q))
                ends = ends | {q}
            else:
                ends = frozenset((q,))
    return ends


def match_word(regex: PathRegex, word: Sequence[str]) -> bool:
    """Word membership, decided by running the expression's automaton.

    The state is the set of automaton states the symbols read so far lead
    to, one int with a bit per state (Thompson, "Regular expression search
    algorithm", 1968).  Each step from a set on a symbol is worked out from
    the edges once and kept on the expression: a subset construction (Rabin
    and Scott, 1959) built only as far as the words need, with at most one
    entry per set met and symbol, and freed with the expression.
    """
    try:
        nfa, steps = regex._compiled
    except AttributeError:
        nfa, steps = _automaton(regex)
    state = 1
    for symbol in word:
        row = steps[symbol]
        nxt = row.get(state)
        if nxt is None:
            nxt, bits = 0, state
            while bits:
                low = bits & -bits
                for label, q in nfa.edges[low.bit_length() - 1]:
                    if eval_label_expr(label, symbol):
                        nxt |= 1 << q
                bits ^= low
            row[state] = nxt
        if not nxt:
            return False
        state = nxt
    return state & nfa.accepting != 0


# ---------------------------------------------------------------------------
# Product oracles


def _product_bits(g: Lts, nfa: Nfa) -> tuple[int, int]:
    """(end, visited) bit sets of the NFA x graph product: the graph states of
    the reached pairs whose NFA state accepts, and those of all reached pairs."""
    n, accepting = nfa.num_states, nfa.accepting
    start = g.initial * n  # the pair (s, q) is kept as s * n + q
    seen = {start}
    queue = deque((start,))
    end = 1 << g.initial if accepting & 1 else 0
    visited = 1 << g.initial
    while queue:
        s, q = divmod(queue.popleft(), n)
        nfa_edges = nfa.edges[q]
        for label, dst in g.out_edges(s):
            for expr, q2 in nfa_edges:
                if eval_label_expr(expr, label):
                    pair = dst * n + q2
                    if pair not in seen:
                        seen.add(pair)
                        queue.append(pair)
                        visited |= 1 << dst
                        if accepting >> q2 & 1:
                            end |= 1 << dst
    return end, visited


def oracle_states(g: Lts, regex: PathRegex) -> tuple[StateSet, StateSet]:
    """(end, visited) from one NFA x graph product.

    End: the states reachable from the initial state after firing a
    matching word.  Visited: the states reachable while firing one, which is
    the union of the end states over every syntactic prefix of the
    (left-nested) expression.

    A `Tick{lo,hi}` after a prefix R has the syntactic prefixes R . Tick^k
    for every k up to hi, those with k < lo included: the words that stop
    after fewer ticks than the least count are still on their way through
    the step.

    The product gives that union.  Each NFA state ends a syntactic prefix:
    the k-th state of a `Tick{lo,hi}` ends R . Tick^k.  A word leads into a state only if it
    matches the prefix that state ends, and each word of a prefix leads into
    one of its ends, so the union is the set of graph states over all
    reached pairs."""
    end, visited = _product_bits(g, build_nfa(regex))
    return StateSet(g.num_states, end), StateSet(g.num_states, visited)


def oracle_end_states(g: Lts, regex: PathRegex) -> StateSet:
    """The end half of `oracle_states`."""
    return oracle_states(g, regex)[0]


def oracle_visited_states(g: Lts, regex: PathRegex) -> StateSet:
    """The visited half of `oracle_states`."""
    return oracle_states(g, regex)[1]
