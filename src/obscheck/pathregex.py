"""Regular path expressions over label expressions, with a counted Tick step.

The grammar is deliberately restricted to the shapes the formula compiler
can handle: single steps, stars over label expressions (never over
sequences), the tick step `Tick{lo,hi}` (from lo to hi Ticks, each Tick
being `t . (-t)*`; plain `Tick` is `Tick{1,1}`), union, and the empty word
`eps`.

Besides the matcher, this module carries the brute-force oracles used to
cross-validate the compiler: NFA x graph product reachability, with no
mu-calculus involved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ._scan import Cursor, ParseError, tick_count_error, tokenize
from .lts import NOT_TICK, TICK, LabelExpr, Lts, StateSet, eval_label_expr, parse_label_operand_at

Word = tuple[str, ...]


class PathRegex:
    __slots__ = ()

    @cached_property
    def _matcher(self):
        # match_word's compiled form, kept on the expression so that it is
        # freed with it.
        return _compile_matcher(self)


class Step:
    __slots__ = ()


@dataclass(frozen=True)
class Eps(PathRegex):
    pass


@dataclass(frozen=True)
class Seq(PathRegex):
    head: PathRegex
    step: Step


@dataclass(frozen=True)
class Union(PathRegex):
    left: PathRegex
    right: PathRegex


@dataclass(frozen=True)
class One(Step):
    label: LabelExpr


@dataclass(frozen=True)
class Star(Step):
    label: LabelExpr


@dataclass(frozen=True)
class Tick(Step):
    """`Tick{lo,hi}`: any number of Ticks from lo to hi, both included;
    plain `Tick` is `Tick{1,1}`."""

    lo: int = 1
    hi: int = 1

    def __post_init__(self):
        if error := tick_count_error(self.lo, self.hi):
            raise ValueError(error)


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
# Word matching


def _compile_matcher(regex: PathRegex):
    """(start, accept, stars, skippable, labels, text, rows): match_word's
    tables over the step positions of the expression's branches.

    Each branch is the step list it spells, with a `Tick{lo,hi}` compiled
    in place as hi Ticks in a row, each a `t` step and a `(-t)*` step as in
    build_nfa; a union under a sequence is expanded into the cross product
    of its branches with the steps after it, and `R . Tick{0,hi}` is read as
    that union, `R \\/ R . Tick{1,hi}`.  Every step of every branch is one
    bit, and each branch has one more bit past its end; a branch's bits run
    up from its first step, and the branches follow one another.  `start`
    has the first bit of each branch, closed as match_word closes its state;
    `accept` has the bit past each end, `stars` every star step, and
    `skippable` every star step and the `t` of every optional Tick: the
    Ticks of a `Tick{lo,hi}` past the lo-th.

    `text` spells the positions from the highest bit down, one character
    each: "\\0" past a branch end, else `chr(1 + 2 * j)` for a one-step over
    `labels[j]` and `chr(2 + 2 * j)` for a star over it (so at most 557,056
    distinct labels, the `t` of optional Ticks counted apart).  A mask is
    then one `str.translate` of it into binary digits and one `int(..., 2)`,
    linear in the number of positions whatever the number of labels.
    `rows`, which match_word fills in, maps each symbol met so far to the
    masks of the one-steps and of the stars whose labels match it."""
    labels: list[LabelExpr] = []
    optional: list[bool] = []
    index: dict[LabelExpr | tuple[LabelExpr, bool], int] = {}

    def char_of(label: LabelExpr, star: bool = False, skip: bool = False) -> str:
        # The `t` of an optional Tick is keyed apart from a plain `t`.
        key = (label, skip) if skip else label
        j = index.get(key)
        if j is None:
            index[key] = j = len(labels)
            labels.append(label)
            optional.append(skip)
        return chr(1 + 2 * j + star)

    text = "\0" + "\0".join(_branches(regex, char_of))
    accept = int(text.translate("1" + "00" * len(labels)), 2)
    stars = skippable = int(text.translate("0" + "01" * len(labels)), 2)
    if any(optional):
        skippable |= int(text.translate("0" + "".join(["11" if skip else "00" for skip in optional])), 2)
    # A branch starts one bit above the end of the branch below it, and the
    # lowest at bit 0; the xor drops the bit above the top branch's end.
    start = (accept << 1 | 1) ^ (1 << len(text))
    start |= ((start & skippable) + skippable) ^ skippable
    return start, accept, stars, skippable, tuple(labels), text, {}


def _branches(node: PathRegex, char_of) -> list[str]:
    # Each branch of `node`, spelled last step first.  The union spine is
    # walked with a stack, so its length is not bound by recursion depth.
    out: list[str] = []
    todo = [node]
    tick = ""  # one Tick spelled last first, once a Tick is met
    while todo:
        node = todo.pop()
        if type(node) is Union:
            todo += (node.left, node.right)
            continue
        parts: list[str] = []
        while type(node) is Seq:
            step = node.step
            if type(step) is not Tick:
                parts.append(char_of(step.label, type(step) is Star))
            elif step.lo == 0:
                # No Tick, or from 1 to hi of them: a union under the
                # sequence, unless hi = 0 leaves the first branch only.
                if step.hi:
                    node = Union(node.head, Seq(node.head, Tick(1, step.hi)))
                    break
            else:
                # hi Ticks, those past the lo-th optional.
                tick = tick or char_of(NOT_TICK, True) + char_of(TICK)
                if step.hi > step.lo:
                    parts.append((tick[0] + char_of(TICK, skip=True)) * (step.hi - step.lo))
                parts.append(tick * step.lo)
            node = node.head
        steps = "".join(parts)
        if type(node) is Eps:
            out.append(steps)
        else:  # a union under a sequence
            out += [steps + head for head in _branches(node, char_of)]
    return out


def match_word(regex: PathRegex, word: Sequence[str]) -> bool:
    """Word membership, decided directly on the expression (no automaton).

    The state is the set of branch positions that the symbols read so far
    can lead to, kept as one int over the positions of all branches
    (Shift-And).  Each symbol is one step, whatever the number of branches:
    a one-step whose label matches moves its bit to the next position, a
    star whose label matches keeps it, and a bit on a star then also spreads
    past the run of stars it stands in, since a star may take no step.  A
    counted step `Tick{lo,hi}` keeps one chain of hi Ticks, of which those
    past the lo-th are optional: their `t` may take no step either, so the
    same carry spreads bits past them (Navarro and Raffinot's optional
    characters, "Flexible Pattern Matching in Strings", ch. 4).  The word
    matches if the state ends with a bit past some branch's end.
    """
    start, accept, stars, skippable, labels, text, rows = regex._matcher
    state = start
    for symbol in word:
        row = rows.get(symbol)
        if row is None:
            table = "0" + "".join(["11" if eval_label_expr(label, symbol) else "00" for label in labels])
            matched = int(text.translate(table), 2)
            row = rows[symbol] = (matched & ~stars, matched & stars)
        state = ((state & row[0]) << 1) | (state & row[1])
        if not state:
            return False
        # Adding `skippable` carries each bit on a skippable position up
        # through the rest of its run of them and on to the position after
        # the run; the xor leaves the bits the carry went through.
        state |= ((state & skippable) + skippable) ^ skippable
    return state & accept != 0


# ---------------------------------------------------------------------------
# NFA compilation (the independent route exercised against match_word)


@dataclass(frozen=True)
class Nfa:
    """Nondeterministic automaton whose edges carry label expressions."""

    num_states: int
    initial: int
    accepting: frozenset[int]
    edges: tuple[tuple[tuple[LabelExpr, int], ...], ...]

    def accepts(self, word: Sequence[str]) -> bool:
        current = {self.initial}
        for symbol in word:
            nxt = set()
            for q in current:
                for label, q2 in self.edges[q]:
                    if eval_label_expr(label, symbol):
                        nxt.add(q2)
            if not nxt:
                return False
            current = nxt
        return bool(current & self.accepting)


def build_nfa(regex: PathRegex) -> Nfa:
    """Compile to an automaton accepting exactly the word language.

    All branches share the single initial state 0; the restricted grammar
    needs no epsilon edges.  Each sub-expression object is compiled once, so
    the automaton is as large as the expression's DAG, not its tree; every
    path into a state still reads a word of the sub-expression that made it.
    A `Tick{lo,hi}` becomes hi states in a row, each entered by `t` and
    looping on `-t`, and ends at each of them whose count is at least lo
    (and where it started, if lo is 0).
    """
    edges: list[list[tuple[LabelExpr, int]]] = [[]]
    accepting = _nfa_ends(regex, edges, {})
    return Nfa(len(edges), 0, accepting, tuple(tuple(e) for e in edges))


def _nfa_ends(node: PathRegex, edges: list[list[tuple[LabelExpr, int]]], memo: dict[int, frozenset[int]]):
    got = memo.get(id(node))
    if got is not None:
        return got
    if type(node) is Eps:
        ends = frozenset((0,))
    elif type(node) is Union:
        ends = _nfa_ends(node.left, edges, memo) | _nfa_ends(node.right, edges, memo)
    elif type(node.step) is Tick:
        ends = _nfa_ends(node.head, edges, memo)
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
        ends = _nfa_ends(node.head, edges, memo)
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
    memo[id(node)] = ends
    return ends


# ---------------------------------------------------------------------------
# Product oracles


def _product_bits(g: Lts, nfa: Nfa) -> tuple[int, int]:
    """(end, visited) bit sets of the NFA x graph product: the graph states of
    the reached pairs whose NFA state accepts, and those of all reached pairs."""
    n = nfa.num_states
    start = g.initial * n + nfa.initial  # the pair (s, q) is kept as s * n + q
    seen = {start}
    queue = deque((start,))
    end = 1 << g.initial if nfa.initial in nfa.accepting else 0
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
                        if q2 in nfa.accepting:
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
