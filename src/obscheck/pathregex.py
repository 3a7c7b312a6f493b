"""Regular path expressions over label expressions, with a Tick macro.

The grammar is deliberately restricted to the shapes the formula compiler
can handle: single steps, stars over label expressions (never over
sequences), the Tick macro `t . (-t)*`, union, and the empty word `eps`.

Besides the matcher, this module carries the brute-force oracles used to
cross-validate the compiler: NFA x graph product reachability, with no
mu-calculus involved.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from ._scan import Cursor, ParseError, tokenize
from .lts import NOT_TICK, LabelExpr, Lts, StateSet, eval_label_expr, parse_label_operand_at
from .lts import TICK as TICK_ATOM

Word = tuple[str, ...]


class PathRegex:
    __slots__ = ()

    @cached_property
    def _matcher(self):
        # match_word's compiled form, kept on the expression so that it is
        # freed with it.
        return _compile_branches(self)


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
    pass


EPS = Eps()
TICK = Tick()


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
# step   := 'Tick' | operand '*'?
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
        return TICK
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
# Tick steps and word matching


# The steps a Tick stands for: `t` followed by `(-t)*`.
TICK_STEPS = (One(TICK_ATOM), Star(NOT_TICK))

_ONE, _STAR = 0, 1


def _compile_branches(regex: PathRegex):
    """(branches, labels, rows): each branch is a step list of (opcode, label
    index) over a deduplicated table of the label expressions involved;
    `rows`, which match_word fills in, maps each symbol met so far to the
    indices of the labels it matches.

    A Tick is compiled in place from TICK_STEPS, as in build_nfa, so a
    shared chain (such as `fott.present_regex`'s) is walked once per branch
    but never rebuilt; the walk is as long as the steps it emits."""
    labels: list[LabelExpr] = []
    index: dict[LabelExpr, int] = {}
    tick: list[tuple[int, int]] = []  # TICK_STEPS, last first, once a Tick is met

    def step_of(step: Step) -> tuple[int, int]:
        i = index.get(step.label)
        if i is None:
            index[step.label] = i = len(labels)
            labels.append(step.label)
        return (_ONE if type(step) is One else _STAR, i)

    def branches(node: PathRegex) -> list[tuple]:
        if type(node) is Union:
            return branches(node.left) + branches(node.right)
        steps: list[tuple[int, int]] = []
        while type(node) is Seq:
            if type(node.step) is Tick:
                if not tick:
                    tick.extend(step_of(s) for s in reversed(TICK_STEPS))
                steps += tick
            else:
                steps.append(step_of(node.step))
            node = node.head
        steps.reverse()
        if type(node) is not Eps:
            # A union under a sequence: fall back to cross products.
            return [p + tuple(steps) for p in branches(node)]
        return [tuple(steps)]

    return tuple(branches(regex)), tuple(labels), {}


def match_word(regex: PathRegex, word: Sequence[str]) -> bool:
    """Word membership, decided directly on the expression (no automaton).

    Each branch is folded over a bit mask of reachable end positions in the
    word; a star closes the position set under its matching symbols.
    """
    branches, labels, rows = regex._matcher
    # Mask of word positions each label expression matches.
    masks = [0] * len(labels)
    for i, symbol in enumerate(word):
        row = rows.get(symbol)
        if row is None:
            row = rows[symbol] = tuple(j for j, e in enumerate(labels) if eval_label_expr(e, symbol))
        bit = 1 << i
        for j in row:
            masks[j] |= bit
    accept = 1 << len(word)
    for branch in branches:
        pos = 1
        for opcode, j in branch:
            if opcode == _ONE:
                pos = (pos & masks[j]) << 1
                if not pos:
                    break
            else:
                mask = masks[j]
                while True:
                    grown = pos | ((pos & mask) << 1)
                    if grown == pos:
                        break
                    pos = grown
        if pos & accept:
            return True
    return False


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
    """
    edges: list[list[tuple[LabelExpr, int]]] = [[]]
    memo: dict[int, frozenset[int]] = {}

    def go(node: PathRegex) -> frozenset[int]:
        got = memo.get(id(node))
        if got is not None:
            return got
        if type(node) is Eps:
            ends = frozenset((0,))
        elif type(node) is Union:
            ends = go(node.left) | go(node.right)
        else:
            ends = go(node.head)
            for step in TICK_STEPS if type(node.step) is Tick else (node.step,):
                q = len(edges)
                edges.append([])
                for f in ends:
                    edges[f].append((step.label, q))
                if type(step) is Star:
                    edges[q].append((step.label, q))
                    ends = ends | {q}
                else:
                    ends = frozenset((q,))
        memo[id(node)] = ends
        return ends

    accepting = go(regex)
    return Nfa(len(edges), 0, accepting, tuple(tuple(e) for e in edges))


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

    The product gives that union.  Each NFA state ends a syntactic prefix,
    where the `t` state inside an expanded Tick counts as an end of that
    Tick's prefix (its `(-t)*` may take no step).  A word leads into a state
    only if it matches the prefix that state ends, and each word of a prefix
    leads into one of its ends, so the union is the set of graph states over
    all reached pairs."""
    end, visited = _product_bits(g, build_nfa(regex))
    return StateSet(g.num_states, end), StateSet(g.num_states, visited)


def oracle_end_states(g: Lts, regex: PathRegex) -> StateSet:
    """The end half of `oracle_states`."""
    return oracle_states(g, regex)[0]


def oracle_visited_states(g: Lts, regex: PathRegex) -> StateSet:
    """The visited half of `oracle_states`."""
    return oracle_states(g, regex)[1]
