"""Labeled transition systems: states, labeled edges, state sets, label expressions,
tick windows, images and searches along labels, file I/O.

The graph is the shared substrate of every check in this package: states are
dense indices 0..n-1, edges carry text labels, and `t` is reserved
for the tick of the logical clock while `z` marks silent internal steps.
"""

from __future__ import annotations

import re
import weakref
from collections.abc import Iterable, Iterator

from ._scan import Cursor, Node, ParseError, _set, tokenize

TICK_LABEL = "t"

# "T" is the all-labels constant of the expression language and may never be
# used as a transition label.
RESERVED_LABEL = "T"


# ---------------------------------------------------------------------------
# Label expressions


class LabelExpr(Node):
    """Boolean expression denoting a set of transition labels.

    `_truth` holds the expression's `label_truth` memo once it is asked for."""

    __slots__ = ("_truth",)


class Atom(LabelExpr):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Top(LabelExpr):
    __slots__ = ()


class Not(LabelExpr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: LabelExpr):
        _set(self, "arg", arg)


class And(LabelExpr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: LabelExpr, right: LabelExpr):
        _set(self, "left", left)
        _set(self, "right", right)


class Or(LabelExpr):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: LabelExpr, right: LabelExpr):
        _set(self, "left", left)
        _set(self, "right", right)


TOP = Top()
TICK = Atom(TICK_LABEL)
NOT_TICK = Not(TICK)


def eval_label_expr(expr: LabelExpr, label: str) -> bool:
    """Decide whether `label` belongs to the set denoted by `expr`."""
    if type(expr) is Atom:
        return expr.name == label
    if type(expr) is Top:
        return True
    if type(expr) is Not:
        return not eval_label_expr(expr.arg, label)
    if type(expr) is And:
        return eval_label_expr(expr.left, label) and eval_label_expr(expr.right, label)
    if type(expr) is Or:
        return eval_label_expr(expr.left, label) or eval_label_expr(expr.right, label)
    raise TypeError(f"not a label expression: {expr!r}")


class _Truth(dict):
    """Per label text, whether it matches the expression: evaluated on the
    first lookup of each text, then read.  It names its expression through a
    weak reference, so that the two form no cycle."""

    __slots__ = ("_expr",)

    def __init__(self, expr: LabelExpr):
        self._expr = weakref.ref(expr)

    def __missing__(self, label: str) -> bool:
        truth = self[label] = eval_label_expr(self._expr(), label)
        return truth


def label_truth(expr: LabelExpr) -> dict[str, bool]:
    """Per label text, whether it matches `expr`, as a mapping that every
    graph shares: kept on the expression from its first use, one entry per
    text looked up, and freed with it.  It refers to `expr` weakly, so read
    it only while `expr` is alive."""
    truth = getattr(expr, "_truth", None)
    if truth is None:
        truth = _Truth(expr)
        _set(expr, "_truth", truth)
    return truth


def parse_label_expr_at(cur: Cursor) -> LabelExpr:
    """Parse a label expression from an open cursor (used by embedding parsers)."""
    expr = _parse_and(cur)
    while cur.take("\\/"):
        expr = Or(expr, _parse_and(cur))
    return expr


def _parse_and(cur: Cursor) -> LabelExpr:
    expr = parse_label_operand_at(cur)
    while cur.take("/\\"):
        expr = And(expr, parse_label_operand_at(cur))
    return expr


def parse_label_operand_at(cur: Cursor) -> LabelExpr:
    """Parse one operand: `-operand`, `(expr)`, a label, or `T`.  The path
    regex and formula parsers use it for the label after `*` and `o`."""
    if cur.take("-"):
        return Not(parse_label_operand_at(cur))
    if cur.take("("):
        expr = parse_label_expr_at(cur)
        cur.expect(")")
        return expr
    tok = cur.peek()
    if tok.kind == "ident":
        cur.advance()
        if tok.text == RESERVED_LABEL:
            return TOP
        return Atom(tok.text)
    raise ParseError(f"expected a label, found {tok.text or 'end of input'!r}", tok.pos)


def parse_label_expr(text: str) -> LabelExpr:
    """Parse the concrete syntax: `-` binds tighter than `/\\` tighter than `\\/`."""
    if not text.strip():
        raise ParseError("empty label expression", 0)
    cur = Cursor(tokenize(text))
    expr = parse_label_expr_at(cur)
    cur.expect_end()
    return expr


def format_label_expr(expr: LabelExpr) -> str:
    """Print an expression so that parse_label_expr round-trips it."""
    return _fmt(expr, 0)


def format_label_operand(expr: LabelExpr) -> str:
    """Print an expression as one operand, the form parse_label_operand_at reads."""
    return _fmt(expr, 4)


_LEVEL = {Or: 1, And: 2, Not: 3, Atom: 4, Top: 4}


def _fmt(expr: LabelExpr, need: int) -> str:
    level = _LEVEL[type(expr)]
    if type(expr) is Atom:
        out = expr.name
    elif type(expr) is Top:
        out = RESERVED_LABEL
    elif type(expr) is Not:
        out = "-" + _fmt(expr.arg, 3)
    elif type(expr) is And:
        out = _fmt(expr.left, 2) + " /\\ " + _fmt(expr.right, 3)
    else:
        out = _fmt(expr.left, 1) + " \\/ " + _fmt(expr.right, 2)
    if level < need:
        return "(" + out + ")"
    return out


# ---------------------------------------------------------------------------
# Tick windows


class Interval(Node):
    """Integer interval with open/closed ends; upper=None means unbounded.

    Its bounds count ticks: clock values in a network, durations in a
    trace formula.
    """

    __slots__ = _fields = ("lower", "upper", "lower_open", "upper_open")

    def __init__(self, lower: int, upper: int | None, lower_open: bool = False, upper_open: bool = False):
        if lower < 0:
            raise ValueError("durations are counts of ticks; negative bound")
        if upper is not None and upper < 0:
            raise ValueError("negative upper bound")
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "lower_open", lower_open)
        _set(self, "upper_open", upper_open)

    def contains(self, k: int) -> bool:
        ticks = self.integer_range()
        return ticks is not None and ticks[0] <= k and (ticks[1] is None or k <= ticks[1])

    def integer_range(self) -> tuple[int, int | None] | None:
        """The integers inside, as an inclusive range (lo, hi) with hi=None
        when unbounded; None when no integer lies inside."""
        lo = self.lower + 1 if self.lower_open else self.lower
        if self.upper is None:
            return lo, None
        hi = self.upper - 1 if self.upper_open else self.upper
        return (lo, hi) if lo <= hi else None

    def __str__(self):
        left = "]" if self.lower_open else "["
        if self.upper is None:
            return f"{left}{self.lower},inf["
        right = "[" if self.upper_open else "]"
        return f"{left}{self.lower},{self.upper}{right}"


# ---------------------------------------------------------------------------
# State sets


class StateSet(Node):
    """Subset of the states of one graph, as a fixed-width bit vector."""

    __slots__ = _fields = ("width", "bits")

    def __init__(self, width: int, bits: int = 0):
        if bits >> width:
            raise ValueError("bit vector wider than the graph it belongs to")
        _set(self, "width", width)
        _set(self, "bits", bits)

    @classmethod
    def of(cls, width: int, states: Iterable[int]) -> "StateSet":
        bits = 0
        for s in states:
            if not 0 <= s < width:
                raise ValueError(f"state {s} out of range 0..{width - 1}")
            bits |= 1 << s
        return cls(width, bits)

    def _check(self, other: "StateSet") -> None:
        if self.width != other.width:
            raise ValueError("state sets belong to different graphs")

    def __or__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.width, self.bits | other.bits)

    def __and__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.width, self.bits & other.bits)

    def __sub__(self, other: "StateSet") -> "StateSet":
        self._check(other)
        return StateSet(self.width, self.bits & ~other.bits)

    def complement(self) -> "StateSet":
        return StateSet(self.width, self.bits ^ ((1 << self.width) - 1))

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.width and (self.bits >> state) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self.bits.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_all(self) -> bool:
        return self.bits == (1 << self.width) - 1

    def __repr__(self):
        return f"StateSet({self.width}, {{{', '.join(map(str, self))}}})"


# ---------------------------------------------------------------------------
# The transition system


# A set of this many states or more is read and built a byte at a time.
# Below it, the lowest-bit loop and one OR per state are faster: they cost a
# few whole-width int operations per state, the byte walk and the digits a
# pass over the whole width.  A search keeps its states in ints of bits in a
# graph of fewer states, and in a list and a set in a larger one.
_DENSE = 64
_DENSE_FLOOR = 1 << _DENSE  # no smaller int holds _DENSE states

# Per byte value, the positions of its set bits, built by doubling.
_BIT_POSITIONS: list[tuple[int, ...]] = [()]
for _p in range(8):
    _BIT_POSITIONS += [positions + (_p,) for positions in _BIT_POSITIONS]


def _members(bits: int) -> list[int]:
    """The states in `bits`, ascending."""
    out = []
    if bits >= _DENSE_FLOOR and bits.bit_count() >= _DENSE:
        state = 0
        for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
            if byte:
                for p in _BIT_POSITIONS[byte]:
                    out.append(state + p)
            state += 8
        return out
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _bits_of(states, n: int) -> int:
    """The bits of `states`, a collection of states of an `n`-state graph;
    `_DENSE` of them or more are marked in a bytearray of digits that is
    read as one int, as `_image` marks a dense image."""
    if len(states) >= _DENSE:
        digits = bytearray(b"0") * n
        for state in states:
            digits[state] = 49  # the digit 1
        return int(digits[::-1], 2)
    out = 0
    for state in states:
        out |= 1 << state
    return out


def _image(bits: int, edges: list[tuple[tuple[str, int], ...]], matches: dict[str, bool]) -> int:
    """The states reached from those in `bits` along the edges whose label
    `matches`.  A set of `_DENSE` states or more is read a byte at a time, its
    image marked in a bytearray of digits that is read as one int at the end."""
    if bits >= _DENSE_FLOOR and bits.bit_count() >= _DENSE:
        hit = bytearray(b"0") * len(edges)
        state = 0
        for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
            if byte:
                for p in _BIT_POSITIONS[byte]:
                    for label, there in edges[state + p]:
                        if matches[label]:
                            hit[there] = 49  # the digit 1
            state += 8
        return int(hit[::-1], 2)
    out = 0
    while bits:
        low = bits & -bits
        for label, there in edges[low.bit_length() - 1]:
            if matches[label]:
                out |= 1 << there
        bits ^= low
    return out


def _search(todo, edges, matches: dict[str, bool], seen):
    """Enters each state reachable from those in `todo` along the edges
    whose label `matches`, once: a state joins `todo` when `seen` takes it
    in.  `seen` holds `todo`'s states.  In a graph under `_DENSE` states both
    are ints of bits; in a larger one `todo` is a list used as a stack and
    `seen` a set grown in place.  Returns `seen` with the entered states."""
    if type(seen) is int:
        while todo:
            low = todo & -todo
            todo ^= low
            for label, there in edges[low.bit_length() - 1]:
                if matches[label] and not seen >> there & 1:
                    seen |= 1 << there
                    todo |= 1 << there
        return seen
    while todo:
        for label, there in edges[todo.pop()]:
            if matches[label] and there not in seen:
                seen.add(there)
                todo.append(there)
    return seen


class Lts:
    """Finite labeled transition graph with a distinguished initial state.

    Immutable after construction; exact duplicate transitions are dropped
    silently (the rest keep their first-seen order), labels are listed in
    order of first appearance, and `T` is rejected as a transition label.
    """

    def __init__(
        self,
        num_states: int,
        initial: int,
        transitions: Iterable[tuple[int, str, int]],
        extra_labels: Iterable[str] = (),
    ):
        if num_states < 1:
            raise ValueError("a graph needs at least one state")
        if not 0 <= initial < num_states:
            raise ValueError(f"initial state {initial} out of range 0..{num_states - 1}")
        self._n = num_states
        self._initial = initial
        edges = tuple(dict.fromkeys(transitions))  # first-seen order
        labels: dict[str, None] = {}
        for src, label, dst in edges:
            if not (0 <= src < num_states and 0 <= dst < num_states):
                raise ValueError(f"transition ({src}, {label!r}, {dst}) leaves the state range")
            if label not in labels:
                labels[label] = None
                if label == RESERVED_LABEL:
                    break  # reported below, before any later edge is looked at
        labels.update(dict.fromkeys(extra_labels))
        if RESERVED_LABEL in labels:
            raise ValueError("'T' is reserved for label expressions, not transitions")
        self._transitions = edges
        self._labels = tuple(labels)
        self._edge_lists: list[list[tuple[tuple[str, int], ...]] | None] = [None, None]
        self._sorted: list[tuple[int, str, int]] | None = None

    @property
    def num_states(self) -> int:
        return self._n

    @property
    def initial(self) -> int:
        return self._initial

    @property
    def transitions(self) -> tuple[tuple[int, str, int], ...]:
        return self._transitions

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __eq__(self, other):
        if not isinstance(other, Lts):
            return NotImplemented
        return (
            self._n == other._n
            and self._initial == other._initial
            and set(self._transitions) == set(other._transitions)
        )

    def __hash__(self):
        return hash((self._n, self._initial, frozenset(self._transitions)))

    def __repr__(self):
        return f"Lts(states={self._n}, initial={self._initial}, transitions={len(self._transitions)})"

    # -- state sets of this graph

    def set_of(self, states: Iterable[int]) -> StateSet:
        return StateSet.of(self._n, states)

    # -- adjacency

    def _adjacency(self, forward: bool) -> list[tuple[tuple[str, int], ...]]:
        """Per state, its (label, successor) pairs, or with forward=False its
        (label, predecessor) pairs, in transition order; built once per direction."""
        edges = self._edge_lists[forward]
        if edges is None:
            grouped: list[list[tuple[str, int]]] = [[] for _ in range(self._n)]
            for src, label, dst in self._transitions:
                here, there = (src, dst) if forward else (dst, src)
                grouped[here].append((label, there))
            edges = self._edge_lists[forward] = list(map(tuple, grouped))
        return edges

    def out_edges(self, state: int) -> tuple[tuple[str, int], ...]:
        """`state`'s (label, successor) pairs; a built forward list is read directly, without a call."""
        return (self._edge_lists[True] or self._adjacency(True))[state]

    def _sorted_transitions(self) -> list[tuple[int, str, int]]:
        """The transitions sorted by (source, label text, target), the order
        save_aut and to_dot write; sorted once and shared, never modified."""
        if self._sorted is None:
            self._sorted = sorted(self._transitions)
        return self._sorted

    def post_bits(self, bits: int, expr: LabelExpr) -> int:
        """Successors (as a bit mask) of the states in `bits` along matching labels."""
        return _image(bits, self._adjacency(True), label_truth(expr))

    def pre_bits(self, bits: int, expr: LabelExpr) -> int:
        """Predecessors (as a bit mask) of the states in `bits` along matching labels."""
        return _image(bits, self._adjacency(False), label_truth(expr))

    def star_bits(self, bits: int, expr: LabelExpr) -> int:
        """The states in `bits` and every state reachable from them along
        matching labels (as a bit mask), by one search."""
        edges = self._adjacency(True)
        if self._n < _DENSE:
            return _search(bits, edges, label_truth(expr), bits)
        stack = _members(bits)
        seen = _search(stack, edges, label_truth(expr), set(stack))
        return bits if len(seen) == bits.bit_count() else _bits_of(seen, self._n)

    def ticks_bits(self, bits: int, lo: int, hi: int) -> tuple[int, int]:
        """The states k ticks after those in `bits`, a tick being one `t` edge
        and then any number of other edges, as two bit masks: the union for k
        from lo to hi, and for k from 0 to hi.  Each count's set is one search
        from the `t` successors of the count before, and the loop stops once
        a count's set is empty or that of the count before."""
        edges, tick, other = self._adjacency(True), label_truth(TICK), label_truth(NOT_TICK)
        small = self._n < _DENSE
        if small:
            cur, every, window = bits, bits, bits if lo == 0 else 0
        else:
            cur = set(_members(bits))
            every, window = set(cur), set(cur) if lo == 0 else set()
        for k in range(1, hi + 1):
            if small:
                seeds = _image(cur, edges, tick)
                nxt = _search(seeds, edges, other, seeds)
            else:
                seeds = {there for state in cur for label, there in edges[state] if tick[label]}
                nxt = _search(list(seeds), edges, other, seeds)
            if nxt == cur:  # and so is every later count's set
                window |= cur
                break
            cur = nxt
            if not cur:
                break
            every |= cur
            if k >= lo:
                window |= cur
        if small:
            return window, every
        return _bits_of(window, self._n), _bits_of(every, self._n)


# ---------------------------------------------------------------------------
# .aut interchange format (Aldebaran style)

_HEADER_RE = re.compile(r"^des\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)\s*$")
_TRANS_RE = re.compile(r'^\(\s*(\d+)\s*,\s*"([^"]*)"\s*,\s*(\d+)\s*\)\s*$')


def load_aut(text: str) -> Lts:
    """Parse `des (<init>, <#transitions>, <#states>)` plus one edge per line."""
    lines = [(i + 1, line.strip()) for i, line in enumerate(text.splitlines())]
    lines = [(no, line) for no, line in lines if line]
    if not lines:
        raise ValueError("empty .aut input")
    no, header = lines[0]
    m = _HEADER_RE.match(header)
    if m is None:
        raise ValueError(f"line {no}: malformed header {header!r}")
    initial, count, num_states = (int(g) for g in m.groups())
    body = lines[1:]
    if len(body) != count:
        raise ValueError(f"header declares {count} transitions but {len(body)} lines follow")
    transitions = []
    for no, line in body:
        m = _TRANS_RE.match(line)
        if m is None:
            raise ValueError(f"line {no}: malformed transition {line!r}")
        src, label, dst = int(m.group(1)), m.group(2), int(m.group(3))
        if not label:
            raise ValueError(f"line {no}: empty transition label")
        if num_states and (src >= num_states or dst >= num_states):  # Lts rejects zero states
            raise ValueError(f"line {no}: state index out of range 0..{num_states - 1}")
        transitions.append((src, label, dst))
    return Lts(num_states, initial, transitions)


def save_aut(g: Lts) -> str:
    """Canonical text: transitions sorted by (source, label text, target).
    `_edge_text` joins the lines a block at a time."""
    mid = {label: f', "{label}", ' for label in g.labels}
    return _edge_text(
        g,
        f"des ({g.initial}, {len(g.transitions)}, {g.num_states})\n",
        lambda edges, names: [f"({names[src]}{mid[label]}{names[dst]})\n" for src, label, dst in edges],
        "",
    )


# Edge lines joined at a time.  One list of every line raised peak memory:
# the allocator keeps the pages of the freed line strings.
_BLOCK = 4096


def _edge_text(g: Lts, head: str, lines, end: str) -> str:
    """`head`, one line per transition in `_sorted_transitions` order, then
    `end`.  `lines(edges, names)` writes the lines of a block of edges, with
    `names[s]` the text of state s, made once per state."""
    names = list(map(str, range(g.num_states)))
    edges = g._sorted_transitions()
    blocks = [head]
    for i in range(0, len(edges), _BLOCK):
        blocks.append("".join(lines(edges[i : i + _BLOCK], names)))
    blocks.append(end)
    return "".join(blocks)


# ---------------------------------------------------------------------------
# DOT rendering (text only; drawing is left to external viewers)


# DOT's keywords, in any case, cannot stand bare as an attribute value.
_DOT_KEYWORDS = frozenset(("node", "edge", "graph", "digraph", "subgraph", "strict"))


def _dot_quote(text: str) -> str:
    if text.isidentifier() and text.lower() not in _DOT_KEYWORDS:
        return text
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Lts, highlight: StateSet | None = None) -> str:
    """Graphviz digraph; the initial state is double-circled, highlights
    filled.  `_edge_text` joins the edge lines a block at a time."""
    if highlight is not None and highlight.width != g.num_states:
        raise ValueError("highlight set belongs to a different graph")
    lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=circle];"]
    filled = 0 if highlight is None else highlight.bits
    for state in StateSet(g.num_states, filled | (1 << g.initial)):  # ascending
        attrs = []
        if state == g.initial:
            attrs.append("shape=doublecircle")
        if (filled >> state) & 1:
            attrs.append("style=filled")
        lines.append(f"  {state} [{', '.join(attrs)}];")
    lines.append("")
    tail = {label: f" [label={_dot_quote(label)}];\n" for label in g.labels}
    return _edge_text(
        g,
        "\n".join(lines),
        lambda edges, names: [f"  {names[src]} -> {names[dst]}{tail[label]}" for src, label, dst in edges],
        "}\n",
    )
