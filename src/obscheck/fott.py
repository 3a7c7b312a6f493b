"""First-order formulas over discrete timed traces, and the pattern generators.

Traces are words over event symbols plus the tick `t` and the silent step
`z`; the duration of a word is its tick count.  Formulas combine
conjunction, negation, existential quantification, equality with a literal
word, binary concatenation, and duration-in-interval constraints.

Evaluation is a small backtracking solver restricted to *anchored*
formulas: every quantified variable must be connected to a free variable
through a chain of concatenation equations (or pinned by a literal), so its
value is always a contiguous piece of an already known word.  Concatenation
constraints are solved by enumerating split points.

The generators at the bottom produce, for the existence pattern
"event a after the first b within an interval", both the trace formula and
the equivalent path regex; their agreement word-by-word is the main oracle
of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .lts import NOT_TICK, TICK_LABEL, Atom, Interval, Top
from .lts import Not as LabelNot
from .pathregex import EPS, TICK, One, PathRegex, Seq, Star, Union, Word, seq_of


class FottError(ValueError):
    pass


def interval_ticks(interval: Interval) -> tuple[int, int | None]:
    """The integer tick counts inside the interval, as an inclusive range
    (lo, hi) with hi=None for an unbounded interval.  Empty ranges are
    rejected: no integer fits in the window."""
    ticks = interval.integer_range()
    if ticks is None:
        raise FottError(f"no integer duration lies in {interval}")
    return ticks


def delta(word: Sequence[str]) -> int:
    """Duration of a discrete trace: its number of ticks."""
    return sum(1 for s in word if s == TICK_LABEL)


# ---------------------------------------------------------------------------
# Formula AST


class FottFormula:
    __slots__ = ()

    # Solver memos, stored on the formula itself so they are freed with it.

    @cached_property
    def _conjuncts(self) -> tuple:
        """The formula as a flat conjunct list, quantifiers dropped."""
        items: list[FottFormula] = []
        stack = [self]
        while stack:
            node = stack.pop()
            t = type(node)
            if t is And:
                stack.append(node.right)
                stack.append(node.left)
            elif t is Exists:
                stack.append(node.body)
            else:
                items.append(node)
        # And(a, b) pushes b then a, so a pops first: construction order kept,
        # which is what makes split enumeration prune early.
        return tuple(items)

    @cached_property
    def _frees(self) -> tuple[str, ...]:
        return tuple(sorted(free_variables(self)))


@dataclass(frozen=True)
class And(FottFormula):
    left: FottFormula
    right: FottFormula


@dataclass(frozen=True)
class Not(FottFormula):
    arg: FottFormula


@dataclass(frozen=True)
class Exists(FottFormula):
    var: str
    body: FottFormula


@dataclass(frozen=True)
class EqLit(FottFormula):
    var: str
    word: Word


@dataclass(frozen=True)
class EqCat(FottFormula):
    whole: str
    prefix: str
    suffix: str


@dataclass(frozen=True)
class DurIn(FottFormula):
    var: str
    interval: Interval


def and_chain(items: Sequence[FottFormula]) -> FottFormula:
    out = items[0]
    for item in items[1:]:
        out = And(out, item)
    return out


def exists_many(names: Sequence[str], body: FottFormula) -> FottFormula:
    for name in reversed(names):
        body = Exists(name, body)
    return body


def not_in(event: str, var: str) -> FottFormula:
    """The event never occurs in the trace bound to `var`."""
    h1, h2, h3, lit = var + "'1", var + "'2", var + "'3", var + "'e"
    return Not(
        exists_many(
            (h1, h2, h3, lit),
            and_chain(
                (
                    EqLit(lit, (event,)),
                    EqCat(var, h1, h2),
                    EqCat(h2, lit, h3),
                )
            ),
        )
    )


def after_scope(trace: str, event: str, tail: str) -> FottFormula:
    """`tail` is the part of `trace` after the first occurrence of the event."""
    h1, h2, lit = tail + "'1", tail + "'2", tail + "'e"
    return exists_many(
        (h1, h2, lit),
        and_chain(
            (
                EqLit(lit, (event,)),
                EqCat(trace, h1, h2),
                EqCat(h2, lit, tail),
                not_in(event, h1),
            )
        ),
    )


# ---------------------------------------------------------------------------
# Anchoring


def free_variables(f: FottFormula) -> frozenset[str]:
    if type(f) is And:
        return free_variables(f.left) | free_variables(f.right)
    if type(f) is Not:
        return free_variables(f.arg)
    if type(f) is Exists:
        return free_variables(f.body) - {f.var}
    if type(f) is EqLit:
        return frozenset((f.var,))
    if type(f) is EqCat:
        return frozenset((f.whole, f.prefix, f.suffix))
    if type(f) is DurIn:
        return frozenset((f.var,))
    raise TypeError(f"not a trace formula: {f!r}")


def check_anchored(f: FottFormula, free: Sequence[str]) -> None:
    """Every quantified variable must be connected to a free variable through
    concatenation equations, or pinned to a literal word."""
    quantified: set[str] = set()
    links: list[tuple[str, str]] = []
    grounded: set[str] = set(free)

    def walk(node: FottFormula) -> None:
        t = type(node)
        if t is And:
            walk(node.left)
            walk(node.right)
        elif t is Not:
            walk(node.arg)
        elif t is Exists:
            quantified.add(node.var)
            walk(node.body)
        elif t is EqCat:
            links.append((node.whole, node.prefix))
            links.append((node.whole, node.suffix))
        elif t is EqLit:
            grounded.add(node.var)

    walk(f)
    parent: dict[str, str] = {}

    def find(v: str) -> str:
        root = v
        while parent.get(root, root) != root:
            root = parent[root]
        parent[v] = root
        return root

    for a, b in links:
        parent[find(a)] = find(b)
    anchors = {find(v) for v in grounded}
    loose = sorted(v for v in quantified if find(v) not in anchors)
    if loose:
        raise FottError(f"unanchored quantified variable(s): {', '.join(loose)}")


# ---------------------------------------------------------------------------
# Evaluation
#
# Bindings are (base word, lo, hi) windows, so split enumeration never
# copies; literal words introduce their own base.  The conjunct list of a
# formula is flattened once (`FottFormula._conjuncts`) and then walked by
# index: the next constraint is almost always the next ready one, so the
# scheduler only reorders (and only then copies) when construction order and
# data flow disagree.


def _window_eq(wa, la, ha, wb, lb, hb) -> bool:
    if ha - la != hb - lb:
        return False
    if wa is wb and la == lb:
        return True
    for i in range(ha - la):
        if wa[la + i] != wb[lb + i]:
            return False
    return True


def eval_fott(f: FottFormula, asg: Mapping[str, Sequence[str]]) -> bool:
    """Standard semantics on the given assignment of the free variables."""
    env: dict[str, tuple] = {}
    for var, word in asg.items():
        w = tuple(word)
        env[var] = (w, 0, len(w))
    return _truth(f, env)


def _truth(f: FottFormula, env: dict[str, tuple]) -> bool:
    return _solve(f._conjuncts, 0, env)


def _ready(item: FottFormula, env: dict[str, tuple]) -> bool:
    t = type(item)
    if t is EqCat:
        return item.whole in env or (item.prefix in env and item.suffix in env)
    if t is EqLit:
        return True
    if t is DurIn:
        return item.var in env
    if t is Not:
        for v in item._frees:
            if v not in env:
                return False
        return True
    raise TypeError(f"not a trace formula conjunct: {item!r}")


def _solve(items: tuple, i: int, env: dict[str, tuple]) -> bool:
    if i == len(items):
        return True
    item = items[i]
    if not _ready(item, env):
        for j in range(i + 1, len(items)):
            if _ready(items[j], env):
                items = items[:i] + (items[j],) + items[i:j] + items[j + 1 :]
                item = items[i]
                break
        else:
            raise FottError("formula is not anchored: no constraint is ready to solve")
    t = type(item)
    if t is EqCat:
        return _sat_eqcat(item, items, i + 1, env)
    if t is EqLit:
        lit = env.get(item.var)
        if lit is not None:
            return _window_eq(lit[0], lit[1], lit[2], item.word, 0, len(item.word)) and _solve(
                items, i + 1, env
            )
        env[item.var] = (item.word, 0, len(item.word))
        try:
            return _solve(items, i + 1, env)
        finally:
            del env[item.var]
    if t is DurIn:
        w, lo, hi = env[item.var]
        ticks = 0
        for k in range(lo, hi):
            if w[k] == TICK_LABEL:
                ticks += 1
        return item.interval.contains(ticks) and _solve(items, i + 1, env)
    # Not
    if _truth(item.arg, env):
        return False
    return _solve(items, i + 1, env)


def _sat_eqcat(item: EqCat, items: tuple, nxt: int, env: dict[str, tuple]) -> bool:
    whole = env.get(item.whole)
    pre = env.get(item.prefix)
    suf = env.get(item.suffix)
    if whole is not None:
        w, lo, hi = whole
        if pre is not None and suf is not None:
            pw, plo, phi = pre
            cut = lo + (phi - plo)
            return (
                cut <= hi
                and _window_eq(w, lo, cut, pw, plo, phi)
                and _window_eq(w, cut, hi, suf[0], suf[1], suf[2])
                and _solve(items, nxt, env)
            )
        if pre is not None:
            pw, plo, phi = pre
            cut = lo + (phi - plo)
            if cut > hi or not _window_eq(w, lo, cut, pw, plo, phi):
                return False
            return _bind_and_solve(item.suffix, (w, cut, hi), items, nxt, env)
        if suf is not None:
            sw, slo, shi = suf
            cut = hi - (shi - slo)
            if cut < lo or not _window_eq(w, cut, hi, sw, slo, shi):
                return False
            return _bind_and_solve(item.prefix, (w, lo, cut), items, nxt, env)
        if item.prefix == item.suffix:
            cut = (lo + hi) // 2
            if (lo + hi) % 2 or not _window_eq(w, lo, cut, w, cut, hi):
                return False
            return _bind_and_solve(item.prefix, (w, lo, cut), items, nxt, env)
        # When the next constraint pins the suffix to start with a literal
        # character, only the positions of that character can succeed.
        head_char = None
        if nxt < len(items):
            peek = items[nxt]
            if type(peek) is EqCat and peek.whole == item.suffix:
                pinned = env.get(peek.prefix)
                if pinned is not None and pinned[2] - pinned[1] == 1:
                    head_char = pinned[0][pinned[1]]
        hit = False
        if head_char is None:
            for cut in range(lo, hi + 1):
                env[item.prefix] = (w, lo, cut)
                env[item.suffix] = (w, cut, hi)
                if _solve(items, nxt, env):
                    hit = True
                    break
        else:
            cut = lo
            while cut < hi:
                try:
                    cut = w.index(head_char, cut, hi)
                except ValueError:
                    break
                env[item.prefix] = (w, lo, cut)
                env[item.suffix] = (w, cut, hi)
                if _solve(items, nxt, env):
                    hit = True
                    break
                cut += 1
        if item.prefix in env:
            del env[item.prefix]
            del env[item.suffix]
        return hit
    # whole unbound, both parts bound: concatenate
    pw, plo, phi = pre
    sw, slo, shi = suf
    if pw is sw and phi == slo:
        window = (pw, plo, shi)
    else:
        joined = pw[plo:phi] + sw[slo:shi]
        window = (joined, 0, len(joined))
    return _bind_and_solve(item.whole, window, items, nxt, env)


def _bind_and_solve(var: str, window: tuple, items: tuple, nxt: int, env: dict[str, tuple]) -> bool:
    old = env.get(var)
    env[var] = window
    try:
        return _solve(items, nxt, env)
    finally:
        if old is None:
            del env[var]
        else:
            env[var] = old


# ---------------------------------------------------------------------------
# Pattern generators: "a after the first b within I"


def present_fott(a: str, b: str, interval: Interval) -> FottFormula:
    """Trace formula: either b never occurs, or the trace splits as
    y b z a w with b not in y and the duration of z inside the interval."""
    if a == b:
        raise FottError("the observed event and its trigger must differ")
    interval_ticks(interval)  # reject empty integer windows early
    x, y, z, w = "x", "y", "z", "w"
    r1, r2, r3, pb, pa = "r1", "r2", "r3", "pb", "pa"
    split = exists_many(
        (y, z, w, r1, r2, r3, pb, pa),
        and_chain(
            (
                EqLit(pb, (b,)),
                EqLit(pa, (a,)),
                EqCat(x, y, r1),
                EqCat(r1, pb, r2),
                not_in(b, y),
                EqCat(r2, z, r3),
                EqCat(r3, pa, w),
                DurIn(z, interval),
            )
        ),
    )
    formula = Not(And(Not(not_in(b, x)), Not(split)))
    check_anchored(formula, (x,))
    return formula


def present_regex(a: str, b: str, interval: Interval) -> PathRegex:
    """Path regex with the same discrete-word language as present_fott.

    One branch per admissible tick count; an unbounded interval gets a
    single branch with the minimum tick count followed by anything.  All
    branches are built on one shared chain `(-b)* . b . (-t)* . Tick^k`,
    extended by one Tick per branch, so the expression (and what is
    compiled from it) grows linearly with the window, not quadratically.
    """
    if a == b:
        raise FottError("the observed event and its trigger must differ")
    lo, hi = interval_ticks(interval)
    not_b = Star(LabelNot(Atom(b)))
    chain = seq_of([TICK] * lo, seq_of([not_b, One(Atom(b)), Star(NOT_TICK)]))
    tail = (One(Atom(a)), Star(Top()))
    regex: PathRegex = Seq(EPS, not_b)
    if hi is None:
        return Union(regex, seq_of(tail, Seq(chain, Star(Top()))))
    for _ in range(lo, hi + 1):
        regex = Union(regex, seq_of(tail, chain))
        chain = Seq(chain, TICK)
    return regex
