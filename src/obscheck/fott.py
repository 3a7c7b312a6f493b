"""First-order formulas over discrete timed traces, and the pattern generators.

Traces are words over event symbols plus the tick `t` and the silent step
`z`; the duration of a word is its tick count.  Formulas combine
conjunction, negation, existential quantification, equality with a literal
word, binary concatenation, and duration-in-interval constraints.

Evaluation is a small backtracking solver.  A formula is compiled, once per
set of assigned names, to a fixed solve plan kept on the formula: each block
(the formula, or a negation's argument) is scheduled by taking, again and
again, the first constraint whose inputs are bound.  The formula is
*anchored* for those names when every block's schedule takes all of its
constraints, so that each variable is pinned by a literal or is a contiguous
piece of an already known word before anything reads it; `check_anchored`
asks exactly that of the plan.  Running a plan enumerates the split points
of concatenations, each split by one find step: it goes straight to the
occurrences of a known head word where the split is followed by
`suffix = head . tail`, and otherwise takes every cut.  A find binds only the
pieces that later constraints read, and counts the prefix's ticks as it goes
when the prefix's duration constraint follows.  The plan binds literal words
once, in the slot list every run starts from, and it reads a double negation
as an existence test.

The generators at the bottom produce, for the existence pattern
"event a after the first b within an interval", both the trace formula and
the equivalent path regex; their agreement word-by-word is the main oracle
of the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from itertools import groupby

from ._scan import Node, _set
from .lts import NOT_TICK, TICK_LABEL, Atom, Interval, Top
from .lts import Not as LabelNot
from .pathregex import EPS, One, PathRegex, Seq, Star, Tick, Union, Word, seq_of


class FottError(ValueError):
    pass


def interval_ticks(interval: Interval) -> tuple[int, int | float]:
    """The integer tick counts inside the interval, as an inclusive range
    (lo, hi) with hi=math.inf for an unbounded interval.  Empty ranges are
    rejected: no integer fits in the window."""
    ticks = interval.integer_range()
    if ticks is None:
        raise FottError(f"no integer duration lies in {interval}")
    return ticks


# ---------------------------------------------------------------------------
# Formula AST


class FottFormula(Node):
    __slots__ = ("_plans",)  # set by _solve_plan on first use


class And(FottFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: FottFormula, right: FottFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Not(FottFormula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: FottFormula):
        _set(self, "arg", arg)


class Exists(FottFormula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: FottFormula):
        _set(self, "var", var)
        _set(self, "body", body)


class EqLit(FottFormula):
    __slots__ = _fields = ("var", "word")

    def __init__(self, var: str, word: Word):
        _set(self, "var", var)
        _set(self, "word", word)


class EqCat(FottFormula):
    __slots__ = _fields = ("whole", "prefix", "suffix")

    def __init__(self, whole: str, prefix: str, suffix: str):
        _set(self, "whole", whole)
        _set(self, "prefix", prefix)
        _set(self, "suffix", suffix)


class DurIn(FottFormula):
    __slots__ = _fields = ("var", "interval")

    def __init__(self, var: str, interval: Interval):
        _set(self, "var", var)
        _set(self, "interval", interval)


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


# ---------------------------------------------------------------------------
# Anchoring


def free_variables(f: FottFormula) -> frozenset[str]:
    free: set[str] = set()
    stack: list[tuple[FottFormula, frozenset[str]]] = [(f, frozenset())]
    while stack:
        node, bound = stack.pop()
        t = type(node)
        if t is And:
            stack += ((node.left, bound), (node.right, bound))
        elif t is Not:
            stack.append((node.arg, bound))
        elif t is Exists:
            stack.append((node.body, bound | {node.var}))
        elif t is EqCat:
            free.update({node.whole, node.prefix, node.suffix} - bound)
        elif t is EqLit or t is DurIn:
            free.update({node.var} - bound)
        else:
            raise TypeError(f"not a trace formula: {node!r}")
    return frozenset(free)


def check_anchored(f: FottFormula, free: Sequence[str]) -> None:
    """Raise unless `f`, planned with the `free` names assigned, is anchored:
    every block's schedule takes all of its constraints.  The plan is the one
    `eval_fott` then runs."""
    if not _solve_plan(f, frozenset(free))[3]:
        raise FottError(_UNANCHORED)


# ---------------------------------------------------------------------------
# Evaluation
#
# `eval_fott` compiles a formula, once per set of assigned names, to a solve
# plan.  Each free variable and each quantifier gets its own slot in a list,
# so a quantified name never sees an outer binding of the same name.  A block
# (the formula, or a Not's argument) is a conjunct list in construction order,
# scheduled by taking, again and again, the first conjunct whose inputs are
# bound.  That order, and the case of each constraint, depend only on the
# slots bound on entry, so they are decided once, and a plan is a chain of
# steps that only compare and bind.  Slots hold (base word, lo, hi) windows,
# so splitting never copies; each is written before it is read.
#
# Every split of a bound whole into two unbound pieces is one find step, the
# only step that branches.  When the next conjunct pins the suffix to start
# with a bound head, `suf = head . tail`, the find takes it in and searches
# the head's occurrences; otherwise it searches the empty head, which occurs
# at every cut.  It takes a head that the template binds as a constant, and
# binds only the pieces that the later steps of its block, or their Nots'
# blocks, read; binding none before the block's end, it only tests that the
# head occurs, with `in` on a window of at most 64 symbols.  A DurIn on its
# prefix right after it is fused into it: the find counts the prefix's ticks
# as the cut moves forward and stops once they are too many.
#
# Two more rewrites shorten the chain.  A literal that binds its slot is that
# slot's only writer, so its window goes into the plan's template, the list
# every run starts from, and costs no step.  The Not of a block whose whole
# plan is one Not runs that inner block as an existence test.  Consecutive
# steps other than finds, a Not among them unless it is in a run of one or
# two Nots, run as one step looping over them, so running a plan recurses
# once per find or short run of Nots, not per conjunct.


def eval_fott(f: FottFormula, asg: Mapping[str, Sequence[str]]) -> bool:
    """Standard semantics on the given assignment of the free variables."""
    inputs, template, run, _ = _solve_plan(f, frozenset(asg))
    env = template[:]
    for var, slot in inputs:
        w = tuple(asg[var])
        env[slot] = (w, 0, len(w))
    return run(env)


def _solve_plan(f: FottFormula, assigned: frozenset[str]) -> tuple:
    """`f`'s plan for the `assigned` names, compiled once and kept on the
    formula, to be freed with it."""
    try:
        plans = f._plans
    except AttributeError:
        plans = {}
        _set(f, "_plans", plans)
    plan = plans.get(assigned)
    if plan is None:
        plan = plans[assigned] = _compile(f, assigned)
    return plan


def _compile(f: FottFormula, assigned: frozenset[str]) -> tuple:
    """The plan of `f` with the `assigned` names bound on entry: the (name,
    slot) pairs to load, the template of the slot list, the first step, and
    whether every block's schedule takes all of its constraints."""
    roots = {v: i for i, v in enumerate(sorted(free_variables(f)))}
    size = len(roots)
    blocks: list[list[tuple]] = [[]]  # block 0 is f, block k > 0 a Not's argument
    # The walk takes a Not's argument next, so a block's quantifiers get slots
    # from its mark on, and what it sees from outside lies below the mark.
    marks = [size]
    stack = [(f, roots, 0)]
    while stack:
        node, scope, b = stack.pop()
        t = type(node)
        if t is And:
            stack += ((node.right, scope, b), (node.left, scope, b))
        elif t is Exists:
            stack.append((node.body, {**scope, node.var: size}, b))
            size += 1
        elif t is Not:
            blocks[b].append((Not, (), len(blocks)))
            stack.append((node.arg, scope, len(blocks)))
            blocks.append([])
            marks.append(size)
        elif t is EqCat:
            blocks[b].append((t, (scope[node.whole], scope[node.prefix], scope[node.suffix]), None))
        elif t is EqLit or t is DurIn:
            arg = tuple(node.word) if t is EqLit else node.interval
            blocks[b].append((t, (scope[node.var],), arg))
    # Innermost blocks first: a Not is ready once its argument's free slots are
    # bound, and the argument's plan starts with exactly those bound.
    n = len(blocks)
    frees, runs, tests, ready = ([None] * n for _ in range(4))
    template: list = [None] * size
    inputs = tuple((v, roots[v]) for v in sorted(assigned) if v in roots)
    for b in reversed(range(n)):
        used: set[int] = set()
        for kind, slots, arg in blocks[b]:
            used.update(frees[arg] if kind is Not else slots)
        frees[b] = frozenset(s for s in used if s < marks[b])
        bound = {s for _, s in inputs} if b == 0 else set(frees[b])
        runs[b], tests[b], ready[b] = _plan(blocks[b], bound, frees, runs, tests, template)
    return inputs, template, runs[0], all(ready)


def _plan(
    items: list[tuple], bound: set[int], frees: list, runs: list, tests: list, template: list
):
    """The first step of one block, each conjunct compiled for the slots bound
    when the schedule reaches it; when the block's plan is a single Not, the
    first step of that Not's argument (the block's negation); and whether the
    schedule took every conjunct."""
    # (slots read, step maker, its arguments before the next step)
    ops: list[tuple] = []
    rest, end = list(items), _done
    while rest:
        for k, (kind, slots, arg) in enumerate(rest):
            if kind is EqCat:
                if slots[0] in bound or (slots[1] in bound and slots[2] in bound):
                    break
            elif kind is EqLit or (frees[arg] <= bound if kind is Not else slots[0] in bound):
                break
        else:
            end = _stuck
            break
        del rest[k]
        if kind is EqLit:
            if slots[0] in bound:
                ops.append((slots, _lit_step, slots[0], arg))
            else:
                template[slots[0]] = (arg, 0, len(arg))
        elif kind is DurIn:
            window = arg.integer_range() or (1, 0)  # (1, 0): no integer fits
            if ops and ops[-1][1] is _find_step and ops[-1][3] == slots[0] and ops[-1][-1] is None:
                ops[-1] = (*ops[-1][:-1], window)  # the find counts its prefix's ticks
            else:
                ops.append((slots, _dur_step, slots[0], window))
        elif kind is Not:
            ops.append((frees[arg], _not_step, runs[arg], tests[arg]))
        else:
            whole, pre, suf = slots
            if whole in bound and pre not in bound and suf not in bound and pre != suf:
                # A split is a find: of the head of the next conjunct
                # `suf = head . tail`, when the head is bound and the tail not,
                # or else of the empty word, which occurs at every cut.
                sw, head, tail = rest[0][1] if rest and rest[0][0] is EqCat else (None,) * 3
                if sw == suf and head in bound and tail not in bound | {pre, suf}:
                    del rest[0]
                    word = template[head]  # a literal's window, the same on every run
                    ops.append(((whole, head), _find_step, whole, pre, suf, head, tail, word, None))
                    bound.update((pre, suf, tail))
                else:
                    ops.append(((whole,), _find_step, whole, pre, suf, None, None, ((), 0, 0), None))
                    bound.update((pre, suf))
                continue
            if whole not in bound:
                case = "join"
            elif pre in bound:
                case = "check" if suf in bound else "suffix"
            else:
                case = "prefix" if suf in bound else "halve"
            ops.append((slots, _cat_step, case, whole, pre, suf))
        bound.update(slots)
    run, live = end, set()  # the slots that the steps after the one being made read
    # A find runs its next step once per cut; every other step at most once.
    for straight, group in groupby(reversed(ops), key=lambda op: op[1] is not _find_step):
        group = list(group)
        # A run of one or two Nots keeps its chain, which runs faster.
        loop = straight and len(group) > 1 + all(op[1] is _not_step for op in group)
        if loop:
            run = _loop_step([make(*args, _done) for _, make, *args in reversed(group)], run)
        for reads, make, *args in group:
            if not loop:
                run = make(*args, live, run) if make is _find_step else make(*args, run)
            live.update(reads)
    lone_not = end is _done and len(ops) == 1 and ops[0][1] is _not_step
    return run, ops[0][2] if lone_not else None, end is _done


# The step makers.  A step takes the slot list, checks or binds, and then runs
# `nxt`, the rest of its block; a find runs it once per cut.


def _done(env: list) -> bool:
    return True


_UNANCHORED = "formula is not anchored: no constraint is ready to solve"


def _stuck(env: list) -> bool:
    raise FottError(_UNANCHORED)


def _loop_step(checks: list, nxt):
    """Steps that call `_done` in place of their next step, run in turn."""

    def step(env: list) -> bool:
        for check in checks:
            if not check(env):
                return False
        return nxt(env)

    return step


def _lit_step(slot: int, word: Word, nxt):
    def same(env: list) -> bool:
        w, lo, hi = env[slot]
        return w[lo:hi] == word and nxt(env)

    return same


def _dur_step(slot: int, window: tuple[int, float], nxt):
    least, most = window

    def step(env: list) -> bool:
        w, lo, hi = env[slot]
        return least <= w[lo:hi].count(TICK_LABEL) <= most and nxt(env)

    return step


def _not_step(sub, test, nxt):
    """Not of the block run by `sub`; `test`, if given, is that block's
    negation, run as an existence test instead."""
    if test is not None:
        return test if nxt is _done else lambda env: test(env) and nxt(env)
    return (lambda env: not sub(env)) if nxt is _done else lambda env: not sub(env) and nxt(env)


def _find_step(whole, pre, suf, head, tail, word, window, live: set, nxt):
    """The step of `whole = pre . suf` and `suf = head . tail` with the head
    bound (to `word`, if the template fixes it), or of a plain split, with no
    head or tail slot and `word` empty: at each occurrence of the head's word
    in `whole`, bind those of the three that `live` holds and run `nxt`, or,
    with nothing to bind before `_done`, only test that one occurs.
    A fused DurIn on the prefix, its (least, most) `window`, counts the
    prefix's ticks as the cut moves forward: a cut with too few is passed
    over, and the first with too many ends the search."""
    bind_pre, bind_suf, bind_tail = pre in live, suf in live, tail in live
    test = nxt is _done and not (bind_pre or bind_suf or bind_tail)
    least, most = window or (0, None)
    sym = word[0][0] if word and word[2] == 1 else None

    def occurs(env: list) -> bool:
        # `in` on a short slice beats `index`, which raises on a miss; slicing
        # every window of a long word would make the search quadratic.
        w, lo, hi = env[whole]
        if hi - lo <= 64:
            return sym in w[lo:hi]
        try:
            return w.index(sym, lo, hi) >= 0
        except ValueError:
            return False

    def find(env: list) -> bool:
        (w, lo, hi), (hw, hlo, hhi) = env[whole], word or env[head]
        n = hhi - hlo
        cut = counted = lo
        last, ticks = hi - n, 0
        while cut <= last:
            if n:
                try:
                    cut = w.index(hw[hlo], cut, last + 1)
                except ValueError:
                    return False
            if most is not None:
                ticks, counted = ticks + w[counted:cut].count(TICK_LABEL), cut
                if ticks > most:
                    return False
            if (n > 1 and w[cut : cut + n] != hw[hlo:hhi]) or ticks < least:
                cut += 1
                continue
            if test:
                return True
            if bind_pre:
                env[pre] = (w, lo, cut)
            if bind_suf:
                env[suf] = (w, cut, hi)
            if bind_tail:
                env[tail] = (w, cut + n, hi)
            if nxt(env):
                return True
            cut += 1
        return False

    return occurs if test and sym is not None and window is None else find


def _cat_step(case: str, whole: int, pre: int, suf: int, nxt):
    """The step of `whole = pre . suf` that does not branch: check all three,
    bind the suffix, the prefix or both halves (pre == suf) of the bound
    whole, or join the whole.  A split at each cut is a `_find_step`."""

    def check(env: list) -> bool:
        (w, lo, hi), (pw, plo, phi), (sw, slo, shi) = env[whole], env[pre], env[suf]
        return w[lo:hi] == pw[plo:phi] + sw[slo:shi] and nxt(env)

    def suffix(env: list) -> bool:
        (w, lo, hi), (pw, plo, phi) = env[whole], env[pre]
        cut = lo + phi - plo
        if cut > hi or w[lo:cut] != pw[plo:phi]:
            return False
        env[suf] = (w, cut, hi)
        return nxt(env)

    def prefix(env: list) -> bool:
        (w, lo, hi), (sw, slo, shi) = env[whole], env[suf]
        cut = hi - (shi - slo)
        if cut < lo or w[cut:hi] != sw[slo:shi]:
            return False
        env[pre] = (w, lo, cut)
        return nxt(env)

    def halve(env: list) -> bool:
        w, lo, hi = env[whole]
        cut = (lo + hi) // 2
        if (lo + hi) % 2 or w[lo:cut] != w[cut:hi]:
            return False
        env[pre] = (w, lo, cut)
        return nxt(env)

    def join(env: list) -> bool:
        (pw, plo, phi), (sw, slo, shi) = env[pre], env[suf]
        joined = pw[plo:phi] + sw[slo:shi]
        env[whole] = (joined, 0, len(joined))
        return nxt(env)

    cases = dict(check=check, suffix=suffix, prefix=prefix, halve=halve, join=join)
    return cases[case]


# ---------------------------------------------------------------------------
# Pattern generators: "a after the first b within I"


def _present_ticks(a: str, b: str, interval: Interval) -> tuple[int, int | float]:
    """The window's tick counts, as `interval_ticks` gives them, once the
    pattern is known to have two distinct events and an integer duration."""
    if a == b:
        raise FottError("the observed event and its trigger must differ")
    return interval_ticks(interval)


def present_fott(a: str, b: str, interval: Interval) -> FottFormula:
    """Trace formula: either b never occurs, or the trace splits as
    y b z a w with b not in y and the duration of z inside the interval."""
    _present_ticks(a, b, interval)  # reject bad arguments early
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
    """Path regex with the same discrete-word language as present_fott:
    `(-b)* \\/ (-b)* . b . (-t)* . Tick{lo,hi} . a . T*` for the admissible
    tick counts lo to hi.

    The window is one counted step, so the expression (and what is compiled
    from it) has the same size whatever the window.  An unbounded interval
    takes its least count of ticks followed by anything:
    `... . Tick{lo,lo} . T* . a . T*`.
    """
    lo, hi = _present_ticks(a, b, interval)
    not_b = Star(LabelNot(Atom(b)))
    window = [Tick(lo, lo), Star(Top())] if hi == math.inf else [Tick(lo, hi)]
    steps = [not_b, One(Atom(b)), Star(NOT_TICK), *window, One(Atom(a)), Star(Top())]
    return Union(Seq(EPS, not_b), seq_of(steps))
