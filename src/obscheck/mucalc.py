"""Modal mu-calculus with forward and backward modalities over a labeled graph.

The formula language has the true constant `T`, the initial-state constant
`` `0 ``, boolean connectives, a forward diamond `<A>f` (some A-successor
satisfies f), a backward diamond `f<A>` (some A-predecessor satisfies f),
least/greatest fixpoints, and the derived suffix operators

    f * A              ==  min X | f \\/ X<A>
    f o Tick           ==  (f o t) * (-t)
    f o Tick{lo,hi}    ==  the union of f o Tick ... o Tick, lo to hi times

which the compiler from path expressions leans on (`f o Tick` is
`f o Tick{1,1}`).  The backward diamond is also written `f o A`: both
spellings parse to one node, printed `f o A`.  Derived forms are kept in
the tree (printing preserves them) and only normalized during evaluation.
`f * A` is one search of the graph and `f o Tick{lo,hi}` one search per
tick count (`Lts.star_bits` and `Lts.ticks_bits`), each entering a state
once.  A linear `min` binder, whose variable occurs once, under
connectives that distribute over union, is evaluated semi-naively: each
round images only the states the previous round added, so each state it
reaches is imaged once.  Other binders iterate on their whole set.
"""

from __future__ import annotations

from ._scan import Cursor, Node, ParseError, _set, tick_count_error, tokenize
from .lts import (
    Atom,
    LabelExpr,
    Lts,
    StateSet,
    format_label_expr,
    format_label_operand,
    parse_label_expr_at,
    parse_label_operand_at,
)


class EvalError(ValueError):
    """Formula rejected by the evaluator (unbound variable, non-monotone binder)."""


class MuFormula(Node):
    __slots__ = ()


class TrueConst(MuFormula):
    __slots__ = ()


class InitConst(MuFormula):
    __slots__ = ()


class Var(MuFormula):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Not(MuFormula):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: MuFormula):
        _set(self, "arg", arg)


class And(MuFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: MuFormula, right: MuFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Or(MuFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: MuFormula, right: MuFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Implies(MuFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: MuFormula, right: MuFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class Iff(MuFormula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: MuFormula, right: MuFormula):
        _set(self, "left", left)
        _set(self, "right", right)


class FwdDiamond(MuFormula):
    __slots__ = _fields = ("label", "arg")

    def __init__(self, label: LabelExpr, arg: MuFormula):
        _set(self, "label", label)
        _set(self, "arg", arg)


class BwdDiamond(MuFormula):
    __slots__ = _fields = ("arg", "label")

    def __init__(self, arg: MuFormula, label: LabelExpr):
        _set(self, "arg", arg)
        _set(self, "label", label)


class Min(MuFormula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: MuFormula):
        _set(self, "var", var)
        _set(self, "body", body)


class Max(MuFormula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: MuFormula):
        _set(self, "var", var)
        _set(self, "body", body)


class SuffixStar(MuFormula):
    __slots__ = _fields = ("arg", "label")

    def __init__(self, arg: MuFormula, label: LabelExpr):
        _set(self, "arg", arg)
        _set(self, "label", label)


class SuffixTicks(MuFormula):
    """`f o Tick{lo,hi}`: the states `f o Tick` applied k times reaches, for
    any k from lo to hi."""

    __slots__ = _fields = ("arg", "lo", "hi")

    def __init__(self, arg: MuFormula, lo: int, hi: int):
        if error := tick_count_error(lo, hi):
            raise ValueError(error)
        _set(self, "arg", arg)
        _set(self, "lo", lo)
        _set(self, "hi", hi)


TRUE = TrueConst()
INIT = InitConst()


# Reserved words of the concrete syntax; none may name a fixpoint variable.
_KEYWORDS = {"min", "max", "o", "T", "Tick"}


# ---------------------------------------------------------------------------
# Parsing
#
# Precedence, tightest first: prefix/postfix modalities together with the
# o/* suffix operators (left associative), then -, /\, \/, => and <=>, and
# binders extend maximally to the right.


def parse_mu(text: str) -> MuFormula:
    cur = Cursor(tokenize(text))
    formula = _parse_formula(cur, ())
    cur.expect_end()
    return formula


def _parse_formula(cur: Cursor, bound: tuple[str, ...]) -> MuFormula:
    if cur.at_ident("min") or cur.at_ident("max"):
        kw = cur.advance().text
        var_tok = cur.expect("ident")
        if var_tok.text in _KEYWORDS:
            raise ParseError(f"{var_tok.text!r} is a reserved word", var_tok.pos)
        cur.expect("|")
        body = _parse_formula(cur, bound + (var_tok.text,))
        return Min(var_tok.text, body) if kw == "min" else Max(var_tok.text, body)
    return _parse_impiff(cur, bound)


def _parse_impiff(cur: Cursor, bound) -> MuFormula:
    left = _parse_or(cur, bound)
    if cur.take("=>"):
        return Implies(left, _parse_impiff(cur, bound))
    if cur.take("<=>"):
        return Iff(left, _parse_impiff(cur, bound))
    return left


def _parse_or(cur: Cursor, bound) -> MuFormula:
    expr = _parse_and(cur, bound)
    while cur.take("\\/"):
        expr = Or(expr, _parse_and(cur, bound))
    return expr


def _parse_and(cur: Cursor, bound) -> MuFormula:
    expr = _parse_neg(cur, bound)
    while cur.take("/\\"):
        expr = And(expr, _parse_neg(cur, bound))
    return expr


def _parse_neg(cur: Cursor, bound) -> MuFormula:
    if cur.take("-"):
        return Not(_parse_neg(cur, bound))
    return _parse_modal(cur, bound)


def _parse_modal(cur: Cursor, bound) -> MuFormula:
    if cur.at("<"):
        cur.advance()
        label = parse_label_expr_at(cur)
        cur.expect(">")
        return FwdDiamond(label, _parse_modal(cur, bound))
    return _parse_postfix(cur, bound)


def _parse_postfix(cur: Cursor, bound) -> MuFormula:
    expr = _parse_primary(cur, bound)
    while True:
        if cur.at("<"):
            cur.advance()
            label = parse_label_expr_at(cur)
            cur.expect(">")
            expr = BwdDiamond(expr, label)
        elif cur.at_ident("o"):
            cur.advance()
            if cur.at_ident("Tick"):
                cur.advance()
                expr = SuffixTicks(expr, *cur.take_tick_count())
            else:
                expr = BwdDiamond(expr, parse_label_operand_at(cur))
        elif cur.at("*"):
            cur.advance()
            expr = SuffixStar(expr, parse_label_operand_at(cur))
        else:
            return expr


def _parse_primary(cur: Cursor, bound) -> MuFormula:
    tok = cur.peek()
    if tok.kind == "init":
        cur.advance()
        return INIT
    if tok.kind == "ident":
        if tok.text == "T":
            cur.advance()
            return TRUE
        if tok.text in _KEYWORDS:
            raise ParseError(f"{tok.text!r} cannot start a formula", tok.pos)
        cur.advance()
        if tok.text not in bound:
            raise ParseError(f"unbound variable {tok.text!r}", tok.pos)
        return Var(tok.text)
    if cur.take("("):
        inner = _parse_formula(cur, bound)
        cur.expect(")")
        return inner
    raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)


# ---------------------------------------------------------------------------
# Printing
#
# parse_mu(print_mu(f)) is structurally f; derived forms stay derived,
# `f<A>` is printed `f o A` and `f o Tick{1,1}` is printed `f o Tick`.

_ATOMS = (TrueConst, InitConst, Var)
_POSTFIX = (BwdDiamond, SuffixStar, SuffixTicks)


def print_mu(f: MuFormula) -> str:
    return _print(f, 0)


def _print(f: MuFormula, need: int) -> str:
    # levels: binder 0, =>/<=> 1, \/ 2, /\ 3, - 4, modal 5, atom 6
    t = type(f)
    if t is TrueConst:
        return "T"
    if t is InitConst:
        return "`0"
    if t is Var:
        return f.name
    if t in (Min, Max):
        kw = "min" if t is Min else "max"
        body = _print(f.body, 0)
        if type(f.body) not in _ATOMS + _POSTFIX + (FwdDiamond, Not, Min, Max):
            body = "(" + body + ")"
        out, level = f"{kw} {f.var} | {body}", 0
    elif t is Implies or t is Iff:
        op = "=>" if t is Implies else "<=>"
        out, level = f"{_print(f.left, 2)} {op} {_print(f.right, 1)}", 1
    elif t is Or:
        out, level = f"{_print(f.left, 2)} \\/ {_print(f.right, 3)}", 2
    elif t is And:
        out, level = f"{_print(f.left, 3)} /\\ {_print(f.right, 4)}", 3
    elif t is Not:
        out, level = "-" + _print(f.arg, 4), 4
    elif t is FwdDiamond:
        out, level = f"<{format_label_expr(f.label)}>{_print(f.arg, 5)}", 5
    elif t is SuffixTicks:
        count = "" if f.lo == f.hi == 1 else f"{{{f.lo},{f.hi}}}"
        out, level = f"{_print_postfix_left(f.arg)} o Tick{count}", 5
    elif t is BwdDiamond:
        # A bare label named Tick after `o` would read back as a tick step.
        label = "(Tick)" if f.label == Atom("Tick") else format_label_operand(f.label)
        out, level = f"{_print_postfix_left(f.arg)} o {label}", 5
    elif t is SuffixStar:
        out, level = f"{_print_postfix_left(f.arg)} * {format_label_operand(f.label)}", 5
    else:
        raise TypeError(f"not a formula: {f!r}")
    if level < need:
        return "(" + out + ")"
    return out


def _print_postfix_left(f: MuFormula) -> str:
    # A prefix diamond or anything looser must be bracketed on the left of a
    # postfix operator, or reparsing would pull the suffix inside it.
    text = _print(f, 5)
    if type(f) is FwdDiamond:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Monotonicity and linearity
#
# One memoized bottom-up pass, which visits shared subterms once, gives each
# node its positive and its negative free variables, and the linear ones:
# those that occur once, under connectives that distribute over union.
# Implies and Iff count through their boolean desugaring.

_NONE: frozenset = frozenset()
_CLOSED = (_NONE, _NONE, False, _NONE)

# Per connective, each child as (field, polarity factor, path step): a factor
# of 1 keeps the polarity, -1 flips it and 0 makes it both.
_CHILDREN = {
    TrueConst: (),
    InitConst: (),
    Not: (("arg", -1, "-"),),
    And: (("left", 1, "/\\ left"), ("right", 1, "/\\ right")),
    Or: (("left", 1, "\\/ left"), ("right", 1, "\\/ right")),
    Implies: (("left", -1, "=> left"), ("right", 1, "=> right")),
    Iff: (("left", 0, "<=> left"), ("right", 0, "<=> right")),
    Min: (("body", 1, "min"),),
    Max: (("body", 1, "max"),),
    **dict.fromkeys((FwdDiamond, BwdDiamond, SuffixStar, SuffixTicks), (("arg", 1, "<>"),)),
}

# The connectives under which a variable stays linear: each distributes over
# union in the child that holds the variable, while its other child, which
# must not mention the variable, is a constant.
_LINEAR = frozenset((Or, And, FwdDiamond, BwdDiamond, SuffixStar, SuffixTicks))


def _polarities(f: MuFormula, memo: dict[int, tuple]) -> tuple[frozenset, frozenset, bool, frozenset]:
    """(positive free variables, negative free variables, has a non-monotone
    binder, linear free variables); every node without any is given the one
    tuple _CLOSED."""
    got = memo.get(id(f))
    if got is not None:
        return got
    t = type(f)
    if t is Var:
        name = frozenset((f.name,))
        out = (name, _NONE, False, name)
    elif t not in _CHILDREN:
        raise TypeError(f"not a formula: {f!r}")
    else:
        out = _CLOSED
        for field, factor, _ in _CHILDREN[t]:
            sub = _polarities(getattr(f, field), memo)
            if sub is not _CLOSED:
                pos, neg, bad, lin = out
                cpos, cneg, cbad, clin = sub
                # Linear on one side and absent from the other.
                lin = (lin - cpos - cneg) | (clin - pos - neg) if t in _LINEAR else _NONE
                if factor == -1:
                    cpos, cneg = cneg, cpos
                elif factor == 0:
                    cpos = cneg = cpos | cneg
                out = (pos | cpos, neg | cneg, bad or cbad, lin)
        if (t is Min or t is Max) and out is not _CLOSED:
            pos, neg, bad, _ = out
            bad = bad or f.var in neg
            pos, neg = pos - {f.var}, neg - {f.var}
            out = (pos, neg, bad, _NONE) if pos or neg or bad else _CLOSED
    memo[id(f)] = out
    return out


def _violation(f: MuFormula, memo: dict[int, tuple]) -> list[str] | None:
    """Path to the leftmost occurrence of a bound variable that is not positive
    relative to its binder, or None; descends only into children holding one."""
    if not _polarities(f, memo)[2]:
        return None
    path: list[str] = []
    signs: dict[str, int] = {}  # bound variable -> polarity of `f` within its binder
    while type(f) is not Var:
        for field, factor, step in _CHILDREN[type(f)]:
            child = getattr(f, field)
            inner = {x: s * factor for x, s in signs.items()}
            if type(f) in (Min, Max):
                step = f"{step} {f.var}"
                inner[f.var] = 1
            pos, neg, bad, _ = memo[id(child)]
            if bad or any(inner.get(x, 1) != 1 for x in pos) or any(inner.get(x, -1) != -1 for x in neg):
                break
        path.append(step)
        f, signs = child, inner
    path.append(f.name)
    return path


def check_monotone(f: MuFormula) -> list[str] | None:
    """None if every bound variable sits under an even number of negations,
    counted from its binder; otherwise the path to the first bad occurrence."""
    return _violation(f, {})


# ---------------------------------------------------------------------------
# Evaluation


def eval_mu(g: Lts, f: MuFormula, env: dict[str, StateSet] | None = None) -> StateSet:
    """Set of states where `f` holds; fixpoints by iteration, at most one
    growth step per state (hard failure beyond that bound).

    `env` may bind free variables of an open formula; everything else must
    be closed and monotone.  Closed subformulas are evaluated once per call.
    """
    return eval_all(g, (f,), env)[0]


def eval_all(
    g: Lts, formulas: tuple[MuFormula, ...], env: dict[str, StateSet] | None = None
) -> list[StateSet]:
    """`[eval_mu(g, f, env) for f in formulas]`, checking every formula
    before evaluating any, in order, with each closed subformula they share
    by identity evaluated once.  Its sets are keyed by node id and live for
    the call only, while `formulas` keeps every root alive."""
    polarity: dict[int, tuple] = {}
    for f in formulas:
        pos, neg, _, _ = _polarities(f, polarity)
        missing = (pos | neg) - frozenset(env or ())
        if missing:
            raise EvalError(f"unbound variable(s): {', '.join(sorted(missing))}")
        violation = _violation(f, polarity)
        if violation is not None:
            raise EvalError("binder is not monotone in its variable: " + " / ".join(violation))

    n = g.num_states
    if any(sset.width != n for sset in (env or {}).values()):
        raise ValueError("environment set belongs to a different graph")
    scope0 = {name: sset.bits for name, sset in (env or {}).items()}
    # What each `_ev` call shares: the graph, the all-states mask, the
    # polarities and a memo of the sets of closed nodes by node id and, under
    # (id(f), hi), of the union of f o Tick^k for every k up to hi, which one
    # tick loop over f leaves.
    run = (g, (1 << n) - 1, polarity, {})
    return [StateSet(n, _ev(f, scope0, run)) for f in formulas]


# Raised by both fixpoint loops when one runs more rounds than the graph has
# states, which a monotone body never needs.
_BOUND_EXCEEDED = "fixpoint exceeded the state-count bound"


def _frontier(g: Lts, cur: int, binder: tuple) -> int:
    """The least set above `cur` that holds the body of a linear `min`
    `binder`, which distributes over union.  Semi-naive: each round feeds the
    body only the states the round before added, so each state is fed once;
    the round that adds a state is its rank."""
    frontier = cur
    rounds = 0
    while True:
        frontier = _body_at(frontier, binder) & ~cur
        if not frontier:
            return cur
        rounds += 1
        if rounds > g.num_states:
            raise AssertionError(_BOUND_EXCEEDED)
        cur |= frontier


def _body_at(bits: int, binder: tuple) -> int:
    """The body of a binder node with its variable at `bits`; `binder` is
    the node with the scope and the run it is evaluated in."""
    node, scope, run = binder
    return _ev(node.body, {**scope, node.var: bits}, run)


def _ev(node: MuFormula, scope: dict[str, int], run: tuple) -> int:
    g, mask, polarity, memo = run
    closed = polarity[id(node)] is _CLOSED  # no binder is bad by now
    if closed:
        got = memo.get(id(node))
        if got is not None:
            return got
    t = type(node)
    if t is TrueConst:
        out = mask
    elif t is InitConst:
        out = 1 << g.initial
    elif t is Var:
        out = scope[node.name]
    elif t is Not:
        out = _ev(node.arg, scope, run) ^ mask
    elif t is And:
        out = _ev(node.left, scope, run) & _ev(node.right, scope, run)
    elif t is Or:
        out = _ev(node.left, scope, run) | _ev(node.right, scope, run)
    elif t is Implies:
        out = (_ev(node.left, scope, run) ^ mask) | _ev(node.right, scope, run)
    elif t is Iff:
        out = (_ev(node.left, scope, run) ^ _ev(node.right, scope, run)) ^ mask
    elif t is FwdDiamond:
        out = g.pre_bits(_ev(node.arg, scope, run), node.label)
    elif t is BwdDiamond:
        out = g.post_bits(_ev(node.arg, scope, run), node.label)
    elif t is SuffixStar:
        out = g.star_bits(_ev(node.arg, scope, run), node.label)
    elif t is SuffixTicks:
        # The tick loop leaves the window from 0 beside the window asked
        # for.  The visited formula of a counted step reads it, so a closed
        # loop leaves it for that window to reuse; mucompile puts the end
        # window first so that the reuse happens
        # (test_window_from_0_reuses_the_loop pins the order).
        every_key = (id(node.arg), node.hi)
        out = memo.get(every_key) if closed and node.lo == 0 else None
        if out is None:
            out, every = g.ticks_bits(_ev(node.arg, scope, run), node.lo, node.hi)
            if closed:
                memo[every_key] = every
    elif t is Min and node.var in polarity[id(node.body)][3]:
        # A linear body distributes over union: F(X | D) == F(X) | F(D).
        binder = (node, scope, run)
        out = _frontier(g, _body_at(0, binder), binder)
    elif t is Min or t is Max:
        cur = 0 if t is Min else mask
        rounds = 0
        while True:
            nxt = _ev(node.body, {**scope, node.var: cur}, run)
            if nxt == cur:
                break
            if t is Min and cur & ~nxt:
                raise AssertionError("least fixpoint iteration shrank")
            if t is Max and nxt & ~cur:
                raise AssertionError("greatest fixpoint iteration grew")
            rounds += 1
            if rounds > g.num_states:
                raise AssertionError(_BOUND_EXCEEDED)
            cur = nxt
        out = cur
    if closed:
        memo[id(node)] = out
    return out


class TautologyResult(Node):
    __slots__ = _fields = ("holds", "witness")

    def __init__(self, holds: bool, witness: int | None = None):
        _set(self, "holds", holds)
        _set(self, "witness", witness)


def is_tautology(g: Lts, f: MuFormula) -> TautologyResult:
    """Does `f` hold on every state?  On failure, the least state outside."""
    sat = eval_mu(g, f)
    if sat.is_all:
        return TautologyResult(True, None)
    outside = sat.complement()
    return TautologyResult(False, next(iter(outside)))
