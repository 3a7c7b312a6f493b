"""Modal mu-calculus with forward and backward modalities over a labeled graph.

The formula language has the true constant `T`, the initial-state constant
`` `0 ``, boolean connectives, a forward diamond `<A>f` (some A-successor
satisfies f), a backward diamond `f<A>` (some A-predecessor satisfies f),
least/greatest fixpoints, and the two derived suffix operators

    f o A   ==  f<A>
    f * A   ==  min X | f \\/ X<A>

which the compiler from path expressions leans on.  Derived forms are kept
in the tree (printing preserves them) and only normalized during evaluation.
`f * A` is evaluated semi-naively: each round images only the states the
previous round added, so each state a star reaches is imaged once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._scan import Cursor, ParseError, tokenize
from .lts import (
    NOT_TICK,
    TICK,
    Atom,
    LabelExpr,
    Lts,
    StateSet,
    Top,
    format_label_expr,
    parse_label_expr_at,
    parse_label_operand_at,
)


class EvalError(ValueError):
    """Formula rejected by the evaluator (unbound variable, non-monotone binder)."""


class MuFormula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueConst(MuFormula):
    pass


@dataclass(frozen=True)
class InitConst(MuFormula):
    pass


@dataclass(frozen=True)
class Var(MuFormula):
    name: str


@dataclass(frozen=True)
class Not(MuFormula):
    arg: MuFormula


@dataclass(frozen=True)
class And(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Or(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Implies(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class Iff(MuFormula):
    left: MuFormula
    right: MuFormula


@dataclass(frozen=True)
class FwdDiamond(MuFormula):
    label: LabelExpr
    arg: MuFormula


@dataclass(frozen=True)
class BwdDiamond(MuFormula):
    arg: MuFormula
    label: LabelExpr


@dataclass(frozen=True)
class Min(MuFormula):
    var: str
    body: MuFormula


@dataclass(frozen=True)
class Max(MuFormula):
    var: str
    body: MuFormula


@dataclass(frozen=True)
class SuffixO(MuFormula):
    arg: MuFormula
    label: LabelExpr


@dataclass(frozen=True)
class SuffixStar(MuFormula):
    arg: MuFormula
    label: LabelExpr


TRUE = TrueConst()
INIT = InitConst()


def tick_suffix(f: MuFormula) -> MuFormula:
    """The `f o Tick` abbreviation: (f o t) * (-t)."""
    return SuffixStar(SuffixO(f, TICK), NOT_TICK)


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
                expr = tick_suffix(expr)
            else:
                expr = SuffixO(expr, parse_label_operand_at(cur))
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
# parse_mu(print_mu(f)) is structurally f; derived forms stay derived, and
# the (f o t) * (-t) shape is abbreviated back to `f o Tick`.

_ATOMS = (TrueConst, InitConst, Var)
_POSTFIX = (BwdDiamond, SuffixO, SuffixStar)


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
    elif t in _POSTFIX:
        if (
            t is SuffixStar
            and type(f.arg) is SuffixO
            and f.arg.label == TICK
            and f.label == NOT_TICK
        ):
            out, level = _print_postfix_left(f.arg.arg) + " o Tick", 5
        elif t is BwdDiamond:
            out, level = f"{_print_postfix_left(f.arg)}<{format_label_expr(f.label)}>", 5
        else:
            op = "o" if t is SuffixO else "*"
            out, level = f"{_print_postfix_left(f.arg)} {op} {_operand(f.label)}", 5
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


def _operand(label: LabelExpr) -> str:
    if type(label) is Atom:
        return label.name
    if type(label) is Top:
        return "T"
    return "(" + format_label_expr(label) + ")"


# ---------------------------------------------------------------------------
# Monotonicity
#
# One memoized bottom-up pass, which visits shared subterms once, gives each
# node its positive and its negative free variables.  Implies and Iff count
# through their boolean desugaring.

_NONE: frozenset = frozenset()
_CLOSED = (_NONE, _NONE, False)

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
    **dict.fromkeys((FwdDiamond, BwdDiamond, SuffixO, SuffixStar), (("arg", 1, "<>"),)),
}


def _polarities(f: MuFormula, memo: dict[int, tuple]) -> tuple[frozenset, frozenset, bool]:
    """(positive free variables, negative free variables, has a non-monotone
    binder); every node without either is given the one tuple _CLOSED."""
    got = memo.get(id(f))
    if got is not None:
        return got
    t = type(f)
    if t is Var:
        out = (frozenset((f.name,)), _NONE, False)
    elif t not in _CHILDREN:
        raise TypeError(f"not a formula: {f!r}")
    else:
        pos, neg, bad = out = _CLOSED
        for field, factor, _ in _CHILDREN[t]:
            sub = _polarities(getattr(f, field), memo)
            if sub is not _CLOSED:
                cpos, cneg, cbad = sub
                if factor == -1:
                    cpos, cneg = cneg, cpos
                elif factor == 0:
                    cpos = cneg = cpos | cneg
                pos, neg, bad = out = (pos | cpos, neg | cneg, bad or cbad)
        if (t is Min or t is Max) and out is not _CLOSED:
            bad = bad or f.var in neg
            pos, neg = pos - {f.var}, neg - {f.var}
            out = (pos, neg, bad) if pos or neg or bad else _CLOSED
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
            pos, neg, bad = memo[id(child)]
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
    be closed and monotone.
    """
    polarity: dict[int, tuple] = {}
    pos, neg, _ = _polarities(f, polarity)
    missing = (pos | neg) - frozenset(env or ())
    if missing:
        raise EvalError(f"unbound variable(s): {', '.join(sorted(missing))}")
    violation = _violation(f, polarity)
    if violation is not None:
        raise EvalError("binder is not monotone in its variable: " + " / ".join(violation))

    n = g.num_states
    mask = (1 << n) - 1
    memo: dict[int, int] = {}

    def ev(node: MuFormula, scope: dict[str, int]) -> int:
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
            out = ev(node.arg, scope) ^ mask
        elif t is And:
            out = ev(node.left, scope) & ev(node.right, scope)
        elif t is Or:
            out = ev(node.left, scope) | ev(node.right, scope)
        elif t is Implies:
            out = (ev(node.left, scope) ^ mask) | ev(node.right, scope)
        elif t is Iff:
            out = (ev(node.left, scope) ^ ev(node.right, scope)) ^ mask
        elif t is FwdDiamond:
            out = g.pre_bits(ev(node.arg, scope), node.label)
        elif t is BwdDiamond or t is SuffixO:
            out = g.post_bits(ev(node.arg, scope), node.label)
        elif t is SuffixStar:
            # Semi-naive: only the states added last round are imaged again.
            cur = frontier = ev(node.arg, scope)
            rounds = 0
            while True:
                frontier = g.post_bits(frontier, node.label) & ~cur
                if not frontier:
                    break
                rounds += 1
                if rounds > n:
                    raise AssertionError("fixpoint exceeded the state-count bound")
                cur |= frontier
            out = cur
        elif t is Min or t is Max:
            cur = 0 if t is Min else mask
            rounds = 0
            while True:
                nxt = ev(node.body, {**scope, node.var: cur})
                if nxt == cur:
                    break
                if t is Min and cur & ~nxt:
                    raise AssertionError("least fixpoint iteration shrank")
                if t is Max and nxt & ~cur:
                    raise AssertionError("greatest fixpoint iteration grew")
                rounds += 1
                if rounds > n:
                    raise AssertionError("fixpoint exceeded the state-count bound")
                cur = nxt
            out = cur
        else:
            raise TypeError(f"not a formula: {node!r}")
        if closed:
            memo[id(node)] = out
        return out

    scope0 = {}
    if env:
        for name, sset in env.items():
            if sset.width != n:
                raise ValueError("environment set belongs to a different graph")
            scope0[name] = sset.bits
    return StateSet(n, ev(f, scope0))


@dataclass(frozen=True)
class TautologyResult:
    holds: bool
    witness: int | None = None


def is_tautology(g: Lts, f: MuFormula) -> TautologyResult:
    """Does `f` hold on every state?  On failure, the least state outside."""
    sat = eval_mu(g, f)
    if sat.is_all:
        return TautologyResult(True, None)
    outside = sat.complement()
    return TautologyResult(False, next(iter(outside)))
