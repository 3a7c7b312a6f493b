"""Compilation of regular path expressions into mu-calculus formulas.

Two encodings are produced by one recursion, memoized per expression node,
so shared prefixes (such as `fott.present_regex`'s one tick chain) become
shared subterms, which the evaluator memoizes: cost is linear in the
expression's distinct nodes, not in the total length of its branches:

    end(eps)        = `0
    end(R . A)      = end(R) o A
    end(R . A*)     = end(R) * A
    end(R . Tick)   = (end(R) o t) * (-t)
    end(R1 \\/ R2)  = end(R1) \\/ end(R2)

    visited(eps)       = `0
    visited(R . step)  = visited(R) \\/ end(R . step)
    visited(R1 \\/ R2) = visited(R1) \\/ visited(R2)

Also houses the error-condition and reachability formula builders used by
the checker.
"""

from __future__ import annotations

from .lts import Atom, LabelExpr
from .lts import Not as LabelNot
from .mucalc import (
    INIT,
    TRUE,
    And,
    BwdDiamond,
    FwdDiamond,
    Min,
    MuFormula,
    Not,
    Or,
    SuffixO,
    SuffixStar,
    Var,
    tick_suffix,
)
from .lts import Top
from .pathregex import Eps, One, PathRegex, Seq, Star, Tick, Union


def _compile(regex: PathRegex, memo: dict[int, tuple[MuFormula, MuFormula]]):
    got = memo.get(id(regex))
    if got is not None:
        return got
    if type(regex) is Eps:
        pair = (INIT, INIT)
    elif type(regex) is Union:
        e1, v1 = _compile(regex.left, memo)
        e2, v2 = _compile(regex.right, memo)
        pair = (Or(e1, e2), Or(v1, v2))
    elif type(regex) is Seq:
        e0, v0 = _compile(regex.head, memo)
        step = regex.step
        if type(step) is One:
            end = SuffixO(e0, step.label)
        elif type(step) is Star:
            end = SuffixStar(e0, step.label)
        elif type(step) is Tick:
            end = tick_suffix(e0)
        else:
            raise TypeError(f"unknown step: {step!r}")
        pair = (end, Or(v0, end))
    else:
        raise TypeError(f"not a path expression: {regex!r}")
    memo[id(regex)] = pair
    return pair


def compile_end(regex: PathRegex) -> MuFormula:
    """Formula matching the states reached at the end of a matching word."""
    return _compile(regex, {})[0]


def compile_visited(regex: PathRegex) -> MuFormula:
    """Formula matching every state visited while firing a matching word."""
    return _compile(regex, {})[1]


def compile_both(regex: PathRegex) -> tuple[MuFormula, MuFormula]:
    """(end, visited) built in one pass, sharing subterms between the two."""
    return _compile(regex, {})


def error_condition(err_label: str) -> MuFormula:
    """The observer's error condition `<e>T \\/ error_entry_region(e)`, for
    error label `e`: the error transition is enabled, or the state can only
    be reached by firing it."""
    return Or(FwdDiamond(Atom(err_label), TRUE), error_entry_region(err_label))


def error_entry_region(err_label: str) -> MuFormula:
    """States reachable only through the error transition: the label-level
    stand-in for `the observer sits in its error location`."""
    err = Atom(err_label)
    after_error = SuffixStar(BwdDiamond(TRUE, err), Top())
    error_free = SuffixStar(INIT, LabelNot(err))
    return And(after_error, Not(error_free))


def reach_formula(event: LabelExpr, internal: LabelExpr) -> MuFormula:
    """States from which the event can be reached using internal steps only."""
    return Min("X", Or(FwdDiamond(event, TRUE), FwdDiamond(internal, Var("X"))))
