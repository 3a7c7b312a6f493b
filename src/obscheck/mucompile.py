"""Compilation of regular path expressions into mu-calculus formulas.

Two encodings are produced by one recursion over the expression tree, which
hands each node's end formula to both: end(R) is one object under both
formulas, so the evaluator computes it once:

    end(eps)                = `0
    end(R . A)              = end(R) o A
    end(R . A*)             = end(R) * A
    end(R . Tick{lo,hi})    = end(R) o Tick{lo,hi}
    end(R1 \\/ R2)          = end(R1) \\/ end(R2)

    visited(eps)               = `0
    visited(R . step)          = visited(R) \\/ end(R . step)
    visited(R . Tick{lo,hi})   = visited(R) \\/ (end(R . Tick{lo,hi})    if lo > 1
                                              \\/ end(R) o Tick{0,hi})
    visited(R1 \\/ R2)         = visited(R1) \\/ visited(R2)

A counted step's visited set takes every count up to hi, those below lo
too, since the words that stop short of lo ticks are prefixes of matching
words.  For lo <= 1 the general rule gives that union already: count 0 is
end(R), which visited(R) holds.  The evaluator's tick loop for the end
window also leaves the window from 0, so the loop over end(R) runs once for
both, but only if the end window is evaluated first: the order of the two
operands is what makes the reuse, not the meaning, and
`test_window_from_0_reuses_the_loop` in the evaluator's tests pins it.

Also houses the error-condition and reachability formula builders used by
the checker.
"""

from __future__ import annotations

from .lts import Atom, LabelExpr, Top
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
    SuffixStar,
    SuffixTicks,
    Var,
)
from .pathregex import Eps, One, PathRegex, Seq, Star, Tick, Union


def _compile(regex: PathRegex) -> tuple[MuFormula, MuFormula]:
    if type(regex) is Eps:
        return INIT, INIT
    if type(regex) is Union:
        e1, v1 = _compile(regex.left)
        e2, v2 = _compile(regex.right)
        return Or(e1, e2), Or(v1, v2)
    if type(regex) is Seq:
        e0, v0 = _compile(regex.head)
        step = regex.step
        if type(step) is One:
            end = BwdDiamond(e0, step.label)
        elif type(step) is Star:
            end = SuffixStar(e0, step.label)
        elif type(step) is Tick:
            end = SuffixTicks(e0, step.lo, step.hi)
        else:
            raise TypeError(f"unknown step: {step!r}")
        reached = end
        if type(step) is Tick and step.lo > 1:
            # Every count up to hi is visited, those below lo too.  The end
            # must come first: its tick loop leaves the window from 0, which
            # eval_all then reuses instead of imaging the chain again.
            reached = Or(end, SuffixTicks(e0, 0, step.hi))
        return end, Or(v0, reached)
    raise TypeError(f"not a path expression: {regex!r}")


def compile_end(regex: PathRegex) -> MuFormula:
    """Formula matching the states reached at the end of a matching word."""
    return _compile(regex)[0]


def compile_visited(regex: PathRegex) -> MuFormula:
    """Formula matching every state visited while firing a matching word."""
    return _compile(regex)[1]


def compile_both(regex: PathRegex) -> tuple[MuFormula, MuFormula]:
    """(end, visited) built in one pass, sharing subterms between the two."""
    return _compile(regex)


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
