"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with -s or -v to see them).

Documented deltas for the built-in present[4,5) model under this package's
reference exploration semantics (see README, "State counts and set sizes"):
the graph has 28 states, the error condition covers 6 states, and the
complement of the pattern's visited set also has 6 states, of which exactly
3 are entered through the error step.
"""

import itertools
import random
import time

from conftest import ZENO_NET, random_lts, random_regex
from obscheck.checker import (
    check_eq,
    check_innocuous,
    check_reachable,
    find_tickless_cycle,
    full_report,
    internal_label_expr,
)
from obscheck.fott import Interval, eval_fott, present_fott, present_regex
from obscheck.lts import Atom, StateSet
from obscheck.mucalc import Iff, Min, Not, Or, TRUE, FwdDiamond, BwdDiamond, Var, eval_mu
from obscheck.mucompile import compile_both, error_condition, error_entry_region
from obscheck.pathregex import match_word, oracle_end_states, oracle_visited_states
from obscheck.timednet import builtin_mouse, builtin_present, explore, parse_net

EVENTS = [Atom("a"), Atom("b"), Atom("t")]
INTERNAL = internal_label_expr(EVENTS)
ALPHABET = ("a", "b", "t", "z")


def _outcome(number, title, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {title}")
    assert passed, f"criterion {number}: {title}"


def pattern(lo, hi):
    return present_regex("a", "b", Interval(lo, hi, upper_open=True))


def test_criterion_1_end_to_end_reproduction():
    """check on builtin:present:4:5 against the [4,5[ pattern: equivalence
    holds, innocuousness holds, the naive inclusion holds one way and fails
    the other with an all-tick lasso, in under a second."""
    t0 = time.perf_counter()
    report = full_report(builtin_present(4, 5), pattern(4, 5), "error", EVENTS)
    elapsed = time.perf_counter() - t0

    ok = report.verdict("eq_tautology").holds
    ok &= report.verdict("innocuous").holds
    ok &= report.verdict("naive_errors_in_complement").holds
    naive = report.verdict("naive_complement_in_errors")
    ok &= not naive.holds
    prefix = naive.witness_trace[: naive.lasso_split]
    cycle = naive.witness_trace[naive.lasso_split :]
    it = iter(prefix)
    ok &= all(x in it for x in ["b", "start", "t", "t", "t", "t", "watch"])
    ok &= bool(cycle) and all(lab == "t" for lab in cycle)
    ok &= elapsed < 1.0
    _outcome(1, "end-to-end workflow reproduction", ok)


def test_criterion_2_state_space_scale():
    """State count within [20, 40]; the error-condition and outside-pattern
    set sizes match the values documented for this exploration semantics,
    and the entered-through-error region has one state per variable value."""
    g = explore(builtin_present(4, 5))
    ok = 20 <= g.num_states <= 40
    condition = eval_mu(g, error_condition("error"))
    outside = oracle_visited_states(g, pattern(4, 5)).complement()
    entered = eval_mu(g, error_entry_region("error"))
    ok &= len(condition) == 6  # documented delta: 4 under other tool chains
    ok &= len(outside) == 6
    ok &= len(entered) == 3
    ok &= condition == outside
    _outcome(2, "state-space scale and documented set sizes", ok)


def test_criterion_3_oracle_equivalence():
    """Compiled end/visited formulas agree with the product-automaton oracles
    on 500 random (graph, regex) pairs and on all built-in graphs, each an
    exact set equality, within 60 seconds."""
    t0 = time.perf_counter()
    rng = random.Random(20250810)
    ok = True
    for _ in range(500):
        g, r = random_lts(rng), random_regex(rng)
        end_f, visited_f = compile_both(r)
        ok &= eval_mu(g, end_f) == oracle_end_states(g, r)
        ok &= eval_mu(g, visited_f) == oracle_visited_states(g, r)
    for g in (
        explore(builtin_present(4, 5)),
        explore(builtin_present(3, 4)),
        explore(builtin_present(0, 1)),
        explore(builtin_mouse()),
        explore(parse_net(ZENO_NET)),
    ):
        for r in (pattern(4, 5), pattern(0, 1)):
            end_f, visited_f = compile_both(r)
            ok &= eval_mu(g, end_f) == oracle_end_states(g, r)
            ok &= eval_mu(g, visited_f) == oracle_visited_states(g, r)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _outcome(3, f"oracle equivalence on random and built-in graphs ({elapsed:.1f}s)", ok)


def test_criterion_4_trace_formula_regex_agreement():
    """For every word over {a,b,t,z} up to length 9 and each of the four
    intervals, the path regex and the trace formula agree exactly, within
    60 seconds."""
    t0 = time.perf_counter()
    intervals = [
        Interval(4, 5, upper_open=True),
        Interval(1, 3, upper_open=True),
        Interval(0, 1, upper_open=True),
        Interval(2, 2),
    ]
    ok = True
    for interval in intervals:
        regex = present_regex("a", "b", interval)
        formula = present_fott("a", "b", interval)
        for length in range(10):
            for w in itertools.product(ALPHABET, repeat=length):
                if match_word(regex, w) != eval_fott(formula, {"x": w}):
                    ok = False
                    break
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _outcome(4, f"trace formula / regex agreement to length 9 ({elapsed:.1f}s)", ok)


def test_criterion_5_detection_power():
    """Mismatched observers are caught in both directions: the [3,4[ graph
    against the [4,5[ pattern and the [4,5[ graph against the [3,4[ pattern
    both fail the equivalence with witnesses."""
    r1 = check_eq(explore(builtin_present(3, 4)), pattern(4, 5), "error")
    r2 = check_eq(explore(builtin_present(4, 5)), pattern(3, 4), "error")
    ok = True
    for rep in (r1, r2):
        v = rep.verdict("eq_tautology")
        ok &= not v.holds
        ok &= v.witness_state is not None
    _outcome(5, "window mismatches caught in both directions", ok)


def test_criterion_6_innocuousness_negative_control():
    """The time-blocking fixture fails reach-of-tick and is flagged by the
    internal-cycle detector; the mouse model satisfies its priority invariant
    and its naive observer's error stays reachable."""
    zeno = explore(parse_net(ZENO_NET))
    rep = check_innocuous(zeno, EVENTS, INTERNAL)
    ok = not rep.verdict("reach[t]").holds
    ok &= find_tickless_cycle(zeno, INTERNAL) is not None

    mouse = explore(builtin_mouse())
    for s in range(mouse.num_states):
        labels = {lab for lab, _ in mouse.out_edges(s)}
        ok &= not ({"delay", "click"} <= labels)
    ok &= check_reachable(mouse, Atom("error")).verdict("reachable").holds
    _outcome(6, "time-blocking flagged, priorities respected, error reachable", ok)


def test_criterion_7_fixpoint_soundness_micro():
    """On every fixture graph with at most 6 states, iterated least fixpoints
    equal the least solution found by enumerating all candidate sets; the
    evaluator itself enforces the n-round iteration bound."""
    rng = random.Random(7)
    bodies = [
        Or(FwdDiamond(Atom("a"), TRUE), FwdDiamond(Atom("t"), Var("X"))),
        Or(FwdDiamond(Atom("b"), TRUE), FwdDiamond(INTERNAL, Var("X"))),
        Or(BwdDiamond(Var("X"), Atom("t")), FwdDiamond(Atom("z"), TRUE)),
    ]
    ok = True
    for _ in range(60):
        g = random_lts(rng, max_states=6)
        for body in bodies:
            got = eval_mu(g, Min("X", body))
            fixpoints = []
            for bits in range(1 << g.num_states):
                cand = StateSet(g.num_states, bits)
                if eval_mu(g, body, env={"X": cand}) == cand:
                    fixpoints.append(cand)
            least = min(fixpoints, key=len)
            ok &= all((least - other).is_empty for other in fixpoints)
            ok &= got == least
    _outcome(7, "iterated fixpoints equal enumerated least solutions", ok)


def test_criterion_8_scaling_smoke():
    """builtin:present:12:20 explores, and its equivalence check completes
    in under a second."""
    g = explore(builtin_present(12, 20))
    t0 = time.perf_counter()
    _, visited_f = compile_both(pattern(12, 20))
    res = eval_mu(g, Iff(visited_f, Not(error_condition("error"))))
    elapsed = time.perf_counter() - t0
    ok = res.is_all
    ok &= elapsed < 1.0
    _outcome(8, f"scaling smoke test, {g.num_states} states in {elapsed * 1000:.0f}ms", ok)
