"""Top-level verdicts over an observer's state graph.

The headline check is the equivalence between the states visited by traces
matching the pattern and the complement of the error condition: when it is a
tautology the observer flags exactly the violating traces.  Innocuousness
asks that every observed event and the tick stay reachable through internal
steps from every state.  The naive language-inclusion check is kept because
its failing direction documents why plain reachability is not enough: its
counterexample is a time-divergent lasso on which the error step is forever
enabled but never taken.
"""

from __future__ import annotations

import time
from collections import deque

from ._scan import Node
from .lts import TICK, TICK_LABEL, LabelExpr, Lts, StateSet, Or as LabelOr, Not as LabelNot
from .lts import format_label_expr, label_truth
from .mucalc import eval_all, eval_mu
from .mucompile import (
    compile_both,
    error_condition,
    error_entry_region,
    reach_formula,
)
from .pathregex import PathRegex, oracle_states, oracle_visited_states
from .timednet import TimedNet, explore


class Verdict(Node):
    """A named verdict with its witness; unlike the nodes, it can be changed."""

    __slots__ = _fields = ("name", "holds", "witness_state", "witness_trace", "lasso_split")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        name: str,
        holds: bool,
        witness_state: int | None = None,
        witness_trace: list[str] | None = None,
        lasso_split: int | None = None,
    ):
        self.name = name
        self.holds = holds
        self.witness_state = witness_state
        self.witness_trace = witness_trace
        self.lasso_split = lasso_split

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witnessState": self.witness_state,
            "witnessTrace": self.witness_trace,
            "lassoSplit": self.lasso_split,
        }


#: Verdicts that document expected limitations rather than observer defects.
INFORMATIONAL = frozenset({"naive_complement_in_errors"})


class Report(Node):
    """Verdicts in order, with the time each check took; it can be changed."""

    __slots__ = _fields = ("verdicts", "timings")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, verdicts: list[Verdict] | None = None, timings: dict[str, float] | None = None):
        self.verdicts = [] if verdicts is None else verdicts
        self.timings = {} if timings is None else timings

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    @property
    def ok(self) -> bool:
        return all(v.holds for v in self.verdicts if v.name not in INFORMATIONAL)

    def extend(self, other: "Report") -> None:
        self.verdicts.extend(other.verdicts)
        self.timings.update(other.timings)

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "verdicts": [v.to_dict() for v in self.verdicts],
            "overall": self.ok,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out


def internal_label_expr(events: list[LabelExpr]) -> LabelExpr:
    """Default notion of internal step: anything but the events and the tick."""
    union: LabelExpr = TICK
    for e in events:
        union = LabelOr(e, union)
    return LabelNot(union)


# ---------------------------------------------------------------------------
# Graph walks


def _path(g: Lts, start: int, goal: StateSet, allow=None) -> tuple[int, list[str]] | None:
    """BFS from `start` along the edges whose label passes the `allow`
    predicate (every edge, if None); (state, labels) of a shortest path of
    one edge or more into `goal`."""
    # One character per state, "1" in the goal: a test reads one character,
    # where `in` on the set shifts the whole bit vector.
    members = format(goal.bits, f"0{goal.width}b")[::-1]
    seen = {start}
    parent: dict[int, tuple[int, str]] = {}
    queue = deque((start,))
    while queue:
        s = queue.popleft()
        for label, dst in g.out_edges(s):
            if allow is not None and not allow(label):
                continue
            if members[dst] == "1":
                trace = [label]
                while s != start:
                    s, lab = parent[s]
                    trace.append(lab)
                trace.reverse()
                return dst, trace
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (s, label)
                queue.append(dst)
    return None


def _shortest_path(g: Lts, targets: StateSet) -> tuple[int, list[str]] | None:
    """BFS from the initial state; (state, labels) for the first target hit."""
    if g.initial in targets:
        return g.initial, []
    return _path(g, g.initial, targets)


def find_tickless_cycle(g: Lts, internal: LabelExpr) -> list[str] | None:
    """A cycle of internal steps only: evidence that time can be blocked.

    Returns the label sequence of one such cycle, or None.  Edges carrying
    events or the tick are ignored; a run looping on them is a matter of
    environment choice, not of the observer constraining time.

    One depth-first search (Tarjan 1972) over `g.out_edges`.  Its one stack
    is the current path: (state, label into it, iterator over its remaining
    out-edges).  An internal edge back onto the stack closes the cycle.
    """
    truth = label_truth(internal)
    is_internal = {label: label != TICK_LABEL and truth[label] for label in g.labels}
    color = [0] * g.num_states  # 0 unvisited, 1 on the stack, 2 done
    for root in range(g.num_states):
        if color[root]:
            continue
        color[root] = 1
        stack = [(root, "", iter(g.out_edges(root)))]
        while stack:
            node, _, edges = stack[-1]
            for label, dst in edges:
                if is_internal[label] and color[dst] != 2:
                    if color[dst] == 1:
                        cut = next(i for i, entry in enumerate(stack) if entry[0] == dst)
                        return [entry[1] for entry in stack[cut + 1 :]] + [label]
                    color[dst] = 1
                    stack.append((dst, label, iter(g.out_edges(dst))))
                    break
            else:
                stack.pop()
                color[node] = 2
    return None


# ---------------------------------------------------------------------------
# Individual checks


def _timed(name: str, t0: float, verdicts: list[Verdict]) -> Report:
    """A check's report: its verdicts, and the time since `t0` as `name`."""
    return Report(verdicts, {name: time.perf_counter() - t0})


def _empty_verdict(name: str, bad: StateSet) -> Verdict:
    """Holds when `bad` is empty; otherwise its first state is the witness."""
    return Verdict(name, bad.is_empty, witness_state=None if bad.is_empty else next(iter(bad)))


def check_eq(g: Lts, pattern: PathRegex, err_label: str) -> Report:
    """Tautology check: visited-by-pattern iff not in the error condition,
    read off two state sets from one `eval_all` batch.  Unsound states are
    neither visited nor in error, incorrect ones are both; on failure each
    kind is reported with its own witness, and the tautology's is the least
    state of either kind."""
    t0 = time.perf_counter()
    visited, errors = eval_all(g, (compile_both(pattern)[1], error_condition(err_label)))
    return _timed("eq", t0, _eq_verdicts(visited, errors))


def _eq_verdicts(visited: StateSet, errors: StateSet) -> list[Verdict]:
    """`check_eq`'s verdicts, which `full_report` reads off its own batch."""
    unsound, incorrect = visited.complement() - errors, visited & errors
    taut = _empty_verdict("eq_tautology", unsound | incorrect)
    if taut.holds:
        return [taut]
    return [taut, _empty_verdict("eq_soundness", unsound), _empty_verdict("eq_correctness", incorrect)]


def check_innocuous(g: Lts, events: list[LabelExpr], internal: LabelExpr) -> Report:
    """From every state, every observed event and the tick must stay reachable
    through internal steps alone.  Each `reach[e]` fails at the least state
    outside its reach formula's set; `innocuous` fails with the first of
    them."""
    if not events:
        raise ValueError("innocuousness needs at least one event")
    t0 = time.perf_counter()
    reach = [
        _empty_verdict(f"reach[{format_label_expr(e)}]", eval_mu(g, reach_formula(e, internal)).complement())
        for e in events
    ]
    witness = next((v.witness_state for v in reach if not v.holds), None)
    return _timed("innocuous", t0, [*reach, Verdict("innocuous", witness is None, witness_state=witness)])


def check_inclusion_naive(g: Lts, pattern: PathRegex, err_label: str) -> Report:
    """The automata-only check: compare the states reached through the error
    transition against the complement of the pattern's visited set, both ways.

    The error side deliberately uses the entered-through-error region (the
    label-level image of the observer's error location), not the full error
    condition: the whole point of the exercise is that the converse inclusion
    fails on time-divergent runs where the error step never fires.
    """
    t0 = time.perf_counter()
    region = eval_mu(g, error_entry_region(err_label))
    visited = oracle_visited_states(g, pattern)
    return _timed("naive_inclusion", t0, _naive_verdicts(g, region, visited, err_label))


def _naive_verdicts(g: Lts, region: StateSet, visited: StateSet, err_label: str) -> list[Verdict]:
    """`check_inclusion_naive`'s verdicts; the informational one carries a
    lasso through its witness."""
    not_present = visited.complement()
    missed = not_present - region
    witness = None if missed.is_empty else next(iter(missed))
    trace, split = (None, None) if witness is None else _lasso(g, witness, err_label)
    return [
        _empty_verdict("naive_errors_in_complement", region - not_present),
        Verdict("naive_complement_in_errors", witness is None, witness, trace, split),
    ]


def _lasso(g: Lts, witness: int, err_label: str) -> tuple[list[str] | None, int | None]:
    """Shortest path to the witness plus a cycle through it avoiding the error
    label; an all-tick cycle is preferred when one exists."""
    here = g.set_of((witness,))
    hit = _shortest_path(g, here)
    if hit is None:
        return None, None
    _, prefix = hit
    cycle = _path(g, witness, here, lambda lab: lab == TICK_LABEL)
    if cycle is None:
        cycle = _path(g, witness, here, lambda lab: lab != err_label)
    if cycle is None:
        return prefix, None
    return prefix + cycle[1], len(prefix)


def check_reachable(g: Lts, target: LabelExpr, via: str = "enabled") -> Report:
    """Can a matching edge be reached from the initial state?

    `via="enabled"` reports the first state with a matching outgoing edge;
    `via="entered"` reports a path that actually fires a matching edge.
    """
    if via not in ("enabled", "entered"):
        raise ValueError("via must be 'enabled' or 'entered'")
    t0 = time.perf_counter()
    hit = _shortest_path(g, StateSet(g.num_states, g.pre_bits((1 << g.num_states) - 1, target)))
    if hit is not None and via == "entered":
        # Extend the path to a state with a matching outgoing edge by that edge.
        state, trace = hit
        truth = label_truth(target)
        label, dst = next((lab, dst) for lab, dst in g.out_edges(state) if truth[lab])
        hit = (dst, trace + [label])
    state, trace = (None, None) if hit is None else hit
    return _timed("reachable", t0, [Verdict("reachable", hit is not None, state, trace)])


# ---------------------------------------------------------------------------
# The bundled workflow


def full_report(
    source: Lts | TimedNet,
    pattern: PathRegex,
    err_label: str,
    events: list[LabelExpr],
    internal: LabelExpr | None = None,
) -> Report:
    """Equivalence, innocuousness, naive inclusion, the compiled-vs-oracle
    cross-check, and internal-cycle detection, in one report.

    The pattern is compiled once, its NFA x graph product run once, and its
    two formulas, the error condition and the error region (the condition's
    right operand) evaluated in one `eval_all` batch; the verdicts are read
    off those sets as `check_eq` and `check_inclusion_naive` read theirs.
    `eq` times the compile, the batch and its verdicts, `naive_inclusion`
    the product and its verdicts, `oracle_agreement` only the comparison."""
    g = explore(source) if isinstance(source, TimedNet) else source
    if internal is None:
        internal = internal_label_expr(events)
    t0 = time.perf_counter()
    end_f, visited_f = compile_both(pattern)
    errors_f = error_condition(err_label)
    # The order is free: the pattern's window is one counted step, evaluated
    # in one loop whichever formula reaches it first.
    visited_mu, end_mu, errors, region = eval_all(g, (visited_f, end_f, errors_f, errors_f.right))
    report = _timed("eq", t0, _eq_verdicts(visited_mu, errors))

    report.extend(check_innocuous(g, events, internal))

    t0 = time.perf_counter()
    end, visited = oracle_states(g, pattern)
    report.extend(_timed("naive_inclusion", t0, _naive_verdicts(g, region, visited, err_label)))

    t0 = time.perf_counter()
    agree = end_mu == end and visited_mu == visited
    report.extend(_timed("oracle_agreement", t0, [Verdict("oracle_agreement", agree)]))

    t0 = time.perf_counter()
    cycle = find_tickless_cycle(g, internal)
    verdict = Verdict("no_tickless_cycle", cycle is None, witness_trace=cycle)
    report.extend(_timed("tickless_cycle", t0, [verdict]))
    return report
