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
from dataclasses import dataclass, field

from .lts import TICK, TICK_LABEL, LabelExpr, Lts, StateSet, Or as LabelOr, Not as LabelNot
from .lts import eval_label_expr, format_label_expr
from .mucalc import Iff, MuFormula, Not, eval_mu, is_tautology
from .mucompile import (
    compile_both,
    error_condition,
    error_entry_region,
    reach_formula,
)
from .pathregex import PathRegex, oracle_states, oracle_visited_states
from .timednet import TimedNet, explore


@dataclass
class Verdict:
    name: str
    holds: bool
    witness_state: int | None = None
    witness_trace: list[str] | None = None
    lasso_split: int | None = None

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


@dataclass
class Report:
    verdicts: list[Verdict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

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


def _shortest_path(g: Lts, targets: StateSet) -> tuple[int, list[str]] | None:
    """BFS from the initial state; (state, labels) for the first target hit."""
    if g.initial in targets:
        return g.initial, []
    seen = {g.initial}
    parent: dict[int, tuple[int, str]] = {}
    queue = deque((g.initial,))
    while queue:
        s = queue.popleft()
        for label, dst in g.out_edges(s):
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (s, label)
                if dst in targets:
                    trace = []
                    cur = dst
                    while cur != g.initial:
                        cur, lab = parent[cur]
                        trace.append(lab)
                    trace.reverse()
                    return dst, trace
                queue.append(dst)
    return None


def _cycle_from(g: Lts, start: int, allow) -> list[str] | None:
    """Shortest nonempty cycle through `start` using edges whose label passes
    the `allow` predicate."""
    parent: dict[int, tuple[int, str]] = {}
    seen = set()
    queue = deque()
    for label, dst in g.out_edges(start):
        if not allow(label):
            continue
        if dst == start:
            return [label]
        if dst not in seen:
            seen.add(dst)
            parent[dst] = (start, label)
            queue.append(dst)
    while queue:
        s = queue.popleft()
        for label, dst in g.out_edges(s):
            if not allow(label):
                continue
            if dst == start:
                trace = [label]
                cur = s
                while cur != start:
                    cur, lab = parent[cur]
                    trace.append(lab)
                trace.reverse()
                return trace
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (s, label)
                queue.append(dst)
    return None


def find_tickless_cycle(g: Lts, internal: LabelExpr) -> list[str] | None:
    """A cycle of internal steps only: evidence that time can be blocked.

    Returns the label sequence of one such cycle, or None.  Edges carrying
    events or the tick are ignored; a run looping on them is a matter of
    environment choice, not of the observer constraining time.
    """
    adj: list[list[tuple[str, int]]] = [[] for _ in range(g.num_states)]
    for src, label, dst in g.transitions:
        if label != TICK_LABEL and eval_label_expr(internal, label):
            adj[src].append((label, dst))
    color = [0] * g.num_states  # 0 unvisited, 1 on the DFS path, 2 done
    for root in range(g.num_states):
        if color[root]:
            continue
        path_nodes = [root]
        path_labels: list[str] = []
        stack = [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            if i < len(adj[node]):
                stack[-1] = (node, i + 1)
                label, dst = adj[node][i]
                if color[dst] == 1:
                    cut = path_nodes.index(dst)
                    return path_labels[cut:] + [label]
                if color[dst] == 0:
                    color[dst] = 1
                    path_nodes.append(dst)
                    path_labels.append(label)
                    stack.append((dst, 0))
            else:
                stack.pop()
                color[node] = 2
                path_nodes.pop()
                if path_labels:
                    path_labels.pop()
    return None


# ---------------------------------------------------------------------------
# Individual checks


def check_eq(
    g: Lts, pattern: PathRegex, err_label: str, *, _visited_f: MuFormula | None = None
) -> Report:
    """Tautology check: visited-by-pattern iff not in the error condition.
    On failure the two directions are reported separately with witnesses.

    `_visited_f`, if given, is the pattern's compiled visited formula."""
    report = Report()
    t0 = time.perf_counter()
    visited_f = compile_both(pattern)[1] if _visited_f is None else _visited_f
    err_f = error_condition(err_label)
    taut = is_tautology(g, Iff(visited_f, Not(err_f)))
    report.verdicts.append(Verdict("eq_tautology", taut.holds, witness_state=taut.witness))
    if not taut.holds:
        visited = eval_mu(g, visited_f)
        errors = eval_mu(g, err_f)
        missed = visited.complement() - errors
        sound = missed.is_empty
        report.verdicts.append(
            Verdict(
                "eq_soundness",
                sound,
                witness_state=None if sound else next(iter(missed)),
            )
        )
        overlap = visited & errors
        correct = overlap.is_empty
        report.verdicts.append(
            Verdict(
                "eq_correctness",
                correct,
                witness_state=None if correct else next(iter(overlap)),
            )
        )
    report.timings["eq"] = time.perf_counter() - t0
    return report


def check_innocuous(g: Lts, events: list[LabelExpr], internal: LabelExpr) -> Report:
    """From every state, every observed event and the tick must stay reachable
    through internal steps alone."""
    if not events:
        raise ValueError("innocuousness needs at least one event")
    report = Report()
    t0 = time.perf_counter()
    all_hold = True
    first_witness = None
    for event in events:
        taut = is_tautology(g, reach_formula(event, internal))
        name = f"reach[{format_label_expr(event)}]"
        report.verdicts.append(Verdict(name, taut.holds, witness_state=taut.witness))
        if not taut.holds:
            all_hold = False
            if first_witness is None:
                first_witness = taut.witness
    report.verdicts.append(Verdict("innocuous", all_hold, witness_state=first_witness))
    report.timings["innocuous"] = time.perf_counter() - t0
    return report


def check_inclusion_naive(
    g: Lts, pattern: PathRegex, err_label: str, *, _visited: StateSet | None = None
) -> Report:
    """The automata-only check: compare the states reached through the error
    transition against the complement of the pattern's visited set, both ways.

    The error side deliberately uses the entered-through-error region (the
    label-level image of the observer's error location), not the full error
    condition: the whole point of the exercise is that the converse inclusion
    fails on time-divergent runs where the error step never fires.

    `_visited`, if given, is the pattern's oracle visited set.
    """
    report = Report()
    t0 = time.perf_counter()
    errors = eval_mu(g, error_entry_region(err_label))
    visited = oracle_visited_states(g, pattern) if _visited is None else _visited
    not_present = visited.complement()

    extra = errors - not_present
    d1 = extra.is_empty
    report.verdicts.append(
        Verdict(
            "naive_errors_in_complement",
            d1,
            witness_state=None if d1 else next(iter(extra)),
        )
    )

    missed = not_present - errors
    d2 = missed.is_empty
    if d2:
        report.verdicts.append(Verdict("naive_complement_in_errors", True))
    else:
        witness = next(iter(missed))
        trace, split = _lasso(g, witness, err_label)
        report.verdicts.append(
            Verdict(
                "naive_complement_in_errors",
                False,
                witness_state=witness,
                witness_trace=trace,
                lasso_split=split,
            )
        )
    report.timings["naive_inclusion"] = time.perf_counter() - t0
    return report


def _lasso(g: Lts, witness: int, err_label: str) -> tuple[list[str] | None, int | None]:
    """Shortest path to the witness plus a cycle through it avoiding the error
    label; an all-tick cycle is preferred when one exists."""
    hit = _shortest_path(g, g.set_of((witness,)))
    if hit is None:
        return None, None
    _, prefix = hit
    cycle = _cycle_from(g, witness, lambda lab: lab == TICK_LABEL)
    if cycle is None:
        cycle = _cycle_from(g, witness, lambda lab: lab != err_label)
    if cycle is None:
        return prefix, None
    return prefix + cycle, len(prefix)


def check_reachable(g: Lts, target: LabelExpr, via: str = "enabled") -> Report:
    """Can a matching edge be reached from the initial state?

    `via="enabled"` reports the first state with a matching outgoing edge;
    `via="entered"` reports a path that actually fires a matching edge.
    """
    if via not in ("enabled", "entered"):
        raise ValueError("via must be 'enabled' or 'entered'")
    report = Report()
    t0 = time.perf_counter()
    src_bits = 0
    for src, label, _ in g.transitions:
        if eval_label_expr(target, label):
            src_bits |= 1 << src
    hit = _shortest_path(g, StateSet(g.num_states, src_bits))
    if hit is not None and via == "entered":
        # Extend the path to a state with a matching outgoing edge by that edge.
        state, trace = hit
        label, dst = next((lab, dst) for lab, dst in g.out_edges(state) if eval_label_expr(target, lab))
        hit = (dst, trace + [label])
    if hit is None:
        report.verdicts.append(Verdict("reachable", False))
    else:
        state, trace = hit
        report.verdicts.append(Verdict("reachable", True, witness_state=state, witness_trace=trace))
    report.timings["reachable"] = time.perf_counter() - t0
    return report


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

    The pattern is compiled once and its NFA x graph product run once; the
    time of each counts toward the first check that uses it (`eq` and
    `naive_inclusion`)."""
    g = explore(source) if isinstance(source, TimedNet) else source
    if internal is None:
        internal = internal_label_expr(events)
    report = Report()

    t0 = time.perf_counter()
    end_f, visited_f = compile_both(pattern)
    report.extend(check_eq(g, pattern, err_label, _visited_f=visited_f))
    report.timings["eq"] = time.perf_counter() - t0

    report.extend(check_innocuous(g, events, internal))

    t0 = time.perf_counter()
    end, visited = oracle_states(g, pattern)
    report.extend(check_inclusion_naive(g, pattern, err_label, _visited=visited))
    report.timings["naive_inclusion"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    agree = eval_mu(g, end_f) == end and eval_mu(g, visited_f) == visited
    report.verdicts.append(Verdict("oracle_agreement", agree))
    report.timings["oracle_agreement"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cycle = find_tickless_cycle(g, internal)
    report.verdicts.append(
        Verdict("no_tickless_cycle", cycle is None, witness_trace=cycle)
    )
    report.timings["tickless_cycle"] = time.perf_counter() - t0
    return report
