import gc
import json
import random
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import ZENO_NET, chain_lts, collector_off, random_label_expr, random_lts, random_regex
from obscheck import checker, pathregex
from obscheck.cli import main
from obscheck.checker import (
    Report,
    Verdict,
    check_eq,
    check_inclusion_naive,
    check_innocuous,
    check_reachable,
    find_tickless_cycle,
    full_report,
    internal_label_expr,
)
from obscheck.fott import Interval, eval_fott, present_fott, present_regex
from obscheck.lts import TICK_LABEL, Atom, Lts, eval_label_expr, parse_label_expr, save_aut, to_dot
from obscheck.mucalc import Iff, Implies, Not, eval_all, eval_mu, is_tautology, parse_mu
from obscheck.mucompile import compile_both, compile_visited, error_condition, reach_formula
from obscheck.pathregex import build_nfa, match_word, oracle_states, oracle_visited_states, parse_regex
from obscheck.timednet import builtin_mouse, builtin_present, describe_state, explore, explore_full, parse_net

EVENTS = [Atom("a"), Atom("b"), Atom("t")]
INTERNAL = internal_label_expr(EVENTS)

WATCH_Z = Path(__file__).parent / "data" / "present_4_5_watch_z.net"


def pattern(lo, hi):
    return present_regex("a", "b", Interval(lo, hi, upper_open=True))


class TestCheckEq:
    def test_holds_on_matching_observer(self, present45_graph):
        report = check_eq(present45_graph, pattern(4, 5), "error")
        assert report.verdict("eq_tautology").holds

    def test_fails_on_mismatched_observer(self):
        g = explore(builtin_present(3, 4))
        report = check_eq(g, pattern(4, 5), "error")
        v = report.verdict("eq_tautology")
        assert not v.holds and v.witness_state is not None
        directions = {x.name for x in report.verdicts}
        assert {"eq_soundness", "eq_correctness"} <= directions

    def test_trivial_on_error_free_graph(self):
        g = chain_lts("a", "t")
        report = check_eq(g, parse_regex("T*"), "error")
        assert report.verdict("eq_tautology").holds

    def test_failure_direction_verdicts_are_consistent(self):
        g = explore(builtin_present(3, 4))
        report = check_eq(g, pattern(4, 5), "error")
        if report.verdict("eq_tautology").holds:
            pytest.fail("fixture should not satisfy the equivalence")
        both = report.verdict("eq_soundness").holds and report.verdict("eq_correctness").holds
        assert not both

    def test_holding_equivalence_implies_both_directions(self, present45_graph):
        g = present45_graph
        report = check_eq(g, pattern(4, 5), "error")
        assert report.verdict("eq_tautology").holds
        from obscheck.mucompile import compile_visited

        visited = eval_mu(g, compile_visited(pattern(4, 5)))
        errors = eval_mu(g, error_condition("error"))
        assert (visited.complement() - errors).is_empty  # violations are flagged
        assert (visited & errors).is_empty  # flagged states are violations


class TestCheckInnocuous:
    def test_holds_on_builtin(self, present45_graph):
        report = check_innocuous(present45_graph, EVENTS, INTERNAL)
        assert report.verdict("innocuous").holds

    def test_time_blocking_observer_fails_reach_t(self, zeno_graph):
        report = check_innocuous(zeno_graph, EVENTS, INTERNAL)
        assert not report.verdict("reach[t]").holds
        assert report.verdict("reach[t]").witness_state is not None
        assert not report.verdict("innocuous").holds

    def test_single_state_tick_loop(self):
        g = Lts(1, 0, [(0, "t", 0)])
        report = check_innocuous(g, [Atom("t")], parse_label_expr("-t"))
        assert report.verdict("innocuous").holds


class TestNaiveInclusion:
    def test_directions_on_builtin(self, present45_graph):
        report = check_inclusion_naive(present45_graph, pattern(4, 5), "error")
        assert report.verdict("naive_errors_in_complement").holds
        assert not report.verdict("naive_complement_in_errors").holds

    def test_cardinalities_on_builtin(self, present45_graph):
        g = present45_graph
        from obscheck.mucompile import error_entry_region

        errors = eval_mu(g, error_entry_region("error"))
        outside = oracle_visited_states(g, pattern(4, 5)).complement()
        assert len(errors) == 3
        assert len(outside) == 6
        assert (errors - outside).is_empty

    def test_lasso_shape(self, present45_graph):
        report = check_inclusion_naive(present45_graph, pattern(4, 5), "error")
        v = report.verdict("naive_complement_in_errors")
        assert v.witness_trace is not None and v.lasso_split is not None
        prefix = v.witness_trace[: v.lasso_split]
        cycle = v.witness_trace[v.lasso_split :]
        assert _subsequence(["b", "start", "t", "t", "t", "t", "watch"], prefix)
        assert cycle and all(lab == "t" for lab in cycle)

    def test_lasso_replays_in_graph(self, present45_graph):
        g = present45_graph
        report = check_inclusion_naive(g, pattern(4, 5), "error")
        v = report.verdict("naive_complement_in_errors")
        state = g.initial
        for i, lab in enumerate(v.witness_trace):
            if i == v.lasso_split:
                assert state == v.witness_state
            state = _step(g, state, lab)
        assert state == v.witness_state

    def test_unreachable_witness_has_no_lasso(self):
        g = Lts(2, 0, [(0, "a", 0)])
        v = check_inclusion_naive(g, parse_regex("T*"), "error").verdict("naive_complement_in_errors")
        assert (v.holds, v.witness_state, v.witness_trace, v.lasso_split) == (False, 1, None, None)

    def test_witness_on_no_cycle_gets_its_path_alone(self):
        g = Lts(2, 0, [(0, "a", 1)])
        v = check_inclusion_naive(g, parse_regex("eps"), "error").verdict("naive_complement_in_errors")
        assert (v.holds, v.witness_state, v.witness_trace, v.lasso_split) == (False, 1, ["a"], None)

    def test_internal_consistency_with_error_condition(self, present45_graph):
        """The full error condition is sandwiched between the entered-error
        region and the complement of the visited set when the equivalence
        holds."""
        g = present45_graph
        condition = eval_mu(g, error_condition("error"))
        outside = oracle_visited_states(g, pattern(4, 5)).complement()
        assert condition == outside


def _subsequence(needle, haystack):
    it = iter(haystack)
    return all(x in it for x in needle)


def _step(g, state, label):
    for lab, dst in g.out_edges(state):
        if lab == label:
            return dst
    raise AssertionError(f"no {label!r} edge from {state}")


class TestCheckReachable:
    def test_mouse_error_needs_two_clicks(self):
        g = explore(builtin_mouse())
        report = check_reachable(g, Atom("error"))
        v = report.verdict("reachable")
        assert v.holds
        assert sum(1 for lab in v.witness_trace if lab == "click") >= 2

    def test_builtin_error_reachable(self, present45_graph):
        assert check_reachable(present45_graph, Atom("error")).verdict("reachable").holds

    def test_unmatched_label_unreachable(self, present45_graph):
        for via in ("enabled", "entered"):
            report = check_reachable(present45_graph, Atom("ghost"), via=via)
            assert not report.verdict("reachable").holds, via

    def test_entered_mode_ends_with_matching_edge(self):
        g = explore(builtin_mouse())
        report = check_reachable(g, Atom("error"), via="entered")
        v = report.verdict("reachable")
        assert v.holds and v.witness_trace[-1] == "error"


class TestTicklessCycle:
    def test_zeno_fixture_flagged(self, zeno_graph):
        cycle = find_tickless_cycle(zeno_graph, INTERNAL)
        assert cycle == ["spin"]

    def test_builtins_clean(self, present45_graph):
        assert find_tickless_cycle(present45_graph, INTERNAL) is None
        mouse_internal = internal_label_expr([Atom("click")])
        assert find_tickless_cycle(explore(builtin_mouse()), mouse_internal) is None

    def test_same_cycle_as_the_reference_search(self):
        rng = random.Random(20)
        lengths = []
        for _ in range(400):
            g = random_lts(rng, max_states=rng.choice((4, 12, 30)))
            internal = random_label_expr(rng)
            cycle = find_tickless_cycle(g, internal)
            assert cycle == reference_tickless_cycle(g, internal)
            if cycle is not None:
                lengths.append(len(cycle))
                assert all(label != TICK_LABEL and eval_label_expr(internal, label) for label in cycle)
                assert any(state in replay(g, state, cycle) for state in range(g.num_states))
        # Both outcomes, and cycles of more than one step, are well sampled.
        assert 50 < len(lengths) < 350 and sum(n > 1 for n in lengths) > 20


def reference_tickless_cycle(g, internal):
    """The same search spelled another way: a copy of the internal edges,
    walked with an index stack, the path kept in two parallel lists."""
    is_internal = {label: label != TICK_LABEL and eval_label_expr(internal, label) for label in g.labels}
    adj = [[] for _ in range(g.num_states)]
    for src, label, dst in g.transitions:
        if is_internal[label]:
            adj[src].append((label, dst))
    color = [0] * g.num_states
    for root in range(g.num_states):
        if color[root]:
            continue
        path_nodes, path_labels, stack = [root], [], [(root, 0)]
        color[root] = 1
        while stack:
            node, i = stack[-1]
            if i < len(adj[node]):
                stack[-1] = (node, i + 1)
                label, dst = adj[node][i]
                if color[dst] == 1:
                    return path_labels[path_nodes.index(dst) :] + [label]
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


def replay(g, start, labels):
    """The states reached from `start` along `labels`."""
    states = {start}
    for label in labels:
        states = {dst for src, lab, dst in g.transitions if src in states and lab == label}
    return states


class TestFullReport:
    def test_builtin_workflow(self, present45_graph):
        report = full_report(present45_graph, pattern(4, 5), "error", EVENTS)
        assert report.verdict("eq_tautology").holds
        assert report.verdict("innocuous").holds
        assert report.verdict("naive_errors_in_complement").holds
        assert not report.verdict("naive_complement_in_errors").holds
        assert report.verdict("oracle_agreement").holds
        assert report.verdict("no_tickless_cycle").holds
        assert report.ok  # the failing naive direction is informational

    def test_accepts_a_net_directly(self):
        report = full_report(builtin_present(4, 5), pattern(4, 5), "error", EVENTS)
        assert report.ok

    def test_wide_window_in_under_a_second(self):
        t0 = time.perf_counter()
        report = full_report(builtin_present(100, 200), pattern(100, 200), "error", EVENTS)
        elapsed = time.perf_counter() - t0
        assert [(v.name, v.holds) for v in report.verdicts] == [
            ("eq_tautology", True),
            ("reach[a]", True),
            ("reach[b]", True),
            ("reach[t]", True),
            ("innocuous", True),
            ("naive_errors_in_complement", True),
            ("naive_complement_in_errors", False),
            ("oracle_agreement", True),
            ("no_tickless_cycle", True),
        ]
        assert elapsed < 1.0

    def test_oracle_agreement_on_random_intervals(self):
        """The compiled sets of the pattern's counted step equal those of the
        product on present models and patterns of random windows, matched or
        not, open or closed, bounded or not."""
        rng = random.Random(71)
        checked = 0
        while checked < 30:
            lo = rng.randint(0, 8)
            hi = None if rng.random() < 0.2 else lo + rng.randint(0, 5)
            interval = Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
            if interval.integer_range() is None:
                continue
            d1 = rng.randint(1, 8)
            g = explore(builtin_present(d1, d1 + rng.randint(1, 5)))
            report = full_report(g, present_regex("a", "b", interval), "error", EVENTS)
            assert report.verdict("oracle_agreement").holds, (interval, g.num_states)
            checked += 1

    def test_mismatch_fails_overall(self):
        report = full_report(builtin_present(3, 4), pattern(4, 5), "error", EVENTS)
        assert not report.verdict("eq_tautology").holds
        assert not report.ok

    def test_zeno_fixture_fails_overall(self):
        net = parse_net(ZENO_NET)
        report = full_report(net, pattern(4, 5), "error", EVENTS)
        assert not report.verdict("innocuous").holds
        assert not report.verdict("no_tickless_cycle").holds
        assert not report.ok


MATCHED_VERDICTS = [
    ("eq_tautology", True),
    ("reach[a]", True),
    ("reach[b]", True),
    ("reach[t]", True),
    ("innocuous", True),
    ("naive_errors_in_complement", True),
    ("naive_complement_in_errors", False),
    ("oracle_agreement", True),
    ("no_tickless_cycle", True),
]


MISMATCH_VERDICTS = [
    ("eq_tautology", False),
    ("eq_soundness", False),
    ("eq_correctness", True),
    ("reach[a]", True),
    ("reach[b]", True),
    ("reach[t]", True),
    ("innocuous", True),
    ("naive_errors_in_complement", True),
    ("naive_complement_in_errors", False),
    ("oracle_agreement", True),
    ("no_tickless_cycle", True),
]


class TestFullReportWork:
    def test_image_work_grows_linearly_with_the_window(self, image_count):
        """The states fed to the post/pre image or entered by a search,
        summed over one report, about double when the window doubles."""
        work = []
        for lo in (75, 150, 300):
            net, regex = builtin_present(lo, 2 * lo), pattern(lo, 2 * lo)
            image_count.bits = 0
            report = full_report(net, regex, "error", EVENTS)
            work.append(image_count.bits)
            assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS, lo
        assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1], work

    def test_report_memory_grows_linearly_with_the_window(self):
        """The `tracemalloc` peak of a report on a fresh graph grows at most
        2.2x per doubling of the window, from [250,500[ to [1000,2000[: the
        image tables hold the edges, not a mask as wide as the graph per
        state."""
        peaks = []
        for lo in (250, 1000):
            g, regex = explore(builtin_present(lo, 2 * lo)), pattern(lo, 2 * lo)
            tracemalloc.start()
            try:
                report = full_report(g, regex, "error", EVENTS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS, lo
        assert peaks[1] <= 2.2**2 * peaks[0], peaks

    def test_reports_on_fresh_graphs_retain_nothing_more(self):
        """Twenty reports, each on a fresh graph: what obscheck's code
        allocates and still holds after the first, the truth memos of the
        label constants included, does not grow with the later ones."""
        own = [tracemalloc.Filter(True, str(Path(checker.__file__).parent / "*"))]

        def retained():
            gc.collect()
            return sum(stat.size for stat in tracemalloc.take_snapshot().filter_traces(own).statistics("filename"))

        tracemalloc.start()
        try:
            sizes = []
            for _ in range(20):
                report = full_report(builtin_present(12, 20), pattern(12, 20), "error", EVENTS)
                assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS
                del report
                sizes.append(retained())
        finally:
            tracemalloc.stop()
        assert sizes[1:] == sizes[:1] * 19, sizes

    def test_one_compile_and_one_product_per_report(self, present45_graph, monkeypatch):
        compiles, products = [], []
        compile_both, product = checker.compile_both, pathregex._product_bits
        monkeypatch.setattr(checker, "compile_both", lambda r: compiles.append(r) or compile_both(r))
        monkeypatch.setattr(pathregex, "_product_bits", lambda g, nfa: products.append(nfa) or product(g, nfa))
        report = full_report(present45_graph, pattern(4, 5), "error", EVENTS)
        assert len(compiles) == 1 and len(products) == 1
        assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS
        assert list(report.timings) == ["eq", "innocuous", "naive_inclusion", "oracle_agreement", "tickless_cycle"]

    def test_direct_checks_compile_and_run_their_own(self, present45_graph, monkeypatch):
        """Called on their own, the eq and naive checks still compile the
        pattern and run the product themselves, and give the report's verdicts."""
        calls = []
        compile_both, product = checker.compile_both, pathregex._product_bits
        monkeypatch.setattr(checker, "compile_both", lambda r: calls.append("compile") or compile_both(r))
        monkeypatch.setattr(pathregex, "_product_bits", lambda g, nfa: calls.append("product") or product(g, nfa))
        for g, lo, hi in ((present45_graph, 4, 5), (explore(builtin_present(3, 4)), 4, 5)):
            calls.clear()
            eq = check_eq(g, pattern(lo, hi), "error")
            naive = check_inclusion_naive(g, pattern(lo, hi), "error")
            assert calls == ["compile", "product"]
            full = full_report(g, pattern(lo, hi), "error", EVENTS)
            for v in eq.verdicts + naive.verdicts:
                assert full.verdict(v.name) == v

    @pytest.mark.parametrize(
        "model, window, most, verdicts",
        [
            ((30, 60), (30, 60), 500, MATCHED_VERDICTS),
            ((20, 40), (20, 39), 350, MISMATCH_VERDICTS),
        ],
    )
    def test_image_calls_per_report(self, image_count, model, window, most, verdicts):
        """One `eval_all` batch per report serves the pattern's two formulas,
        the error condition and the error region, so a report images exactly
        what a direct `check_eq` and `check_innocuous` image together: the
        end formula, the region and the oracle cross-check add nothing."""
        g, regex = explore(builtin_present(*model)), pattern(*window)
        report = full_report(g, regex, "error", EVENTS)
        assert [(v.name, v.holds) for v in report.verdicts] == verdicts
        assert image_count.calls <= most
        report_calls, image_count.calls = image_count.calls, 0
        check_eq(g, regex, "error")
        check_innocuous(g, EVENTS, INTERNAL)
        assert report_calls == image_count.calls

    @pytest.mark.parametrize(
        "model, window, report_calls, eq_calls, innocuous_calls, naive_calls",
        [
            ((20, 40), (20, 39), 61, 48, 13, 3),
            ((30, 60), (30, 60), 82, 69, 13, 3),
        ],
        ids=["20_40_vs_20_39", "30_60"],
    )
    def test_report_images_the_error_region_once(
        self, image_count, model, window, report_calls, eq_calls, innocuous_calls, naive_calls
    ):
        """The region inside the error condition is the one the naive check
        reads, so a report no longer images it a second time, while the
        direct checks keep their own work.  The pattern's window is one
        counted step, run as one search per tick count, so its `. a . T*`
        tail is searched once, not once per tick count."""
        g, regex = explore(builtin_present(*model)), pattern(*window)
        counts = []
        for run in (
            lambda: full_report(g, regex, "error", EVENTS),
            lambda: check_eq(g, regex, "error"),
            lambda: check_innocuous(g, EVENTS, INTERNAL),
            lambda: check_inclusion_naive(g, regex, "error"),
        ):
            image_count.calls = 0
            run()
            counts.append(image_count.calls)
        assert counts == [report_calls, eq_calls, innocuous_calls, naive_calls]
        assert report_calls == eq_calls + innocuous_calls

    def test_direct_check_eq_images_as_much_as_the_tautology(self, image_count):
        """Read off the visited and error sets, a direct `check_eq` does the
        image work of the `visited <=> -errors` tautology alone, and its
        failure witnesses agree with the tautology's."""
        g, regex = explore(builtin_present(20, 40)), pattern(20, 39)
        iff = Iff(compile_both(regex)[1], Not(error_condition("error")))
        taut = is_tautology(g, iff)
        tautology_calls, image_count.calls = image_count.calls, 0
        report = check_eq(g, regex, "error")
        assert [(v.name, v.holds) for v in report.verdicts] == MISMATCH_VERDICTS[:3]
        assert image_count.calls == tautology_calls == 48
        assert report.verdict("eq_tautology").witness_state == taut.witness
        assert report.verdict("eq_soundness").witness_state == report.verdict("eq_tautology").witness_state

    def test_formulas_die_with_the_report(self, present45_graph, monkeypatch):
        refs = []
        compile_both = checker.compile_both

        def capture(regex):
            end_f, visited_f = compile_both(regex)
            refs.append(weakref.ref(visited_f))
            return end_f, visited_f

        monkeypatch.setattr(checker, "compile_both", capture)
        with collector_off():
            report = full_report(present45_graph, pattern(4, 5), "error", EVENTS)
            alive = [ref() is not None for ref in refs]
        assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS
        assert alive == [False]

    def test_calls_leave_no_cycles(self):
        """Each call's working state, the graph it was given included, is
        freed by reference counting when the call returns: with the cycle
        collector off, a collection after each call finds nothing, and the
        report's graph dies as soon as its caller drops it."""

        def present(lo=4, hi=5):
            return explore(builtin_present(lo, hi))

        window = Interval(2, 4, upper_open=True)
        calls = {
            "eval_mu min": lambda: eval_mu(present(), parse_mu("min X | `0 \\/ X o T")),
            "eval_mu visited": lambda: eval_mu(present(), compile_visited(pattern(4, 5))),
            "oracle_states": lambda: oracle_states(present(), pattern(4, 5)),
            "build_nfa": lambda: build_nfa(pattern(4, 5)),
            "match_word": lambda: match_word(pattern(4, 5), ("b",) + ("t",) * 4 + ("a",)),
            "full_report": lambda: full_report(present(12, 20), pattern(12, 20), "error", EVENTS),
            "eval_fott": lambda: eval_fott(present_fott("a", "b", window), {"x": ("b", "t", "t", "a")}),
            "explore_full": lambda: explore_full(builtin_present(12, 20)),
            "save_aut": lambda: save_aut(present()),
            "to_dot": lambda: to_dot(present()),
        }
        found = {}
        with collector_off():
            for name, call in calls.items():
                call()
                found[name] = gc.collect()
            g = present(12, 20)
            graph = weakref.ref(g)
            report = full_report(g, pattern(12, 20), "error", EVENTS)
            del g
            alive = graph() is not None
        assert found == dict.fromkeys(calls, 0)
        assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS
        assert not alive

    def test_window_600_at_the_default_recursion_limit(self):
        """Evaluated in the report's one batch after the visited formula,
        the end formula reads the subterms they share instead of walking its
        tick chain again, which used to overflow here."""
        report = full_report(builtin_present(600, 601), pattern(600, 601), "error", EVENTS)
        assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS

    def test_window_2000_in_either_batch_order(self):
        """The window is one counted step, evaluated in a loop, so the depth
        of `eval_all` no longer depends on which formula comes first: at the
        default recursion limit both orders give the same four sets."""
        g, regex = explore(builtin_present(2000, 2001)), pattern(2000, 2001)
        end_f, visited_f = compile_both(regex)
        errors_f = error_condition("error")
        end_first = eval_all(g, (end_f, visited_f, errors_f, errors_f.right))
        visited_first = eval_all(g, (visited_f, end_f, errors_f, errors_f.right))
        assert end_first == [visited_first[1], visited_first[0], *visited_first[2:]]
        assert (end_first[0], end_first[1]) == oracle_states(g, regex)

    def test_window_2000_gives_the_verdicts(self):
        report = full_report(builtin_present(2000, 2001), pattern(2000, 2001), "error", EVENTS)
        assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS


class TestObserverWatchingTheWrongEvent:
    """The [4,5[ observer with its watch step probing `z` instead of `a`
    misses a violation of the pattern, which `check` should report
    (ROADMAP item 13)."""

    RUN = "b.start.z.t.t.t.t.watch.b.z.stop".split(".")

    def test_a_violating_run_ends_where_no_error_step_is(self):
        """Read off the graph and the trace formula, without `mucalc`."""
        net = parse_net(WATCH_Z.read_text())
        g, states = explore_full(net)
        ends = {g.initial}
        for label in self.RUN:
            ends = {dst for s in ends for lab, dst in g.out_edges(s) if lab == label}
        assert ends
        for s in ends:
            assert describe_state(net, states[s])["locations"]["Present"] == "ok"
            assert sorted(lab for lab, _ in g.out_edges(s)) == ["a", "b", "t"]
        word = tuple(lab for lab in self.RUN if lab not in ("start", "watch", "stop"))
        assert word == ("b", "z", "t", "t", "t", "t", "b", "z")
        assert not eval_fott(present_fott("a", "b", Interval(4, 5, upper_open=True)), {"x": word})

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
    def test_check_fails_the_observer(self, capsys):
        argv = ["check", "--model", str(WATCH_Z), "--pattern", "present", "--lo", "4", "--hi", "5", "--hi-open"]
        assert main(argv) == 1


class TestSetVerdicts:
    """The checks read their verdicts off state sets; on random graphs,
    patterns and error labels these equal the verdicts of the formula route,
    and a report's verdicts equal those of the checks run on their own."""

    def test_set_verdicts_match_the_formula_route(self):
        rng = random.Random(1201)
        failed = set()
        for _ in range(200):
            g, regex = random_lts(rng), random_regex(rng)
            err = rng.choice(g.labels)
            events = [Atom(lab) for lab in rng.sample(g.labels, rng.randint(1, len(g.labels)))]
            internal = rng.choice([internal_label_expr(events), random_label_expr(rng)])

            visited_f, err_f = compile_both(regex)[1], error_condition(err)
            eq = check_eq(g, regex, err)
            expected = [("eq_tautology", is_tautology(g, Iff(visited_f, Not(err_f))))]
            if not expected[0][1].holds:
                expected.append(("eq_soundness", is_tautology(g, Implies(Not(visited_f), err_f))))
                expected.append(("eq_correctness", is_tautology(g, Implies(visited_f, Not(err_f)))))
            assert [(v.name, v.holds, v.witness_state) for v in eq.verdicts] == [
                (name, taut.holds, taut.witness) for name, taut in expected
            ]

            innocuous = check_innocuous(g, events, internal)
            reach = [is_tautology(g, reach_formula(e, internal)) for e in events]
            witnesses = [taut.witness for taut in reach if not taut.holds]
            assert [(v.holds, v.witness_state) for v in innocuous.verdicts] == [
                (taut.holds, taut.witness) for taut in reach
            ] + [(not witnesses, witnesses[0] if witnesses else None)]

            naive = check_inclusion_naive(g, regex, err)
            report = full_report(g, regex, err, events, internal)
            for v in eq.verdicts + innocuous.verdicts + naive.verdicts:
                assert report.verdict(v.name) == v
                if not v.holds:
                    failed.add(v.name)
        assert {"eq_soundness", "eq_correctness", "innocuous", "naive_errors_in_complement"} <= failed


class TestReportShape:
    def test_json_fields_are_stable(self):
        report = Report(
            verdicts=[Verdict("demo", False, witness_state=3, witness_trace=["a"], lasso_split=0)],
            timings={"demo": 0.01},
        )
        doc = report.to_dict()
        assert set(doc) == {"verdicts", "overall"}
        assert set(doc["verdicts"][0]) == {
            "name",
            "holds",
            "witnessState",
            "witnessTrace",
            "lassoSplit",
        }
        with_timings = report.to_dict(include_timings=True)
        assert "timings" in with_timings
        json.dumps(with_timings)

    def test_every_failed_property_verdict_has_a_witness(self, zeno_graph):
        report = full_report(zeno_graph, pattern(4, 5), "error", EVENTS)
        for v in report.verdicts:
            if not v.holds and v.name not in ("innocuous",):
                assert v.witness_state is not None or v.witness_trace is not None, v.name
