import json
import time

import pytest

from conftest import ZENO_NET, chain_lts
from obscheck import checker, lts, pathregex
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
from obscheck.fott import Interval, present_regex
from obscheck.lts import Atom, Lts, parse_label_expr
from obscheck.mucalc import eval_mu
from obscheck.mucompile import error_condition
from obscheck.pathregex import oracle_visited_states, parse_regex
from obscheck.timednet import builtin_mouse, builtin_present, explore, parse_net

EVENTS = [Atom("a"), Atom("b"), Atom("t")]
INTERNAL = internal_label_expr(EVENTS)


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
        assert errors.issubset(outside)

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


class TestFullReportWork:
    def test_image_work_grows_linearly_with_the_window(self, monkeypatch):
        """The states fed to the post/pre image, summed over one report,
        about double when the window doubles."""
        imaged = [0]
        image = lts._image

        def counting_image(bits, masks):
            imaged[0] += bin(bits).count("1")
            return image(bits, masks)

        monkeypatch.setattr(lts, "_image", counting_image)
        work = []
        for lo in (75, 150, 300):
            net, regex = builtin_present(lo, 2 * lo), pattern(lo, 2 * lo)
            imaged[0] = 0
            report = full_report(net, regex, "error", EVENTS)
            work.append(imaged[0])
            assert [(v.name, v.holds) for v in report.verdicts] == MATCHED_VERDICTS, lo
        assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1], work

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
