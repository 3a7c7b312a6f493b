import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import obscheck
from obscheck import cli, mucalc, pathregex
from obscheck.cli import main
from obscheck.timednet import explore, parse_net

DATA = Path(__file__).parent / "data"

CHECK_45 = [
    "check",
    "--model",
    "builtin:present:4:5",
    "--pattern",
    "present",
    "--a",
    "a",
    "--b",
    "b",
    "--lo",
    "4",
    "--hi",
    "5",
    "--hi-open",
    "--error-label",
    "error",
]


class TestGen:
    def test_writes_graph_and_prints_counts(self, tmp_path, capsys):
        out = tmp_path / "g.aut"
        dot = tmp_path / "g.dot"
        code = main(["gen", "--model", "builtin:present:4:5", "--out", str(out), "--dot", str(dot)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("states: ")
        assert lines[1].startswith("transitions: ")
        assert out.read_text().startswith("des (0, ")
        assert dot.read_text().startswith("digraph")

    def test_output_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.aut", tmp_path / "b.aut"
        main(["gen", "--model", "builtin:mouse", "--out", str(a)])
        main(["gen", "--model", "builtin:mouse", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_net_file_model(self, tmp_path, capsys):
        net = tmp_path / "m.net"
        net.write_text("process P\ninit l\nfrom l on e to l\n")
        assert main(["gen", "--model", str(net)]) == 0
        assert "states: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("spec", ["builtin:mouse:junk", "builtin:mouse:"])
    def test_mouse_takes_no_arguments(self, capsys, spec):
        assert main(["gen", "--model", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "obscheck: expected builtin:mouse\n"


class TestEval:
    def test_state_list(self, tmp_path, capsys):
        out = tmp_path / "g.aut"
        main(["gen", "--model", "builtin:present:4:5", "--out", str(out)])
        capsys.readouterr()
        code = main(["eval", "--graph", str(out), "--formula", "<error>T"])
        assert code == 0
        states = capsys.readouterr().out.split()
        assert len(states) == 3 and all(s.isdigit() for s in states)

    def test_tautology_mode(self, capsys):
        assert main(["eval", "--model", "builtin:present:4:5", "--formula", "T", "--tautology"]) == 0
        assert capsys.readouterr().out.strip() == "TAUTOLOGY"
        assert main(["eval", "--model", "builtin:present:4:5", "--formula", "`0", "--tautology"]) == 1
        assert capsys.readouterr().out.startswith("FAILS AT ")

    def test_formula_file(self, tmp_path, capsys):
        f = tmp_path / "f.mu"
        f.write_text("min X | (<a>T \\/ <-(a\\/b\\/t)>X)\n")
        assert main(["eval", "--model", "builtin:present:4:5", "--formula-file", str(f)]) == 0
        states = capsys.readouterr().out.split()
        assert states  # the event stays reachable from at least one state

    def test_bad_formula_is_usage_error(self, capsys):
        assert main(["eval", "--model", "builtin:mouse", "--formula", "min X | -X"]) == 2
        assert "obscheck:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, pair",
    [
        (["eval", "--model", "builtin:mouse", "--formula", "T", "--formula-file", "/nonexistent"], "--formula"),
        (["eval", "--graph", "/nonexistent", "--model", "builtin:mouse", "--formula", "T"], "--graph"),
        (["oracle", "--model", "builtin:mouse", "--graph", "/nonexistent", "--regex", "a"], "--model"),
        (["check", "--graph", "/nonexistent", "--model", "builtin:mouse", "--reach", "error"], "--graph"),
        (["dot", "--model", "builtin:mouse", "--graph", "/nonexistent"], "--model"),
        (["check", "--model", "builtin:mouse", "--pattern", "present", "--lo", "1", "--reach", "error"], "--pattern"),
    ],
)
def test_two_sources_of_one_input_are_a_usage_error(capsys, argv, pair):
    """A formula given both inline and as a file, a graph given both as
    `.aut` and as a model, or a check given both as a pattern and as a
    reachability target, exits 2 before either is read."""
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"not allowed with argument {pair}" in captured.err
    assert "Traceback" not in captured.err


CHECK_45_OPEN = ["check", "--model", "builtin:present:4:5", "--pattern", "present", "--lo", "4", "--hi", "5", "--hi-open"]


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (CHECK_45_OPEN, "--internal", "-(a\\/zz)"),
        (CHECK_45_OPEN, "--internal", "-(a\\/b\\/t)"),
        (["check", "--model", "builtin:present:4:5"], "--reach", "-a"),
        (["eval", "--model", "builtin:mouse"], "--formula", "-<a>T"),
        (["dot", "--model", "builtin:mouse"], "--highlight", "-<a>T"),
        (["compile", "--mode", "end"], "--regex", "-a"),
        (["oracle", "--model", "builtin:mouse"], "--regex", "-a"),
    ],
)
def test_an_expression_starting_with_a_dash_may_follow_its_option(capsys, argv, option, value):
    """`--internal -a` reads as `--internal=-a`: the same output and exit code."""
    runs = []
    for tail in ([option, value], [f"{option}={value}"]):
        code = main([*argv, *tail])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    assert runs[0][0] in (0, 2) and "usage:" not in runs[0][2]


def test_every_option_string_is_dash_h_or_starts_with_two_dashes():
    """What `main` reads as an option, not as an expression that starts with `-`."""
    parsers, strings = [cli._PARSER], set()
    for parser in parsers:
        for action in parser._actions:
            strings.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    assert {s for s in strings if s[:2] != "--"} == {"-h"}


@pytest.mark.parametrize("option", ["--json", "-h"])
def test_an_option_after_an_expression_option_is_not_its_value(capsys, option):
    with pytest.raises(SystemExit) as err:
        main([*CHECK_45_OPEN, "--internal", option])
    assert err.value.code == 2
    assert "argument --internal: expected one argument" in capsys.readouterr().err


class TestCompile:
    def test_end_mode_prints_expected_formula(self, capsys):
        assert main(["compile", "--regex", "(-b)* . b", "--mode", "end"]) == 0
        assert capsys.readouterr().out.strip() == "`0 * (-b) o b"

    def test_visited_mode(self, capsys):
        assert main(["compile", "--regex", "a", "--mode", "visited"]) == 0
        assert capsys.readouterr().out.strip() == "`0 \\/ `0 o a"

    def test_bad_regex_is_usage_error(self, capsys):
        assert main(["compile", "--regex", "(a . b)*", "--mode", "end"]) == 2
        assert "obscheck:" in capsys.readouterr().err

    def test_counted_tick_step(self, capsys):
        assert main(["compile", "--regex", "b . Tick{2,3}", "--mode", "end"]) == 0
        assert capsys.readouterr().out == "`0 o b o Tick{2,3}\n"
        assert main(["compile", "--regex", "b . Tick{2,3}", "--mode", "visited"]) == 0
        assert capsys.readouterr().out == "`0 \\/ `0 o b \\/ (`0 o b o Tick{2,3} \\/ `0 o b o Tick{0,3})\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "builtin:present:4:5", "--formula", "`0 o Tick{0,1000000000}"],
            ["oracle", "--model", "builtin:present:4:5", "--regex", "b . Tick{0,100000001}"],
        ],
    )
    def test_tick_count_over_the_limit_exits_two(self, capsys, argv):
        assert main(argv) == 2
        assert "over the limit of 100000" in capsys.readouterr().err

    def test_too_deep_tick_chain_exits_two(self, capsys):
        chain = " . ".join(["Tick"] * 600)
        assert main(["compile", "--regex", chain, "--mode", "end"]) == 2
        assert "recursion limit" in capsys.readouterr().err


class TestOracle:
    def test_prints_both_sets(self, capsys):
        code = main(["oracle", "--model", "builtin:present:4:5", "--regex", "eps"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "end: 0"
        assert out[1] == "visited: 0"

    def test_exact_text_on_the_present_model(self, capsys):
        code = main(["oracle", "--model", "builtin:present:4:5", "--regex", "(-b)* . b . (-t)*"])
        assert code == 0
        assert capsys.readouterr().out == "end: 2 3 4 5\nvisited: 0 1 2 3 4 5\n"

    @pytest.mark.parametrize(
        "regex, end",
        [
            (" \\/ ".join(f"a{i}" for i in range(3000)), "1"),
            (" . ".join(["a"] * 5000), "0"),
        ],
        ids=["3000-way union", "5000-step sequence"],
    )
    def test_long_regex_is_compiled_without_recursion(self, tmp_path, capsys, regex, end):
        """Neither length is bound by recursion depth in the automaton."""
        graph = tmp_path / "g.aut"
        graph.write_text('des (0, 3, 2)\n(0, "a", 1)\n(1, "a", 0)\n(0, "a2999", 1)\n')
        assert main(["oracle", "--graph", str(graph), "--regex", regex]) == 0
        assert capsys.readouterr().out == f"end: {end}\nvisited: 0 1\n"

    def test_runs_one_product(self, capsys, monkeypatch):
        calls = []
        product = pathregex._product_bits
        monkeypatch.setattr(pathregex, "_product_bits", lambda g, nfa: calls.append(1) or product(g, nfa))
        assert main(["oracle", "--model", "builtin:present:4:5", "--regex", "(-b)* . b"]) == 0
        assert len(calls) == 1


class TestCheck:
    def test_paper_workflow_exits_zero(self, capsys):
        assert main(CHECK_45) == 0
        out = capsys.readouterr().out
        assert "eq_tautology: HOLDS" in out
        assert "overall: PASS" in out

    def test_json_report(self, capsys):
        assert main(CHECK_45 + ["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = {v["name"] for v in doc["verdicts"]}
        assert "eq_tautology" in names and doc["overall"] is True
        assert "timings" not in doc

    def test_json_is_deterministic(self, capsys):
        main(CHECK_45 + ["--json"])
        first = capsys.readouterr().out
        main(CHECK_45 + ["--json"])
        assert capsys.readouterr().out == first

    def test_mismatch_exits_one(self, capsys):
        args = [a if a != "builtin:present:4:5" else "builtin:present:3:4" for a in CHECK_45]
        assert main(args) == 1
        assert "overall: FAIL" in capsys.readouterr().out

    def test_reach_mode(self, capsys):
        assert main(["check", "--model", "builtin:mouse", "--reach", "error"]) == 0
        assert "reachable: HOLDS" in capsys.readouterr().out

    def test_error_label_naming_no_transition_exits_two(self, capsys):
        """A misspelled label would leave the error condition empty, and the
        [4,5[ observer would pass against the closed [4,5] pattern, which
        fails with the right label."""
        closed = [arg for arg in CHECK_45 if arg != "--hi-open"]
        assert main(closed) == 1
        capsys.readouterr()
        assert main([arg if arg != "error" else "nosuch" for arg in closed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "obscheck: --error-label 'nosuch' names no transition of the model\n"

    def test_mouse_error_reaction_is_a_valid_error_label(self, capsys):
        argv = ["check", "--model", "builtin:mouse", "--pattern", "present", "--a", "double", "--b", "click"]
        argv += ["--lo", "0", "--hi", "1", "--hi-open", "--events", "click,t"]
        assert main(argv) == 1
        verdicts = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("  ")]
        assert [line.split(" (")[0] for line in verdicts] == [
            "eq_tautology: FAILS",
            "eq_soundness: FAILS",
            "eq_correctness: FAILS",
            "reach[click]: HOLDS",
            "reach[t]: HOLDS",
            "innocuous: HOLDS",
            "naive_errors_in_complement: FAILS",
            "naive_complement_in_errors: FAILS",
            "oracle_agreement: HOLDS",
            "no_tickless_cycle: HOLDS",
            "overall: FAIL",
        ]

    def test_declared_but_unreachable_error_label_gives_the_verdicts(self, tmp_path, capsys):
        """An observer whose error step is never enabled is not a typo: with
        no error state it implements the unbounded window, where a late `a`
        never comes too late."""
        text = (DATA / "present_4_5.net").read_text()
        net = tmp_path / "never.net"
        error_step = "elapse [1,w[ label error to error"
        net.write_text(text.replace(f"from watch {error_step}", f"from error {error_step}"))
        assert net.read_text() != text
        argv = ["check", "--model", str(net), "--pattern", "present", "--lo", "4", "--hi", "inf"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "overall: PASS"
        assert "error" not in explore(parse_net(net.read_text())).labels
        # A label that is declared but never fires is no misspelling either.
        assert main(["check", "--model", str(net), "--reach", "error"]) == 1
        assert capsys.readouterr().out == "reachable: FAILS\noverall: FAIL\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (CHECK_45 + ["--a", "aa"], "--a 'aa'"),
            (CHECK_45 + ["--b", "bb"], "--b 'bb'"),
            (CHECK_45 + ["--events", "a,bb,t"], "--events 'bb'"),
            (CHECK_45 + ["--internal", "zz"], "--internal 'zz'"),
            (CHECK_45 + ["--internal", "(T /\\ -a) \\/ zz"], "--internal 'zz'"),
            (CHECK_45 + ["--a", "aa", "--error-label", "nosuch"], "--error-label 'nosuch'"),
            (["check", "--model", "builtin:mouse", "--reach", "eror"], "--reach 'eror'"),
            (["check", "--model", "builtin:mouse", "--reach", "click /\\ -eror"], "--reach 'eror'"),
        ],
        ids=["a", "b", "events", "internal", "internal-atom", "error-label-first", "reach", "reach-atom"],
    )
    def test_a_label_naming_no_transition_exits_two(self, capsys, monkeypatch, argv, named):
        """With --model, a misspelled label exits 2 before the model is
        explored; `--a aa` would otherwise pass on [4,5[ as `--a a` does."""
        explored = []
        monkeypatch.setattr(cli, "explore", lambda *args: explored.append(args))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, explored) == ("", [])
        assert captured.err == f"obscheck: {named} names no transition of the model\n"

    @pytest.mark.parametrize("events, repeated", [("a,b,t,t", "t"), ("a, b ,a,b", "a")])
    def test_a_repeated_event_exits_two(self, capsys, monkeypatch, events, repeated):
        """Each `reach[e]` verdict is named by its label, so a label given
        twice would print its verdict twice; it exits 2 before the model is
        explored."""
        explored = []
        monkeypatch.setattr(cli, "explore", lambda *args: explored.append(args))
        assert main(CHECK_45 + ["--events", events, "--json"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, explored) == ("", [])
        assert captured.err == f"obscheck: --events names {repeated!r} more than once\n"

    @pytest.mark.parametrize("flags", [["--a", "t"], ["--events", "t"], ["--internal", "T /\\ -(a \\/ b \\/ t)"]])
    def test_the_tick_and_the_constant_are_valid_labels(self, capsys, flags):
        assert main(CHECK_45 + flags) in (0, 1)
        assert capsys.readouterr().out.splitlines()[-1].startswith("overall: ")

    def test_a_graph_file_is_not_checked_for_label_names(self, tmp_path, capsys):
        graph = tmp_path / "mouse.aut"
        assert main(["gen", "--model", "builtin:mouse", "--out", str(graph)]) == 0
        capsys.readouterr()
        assert main(["check", "--graph", str(graph), "--reach", "eror"]) == 1
        assert capsys.readouterr().out == "reachable: FAILS\noverall: FAIL\n"

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "--graph", "/nonexistent.aut", "--reach", "error"]) == 2

    def test_window_600_gives_the_verdicts(self, capsys):
        argv = ["check", "--model", "builtin:present:600:601", "--pattern", "present"]
        argv += ["--lo", "600", "--hi", "601", "--hi-open"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if not line.startswith("  trace: ")] == [
            "eq_tautology: HOLDS",
            "reach[a]: HOLDS",
            "reach[b]: HOLDS",
            "reach[t]: HOLDS",
            "innocuous: HOLDS",
            "naive_errors_in_complement: HOLDS",
            "naive_complement_in_errors: FAILS (witness state 1807)",
            "oracle_agreement: HOLDS",
            "no_tickless_cycle: HOLDS",
            "overall: PASS",
        ]

    def test_window_2000_gives_the_verdicts(self, capsys):
        """At the default recursion limit and thread stack."""
        argv = ["check", "--model", "builtin:present:2000:2001", "--pattern", "present"]
        argv += ["--lo", "2000", "--hi", "2001", "--hi-open"]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert [line for line in out if not line.startswith("  trace: ")] == [
            "eq_tautology: HOLDS",
            "reach[a]: HOLDS",
            "reach[b]: HOLDS",
            "reach[t]: HOLDS",
            "innocuous: HOLDS",
            "naive_errors_in_complement: HOLDS",
            "naive_complement_in_errors: FAILS (witness state 6007)",
            "oracle_agreement: HOLDS",
            "no_tickless_cycle: HOLDS",
            "overall: PASS",
        ]

    def test_internal_chain_of_8001_states_gives_the_verdicts(self, tmp_path, capsys):
        """8,000 internal `z` steps to a state where a, b and t loop: every
        event is reachable from every state, one least fixpoint round per
        chain state."""
        n = 8000
        edges = [(i, "z", i + 1) for i in range(n)] + [(n, label, n) for label in "abt"]
        graph = tmp_path / "chain.aut"
        graph.write_text(f"des (0, {len(edges)}, {n + 1})\n" + "".join(f'({s}, "{a}", {d})\n' for s, a, d in edges))
        assert main(["check", "--graph", str(graph), "--pattern", "present", "--lo", "1", "--hi", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "eq_tautology: HOLDS",
            "reach[a]: HOLDS",
            "reach[b]: HOLDS",
            "reach[t]: HOLDS",
            "innocuous: HOLDS",
            "naive_errors_in_complement: HOLDS",
            "naive_complement_in_errors: HOLDS",
            "oracle_agreement: HOLDS",
            "no_tickless_cycle: HOLDS",
            "overall: PASS",
        ]

    def test_memory_error_exits_two_without_a_traceback(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "full_report", exhausted)
        assert main(CHECK_45) == 2
        captured = capsys.readouterr()
        assert captured.err == "obscheck: out of memory\n"
        assert captured.out == ""

    def test_recursion_error_exits_two_without_a_traceback(self, capsys, monkeypatch):
        def overflow(f, memo):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(mucalc, "_polarities", overflow)
        assert main(CHECK_45) == 2
        captured = capsys.readouterr()
        assert "recursion limit" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "model, window, expected, code",
        [
            ("builtin:present:20:40", ["--lo", "20", "--hi", "39"], "check_20_40_vs_20_39", 1),
            ("builtin:present:12:20", ["--lo", "12", "--hi", "20"], "check_12_20", 0),
        ],
    )
    @pytest.mark.parametrize("fmt", ["txt", "json"])
    def test_exact_text(self, capsys, model, window, expected, code, fmt):
        """Witness states and the naive lasso, byte for byte."""
        argv = ["check", "--model", model, "--pattern", "present", *window, "--hi-open"]
        assert main(argv + (["--json"] if fmt == "json" else [])) == code
        assert capsys.readouterr().out == (DATA / f"{expected}.{fmt}").read_text()

    @pytest.mark.skipif(sys.platform != "linux", reason="the address-space limit is Linux's RLIMIT_AS")
    def test_large_window_checks_within_300_mb_of_address_space(self):
        """The graph is kept as edge lists, so a report's memory grows with
        the edges, not with the states squared: on 30,013 states `check`
        gives its verdicts with its address space capped at 300,000 KB."""
        import resource

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (300_000 * 1024, 300_000 * 1024))

        src = os.path.dirname(os.path.dirname(obscheck.__file__))
        argv = ["check", "--model", "builtin:present:5000:10000", "--pattern", "present"]
        done = subprocess.run(
            [sys.executable, "-m", "obscheck", *argv, "--lo", "5000", "--hi", "10000", "--hi-open"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            preexec_fn=cap,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert [line for line in done.stdout.splitlines() if not line.startswith("  trace: ")] == [
            "eq_tautology: HOLDS",
            "reach[a]: HOLDS",
            "reach[b]: HOLDS",
            "reach[t]: HOLDS",
            "innocuous: HOLDS",
            "naive_errors_in_complement: HOLDS",
            "naive_complement_in_errors: FAILS (witness state 30007)",
            "oracle_agreement: HOLDS",
            "no_tickless_cycle: HOLDS",
            "overall: PASS",
        ]

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--frobnicate"])
        assert err.value.code == 2

    def test_hi_that_is_not_a_number_is_usage_error(self, capsys):
        argv = ["check", "--model", "builtin:present:4:5", "--pattern", "present", "--lo", "4", "--hi", "abc"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "obscheck: --hi must be an integer or 'inf'\n"

    @pytest.mark.parametrize("hi, count", [(["1000000", "--hi-open"], 999999), (["10000000"], 10000000)])
    def test_check_window_over_the_limit_exits_two(self, capsys, hi, count):
        """`--lo`/`--hi` reach the tick step without the parser, whose
        limit the step itself keeps: one line, before any tick is built."""
        argv = ["check", "--model", "builtin:present:4:5", "--pattern", "present", "--lo", "4", "--hi", *hi]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"obscheck: tick count {count} over the limit of 100000\n"


class TestSharedParser:
    """`main` parses with one parser built at import; no call may see another's flags."""

    def test_a_check_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(CHECK_45) == 0
        assert built == []

    def test_a_flag_does_not_leak_into_the_next_call(self, capsys):
        assert main(CHECK_45) == 0
        capsys.readouterr()
        argv = ["check", "--model", "builtin:present:4:5", "--pattern", "present", "--hi", "5"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "obscheck: --pattern present needs --lo\n"

    @pytest.mark.parametrize(
        "interruption, code", [(["check", "--frobnicate"], 2), (["--version"], 0)], ids=["usage-error", "version"]
    )
    def test_output_after_an_early_exit_is_unchanged(self, capsys, interruption, code):
        assert main(CHECK_45) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as err:
            main(interruption)
        assert err.value.code == code
        capsys.readouterr()
        assert main(CHECK_45) == 0
        assert capsys.readouterr().out == first


READ_FLAGS = {
    "model": ["gen", "--model"],
    "graph": ["check", "--reach", "error", "--graph"],
    "formula-file": ["eval", "--model", "builtin:mouse", "--formula-file"],
}
WRITE_FLAGS = {
    "gen-out": ["gen", "--model", "builtin:mouse", "--out"],
    "gen-dot": ["gen", "--model", "builtin:mouse", "--dot"],
    "dot-out": ["dot", "--model", "builtin:mouse", "--out"],
}
BAD_PATHS = {"missing": "missing.txt", "directory": ".", "under-missing-directory": "missing/f.txt"}
FILE_CASES = [
    pytest.param(argv, BAD_PATHS[bad], id=f"{flag}-{bad}")
    for flags, bads in [(READ_FLAGS, BAD_PATHS), (WRITE_FLAGS, ["directory", "under-missing-directory"])]
    for flag, argv in flags.items()
    for bad in bads
]


@pytest.mark.parametrize("argv, bad_path", FILE_CASES)
def test_a_file_that_cannot_be_opened_exits_two(tmp_path, capsys, argv, bad_path):
    path = str(tmp_path / bad_path)
    assert main([*argv, path]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"obscheck: cannot open {path}: ")
    assert "Traceback" not in captured.err + captured.out


class TestDot:
    def test_highlight_formula(self, capsys):
        assert main(["dot", "--model", "builtin:present:4:5", "--highlight", "<error>T"]) == 0
        out = capsys.readouterr().out
        assert out.count("style=filled") == 3

    def test_backslash_label_from_a_graph_file(self, tmp_path, capsys):
        path = tmp_path / "x.aut"
        path.write_text('des (0, 1, 2)\n(0, "a\\", 1)\n')
        assert main(["dot", "--graph", str(path)]) == 0
        assert capsys.readouterr().out == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            '  0 [shape=doublecircle];\n  0 -> 1 [label="a\\\\"];\n}\n'
        )

    def test_dot_keyword_labels_are_quoted(self, tmp_path, capsys):
        path = tmp_path / "k.aut"
        path.write_text('des (0, 2, 2)\n(0, "node", 1)\n(1, "Graph", 0)\n')
        assert main(["dot", "--graph", str(path)]) == 0
        assert capsys.readouterr().out == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            '  0 [shape=doublecircle];\n  0 -> 1 [label="node"];\n  1 -> 0 [label="Graph"];\n}\n'
        )

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0

    def test_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(obscheck.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "obscheck", "--version"], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0
        assert done.stdout.strip() == f"obscheck {obscheck.__version__}"
