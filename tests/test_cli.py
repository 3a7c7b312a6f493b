import json
import os
import subprocess
import sys

import pytest

import obscheck
from obscheck import pathregex
from obscheck.cli import main

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

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "--graph", "/nonexistent.aut", "--reach", "error"]) == 2

    def test_too_deep_window_exits_two(self, capsys):
        argv = ["check", "--model", "builtin:present:600:601", "--pattern", "present"]
        argv += ["--lo", "600", "--hi", "601", "--hi-open"]
        assert main(argv) == 2
        assert "recursion limit" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "--frobnicate"])
        assert err.value.code == 2


class TestDot:
    def test_highlight_formula(self, capsys):
        assert main(["dot", "--model", "builtin:present:4:5", "--highlight", "<error>T"]) == 0
        out = capsys.readouterr().out
        assert out.count("style=filled") == 3

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
