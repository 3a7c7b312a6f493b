"""Command-line front end.

Subcommands: gen (network -> graph files), eval (formula over a graph),
compile (path regex -> formula), oracle (brute-force end/visited sets),
check (full verdict bundle or reachability), dot (render to Graphviz text).

Exit codes: 0 success or verdict holds, 1 verdict failure, 2 usage, input or
file errors.  Output is deterministic; timings are only included on request.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .checker import Report, check_reachable, full_report
from .fott import present_regex
from .lts import Atom, Interval, Lts, load_aut, parse_label_expr, save_aut, to_dot
from .mucalc import eval_mu, is_tautology, parse_mu, print_mu
from .mucompile import compile_end, compile_visited
from .pathregex import oracle_states, parse_regex
from .timednet import builtin_mouse, builtin_present, explore, parse_net


class UsageError(ValueError):
    pass


def _load_model(spec: str):
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        if parts[1] == "present":
            if len(parts) != 4:
                raise UsageError("expected builtin:present:<d1>:<d2>")
            try:
                d1, d2 = int(parts[2]), int(parts[3])
            except ValueError:
                raise UsageError("builtin:present bounds must be integers") from None
            return builtin_present(d1, d2)
        if parts[1] == "mouse":
            if len(parts) != 2:
                raise UsageError("expected builtin:mouse")
            return builtin_mouse()
        raise UsageError(f"unknown builtin model {spec!r}")
    with open(spec, encoding="utf-8") as fh:
        return parse_net(fh.read())


def _graph_from_args(args, error_label: str | None = None) -> Lts:
    """The graph of --graph or --model; a model must label a transition `error_label`, if given."""
    if getattr(args, "graph", None):
        with open(args.graph, encoding="utf-8") as fh:
            return load_aut(fh.read())
    if getattr(args, "model", None):
        net = _load_model(args.model)
        if error_label is not None and all(
            tr.label != error_label for proc in net.processes for tr in proc.transitions
        ):
            raise UsageError(f"--error-label {error_label!r} names no transition of the model")
        return explore(net)
    raise UsageError("one of --graph or --model is required")


def _states_line(s) -> str:
    return " ".join(str(i) for i in s)


def _pattern_from_args(args):
    if args.lo is None:
        raise UsageError("--pattern present needs --lo")
    if args.hi is None:
        raise UsageError("--pattern present needs --hi (a number or 'inf')")
    if args.hi == "inf":
        upper = None
    else:
        try:
            upper = int(args.hi)
        except ValueError:
            raise UsageError("--hi must be an integer or 'inf'") from None
    interval = Interval(args.lo, upper, lower_open=args.lo_open, upper_open=args.hi_open)
    return present_regex(args.a, args.b, interval)


def _print_report(report: Report, args) -> None:
    if args.json:
        doc = report.to_dict(include_timings=args.timings)
        print(json.dumps(doc, indent=2, sort_keys=True))
        return
    for v in report.verdicts:
        line = f"{v.name}: {'HOLDS' if v.holds else 'FAILS'}"
        if v.witness_state is not None and not v.holds:
            line += f" (witness state {v.witness_state})"
        print(line)
        if v.witness_trace is not None and not v.holds:
            if v.lasso_split is not None:
                prefix = v.witness_trace[: v.lasso_split]
                cycle = v.witness_trace[v.lasso_split :]
                print(f"  trace: {'.'.join(prefix)} ({'.'.join(cycle)})*")
            else:
                print(f"  trace: {'.'.join(v.witness_trace)}")
    if args.timings:
        for name, seconds in report.timings.items():
            print(f"# {name}: {seconds:.3f}s", file=sys.stderr)
    print(f"overall: {'PASS' if report.ok else 'FAIL'}")


def _cmd_gen(args) -> int:
    net = _load_model(args.model)
    g = explore(net)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(save_aut(g))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g))
    print(f"states: {g.num_states}")
    print(f"transitions: {len(g.transitions)}")
    print(f"labels: {' '.join(sorted(g.labels))}")
    return 0


def _cmd_eval(args) -> int:
    g = _graph_from_args(args)
    if args.formula is not None:
        text = args.formula
    elif args.formula_file is not None:
        with open(args.formula_file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise UsageError("one of --formula or --formula-file is required")
    f = parse_mu(text)
    if args.tautology:
        res = is_tautology(g, f)
        if res.holds:
            print("TAUTOLOGY")
            return 0
        print(f"FAILS AT {res.witness}")
        return 1
    print(_states_line(eval_mu(g, f)))
    return 0


def _cmd_compile(args) -> int:
    regex = parse_regex(args.regex)
    f = compile_end(regex) if args.mode == "end" else compile_visited(regex)
    print(print_mu(f))
    return 0


def _cmd_oracle(args) -> int:
    g = _graph_from_args(args)
    end, visited = oracle_states(g, parse_regex(args.regex))
    print("end: " + _states_line(end))
    print("visited: " + _states_line(visited))
    return 0


def _cmd_check(args) -> int:
    g = _graph_from_args(args, args.error_label if args.reach is None and args.pattern else None)
    if args.reach is not None:
        report = check_reachable(g, parse_label_expr(args.reach), via=args.reach_via)
        _print_report(report, args)
        return 0 if report.ok else 1
    if args.pattern is None:
        raise UsageError("either --pattern or --reach is required")
    pattern = _pattern_from_args(args)
    events = [Atom(text.strip()) for text in args.events.split(",") if text.strip()]
    if not events:
        raise UsageError("--events must name at least one label")
    internal = parse_label_expr(args.internal) if args.internal else None
    report = full_report(g, pattern, args.error_label, events, internal)
    _print_report(report, args)
    return 0 if report.ok else 1


def _cmd_dot(args) -> int:
    g = _graph_from_args(args)
    highlight = None
    if args.highlight:
        highlight = eval_mu(g, parse_mu(args.highlight))
    text = to_dot(g, highlight)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


def _add_source_flags(p) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--graph", help="state graph in .aut format")
    source.add_argument("--model", help="builtin:present:<d1>:<d2>, builtin:mouse, or a .net file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obscheck",
        description="check realtime observers on their discrete state graphs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="explore a network into a state graph")
    p.add_argument("--model", required=True)
    p.add_argument("--out", help="write the graph in .aut format")
    p.add_argument("--dot", help="write the graph in DOT format")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a formula over a graph")
    _add_source_flags(p)
    formula = p.add_mutually_exclusive_group()
    formula.add_argument("--formula")
    formula.add_argument("--formula-file")
    p.add_argument("--tautology", action="store_true", help="report TAUTOLOGY or the first failing state")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compile", help="compile a path regex to a formula")
    p.add_argument("--regex", required=True)
    p.add_argument("--mode", choices=("end", "visited"), required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("oracle", help="brute-force end/visited sets of a path regex")
    _add_source_flags(p)
    p.add_argument("--regex", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check", help="run the observer checks")
    _add_source_flags(p)
    p.add_argument("--pattern", choices=("present",))
    p.add_argument("--a", default="a", help="observed event")
    p.add_argument("--b", default="b", help="triggering event")
    p.add_argument("--lo", type=int)
    p.add_argument("--hi", help="upper bound, or 'inf'")
    p.add_argument("--lo-open", action="store_true")
    p.add_argument("--hi-open", action="store_true")
    p.add_argument("--error-label", default="error")
    p.add_argument("--events", default="a,b,t", help="comma-separated labels for innocuousness")
    p.add_argument("--internal", help="label expression for internal steps")
    p.add_argument("--reach", help="label expression: check reachability instead of the pattern")
    p.add_argument("--reach-via", choices=("enabled", "entered"), default="enabled")
    p.add_argument("--json", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("dot", help="render a graph to DOT text")
    _add_source_flags(p)
    p.add_argument("--out")
    p.add_argument("--highlight", help="formula; its states are filled")
    p.set_defaults(func=_cmd_dot)

    return parser


# Built once: `parse_args` leaves the parser as it was and returns a fresh
# Namespace, and every action default is immutable, so no call sees another's.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        reason = err
        if isinstance(err, OSError):  # a file that cannot be read or written
            reason = err.strerror or err
            if err.filename is not None:
                reason = f"cannot open {err.filename}: {reason}"
        print(f"obscheck: {reason}", file=sys.stderr)
        return 2
    except RecursionError:  # the structural walks over formulas and expressions recurse
        limit = sys.getrecursionlimit()
        print(f"obscheck: input nested too deeply: over the recursion limit of {limit}", file=sys.stderr)
        return 2
    except MemoryError:  # a model too large for this machine
        print("obscheck: out of memory", file=sys.stderr)
        return 2
