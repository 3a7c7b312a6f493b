"""The benchmark's tracer wraps obscheck functions by name; these tests check
that every name it wraps still exists, without importing the benchmark.  The
others keep the public API free of private keyword arguments, every error
class a `ValueError`, the modules free of each other's private names and
private attributes and of self-naming nested functions, `pathregex` with one
reader of a tick step's counts, path expressions compiled as trees, the
state-count bound of the fixpoint loops written once, every star and tick
step run by one search and every linear binder by the frontier loop, every
default of the shared command-line parser immutable, the import of
`obscheck.cli` free of `dataclasses`, `inspect` and `typing`, the truth
of a label expression memoized in one place, on the expression, and a
failing property test reported with its falsifying example under the
project's warning filters."""

import argparse
import ast
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import obscheck
from obscheck import cli, lts, mucalc, pathregex
from obscheck.lts import Atom, Lts
from obscheck.lts import Not as LabelNot

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _wrapped_names() -> list[tuple[str, str]]:
    """(layer, qualname) of every SPANNED entry and of every
    `patch.replace(layer, qualname, ...)` call with literal names."""
    tree = ast.parse(TRACING.read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANNED" for t in node.targets
        ):
            for layer, qualnames in ast.literal_eval(node.value).items():
                names += [(layer, qualname) for qualname in qualnames]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "replace"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "patch"
            and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
        ):
            names.append((node.args[0].value, node.args[1].value))
    return list(dict.fromkeys(names))


WRAPPED = _wrapped_names()


def test_the_tracer_wraps_both_kinds():
    layers = {layer for layer, _ in WRAPPED}
    assert {"timednet", "checker", "lts"} <= layers
    assert ("timednet", "explore_full") in WRAPPED and ("lts", "Lts.post_bits") in WRAPPED


@pytest.mark.parametrize("layer, qualname", WRAPPED)
def test_wrapped_name_resolves(layer, qualname):
    """Resolved as the tracer resolves it: attributes down the dotted path,
    then the last part looked up in its owner's own namespace."""
    owner = importlib.import_module(f"obscheck.{layer}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


def test_private_parameters_of_the_public_api():
    """Underscore parameters would be hooks for sharing work between calls;
    the public functions and methods of obscheck carry none."""
    found = []
    for info in pkgutil.iter_modules(obscheck.__path__):
        module = importlib.import_module(f"obscheck.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        functions.append((f"{name}.{attr}", member))
            for qualname, function in functions:
                found += [
                    f"{info.name}.{qualname}.{param}"
                    for param in inspect.signature(function).parameters
                    if param.startswith("_")
                ]
    assert found == []


def test_every_error_is_a_value_error():
    """`cli.main` maps bad input to exit 2 with one `ValueError` handler, so
    every exception class obscheck defines must be one."""
    errors = [
        obj
        for info in pkgutil.iter_modules(obscheck.__path__)
        for name, obj in vars(importlib.import_module(f"obscheck.{info.name}")).items()
        if inspect.isclass(obj) and obj.__module__ == f"obscheck.{info.name}" and name.endswith("Error")
    ]
    assert errors
    assert [e.__qualname__ for e in errors if not issubclass(e, ValueError)] == []


def test_no_private_names_cross_modules():
    """No obscheck module imports a private name from another, apart from
    the shared `_scan` module, so work is not shared through private helpers
    either."""
    crossings = []
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if (node.level or module.startswith("obscheck")) and module.rpartition(".")[2] != "_scan":
                crossings += [
                    f"{path.stem}: from {'.' * node.level}{module} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert crossings == []


def _private(name) -> bool:
    return isinstance(name, str) and name.startswith("_") and not name.endswith("__")


def _attributes(tree) -> tuple[set[str], set[str]]:
    """(private attribute names the module defines, private attribute names
    it reads).  It defines a name by a def, a class, an assignment, a
    `__slots__` entry or a `_set(obj, name, ...)` call, and reads one by
    `obj.name` or `getattr(obj, name, ...)`."""
    defined, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute):
            (read if isinstance(node.ctx, ast.Load) else defined).add(node.attr)
        elif isinstance(node, ast.Assign) and "__slots__" in [getattr(t, "id", None) for t in node.targets]:
            defined.update(n.value for n in ast.walk(node.value) if isinstance(n, ast.Constant))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and len(node.args) >= 2:
            name = node.args[1].value if isinstance(node.args[1], ast.Constant) else None
            if node.func.id == "_set":
                defined.add(name)
            elif node.func.id == "getattr":
                read.add(name)
    return {n for n in defined if _private(n)}, {n for n in read if _private(n)}


def test_no_module_reads_another_modules_private_attributes():
    """Every private attribute an obscheck module reads is one that module
    defines, so a module reaches the objects of another only through their
    public names: `mucalc` reaches the graph through `Lts`'s image and
    search methods, not its adjacency lists."""
    crossings, reads = [], set()
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        defined, read = _attributes(ast.parse(path.read_text()))
        crossings += [f"{path.stem}: {name}" for name in sorted(read - defined)]
        reads |= {(path.stem, name) for name in read}
    assert crossings == []
    assert {("pathregex", "_compiled"), ("fott", "_plans"), ("lts", "_truth")} <= reads


def test_no_nested_function_names_itself():
    """A nested function that loads its own name holds its own closure cell,
    a reference cycle that keeps each call's working state, and whatever it
    closes over, alive until the cycle collector runs; a recursive walk is a
    module-level function that takes its state as arguments instead."""
    found = set()
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = (n for n in ast.walk(inner) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
                    if any(n.id == inner.name for n in names):
                        found.add(f"{path.stem}: {inner.name} in {outer.name}")
    assert found == set()


def test_every_parser_default_is_immutable():
    """`cli.main` shares one parser between calls, which is safe only while
    no action default is a value a call could change."""
    parsers = [cli._PARSER]
    defaults = []
    for parser in parsers:
        for action in parser._actions:
            defaults.append((parser.prog, action.dest, action.default))
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    assert len(parsers) == 7
    # argparse.SUPPRESS is a str
    assert [entry for entry in defaults if type(entry[2]) not in (type(None), bool, int, str)] == []



def _concrete_subclasses(cls) -> set[type]:
    found, todo = set(), [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            found.add(sub)
            todo.append(sub)
    return found


def _node_types(node, base) -> set[type]:
    """The types of `node` and of every `base` instance under it."""
    found, todo = set(), [node]
    while todo:
        node = todo.pop()
        found.add(type(node))
        todo += [value for name in node._fields if isinstance(value := getattr(node, name), base)]
    return found


# Between them, these formulas hold a node of every type, printed as
# print_mu prints them.
FORMULAS = [
    "T",
    "`0",
    "min X | (-X => X)",
    "max Y | ((Y /\\ <a>Y <=> Y o (-b)) \\/ Y)",
    "`0 o a * (-t) o Tick o Tick{2,5}",
]

# Other spellings of the same nodes, which print_mu prints as given here.
RESPELLED = {"max Y | Y<-b>": "max Y | Y o (-b)"}

# Every path-expression node and step type, in its documented spelling.
REGEXES = {
    "eps": pathregex.EPS,
    "a . b* \\/ Tick": pathregex.Union(
        pathregex.seq_of([pathregex.One(Atom("a")), pathregex.Star(Atom("b"))]),
        pathregex.Seq(pathregex.EPS, pathregex.Tick()),
    ),
    "Tick{2,5}": pathregex.Seq(pathregex.EPS, pathregex.Tick(2, 5)),
}


def test_every_formula_node_round_trips_through_the_concrete_syntax():
    """A formula node that the printer or the parser does not know fails here."""
    formulas = [mucalc.parse_mu(text) for text in FORMULAS]
    covered = set().union(*(_node_types(f, mucalc.MuFormula) for f in formulas))
    assert _concrete_subclasses(mucalc.MuFormula) <= covered
    for text, f in zip(FORMULAS, formulas):
        assert mucalc.print_mu(f) == text
        assert mucalc.parse_mu(mucalc.print_mu(f)) == f
    for text, printed in RESPELLED.items():
        assert mucalc.print_mu(mucalc.parse_mu(text)) == printed
        assert mucalc.parse_mu(text) == mucalc.parse_mu(printed)


def test_one_node_per_formula_operator():
    """`f<A>` and `f o A` are one node, the backward diamond."""
    assert {cls.__name__ for cls in _concrete_subclasses(mucalc.MuFormula)} == {
        "TrueConst",
        "InitConst",
        "Var",
        "Not",
        "And",
        "Or",
        "Implies",
        "Iff",
        "FwdDiamond",
        "BwdDiamond",
        "Min",
        "Max",
        "SuffixStar",
        "SuffixTicks",
    }


def test_every_path_step_has_a_concrete_syntax():
    """A path-expression node or step that the parser does not know fails here."""
    kinds = (pathregex.PathRegex, pathregex.Step)
    covered = set().union(*(_node_types(regex, kinds) for regex in REGEXES.values()))
    assert set().union(*map(_concrete_subclasses, kinds)) <= covered
    for text, regex in REGEXES.items():
        assert pathregex.parse_regex(text) == regex


def test_one_tick_label_and_one_tick_step():
    """The tick label is spelled once, as `lts.TICK_LABEL`, and a path
    expression has one tick step, `Tick{lo,hi}`, plain `Tick` included."""
    found = []
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Constant) and node.value == "t":
                found.append(f"{path.stem}: {lines[node.lineno - 1].strip()}")
    assert found == ['lts: TICK_LABEL = "t"']
    assert _concrete_subclasses(pathregex.Step) == {pathregex.One, pathregex.Star, pathregex.Tick}


def test_one_reader_of_the_tick_counts_in_pathregex():
    """A path expression turns into states in one place: inside `pathregex`,
    only the automaton compiler reads a `Tick`'s counts, and only the node
    itself checks them, as it is built."""
    tree = ast.parse((Path(obscheck.__file__).parent / "pathregex.py").read_text())
    readers, checkers = set(), set()
    for top in tree.body:
        functions = [(top.name, top)] if isinstance(top, ast.FunctionDef) else []
        if isinstance(top, ast.ClassDef):
            functions = [(f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, ast.FunctionDef)]
        for name, function in functions or [("<module>", top)]:
            for n in ast.walk(function):
                if isinstance(n, ast.Attribute) and n.attr in ("lo", "hi"):
                    readers.add(name)
                if isinstance(n, ast.Name) and n.id == "tick_count_error" and isinstance(n.ctx, ast.Load):
                    checkers.add(name)
    assert readers == {"_nfa_ends"}
    assert checkers == {"Tick.__init__"}


def test_path_expressions_are_compiled_as_trees():
    """Neither compiler of path expressions keys a memo on object identity:
    each expression is a tree, compiled node by node."""
    found = []
    for name in ("pathregex", "mucompile"):
        tree = ast.parse((Path(obscheck.__file__).parent / f"{name}.py").read_text())
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
        ]
    assert found == []


def test_the_tick_count_rule_is_written_once():
    """Each tick-count message is spelled once, in `_scan`, whose one check
    the parser and every tick node call."""
    messages = ("empty tick count range", "over the limit of")
    found = []
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                found += [(path.stem, message) for message in messages if message in node.value]
    assert sorted(found) == [("_scan", message) for message in messages]


def test_the_malformed_line_rule_is_written_once():
    """The `.net` parser spells "malformed" once, in `_match`, which every
    declaration, transition body, window, guard and assignment goes through."""
    tree = ast.parse((Path(obscheck.__file__).parent / "timednet.py").read_text())
    found = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "malformed" in node.value
    ]
    match = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_match")
    assert len(found) == 1 and any(node is found[0] for node in ast.walk(match))


def test_the_anchoring_message_is_written_once():
    """`fott` spells "not anchored" in one string constant, which both the
    stuck step of a plan and `check_anchored` raise."""
    tree = ast.parse((Path(obscheck.__file__).parent / "fott.py").read_text())
    found = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "not anchored" in node.value
    ]
    assert found == ["formula is not anchored: no constraint is ready to solve"]


BANNED = ("dataclasses", "typing", "exec", "eval")


def test_no_heavy_imports_and_no_generated_code():
    """The node classes are written out: no module imports `dataclasses` or
    `typing` (the abstract collection types come from `collections.abc`), and
    none calls `exec` or `eval`."""
    found = []
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                names = [node.id] if isinstance(node, ast.Name) else []
            found += [f"{path.stem}: {name}" for name in names if name in BANNED]
    assert found == []


def test_the_command_line_loads_no_heavy_module():
    """Without `site`, which may load `typing` itself, importing the command
    line loads neither `dataclasses`, nor `inspect`, nor `typing`."""
    src = str(Path(obscheck.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import obscheck.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_the_state_count_bound_is_written_once():
    """`mucalc` spells the state-count bound message in one constant, which
    both fixpoint loops raise."""
    tree = ast.parse((Path(obscheck.__file__).parent / "mucalc.py").read_text())
    found = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "state-count bound" in node.value
    ]
    raised = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and any(isinstance(n, ast.Name) and n.id == "_BOUND_EXCEEDED" for n in ast.walk(node))
    ]
    assert found == [mucalc._BOUND_EXCEEDED] == ["fixpoint exceeded the state-count bound"]
    assert len(raised) == 2


def _frontier_binders(f, monkeypatch) -> list:
    """The binder node of every `mucalc._frontier` call that evaluating `f` makes."""
    binders = []
    frontier = mucalc._frontier

    def recorded(g, cur, binder):
        binders.append(binder[0])
        return frontier(g, cur, binder)

    monkeypatch.setattr(mucalc, "_frontier", recorded)
    mucalc.eval_mu(Lts(3, 0, [(0, "z", 1), (1, "a", 2), (2, "b", 0), (1, "t", 0)]), f)
    return binders


def test_stars_and_tick_steps_run_one_search_each(monkeypatch):
    """`f * A` is one search along A, and `f o Tick{lo,hi}` one search along
    `-t` per tick count, none of them a round of the frontier loop."""
    searches = []
    search = lts._search

    def recorded(todo, edges, matches, seen):
        searches.append(matches)
        return search(todo, edges, matches, seen)

    monkeypatch.setattr(lts, "_search", recorded)
    f = mucalc.parse_mu("`0 * z o Tick{1,3}")
    assert _frontier_binders(f, monkeypatch) == []
    # The second count's set is the first's, so the loop stops there.
    expected = [f.arg.label, lts.NOT_TICK, lts.NOT_TICK]
    assert [truth is lts.label_truth(expr) for truth, expr in zip(searches, expected, strict=True)] == [True] * 3


# (formula, whether its binder runs the frontier loop): a binder is linear
# when its variable occurs once, under \/, diamonds, stars, tick steps and
# an /\ whose other side does not mention it.
BINDERS = [
    ("min X | <a>T \\/ <z>X", True),
    ("min X | <a>T \\/ (<z>X /\\ <b>T)", True),
    ("min X | `0 \\/ X o a * b o Tick{0,2}", True),
    ("min X | <a>X \\/ <b>X", False),
    ("min X | <a>T \\/ (<a>X /\\ <b>X)", False),
    ("min X | <a>T \\/ --X", False),
    ("min X | <a>T \\/ (T => X)", False),
    ("min X | <a>T \\/ <z>(min Y | X \\/ <b>Y)", False),
    ("max X | <a>T \\/ <z>X", False),
]


@pytest.mark.parametrize("text, linear", BINDERS)
def test_linear_binders_run_the_frontier_loop(text, linear, monkeypatch):
    """A linear `min` binder runs `mucalc._frontier`, called with the binder
    node; every other binder keeps the plain loop."""
    f = mucalc.parse_mu(text)
    assert (f in _frontier_binders(f, monkeypatch)) == linear


def _function_codes(path: Path):
    """The code object of every function in the source at `path`, nested ones included."""
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        nested = [const for const in code.co_consts if inspect.iscode(const)]
        yield from nested
        todo += nested


def test_label_truth_is_the_one_memo_of_label_truth():
    """An `Lts` keeps no table per label expression, `lts._Truth`, the memo
    `label_truth` keeps on each expression, is the one mapping that fills
    itself, and apart from it only the routes kept independent of the
    evaluator call `eval_label_expr`: the product oracle, `match_word`'s
    automaton step and `Nfa.accepts`."""
    g = Lts(2, 0, [(0, "a", 1), (1, "t", 0)])
    for expr in (Atom("a"), LabelNot(Atom("t")), lts.TOP):
        g.post_bits(0b11, expr)
        g.pre_bits(0b11, expr)
    assert [name for name, value in vars(g).items() if isinstance(value, dict)] == []
    callers, missing = set(), set()
    for path in sorted(Path(obscheck.__file__).parent.glob("*.py")):
        for code in _function_codes(path):
            if "eval_label_expr" in code.co_names:
                callers.add(f"{path.stem}.{code.co_qualname}")
            if code.co_name == "__missing__":
                missing.add(f"{path.stem}.{code.co_qualname}")
    assert missing == {"lts._Truth.__missing__"}
    assert callers == {
        "lts.eval_label_expr",
        "lts._Truth.__missing__",
        "pathregex.Nfa.accepts",
        "pathregex.match_word",
        "pathregex._product_bits",
    }
    for function in (pathregex._product_bits, pathregex.match_word, pathregex.Nfa.accepts):
        assert "eval_label_expr" in function.__code__.co_names
        assert "label_truth" not in function.__code__.co_names
    assert isinstance(lts.label_truth(lts.TOP), lts._Truth)


def test_a_failing_property_test_shows_its_falsifying_example(tmp_path):
    """Every warning is an error, yet the deprecation warning raised while
    hypothesis reports a failure must not end the run in an INTERNALERROR
    that hides the falsifying example."""
    test = tmp_path / "test_falsified.py"
    test.write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_small(n):\n    assert n < 5\n"
    )
    argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    out = subprocess.run([sys.executable, *argv, str(test)], cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1
    assert "Falsifying example: test_small(" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
