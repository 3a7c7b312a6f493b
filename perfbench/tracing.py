"""Per-layer attribution from outside the program: spans, counters and
retained memory.

Wrappers are put on the public functions of each obscheck module, under every
name obscheck has bound them to, for the length of one pass, and removed
afterwards; untraced passes run the unmodified code.  Three kinds of pass
feed the per-layer metrics:

- span passes: one span per call of a function in SPANNED, giving the
  inclusive times in INCLUSIVE and the self time of each layer;
- counting passes: plain counters (and, for the post/pre image, a clock) on
  the hot functions, which are far too hot for spans, each in a pass of its
  own so that one set of wrappers does not inflate the other's time;
- a tracemalloc pass: bytes that pathregex and fott still hold after a pass
  and a garbage collection.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import sys
import time
import tracemalloc
from array import array

from obscheck.mucalc import MuFormula

LAYERS = ("cli", "checker", "mucompile", "mucalc", "lts", "pathregex", "fott", "timednet")

# Functions that get a span, per layer.  Helpers called per label, per edge or
# per regex node (eval_label_expr, Lts.post_bits/pre_bits/out_edges,
# expand_tick, StateSet operators) are left out: a span around each of their
# millions of calls would cost more than the work it measures.
SPANNED = {
    "cli": ("main",),
    "checker": (
        "full_report",
        "check_eq",
        "check_innocuous",
        "check_inclusion_naive",
        "check_reachable",
        "find_tickless_cycle",
    ),
    "mucompile": (
        "compile_end",
        "compile_visited",
        "compile_both",
        "error_condition",
        "error_entry_region",
        "reach_formula",
    ),
    "mucalc": ("eval_mu", "is_tautology", "check_monotone", "parse_mu", "print_mu"),
    "lts": ("load_aut", "save_aut", "to_dot", "parse_label_expr"),
    "pathregex": (
        "parse_regex",
        "match_word",
        "build_nfa",
        "Nfa.accepts",
        "oracle_end_states",
        "oracle_visited_states",
    ),
    "fott": ("eval_fott", "present_fott", "present_regex"),
    "timednet": ("parse_net", "explore", "explore_full", "builtin_present", "builtin_mouse"),
}

# Inclusive-time metrics: the summed duration of the outermost spans among the
# named functions, so recursion and wrappers calling wrappers count once.
INCLUSIVE = {
    "mucalc.eval_s": ("mucalc.eval_mu",),
    "mucalc.monotone_s": ("mucalc.check_monotone",),
    "pathregex.oracle_s": ("pathregex.oracle_end_states", "pathregex.oracle_visited_states"),
    "pathregex.match_word_s": ("pathregex.match_word",),
    "mucompile.compile_s": ("mucompile.compile_end", "mucompile.compile_visited", "mucompile.compile_both"),
    "fott.eval_s": ("fott.eval_fott",),
    "timednet.parse_s": ("timednet.parse_net",),
    "timednet.explore_s": ("timednet.explore", "timednet.explore_full"),
    "lts.save_aut_s": ("lts.save_aut",),
    "lts.to_dot_s": ("lts.to_dot",),
    "checker.eq_s": ("checker.check_eq",),
    "checker.innocuous_s": ("checker.check_innocuous",),
    "checker.naive_s": ("checker.check_inclusion_naive",),
    "checker.tickless_s": ("checker.find_tickless_cycle",),
}

SELF = tuple(f"{layer}.self_s" for layer in LAYERS)
POST_PRE = ("lts.post_calls", "lts.pre_calls", "lts.post_pre_s")
COUNTS = (
    "lts.label_evals",
    "mucalc.eval_calls",
    "pathregex.products",
    "mucompile.formula_nodes",
    "timednet.states",
    "timednet.transitions",
)
RETAINED = {"pathregex.retained_kb": "pathregex", "fott.retained_kb": "fott"}


# ---------------------------------------------------------------------------
# Rebinding


def _obscheck_modules():
    return [m for name, m in list(sys.modules.items()) if name == "obscheck" or name.startswith("obscheck.")]


class Patch:
    """Replaces obscheck functions wherever obscheck has bound them, and puts
    the originals back on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, layer: str, qualname: str, make) -> None:
        owner = importlib.import_module(f"obscheck.{layer}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        replacement = make(original)
        if path:
            self._set(owner, attr, replacement)
            return
        for module in _obscheck_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._set(module, name, replacement)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)
        return False


# ---------------------------------------------------------------------------
# Spans


class SpanRecorder:
    """Spans kept in flat arrays: name id, parent span, start, end and the
    traced pass they belong to."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.pass_no = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self._pass = -1

    def _name_id(self, name: str) -> int:
        got = self._ids.get(name)
        if got is None:
            got = self._ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _wrapper(self, name: str, fn):
        nid = self._name_id(name)
        names, parents, passes, starts, ends, open_ = (
            self.name, self.parent, self.pass_no, self.start, self.end, self._open
        )
        clock = time.perf_counter
        pass_no = self._pass

        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            passes.append(pass_no)
            ends.append(0.0)
            open_.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                open_.pop()

        return functools.wraps(fn)(span)

    def traced_pass(self, run):
        """Run `run()` with spans on; returns its result and the per-layer
        times of this pass."""
        self._pass += 1
        first = len(self.start)
        with Patch() as patch:
            for layer, names in SPANNED.items():
                for qualname in names:
                    patch.replace(layer, qualname, functools.partial(self._wrapper, f"{layer}.{qualname}"))
            result = run()
        return result, self._summarize(first, len(self.start))

    def _summarize(self, lo: int, hi: int) -> dict[str, float]:
        group_bits = {name: 0 for name in self.names}
        metrics = list(INCLUSIVE)
        for bit, metric in enumerate(metrics):
            for fn_name in INCLUSIVE[metric]:
                if fn_name in group_bits:
                    group_bits[fn_name] |= 1 << bit
        own = [group_bits[n] for n in self.names]
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out = dict.fromkeys(metrics + list(SELF), 0.0)
        dur = [self.end[i] - self.start[i] for i in range(lo, hi)]
        child = [0.0] * (hi - lo)
        above = [0] * (hi - lo)  # groups of the enclosing spans
        for k in range(hi - lo):
            p = self.parent[lo + k] - lo
            if p >= 0:
                child[p] += dur[k]
                above[k] = above[p] | own[self.name[lo + p]]
        for k in range(hi - lo):
            nid = self.name[lo + k]
            out[f"{layer_of[nid]}.self_s"] += dur[k] - child[k]
            fresh = own[nid] & ~above[k]
            bit = 0
            while fresh:
                if fresh & 1:
                    out[metrics[bit]] += dur[k]
                fresh >>= 1
                bit += 1
        return out

    def write(self, path) -> None:
        """Every span recorded, one tab-separated line each, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("pass\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.pass_no[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name[i]]}"
                    f"\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


# ---------------------------------------------------------------------------
# Counting passes


def post_pre_pass(run):
    """Calls of Lts.post_bits and Lts.pre_bits, and the time spent in them."""
    counts = {"lts.post_calls": 0, "lts.pre_calls": 0}
    spent = [0.0]
    clock = time.perf_counter

    def timed(key):
        def make(fn):
            def wrapper(*args):
                counts[key] += 1
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    spent[0] += clock() - t0

            return wrapper

        return make

    with Patch() as patch:
        patch.replace("lts", "Lts.post_bits", timed("lts.post_calls"))
        patch.replace("lts", "Lts.pre_bits", timed("lts.pre_calls"))
        result = run()
    return result, {**counts, "lts.post_pre_s": spent[0]}


def _count_nodes(f) -> int:
    seen: set[int] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for attr in ("arg", "left", "right", "body"):
            child = getattr(node, attr, None)
            if isinstance(child, MuFormula):
                stack.append(child)
    return len(seen)


def counting_pass(run):
    """Label-expression evaluations, evaluator calls, product explorations,
    compiled formula size and explored graph size."""
    counts = dict.fromkeys(COUNTS, 0)

    def calls(key):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def visited_nodes(pick):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["mucompile.formula_nodes"] += _count_nodes(pick(result))
                return result

            return wrapper

        return make

    def graph_size(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["timednet.states"] += result[0].num_states
            counts["timednet.transitions"] += len(result[0].transitions)
            return result

        return wrapper

    with Patch() as patch:
        patch.replace("lts", "eval_label_expr", calls("lts.label_evals"))
        patch.replace("mucalc", "eval_mu", calls("mucalc.eval_calls"))
        patch.replace("pathregex", "oracle_end_states", calls("pathregex.products"))
        patch.replace("mucompile", "compile_both", visited_nodes(lambda pair: pair[1]))
        patch.replace("mucompile", "compile_visited", visited_nodes(lambda f: f))
        patch.replace("timednet", "explore_full", graph_size)
        result = run()
    return result, counts


# ---------------------------------------------------------------------------
# Retained memory


def retained_kb(run_pass) -> dict[str, float]:
    """KiB allocated by code in pathregex and fott during `run_pass()` that
    is still held once the pass's inputs and outputs are dropped and the
    garbage collector has run."""
    files = {
        metric: importlib.import_module(f"obscheck.{module}").__file__
        for metric, module in RETAINED.items()
    }
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        run_pass()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = {s.traceback[0].filename: s.size_diff for s in after.compare_to(before, "filename")}
    return {metric: grown.get(path, 0) / 1024 for metric, path in files.items()}
