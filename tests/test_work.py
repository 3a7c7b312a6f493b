"""Work bounds on the shapes whose cost used to grow faster than their size.
Each test counts work (no wall clock), most on a ladder of sizes up to 2,000,
bounded at 2.2x per doubling or tighter, and the exploration's row reads and
builds on one network."""

import random
from collections import Counter

import pytest

from conftest import LABELS, SIX_OBSERVERS_NET, chain_lts, random_lts
from obscheck import lts, timednet
from obscheck._scan import Node
from obscheck.checker import check_eq, internal_label_expr
from obscheck.fott import And, DurIn, EqCat, eval_fott, exists_many, present_fott, present_regex
from obscheck.lts import Atom, Interval, LabelExpr, Lts
from obscheck.mucalc import INIT, SuffixStar, SuffixTicks, eval_mu, parse_mu
from obscheck.mucompile import reach_formula
from obscheck.timednet import builtin_present, explore, parse_net

LADDER = (500, 1000, 2000)


def internal_chain(n: int) -> Lts:
    """n internal `z` steps to a state where `a` and `t` loop."""
    return Lts(n + 1, 0, [(i, "z", i + 1) for i in range(n)] + [(n, "a", n), (n, "t", n)])


@pytest.mark.parametrize("event", ["a", "t"])
def test_reach_formula_on_an_internal_chain(image_count, event):
    """The reach formula's binder is linear, so each round images only the
    state the round before added: N + 1 bits for `<e>T` on every state, then
    one per chain step, at most 2(N + 1) in all."""
    internal = internal_label_expr([Atom("a")])
    work = []
    for n in LADDER:
        g = internal_chain(n)
        image_count.bits = 0
        assert eval_mu(g, reach_formula(Atom(event), internal)).is_all
        assert image_count.bits <= 2 * (n + 1), n
        work.append(image_count.bits)
    assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1], work


def _grows_linearly(work: list[int]) -> bool:
    return work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1]


def test_a_tick_chain_enters_each_state_once(image_count):
    """On a chain of N/2 `t z` pairs, the initial state's tick window
    {N/4,N/2} is one search per tick count, and each count's search enters
    its two states: N states entered in all, and the bit sets read and built
    stay as wide as the graph a bounded number of times."""
    work = []
    for n in LADDER:
        g = chain_lts(*["t", "z"] * (n // 2))
        image_count.searches = image_count.entered = image_count.words = 0
        assert eval_mu(g, SuffixTicks(INIT, n // 4, n // 2)) == g.set_of(range(n // 2 - 1, n + 1))
        assert (image_count.searches, image_count.entered) == (n // 2, n), n
        work.append(image_count.entered + image_count.words)
    assert _grows_linearly(work), work


def test_a_star_on_a_chain_is_one_search(image_count):
    """The star along `a` from the initial state of an N-step chain of `a`
    edges is one search, which enters each of its N + 1 states once."""
    work = []
    for n in LADDER:
        g = chain_lts(*["a"] * n)
        image_count.searches = image_count.entered = image_count.words = 0
        assert eval_mu(g, SuffixStar(INIT, Atom("a"))).is_all
        assert (image_count.searches, image_count.entered) == (1, n + 1), n
        work.append(image_count.entered + image_count.words)
    assert _grows_linearly(work), work


def test_check_eq_work_grows_linearly_with_the_window(image_count):
    """`check_eq` on `builtin:present` for [N/2,N[: the states fed to the
    images or entered by the searches, and the 64-bit words of the bit sets
    they read and build, each grow at most 2.2x per doubling of the window."""
    bits, words = [], []
    for lo in (250, 500, 1000):
        g = explore(builtin_present(lo, 2 * lo))
        image_count.bits = image_count.words = 0
        report = check_eq(g, present_regex("a", "b", Interval(lo, 2 * lo, upper_open=True)), "error")
        assert report.ok, lo
        bits.append(image_count.bits)
        words.append(image_count.words)
    assert _grows_linearly(bits) and _grows_linearly(words), (bits, words)


@pytest.mark.parametrize(
    "shape",
    [
        lambda a, b, t, z, n: (a, b) * n,
        lambda a, b, t, z, n: (b,) * n,
        lambda a, b, t, z, n: (b, *(z, t) * n, a),
    ],
    ids=["(ab)^n", "b^n", "b(zt)^na"],
)
def test_eval_fott_reads_a_long_word_in_linear_work(symbol_count, shape):
    """`present_fott` over [4,5[ on words of N to 2N + 2 symbols: the
    symbols that the searches, the tick counts and the slice comparisons
    read grow at most 2.2x per doubling of N."""
    f = present_fott("a", "b", Interval(4, 5, upper_open=True))
    symbols = [symbol_count(c) for c in "abtz"]
    work = []
    for n in LADDER:
        word = shape(*symbols, n)
        symbol_count.compared = 0
        eval_fott(f, {"x": word})
        work.append(symbol_count.compared)
    assert _grows_linearly(work), work


def test_eval_fott_counts_a_plain_splits_prefix_as_the_cut_moves(symbol_count):
    """`Exists y, r. x = y . r & DurIn(y, [10^6, inf[)` on `t^N`: the split
    counts its prefix's ticks as the cut moves forward, so the symbols read
    grow at most 2.2x per doubling of N, not with the square of N."""
    f = exists_many(("y", "r"), And(EqCat("x", "y", "r"), DurIn("y", Interval(10**6, None))))
    tick = symbol_count("t")
    work = []
    for n in (250, 500, 1000, 2000):
        symbol_count.compared = 0
        assert eval_fott(f, {"x": (tick,) * n}) is False
        work.append(symbol_count.compared)
    assert all(later <= 2.2 * earlier for earlier, later in zip(work, work[1:])), work


def _label_nodes(f) -> int:
    """The label-expression nodes in `f`, counted by their place in the tree."""
    count, todo = 0, [f]
    while todo:
        node = todo.pop()
        count += isinstance(node, LabelExpr)
        todo += [value for name in node._fields if isinstance(value := getattr(node, name), Node)]
    return count


# A reach formula and a star formula, built afresh for each rung.  The star
# reads `T` as `lts.TOP`, and its tick window takes each `t` step along
# `lts.TICK` and searches along `lts.NOT_TICK`, through their `label_truth`
# memos: three label nodes that the formula does not hold.
FORMULAS = (
    lambda: reach_formula(Atom("a"), internal_label_expr([Atom("a"), Atom("b")])),
    lambda: parse_mu("`0 o z * T o Tick{0,2}"),
)
TICK_NODES = 3
CONSTANTS = (lts.TICK, lts.NOT_TICK, lts.TOP)


def test_label_evaluation_does_not_grow_with_the_graphs(monkeypatch):
    """Fresh formulas on N fresh graphs over {a, b, t, z}: each label node
    is evaluated at most once per label text, however many graphs take an
    image along it, no node is hashed, and the constants' truth memos end
    with one entry per label text seen."""
    for expr in CONSTANTS:
        lts.label_truth(expr).clear()
    counts = {"evals": 0, "hashes": 0}
    evaluate, node_hash = lts.eval_label_expr, Node.__hash__

    def counting_eval(expr, label):
        counts["evals"] += 1
        return evaluate(expr, label)

    def counting_hash(node):
        counts["hashes"] += 1
        return node_hash(node)

    monkeypatch.setattr(lts, "eval_label_expr", counting_eval)
    rng = random.Random(28)
    work = []
    for n in LADDER:
        formulas = [make() for make in FORMULAS]
        graphs = [random_lts(rng) for _ in range(n)]
        counts["evals"] = 0
        monkeypatch.setattr(Node, "__hash__", counting_hash)
        for g in graphs:
            for f in formulas:
                eval_mu(g, f)
        monkeypatch.setattr(Node, "__hash__", node_hash)
        bound = len(LABELS) * (sum(map(_label_nodes, formulas)) + TICK_NODES)
        assert counts["evals"] <= bound, n
        work.append(counts["evals"])
    assert work[2] <= work[1] <= work[0], work
    assert counts["hashes"] == 0
    for expr in CONSTANTS:
        assert lts.label_truth(expr) and set(lts.label_truth(expr)) <= set(LABELS)


class _CountedRows(dict):
    """A group's dict of rows, counting the search's reads of it."""

    reads = 0

    def get(self, field, default=None):
        self.reads += 1
        return super().get(field, default)


def test_exploration_reads_one_row_per_group_and_builds_each_once(monkeypatch):
    """On six observers of the benchmark's shape, a state with nothing
    pending reads one row per group of process fields, there are fewer
    groups than processes, and each group builds one row per field value it
    meets."""
    net = parse_net(SIX_OBSERVERS_NET)
    compiled = timednet._Compiled(net)
    compiled.groups = [(offset, mask, members, _CountedRows()) for offset, mask, members, _ in compiled.groups]
    built = Counter()
    build = timednet._build_row

    def counting_build(members, field):
        built[id(members), field] += 1
        return build(members, field)

    monkeypatch.setattr(timednet, "_build_row", counting_build)
    g, codes = timednet._search(compiled, 10_000)
    quiet = sum(1 for code in codes if not code & ((1 << len(compiled.pending)) - 1))
    assert 0 < quiet < g.num_states
    assert len(compiled.groups) < len(net.processes)
    for _, _, members, rows in compiled.groups:
        assert rows.reads == quiet
        assert {field for key, field in built if key == id(members)} == set(rows)
    assert set(built.values()) == {1}
