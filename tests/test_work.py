"""Work bounds on the shapes whose cost used to grow faster than their size.
Each test counts work (no wall clock) on a ladder of sizes up to 2,000 and
bounds it at 2.2x per doubling, or tighter."""

import random

import pytest

from conftest import LABELS, chain_lts, random_lts
from obscheck import lts
from obscheck._scan import Node
from obscheck.checker import check_eq, internal_label_expr
from obscheck.fott import present_regex
from obscheck.lts import Atom, Interval, LabelExpr, Lts
from obscheck.mucalc import INIT, SuffixStar, SuffixTicks, eval_mu, parse_mu
from obscheck.mucompile import reach_formula
from obscheck.timednet import builtin_present, explore

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
