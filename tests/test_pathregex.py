import gc
import itertools
import random
import weakref

import pytest

from conftest import chain_lts, random_lts, random_regex
from obscheck._scan import ParseError
from obscheck.fott import Interval, eval_fott, present_fott, present_regex
from obscheck.lts import Atom
from obscheck.lts import Not as LNot
from obscheck.pathregex import (
    EPS,
    One,
    Seq,
    Star,
    Tick,
    Union,
    build_nfa,
    match_word,
    oracle_end_states,
    oracle_states,
    oracle_visited_states,
    parse_regex,
)
from obscheck.mucalc import eval_mu
from obscheck.mucompile import compile_both
from obscheck.timednet import builtin_present, describe_state, explore, explore_full

ALPHABET = ("a", "b", "t", "z")


def pres45():
    return present_regex("a", "b", Interval(4, 5, upper_open=True))


class TestParse:
    def test_single_star(self):
        assert parse_regex("(-b)*") == Seq(EPS, Star(LNot(Atom("b"))))

    def test_full_window_branch(self):
        text = "(-b)* . b . (-t)* . Tick . Tick . Tick . Tick . a . T*"
        got = parse_regex(text)
        expected = pres45().right  # the non-trivial branch of the pattern
        assert got == expected

    def test_star_over_sequence_rejected(self):
        with pytest.raises(ParseError, match="label expressions"):
            parse_regex("(a . b)*")

    def test_union_binarized_left(self):
        r = parse_regex("a \\/ b \\/ t")
        assert r == Union(Union(Seq(EPS, One(Atom("a"))), Seq(EPS, One(Atom("b")))), Seq(EPS, One(Atom("t"))))

    def test_eps_keyword(self):
        assert parse_regex("eps") == EPS
        assert parse_regex("eps . a") == Seq(EPS, One(Atom("a")))


class TestTickSteps:
    """A Tick step stands for `t . (-t)*`: the NFA, the word matcher and the
    compiled formulas all read it so."""

    def test_single_tick(self):
        assert_same_meaning(Seq(EPS, Tick()), parse_regex("t . (-t)*"))

    def test_tick_inside_a_sequence(self):
        assert_same_meaning(parse_regex("(-b)* . b . Tick . a"), parse_regex("(-b)* . b . t . (-t)* . a"))

    def test_window_branch_has_four_tick_blocks(self):
        blocks = " . ".join(["t . (-t)*"] * 4)
        spelled = parse_regex(f"(-b)* . b . (-t)* . {blocks} . a . T*")
        assert_same_meaning(pres45().right, spelled)


def assert_same_meaning(regex, spelled, max_length=7):
    """`regex` and `spelled` accept the same words up to `max_length`, by
    build_nfa and by match_word, and their compiled end and visited formulas
    give the same sets on seeded random graphs and on the present model."""
    nfa, spelled_nfa = build_nfa(regex), build_nfa(spelled)
    for length in range(max_length + 1):
        for w in itertools.product(ALPHABET, repeat=length):
            assert nfa.accepts(w) == spelled_nfa.accepts(w) == match_word(regex, w) == match_word(spelled, w), w
    rng = random.Random(5)
    graphs = [random_lts(rng) for _ in range(40)] + [explore(builtin_present(4, 5))]
    formulas, spelled_formulas = compile_both(regex), compile_both(spelled)
    for g in graphs:
        for f, spelled_f in zip(formulas, spelled_formulas):
            assert eval_mu(g, f) == eval_mu(g, spelled_f)


class TestSharedChain:
    def test_branches_extend_one_chain(self):
        # Union(Union(Union(no_trigger, b4), b5), b6), b_k = chain_k . a . T*
        regex = present_regex("a", "b", Interval(4, 7, upper_open=True))
        b4, b5, b6 = regex.left.left.right, regex.left.right, regex.right
        assert b5.head.head.head is b4.head.head
        assert b6.head.head.head is b5.head.head

    def test_nfa_grows_linearly_with_the_window(self):
        small = build_nfa(present_regex("a", "b", Interval(30, 60, upper_open=True)))
        large = build_nfa(present_regex("a", "b", Interval(60, 120, upper_open=True)))
        assert large.num_states <= 2.2 * small.num_states


class TestMatchWord:
    def test_no_trigger_branch(self):
        assert match_word(pres45(), ("z", "z", "z")) is True

    def test_event_after_four_ticks(self):
        assert match_word(pres45(), ("b", "t", "t", "t", "t", "a")) is True

    def test_event_after_five_ticks_is_late(self):
        assert match_word(pres45(), ("b", "t", "t", "t", "t", "t", "a")) is False

    def test_agrees_with_nfa_on_random_regexes(self):
        rng = random.Random(21)
        for _ in range(60):
            r = random_regex(rng, max_steps=4)
            nfa = build_nfa(r)
            for length in range(5):
                for w in itertools.product(ALPHABET, repeat=length):
                    assert match_word(r, w) == nfa.accepts(w), (r, w)

    def test_agrees_with_trace_formula_up_to_length_6(self):
        interval = Interval(4, 5, upper_open=True)
        regex, formula = pres45(), present_fott("a", "b", interval)
        for length in range(7):
            for w in itertools.product(ALPHABET, repeat=length):
                assert match_word(regex, w) == eval_fott(formula, {"x": w})

    def test_expressions_are_freed_after_use(self):
        """Matching and evaluating keep no state that outlives the
        expressions: once dropped, they are collected."""
        refs = []
        for i in range(200):
            a = f"a{i}"
            interval = Interval(i % 5, i % 5 + 1 + i % 3, upper_open=True)
            regex, formula = present_regex(a, "b", interval), present_fott(a, "b", interval)
            word = ("b",) + ("t",) * (i % 7) + (a,)
            assert match_word(regex, word) == eval_fott(formula, {"x": word})
            refs += [weakref.ref(regex), weakref.ref(formula)]
        del regex, formula
        gc.collect()
        assert sum(ref() is not None for ref in refs) == 0


class TestOracles:
    def test_eps_reaches_only_initial(self):
        g = chain_lts("a", "t")
        assert oracle_end_states(g, EPS) == g.set_of([0])
        assert oracle_visited_states(g, EPS) == g.set_of([0])

    def test_single_step(self):
        g = chain_lts("a")
        assert oracle_end_states(g, parse_regex("a")) == g.set_of([1])

    def test_visited_accumulates_prefixes(self):
        g = chain_lts("a", "t")
        assert oracle_visited_states(g, parse_regex("a . t")) == g.set_of([0, 1, 2])
        g = chain_lts("a", "t", "z")
        for text in ("a . Tick", "a . Tick . b"):
            assert oracle_visited_states(g, parse_regex(text)) == g.set_of([0, 1, 2, 3])

    def test_union_under_a_sequence(self):
        """The AST admits a union as the head of a sequence even though the
        concrete syntax only unions whole branches."""
        import itertools as it

        r = Seq(Union(parse_regex("a"), parse_regex("b . b")), One(Atom("t")))
        nfa = build_nfa(r)
        rng = random.Random(23)
        g = chain_lts("a", "t")
        assert oracle_end_states(g, r) == g.set_of([2])
        assert oracle_visited_states(g, r) == g.set_of([0, 1, 2])
        for length in range(5):
            for w in it.product(ALPHABET, repeat=length):
                assert match_word(r, w) == nfa.accepts(w)

    def test_one_product_gives_both_sets(self):
        rng = random.Random(29)
        for _ in range(200):
            g, r = random_lts(rng), random_regex(rng)
            end, visited = oracle_states(g, r)
            assert (end, visited) == (oracle_end_states(g, r), oracle_visited_states(g, r))
            assert end.issubset(visited) and g.initial in visited

    def test_union_distributes(self):
        rng = random.Random(17)
        for _ in range(50):
            g = random_lts(rng, max_states=8)
            r1, r2 = random_regex(rng, 3), random_regex(rng, 3)
            assert oracle_end_states(g, Union(r1, r2)) == (
                oracle_end_states(g, r1) | oracle_end_states(g, r2)
            )
            assert oracle_visited_states(g, Union(r1, r2)) == (
                oracle_visited_states(g, r1) | oracle_visited_states(g, r2)
            )

    def test_pattern_complement_on_generated_graph(self):
        """The states not visited by any pattern-matching trace are exactly
        the late-watch states plus the error states."""
        net = builtin_present(4, 5)
        g, states = explore_full(net)
        outside = oracle_visited_states(g, pres45()).complement()
        expected = set()
        for i, s in enumerate(states):
            info = describe_state(net, s)
            loc = info["locations"]["Present"]
            if loc == "error" or (loc == "watch" and info["clocks"]["Present"] == 1):
                expected.add(i)
        assert set(outside) == expected
        assert len(outside) == 6
