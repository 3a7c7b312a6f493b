import itertools
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_lts, collector_off, random_lts, random_regex
from obscheck._scan import ParseError
from obscheck.fott import Interval, eval_fott, present_fott, present_regex
from obscheck.lts import And as LAnd
from obscheck.lts import Atom, Top
from obscheck.lts import Not as LNot
from obscheck.lts import Or as LOr
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
    seq_of,
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
        text = "(-b)* . b . (-t)* . Tick{4,4} . a . T*"
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

    def test_counted_tick_step(self):
        assert parse_regex("Tick{2,5}") == Seq(EPS, Tick(2, 5))
        assert parse_regex("a . Tick { 0 , 3 } . b") == seq_of([One(Atom("a")), Tick(0, 3), One(Atom("b"))])
        assert parse_regex("Tick{1,1}") == parse_regex("Tick")

    def test_empty_tick_count_range_rejected(self):
        with pytest.raises(ParseError, match=r"^empty tick count range \{3,2\} \(at offset 8\)$"):
            parse_regex("a . Tick{3,2}")
        with pytest.raises(ValueError, match="empty tick count range"):
            Tick(3, 2)

    def test_tick_count_over_the_limit_rejected(self):
        with pytest.raises(ParseError, match=r"^tick count 1000000000 over the limit of 100000 \(at offset 8\)$"):
            parse_regex("b . Tick{0,1000000000}")
        assert parse_regex("Tick{100000,100000}") == Seq(EPS, Tick(100000, 100000))

    @pytest.mark.parametrize("text, offset", [("a . b{1,2}", 5), ("(Tick){1,2}", 6), ("Tick{1,2}{1,2}", 9)])
    def test_a_count_after_anything_but_tick_is_an_unexpected_character(self, text, offset):
        with pytest.raises(ParseError, match=rf"^unexpected character '{{' \(at offset {offset}\)$"):
            parse_regex(text)


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


class TestCountedTicks:
    """`Tick{lo,hi}` means the union of `Tick^k` for k from lo to hi."""

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 2), (1, 1), (1, 3), (2, 4)])
    def test_counted_step_is_the_union_of_its_counts(self, lo, hi):
        spelled = " \\/ ".join(" . ".join(["Tick"] * k) or "eps" for k in range(lo, hi + 1))
        assert_same_meaning(parse_regex(f"Tick{{{lo},{hi}}}"), parse_regex(spelled))

    @pytest.mark.parametrize("lo, hi", [(0, 1), (1, 2), (2, 2)])
    def test_counted_step_between_other_steps(self, lo, hi):
        spelled = " \\/ ".join(
            " . ".join(["b*"] + ["Tick"] * k + ["a"]) for k in range(lo, hi + 1)
        )
        assert_same_meaning(parse_regex(f"b* . Tick{{{lo},{hi}}} . a"), parse_regex(spelled))

    @pytest.mark.parametrize("between", [["z*"], []])
    def test_counted_steps_in_a_row(self, between):
        """The exits of one counted step lead into the next, whose own least
        count may be 0."""
        regex = parse_regex(" . ".join(["Tick{1,2}", *between, "Tick{0,2}"]))
        spelled = " \\/ ".join(
            " . ".join(["Tick"] * i + between + ["Tick"] * j) for i in range(1, 3) for j in range(3)
        )
        assert_same_meaning(regex, parse_regex(spelled))


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


def shared_chain_pattern(lo: int, hi: int):
    """The `present` pattern as a branch per tick count from lo to hi, each
    branch extending one shared chain of Ticks:
    Union(Union(Union(no_trigger, b_lo), ...), b_hi), b_k = chain_k . a . T*."""
    not_b = Star(LNot(Atom("b")))
    tick = (One(Atom("t")), Star(LNot(Atom("t"))))  # one Tick, spelled out
    chain = seq_of(tick * lo, seq_of([not_b, One(Atom("b")), tick[1]]))
    regex = Seq(EPS, not_b)
    for _ in range(lo, hi + 1):
        regex = Union(regex, seq_of((One(Atom("a")), Star(Top())), chain))
        chain = seq_of(tick, chain)
    return regex


class TestSharedChain:
    def test_branches_extend_one_chain(self):
        """The branches that extend one chain of Ticks, one per tick count,
        are one counted step in the pattern, with the same meaning."""
        regex = present_regex("a", "b", Interval(4, 7, upper_open=True))
        assert regex.right.head.head.step == Tick(4, 6)
        assert_same_meaning(regex, shared_chain_pattern(4, 6))

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

    def test_long_union_is_walked_without_recursion(self):
        regex = parse_regex(" \\/ ".join(f"a{i}" for i in range(3000)))
        assert match_word(regex, ("a2999",)) is True
        assert match_word(regex, ("b",)) is False

    @pytest.mark.parametrize("lo, hi", [(50, 100), (200, 400)])
    def test_wide_windows_at_their_edges(self, lo, hi):
        """Masks that span many int digits: the tick count decides, on either
        side of each end of the window; a missing event fails, and one more
        trigger in front changes nothing."""
        regex = present_regex("a", "b", Interval(lo, hi, upper_open=True))
        for k in (lo - 1, lo, hi - 1, hi):
            word = ("z", "b") + ("t",) * k + ("a",)
            assert match_word(regex, word) is (lo <= k < hi), k
            assert match_word(regex, ("b",) + word) is (lo <= k < hi), k
            assert match_word(regex, word[:-1]) is False, k
            assert match_word(regex, ("b",) + word[:-1]) is False, k

    def test_expressions_are_freed_after_use(self):
        """Matching and evaluating keep no state that outlives the
        expressions: once dropped, reference counting frees them, with no
        help from the cycle collector."""
        refs = []
        with collector_off():
            for i in range(200):
                a = f"a{i}"
                interval = Interval(i % 5, i % 5 + 1 + i % 3, upper_open=True)
                regex, formula = present_regex(a, "b", interval), present_fott(a, "b", interval)
                word = ("b",) + ("t",) * (i % 7) + (a,)
                assert match_word(regex, word) == eval_fott(formula, {"x": word})
                refs += [weakref.ref(regex), weakref.ref(formula)]
            del regex, formula
            alive = sum(ref() is not None for ref in refs)
        assert alive == 0


class TestOneAutomaton:
    """match_word runs build_nfa's automaton, compiled once per expression."""

    @pytest.mark.parametrize("k", [8, 16, 32, 64])
    def test_optional_ticks_stay_one_chain(self, k):
        regex = seq_of([One(Atom("a")), *[Tick(0, 1)] * k, One(Atom("a"))])
        assert build_nfa(regex).num_states == k + 3
        for j in (0, k, k + 1):
            assert match_word(regex, ("a",) + ("t",) * j + ("a",)) is (j <= k), j

    @pytest.mark.parametrize("n", [250, 500, 1000, 2000])
    def test_wide_union_gives_one_state_per_branch(self, n):
        regex = parse_regex(" \\/ ".join(f"a{i}" for i in range(n)))
        nfa = build_nfa(regex)
        assert nfa.num_states == n + 1
        assert nfa.accepting.bit_count() == n and not nfa.accepting & 1
        assert match_word(regex, (f"a{n - 1}",)) and not match_word(regex, ("b",))

    def test_a_second_sweep_retains_nothing(self):
        """Each step a sweep takes is kept on the expression the first time
        it is taken, so the same words read again add nothing."""
        regex = pres45()
        words = [w for length in range(7) for w in itertools.product(ALPHABET, repeat=length)]
        for w in words:
            match_word(regex, w)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for w in words:
                match_word(regex, w)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained == 0


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
            assert (end - visited).is_empty and g.initial in visited

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


def holds(label, symbol):
    """Label membership, spelled out apart from obscheck.lts."""
    kind = type(label)
    if kind is Atom:
        return label.name == symbol
    if kind is Top:
        return True
    if kind is LNot:
        return not holds(label.arg, symbol)
    if kind is LAnd:
        return holds(label.left, symbol) and holds(label.right, symbol)
    assert kind is LOr
    return holds(label.left, symbol) or holds(label.right, symbol)


def naive_match(regex, word):
    """Whether `word` spells `regex`, by trying every way to split it, last
    step first, on the expression itself."""

    def spells(node, end):  # does word[:end] spell `node`?
        if type(node) is Union:
            return spells(node.left, end) or spells(node.right, end)
        if type(node) is not Seq:  # eps
            return end == 0
        step = node.step
        if type(step) is Tick:  # from lo to hi Ticks, each `t` then any run of other symbols

            def ticks(count, end):  # does word[:end] spell the head and `count` Ticks?
                if count == 0:
                    return spells(node.head, end)
                return any(
                    word[k] == "t" and "t" not in word[k + 1 : end] and ticks(count - 1, k)
                    for k in range(end)
                )

            return any(ticks(count, end) for count in range(step.lo, step.hi + 1))
        if type(step) is One:
            return end > 0 and holds(step.label, word[end - 1]) and spells(node.head, end - 1)
        while not spells(node.head, end):  # a star: give it one more symbol
            if end == 0 or not holds(step.label, word[end - 1]):
                return False
            end -= 1
        return True

    return spells(regex, len(word))


label_exprs = st.recursive(
    st.sampled_from(ALPHABET).map(Atom) | st.just(Top()),
    lambda inner: inner.map(LNot) | st.builds(LAnd, inner, inner) | st.builds(LOr, inner, inner),
    max_leaves=4,
)
counted = st.builds(lambda lo, more: Tick(lo, lo + more), st.integers(0, 2), st.integers(0, 2))
steps = label_exprs.map(One) | label_exprs.map(Star) | st.just(Star(Top())) | st.just(Tick()) | counted
# Sequences may extend unions, which the concrete syntax never writes.
regexes = st.recursive(
    st.just(EPS),
    lambda inner: st.builds(Seq, inner, steps) | st.builds(Union, inner, inner),
    max_leaves=8,
)
words = st.lists(st.sampled_from(ALPHABET), max_size=7).map(tuple)


@settings(max_examples=200, deadline=None)
@given(regexes, st.lists(words, min_size=1, max_size=8))
def test_match_word_agrees_with_naive_backtracking(regex, sample):
    nfa = build_nfa(regex)
    for word in sample:
        assert match_word(regex, word) == nfa.accepts(word) == naive_match(regex, word), word
