import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obscheck.fott import (
    DurIn,
    EqCat,
    EqLit,
    Exists,
    FottError,
    Interval,
    after_scope,
    and_chain,
    check_anchored,
    delta,
    eval_fott,
    exists_many,
    free_variables,
    interval_ticks,
    not_in,
    present_fott,
    present_regex,
)
from obscheck.pathregex import Union, match_word, parse_regex

ALPHABET = ("a", "b", "t", "z")
words = st.lists(st.sampled_from(ALPHABET), max_size=8).map(tuple)


class TestDelta:
    def test_counts_ticks_only(self):
        assert delta(("t", "t", "z", "a", "t")) == 3

    def test_empty_word(self):
        assert delta(()) == 0

    def test_witness_word(self):
        assert delta(("b", "t", "t", "t", "t", "a")) == 4

    @given(words, words)
    def test_additive_under_concatenation(self, u, v):
        assert delta(u + v) == delta(u) + delta(v)


class TestIntervalTicks:
    def test_half_open_window(self):
        assert interval_ticks(Interval(4, 5, upper_open=True)) == (4, 4)

    def test_point_window(self):
        assert interval_ticks(Interval(2, 2)) == (2, 2)

    def test_open_lower_unbounded(self):
        assert interval_ticks(Interval(1, None, lower_open=True)) == (2, None)

    def test_empty_integer_window_rejected(self):
        with pytest.raises(FottError):
            interval_ticks(Interval(2, 3, lower_open=True, upper_open=True))


class TestEvalPresent:
    def test_trigger_free_word_satisfies(self):
        f = present_fott("a", "b", Interval(4, 5, upper_open=True))
        assert eval_fott(f, {"x": ("a",)}) is True

    def test_event_at_four_ticks(self):
        f = present_fott("a", "b", Interval(4, 5, upper_open=True))
        assert eval_fott(f, {"x": ("b", "t", "t", "t", "t", "a")}) is True

    def test_event_at_five_ticks_fails(self):
        f = present_fott("a", "b", Interval(4, 5, upper_open=True))
        assert eval_fott(f, {"x": ("b", "t", "t", "t", "t", "t", "a")}) is False

    def test_unbounded_window_accepts_any_delay(self):
        f = present_fott("a", "b", Interval(0, None))
        assert eval_fott(f, {"x": ("b", "t", "t", "t", "t", "t", "t", "a")}) is True
        assert eval_fott(f, {"x": ("b", "z", "z")}) is False

    def test_empty_window_rejected(self):
        with pytest.raises(FottError):
            present_fott("a", "b", Interval(2, 3, lower_open=True, upper_open=True))

    def test_same_event_rejected(self):
        with pytest.raises(FottError):
            present_fott("a", "a", Interval(0, 1, upper_open=True))


class TestDerivedConstructors:
    @given(words)
    def test_not_in_agrees_with_scan(self, w):
        f = not_in("b", "x")
        assert eval_fott(f, {"x": w}) == ("b" not in w)

    def test_after_scope_picks_suffix_after_first_event(self):
        f = after_scope("x", "b", "y")
        assert eval_fott(f, {"x": ("z", "b", "t", "a"), "y": ("t", "a")}) is True
        assert eval_fott(f, {"x": ("z", "b", "t", "a"), "y": ("a",)}) is False
        # first occurrence, not an arbitrary one
        assert eval_fott(f, {"x": ("b", "b", "a"), "y": ("b", "a")}) is True
        assert eval_fott(f, {"x": ("b", "b", "a"), "y": ("a",)}) is False

    @given(st.lists(st.sampled_from(ALPHABET), max_size=7).map(tuple), st.data())
    def test_after_scope_agrees_with_direct_suffix(self, x, data):
        suffixes = st.integers(0, len(x)).map(lambda i: x[i:])
        y = data.draw(st.one_of(words, suffixes))
        expected = "b" in x and y == x[x.index("b") + 1 :]
        assert eval_fott(after_scope("x", "b", "y"), {"x": x, "y": y}) == expected

    def test_unanchored_formula_rejected(self):
        loose = Exists("y", and_chain((EqLit("u", ("a",)), DurIn("y", Interval(0, None)))))
        with pytest.raises(FottError, match="unanchored"):
            check_anchored(loose, ("x",))


class TestSolvePlans:
    def test_plans_are_keyed_by_the_assigned_names(self):
        f = EqCat("x", "y", "w")
        assert eval_fott(f, {"x": ("a", "b")}) is True
        assert eval_fott(f, {"x": ("a", "b"), "y": ("b",)}) is False
        assert eval_fott(f, {"x": ("a", "b"), "y": ("a",)}) is True
        assert eval_fott(f, {"x": ("a", "b")}) is True

    def test_unreachable_conjunct_raises_only_when_reached(self):
        f = and_chain((EqLit("x", ("a",)), DurIn("q", Interval(0, None))))
        assert eval_fott(f, {"x": ("b",)}) is False
        with pytest.raises(FottError, match="not anchored"):
            eval_fott(f, {"x": ("a",)})

    def test_quantifier_shadows_an_assigned_name(self):
        assert eval_fott(Exists("x", EqLit("x", ("a",))), {"x": ("b",)}) is True

    def test_assigned_name_does_not_leak_into_a_quantifier(self):
        f = not_in("b", "x")
        assert eval_fott(f, {"x": ("a", "b"), "x'1": ("z",)}) is False
        assert eval_fott(f, {"x": ("a", "z"), "x'1": ("z",)}) is True

    def test_deep_formulas_are_walked_without_recursion(self):
        chain = and_chain([EqLit("e", ())] * 5000)
        assert free_variables(chain) == {"e"}
        check_anchored(chain, ("e",))
        nested = exists_many(["v"] * 5000, EqLit("v", ("a",)))
        assert free_variables(nested) == frozenset()
        check_anchored(nested, ())
        assert eval_fott(nested, {"v": ("b",)}) is True


class TestPresentRegex:
    def test_window_4_5_is_the_two_branch_union(self):
        got = present_regex("a", "b", Interval(4, 5, upper_open=True))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . Tick . Tick . Tick . Tick . a . T*"),
        )
        assert got == expected

    def test_window_1_3_has_a_branch_per_tick_count(self):
        got = present_regex("a", "b", Interval(1, 3, upper_open=True))
        expected = Union(
            Union(
                parse_regex("(-b)*"),
                parse_regex("(-b)* . b . (-t)* . Tick . a . T*"),
            ),
            parse_regex("(-b)* . b . (-t)* . Tick . Tick . a . T*"),
        )
        assert got == expected

    def test_zero_tick_branch(self):
        got = present_regex("a", "b", Interval(0, 1, upper_open=True))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . a . T*"),
        )
        assert got == expected

    @pytest.mark.parametrize(
        "interval",
        [
            Interval(4, 5, upper_open=True),
            Interval(1, 3, upper_open=True),
            Interval(0, 1, upper_open=True),
            Interval(2, 2),
            Interval(1, None),
        ],
        ids=str,
    )
    def test_regex_and_formula_agree_to_length_5(self, interval):
        regex = present_regex("a", "b", interval)
        formula = present_fott("a", "b", interval)
        for length in range(6):
            for w in itertools.product(ALPHABET, repeat=length):
                assert match_word(regex, w) == eval_fott(formula, {"x": w}), w

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 4),
        st.booleans(),
        st.one_of(st.integers(0, 3), st.none()),
        st.booleans(),
        st.lists(words, min_size=1, max_size=10),
    )
    def test_regex_and_formula_agree_on_random_intervals(self, lo, lo_open, width, hi_open, sample):
        interval = Interval(lo, None if width is None else lo + width, lo_open, hi_open)
        assume(interval.integer_range() is not None)
        regex = present_regex("a", "b", interval)
        formula = present_fott("a", "b", interval)
        for w in sample:
            assert match_word(regex, w) == eval_fott(formula, {"x": w}), w
