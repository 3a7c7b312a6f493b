import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obscheck.fott import (
    And,
    DurIn,
    EqCat,
    EqLit,
    Exists,
    FottError,
    Interval,
    Not,
    and_chain,
    check_anchored,
    eval_fott,
    exists_many,
    free_variables,
    interval_ticks,
    not_in,
    present_fott,
    present_regex,
)
from obscheck.pathregex import Union, match_word, parse_regex


def after_scope(trace: str, event: str, tail: str):
    """`tail` is the part of `trace` after the first occurrence of the event."""
    h1, h2, lit = tail + "'1", tail + "'2", tail + "'e"
    return exists_many(
        (h1, h2, lit),
        and_chain(
            (
                EqLit(lit, (event,)),
                EqCat(trace, h1, h2),
                EqCat(h2, lit, tail),
                not_in(event, h1),
            )
        ),
    )


ALPHABET = ("a", "b", "t", "z")
words = st.lists(st.sampled_from(ALPHABET), max_size=8).map(tuple)


def stretches(symbols: str, longest: int):
    """Words over `symbols` whose length is drawn first, so that long words
    are as likely as short ones."""
    return st.integers(0, longest).flatmap(lambda n: st.tuples(*[st.sampled_from(symbols)] * n))


short_words = stretches(ALPHABET, 5)
# A stretch without `b`, then any symbols: up to 200 symbols in all.
long_words = st.tuples(stretches("atz", 100), stretches(ALPHABET, 100)).map(lambda parts: parts[0] + parts[1])
literals = st.lists(st.sampled_from(ALPHABET), max_size=2).map(tuple)
assignments = st.lists(st.tuples(short_words, short_words), min_size=1, max_size=4)
intervals = st.builds(
    lambda lo, width: Interval(lo, None if width is None else lo + width),
    st.integers(0, 3),
    st.one_of(st.none(), st.integers(0, 2)),
)


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
        with pytest.raises(FottError, match="not anchored"):
            check_anchored(loose, ("x",))

    def test_prefix_of_an_unknown_word_is_rejected(self):
        """`h = x . k` links h and k to the free x, but neither h nor k is a
        piece of a known word, so no plan can solve it: `check_anchored`
        rejects what `eval_fott` would reject."""
        f = exists_many(("h", "k"), EqCat("h", "x", "k"))
        with pytest.raises(FottError, match="not anchored"):
            check_anchored(f, ("x",))
        with pytest.raises(FottError, match="not anchored"):
            eval_fott(f, {"x": ("a",)})


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

    def test_a_literal_bound_twice_with_different_words_is_false(self):
        twice = and_chain((EqLit("q", ("a",)), EqLit("q", ("b",))))
        assert eval_fott(twice, {}) is False
        assert eval_fott(Exists("q", twice), {}) is False
        assert eval_fott(and_chain((EqLit("q", ("a",)), EqLit("q", ("a",)))), {}) is True

    def test_literal_on_an_unassigned_free_name(self):
        f = and_chain((EqLit("q", ("a",)), EqCat("x", "q", "r"), EqLit("r", ("b",))))
        assert eval_fott(f, {"x": ("a", "b")}) is True
        assert eval_fott(f, {"x": ("b", "b")}) is False
        assert eval_fott(f, {"x": ("b", "b"), "q": ("b",)}) is False

    # `x = p . s` and `s = e . r` with the head `e` bound compile to one find
    # step; with nothing after them in the block it only tests for `e` in `x`.
    FIND_PINS = (EqCat("x", "p", "s"), EqCat("s", "e", "r"))
    FIND = exists_many(("p", "s", "r"), and_chain(FIND_PINS))
    FIND_THEN_LIT = exists_many(("p", "s", "r"), and_chain((*FIND_PINS, EqLit("r", ("b",)))))

    def test_find_with_an_empty_head(self):
        assert eval_fott(self.FIND, {"x": (), "e": ()}) is True
        assert eval_fott(self.FIND_THEN_LIT, {"x": ("a", "b"), "e": ()}) is True
        assert eval_fott(self.FIND_THEN_LIT, {"x": ("b", "a"), "e": ()}) is False

    def test_find_with_a_head_of_several_symbols(self):
        ab = {"e": ("a", "b")}
        assert eval_fott(self.FIND, {"x": ("z", "a", "b"), **ab}) is True
        assert eval_fott(self.FIND, {"x": ("a", "z", "b"), **ab}) is False
        assert eval_fott(self.FIND, {"x": ("a",), **ab}) is False
        assert eval_fott(self.FIND_THEN_LIT, {"x": ("a", "b", "a", "b", "b"), **ab}) is True
        assert eval_fott(self.FIND_THEN_LIT, {"x": ("a", "b", "b", "a", "b"), **ab}) is False

    def test_find_whose_tail_is_bound_stays_a_check(self):
        f = exists_many(("p", "s"), and_chain((EqCat("x", "p", "s"), EqCat("s", "e", "r"))))
        assert eval_fott(f, {"x": ("a", "b", "z"), "e": ("b",), "r": ("z",)}) is True
        assert eval_fott(f, {"x": ("a", "b", "z"), "e": ("b",), "r": ("a",)}) is False

    def test_find_whose_tail_is_bound_by_the_split_stays_a_check(self):
        again = exists_many(("p", "s"), and_chain((EqCat("x", "p", "s"), EqCat("s", "e", "p"))))
        assert eval_fott(again, {"x": ("a", "b", "a"), "e": ("b",)}) is True
        assert eval_fott(again, {"x": ("a", "b", "z"), "e": ("b",)}) is False
        loop = exists_many(("p", "s"), and_chain((EqCat("x", "p", "s"), EqCat("s", "e", "s"))))
        assert eval_fott(loop, {"x": ("a",), "e": ()}) is True
        assert eval_fott(loop, {"x": ("a",), "e": ("a",)}) is False

    def test_double_negation_with_a_stuck_middle_block_raises(self):
        """Not(Exists h. Not X) with h anchored only inside X is a forall;
        its middle block cannot run, so it is not read as an existence test."""
        f = Not(Exists("h", Not(EqCat("x", "h", "x"))))
        with pytest.raises(FottError, match="not anchored"):
            eval_fott(f, {"x": ("a",)})

    def test_double_negation_is_an_existence_test(self):
        f = Not(Not(exists_many(("p", "s"), EqCat("x", "p", "s"))))
        assert eval_fott(f, {"x": ("a",)}) is True
        assert eval_fott(Not(Not(Not(Not(not_in("b", "x"))))), {"x": ("a", "b")}) is False

    def test_find_whose_prefix_only_a_later_not_reads(self):
        """The prefix is bound for the Not's block although no step of the
        find's own block reads it."""
        f = exists_many(("p", "s", "r"), and_chain((*self.FIND_PINS, not_in("b", "p"))))
        assert eval_fott(f, {"x": ("z", "a", "b", "a"), "e": ("a",)}) is True
        assert eval_fott(f, {"x": ("b", "a", "a"), "e": ("a",)}) is False
        assert eval_fott(f, {"x": ("b", "a"), "e": ()}) is True

    def test_find_with_a_literal_head_of_several_symbols(self):
        pins = (EqLit("h", ("a", "b")), EqCat("x", "p", "s"), EqCat("s", "h", "r"), EqLit("r", ("z",)))
        f = exists_many(("p", "s", "r", "h"), and_chain(pins))
        assert eval_fott(f, {"x": ("a", "b", "a", "b", "z")}) is True
        assert eval_fott(f, {"x": ("a", "a", "b", "b", "z")}) is False
        assert eval_fott(f, {"x": ("a", "b")}) is False

    def test_find_with_a_head_bound_by_an_assigned_name_reads_it(self):
        """`e` is assigned, so it is no constant of the plan: each call's
        value is searched for."""
        for head, expected in ((("a",), True), (("z",), False), (("z", "a"), True), (("b",), False)):
            assert eval_fott(self.FIND_THEN_LIT, {"x": ("z", "a", "b"), "e": head}) is expected, head

    # A DurIn on the find's prefix right after it is counted by the find.
    def fused_duration(self, interval):
        then_stuck = DurIn("q", Interval(0, None))
        return exists_many(("p", "s", "r", "q"), and_chain((*self.FIND_PINS, DurIn("p", interval), then_stuck)))

    def test_fused_duration_in_an_interval_without_an_integer(self):
        """No prefix fits, so the unanchored conjunct after it is never reached."""
        f = self.fused_duration(Interval(0, 1, lower_open=True, upper_open=True))
        for x in [(), ("a",), ("t", "a"), ("t", "t", "a", "a")]:
            assert eval_fott(f, {"x": x, "e": ("a",)}) is False, x

    def test_fused_unbounded_duration(self):
        f = exists_many(("p", "s", "r"), and_chain((*self.FIND_PINS, DurIn("p", Interval(2, None)))))
        assert eval_fott(f, {"x": ("t", "a", "t", "z", "a", "t"), "e": ("a",)}) is True
        assert eval_fott(f, {"x": ("t", "a", "t", "t", "t"), "e": ("a",)}) is False
        assert eval_fott(f, {"x": ("t", "t", "t", "t"), "e": ()}) is True
        with pytest.raises(FottError, match="not anchored"):
            eval_fott(self.fused_duration(Interval(2, None)), {"x": ("t", "t", "a"), "e": ("a",)})
        assert eval_fott(self.fused_duration(Interval(2, None)), {"x": ("t", "a", "t"), "e": ("a",)}) is False

    def test_long_not_chain_runs_at_the_default_recursion_limit(self):
        chain = and_chain([not_in("b", "x")] * 5000)
        assert eval_fott(chain, {"x": ("a",)}) is True
        assert eval_fott(chain, {"x": ("a", "b")}) is False

    def test_long_straight_chains_run_at_the_default_recursion_limit(self):
        assert eval_fott(and_chain([EqLit("e", ())] * 5000), {"e": ()}) is True
        assert eval_fott(and_chain([DurIn("e", Interval(0, None))] * 5000), {"e": ()}) is True
        assert eval_fott(and_chain([DurIn("e", Interval(0, 0))] * 5000), {"e": ("t",)}) is False

    def test_deep_formulas_are_walked_without_recursion(self):
        chain = and_chain([EqLit("e", ())] * 5000)
        assert free_variables(chain) == {"e"}
        check_anchored(chain, ("e",))
        nested = exists_many(["v"] * 5000, EqLit("v", ("a",)))
        assert free_variables(nested) == frozenset()
        check_anchored(nested, ())
        assert eval_fott(nested, {"v": ("b",)}) is True


def same_words(regex, spelled, longest=6):
    """`regex` and `spelled` match the same words up to `longest` symbols."""
    for length in range(longest + 1):
        for w in itertools.product(ALPHABET, repeat=length):
            assert match_word(regex, w) == match_word(spelled, w), w


class TestPresentRegex:
    def test_window_4_5_is_the_two_branch_union(self):
        got = present_regex("a", "b", Interval(4, 5, upper_open=True))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . Tick{4,4} . a . T*"),
        )
        assert got == expected
        same_words(got, parse_regex("(-b)* \\/ (-b)* . b . (-t)* . Tick . Tick . Tick . Tick . a . T*"), 7)

    def test_window_1_3_has_a_branch_per_tick_count(self):
        """The window is one counted step, which matches what a branch per
        admissible tick count matches."""
        got = present_regex("a", "b", Interval(1, 3, upper_open=True))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . Tick{1,2} . a . T*"),
        )
        assert got == expected
        spelled = Union(
            Union(
                parse_regex("(-b)*"),
                parse_regex("(-b)* . b . (-t)* . Tick . a . T*"),
            ),
            parse_regex("(-b)* . b . (-t)* . Tick . Tick . a . T*"),
        )
        same_words(got, spelled)

    def test_zero_tick_branch(self):
        got = present_regex("a", "b", Interval(0, 1, upper_open=True))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . Tick{0,0} . a . T*"),
        )
        assert got == expected
        same_words(got, parse_regex("(-b)* \\/ (-b)* . b . (-t)* . a . T*"))

    def test_unbounded_window_takes_the_least_count_then_anything(self):
        got = present_regex("a", "b", Interval(2, None))
        expected = Union(
            parse_regex("(-b)*"),
            parse_regex("(-b)* . b . (-t)* . Tick{2,2} . T* . a . T*"),
        )
        assert got == expected
        same_words(got, parse_regex("(-b)* \\/ (-b)* . b . (-t)* . Tick . Tick . T* . a . T*"))

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

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 4),
        st.booleans(),
        st.one_of(st.integers(0, 3), st.none()),
        st.booleans(),
        st.lists(long_words, min_size=1, max_size=3),
    )
    def test_regex_and_formula_agree_on_long_words(self, lo, lo_open, width, hi_open, sample):
        """Words of up to 200 symbols, so that the formula's tests for `b`
        search windows both up to and over the 64 symbols it slices."""
        interval = Interval(lo, None if width is None else lo + width, lo_open, hi_open)
        assume(interval.integer_range() is not None)
        regex = present_regex("a", "b", interval)
        formula = present_fott("a", "b", interval)
        for w in sample:
            assert match_word(regex, w) == eval_fott(formula, {"x": w}), w


# ---------------------------------------------------------------------------
# Reference semantics


def _factors(words) -> set:
    return {w[i:j] for w in words for i in range(len(w) + 1) for j in range(i, len(w) + 1)}


def _literals(f) -> list:
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is And:
            stack += (g.left, g.right)
        elif type(g) is Not:
            stack.append(g.arg)
        elif type(g) is Exists:
            stack.append(g.body)
        elif type(g) is EqLit:
            out.append(g.word)
    return out


def reference(f, asg) -> bool:
    """Brute force: each quantifier ranges over every factor of the assigned
    words and of the formula's literals, which holds every value an anchored
    quantifier can take.  Every free name must be assigned."""
    universe = sorted(_factors([*asg.values(), *_literals(f)]))
    return _holds(f, dict(asg), universe)


def _holds(f, env, universe) -> bool:
    t = type(f)
    if t is Not:
        return not _holds(f.arg, env, universe)
    if t is EqLit:
        return env[f.var] == f.word
    if t is EqCat:
        return env[f.whole] == env[f.prefix] + env[f.suffix]
    if t is DurIn:
        return f.interval.contains(env[f.var].count("t"))
    # A conjunction under quantifiers.  Each quantifier is renamed apart to a
    # (name, n) key; the keys take every value in turn, in order of first
    # use, and each conjunct is checked once all its names have values (a
    # Not, which searches on its own, only once all keys have them).
    conjuncts, stack, ids = [], [(f, {})], itertools.count()
    while stack:
        g, scope = stack.pop()
        if type(g) is And:
            stack += ((g.right, scope), (g.left, scope))
        elif type(g) is Exists:
            stack.append((g.body, {**scope, g.var: (g.var, next(ids))}))
        else:
            conjuncts.append((g, {v: scope.get(v, v) for v in free_variables(g)}))
    keys = [k for _, refs in conjuncts for k in refs.values() if type(k) is tuple]
    keys = list(dict.fromkeys(keys))
    due: list[list] = [[] for _ in range(len(keys) + 1)]
    for g, refs in conjuncts:
        last = max((keys.index(k) + 1 for k in refs.values() if k in keys), default=0)
        due[len(keys) if type(g) is Not else last].append((g, refs))

    def search(i: int, vals: dict) -> bool:
        for g, refs in due[i]:
            if not _holds(g, {v: vals[k] for v, k in refs.items()}, universe):
                return False
        return i == len(keys) or any(search(i + 1, {**vals, keys[i]: u}) for u in universe)

    return search(0, env)


@st.composite
def anchored_formulas(draw, depth: int = 3):
    """A formula over the assigned names x and y in which each quantified name
    is pinned to a literal or to a factor of a name already known, by the
    conjunct right after its quantifier; that conjunct binds it when solved."""
    fresh = (f"q{i}" for i in itertools.count())

    def build(known: list, depth: int):
        v, u = draw(st.sampled_from(known)), draw(st.sampled_from(known))
        shape = draw(st.integers(0, 10 if depth else 3))
        if shape == 0:
            return EqLit(v, draw(literals))
        if shape == 1:
            return EqCat(v, u, draw(st.sampled_from(known)))
        if shape == 2:
            return DurIn(v, draw(intervals))
        if shape == 3:
            return not_in(draw(st.sampled_from("ab")), v)
        if shape == 4:
            return Not(build(known, depth - 1))
        if shape == 5:
            return Not(Not(build(known, depth - 1)))
        if shape == 6:
            return And(build(known, depth - 1), build(known, depth - 1))
        h, h2, h3 = next(fresh), next(fresh), next(fresh)
        if shape == 7:
            pins = [EqLit(h, draw(literals)), EqCat(v, u, h), EqCat(v, h, u), EqCat(v, h, h)]
            return Exists(h, And(draw(st.sampled_from(pins)), build(known + [h], depth - 1)))
        if shape == 8:
            body = And(EqCat(v, h, h2), build(known + [h, h2], depth - 1))
            return exists_many((h, h2), body)
        if shape == 9:
            # A split followed by `h2 = u . h3`: a find when u is bound and h3
            # is not; h3 may also be the split's own prefix h.
            names = (h, h2, h3) if draw(st.booleans()) else (h, h2, h)
            pins = (EqCat(v, h, h2), EqCat(h2, u, names[2]))
            body = build(known + list(names), depth - 1)
            return exists_many(sorted(set(names)), and_chain((*pins, body)))
        event = draw(st.sampled_from("ab"))
        return Exists(h, And(after_scope(v, event, h), build(known + [h], depth - 1)))

    return build(["x", "y"], depth)


class TestReferenceSemantics:
    def test_reference_reads_the_derived_constructors(self):
        for x in itertools.product("ab", repeat=3):
            assert reference(not_in("b", "x"), {"x": x}) == ("b" not in x)
            y = x[x.index("b") + 1 :] if "b" in x else ("z",)
            assert reference(after_scope("x", "b", "y"), {"x": x, "y": y}) == ("b" in x)

    @settings(max_examples=100, deadline=None)
    @given(anchored_formulas(), assignments)
    def test_eval_fott_agrees_with_brute_force(self, f, pairs):
        check_anchored(f, ("x", "y"))
        for x, y in pairs:
            asg = {"x": x, "y": y}
            assert eval_fott(f, asg) == reference(f, asg), asg
