import random
import time
from collections import deque

import pytest

from conftest import LABELS, chain_lts, random_label_expr, random_lts
from obscheck.lts import _DENSE, Atom, Lts, StateSet, Top, eval_label_expr
from obscheck.lts import Not as LNot
from obscheck.lts import Or as LOr
from obscheck.mucalc import (
    INIT,
    TRUE,
    And,
    BwdDiamond,
    EvalError,
    FwdDiamond,
    Iff,
    Implies,
    Max,
    Min,
    Not,
    Or,
    SuffixStar,
    SuffixTicks,
    Var,
    check_monotone,
    eval_all,
    eval_mu,
    is_tautology,
    parse_mu,
    print_mu,
)
from obscheck._scan import MAX_TICK_COUNT, ParseError
from obscheck.pathregex import Tick


def random_formula(rng: random.Random, depth: int, bound: tuple[str, ...]):
    """Closed random formula for printer round-trips (not necessarily monotone)."""
    atoms = [lambda: TRUE, lambda: INIT]
    if bound:
        atoms.append(lambda: Var(rng.choice(bound)))
    if depth == 0:
        return rng.choice(atoms)()
    roll = rng.randrange(13)
    sub = lambda: random_formula(rng, depth - 1, bound)
    if roll == 0:
        return rng.choice(atoms)()
    if roll == 1:
        return Not(sub())
    if roll == 2:
        return And(sub(), sub())
    if roll == 3:
        return Or(sub(), sub())
    if roll == 4:
        return Implies(sub(), sub())
    if roll == 5:
        return Iff(sub(), sub())
    if roll == 6:
        return FwdDiamond(random_label_expr(rng), sub())
    if roll == 7:
        return BwdDiamond(sub(), random_label_expr(rng))
    if roll == 8:
        return BwdDiamond(sub(), random_label_expr(rng))
    if roll == 9:
        return SuffixStar(sub(), random_label_expr(rng))
    if roll == 10:  # one Tick spelled out
        return SuffixStar(BwdDiamond(sub(), Atom("t")), LNot(Atom("t")))
    if roll == 11:
        lo = rng.randint(0, 2)
        return SuffixTicks(sub(), lo, lo + rng.randint(0, 2))
    var = rng.choice(["X", "Y", "Z"])
    body = random_formula(rng, depth - 1, bound + (var,))
    return Min(var, body) if rng.random() < 0.5 else Max(var, body)


class TestParse:
    def test_reach_formula_shape(self):
        f = parse_mu("min X | (<a>T \\/ <-(a\\/b\\/t)>X)")
        silent = LNot(LOr(LOr(Atom("a"), Atom("b")), Atom("t")))
        assert f == Min("X", Or(FwdDiamond(Atom("a"), TRUE), FwdDiamond(silent, Var("X"))))

    def test_postfix_chain_is_left_associative(self):
        f = parse_mu("`0 * (-b) o b")
        assert f == BwdDiamond(SuffixStar(INIT, LNot(Atom("b"))), Atom("b"))

    def test_true_constant(self):
        assert parse_mu("T") == TRUE

    def test_o_tick_abbreviation(self):
        assert parse_mu("`0 o Tick") == SuffixTicks(INIT, 1, 1)

    def test_binder_extends_maximally_right(self):
        f = parse_mu("min X | X o a")
        assert f == Min("X", BwdDiamond(Var("X"), Atom("a")))

    def test_unbound_variable_rejected(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_mu("min X | Y")

    def test_backward_diamond(self):
        assert parse_mu("T<error>") == BwdDiamond(TRUE, Atom("error"))

    def test_both_backward_spellings_are_one_node(self):
        f = parse_mu("T<a \\/ b>")
        assert f == parse_mu("T o (a \\/ b)") == BwdDiamond(TRUE, LOr(Atom("a"), Atom("b")))
        assert print_mu(f) == "T o (a \\/ b)"

    def test_error_condition_text(self):
        f = parse_mu("<error>T \\/ ((T<error> * T) /\\ -(`0 * (-error)))")
        err = Atom("error")
        expected = Or(
            FwdDiamond(err, TRUE),
            And(
                SuffixStar(BwdDiamond(TRUE, err), Top()),
                Not(SuffixStar(INIT, LNot(err))),
            ),
        )
        assert f == expected


class TestPrint:
    def test_constants(self):
        assert print_mu(TRUE) == "T"
        assert print_mu(INIT) == "`0"

    def test_reach_formula_text(self):
        f = Min("X", Or(FwdDiamond(Atom("a"), TRUE), FwdDiamond(
            LNot(LOr(LOr(Atom("a"), Atom("b")), Atom("t"))), Var("X"))))
        assert print_mu(f) == "min X | (<a>T \\/ <-(a \\/ b \\/ t)>X)"

    def test_prefix_diamond_bracketed_left_of_postfix(self):
        f = BwdDiamond(FwdDiamond(Atom("a"), TRUE), Atom("b"))
        assert print_mu(f) == "(<a>T) o b"
        assert parse_mu(print_mu(f)) == f

    def test_label_named_tick_after_o_is_bracketed(self):
        # Bare, it would read back as the tick step `o Tick`.
        f = parse_mu("T<Tick>")
        assert print_mu(f) == "T o (Tick)" and parse_mu(print_mu(f)) == f
        assert print_mu(parse_mu("T * Tick")) == "T * Tick"

    def test_round_trip_1000_random_formulas(self):
        rng = random.Random(42)
        for _ in range(1000):
            f = random_formula(rng, rng.randint(0, 5), ())
            assert parse_mu(print_mu(f)) == f, print_mu(f)


class TestMonotone:
    def test_plain_diamond_ok(self):
        assert check_monotone(parse_mu("min X | <a>X")) is None

    def test_odd_negation_flagged(self):
        path = check_monotone(parse_mu("min X | -X"))
        assert path is not None and path[-1] == "X"

    def test_even_negation_ok(self):
        assert check_monotone(parse_mu("min X | -(-X /\\ T)")) is None

    def test_implication_left_is_negative(self):
        assert check_monotone(Min("X", Implies(Var("X"), TRUE))) is not None
        assert check_monotone(Min("X", Implies(TRUE, Var("X")))) is None

    def test_iff_counts_both_ways(self):
        assert check_monotone(Min("X", Iff(Var("X"), TRUE))) is not None

    def test_polarity_counts_from_the_binder(self):
        # Negations above a binder do not bear on its variable.
        for text in ["-(min X | <a>X \\/ `0)", "(min X | <a>X \\/ `0) <=> T"]:
            assert check_monotone(parse_mu(text)) is None, text
        for text in ["min X | -X", "-(min X | -X)"]:
            path = check_monotone(parse_mu(text))
            assert path is not None and path[-1] == "X", text
        assert check_monotone(parse_mu("-(min X | -X)")) == ["-", "min X", "-", "X"]

    def test_inner_binder_resets_polarity(self):
        assert check_monotone(parse_mu("min X | -(min X | X)")) is None
        assert check_monotone(parse_mu("min X | -(min Y | Y \\/ -X)")) is None
        assert check_monotone(parse_mu("max Y | min X | <a>X /\\ -Y")) == [
            "max Y", "min X", "/\\ right", "-", "Y"
        ]

    def test_shared_subterms_are_walked_once(self):
        # 40 nested Or(f, f) under one binder: 2^40 paths through the tree.
        ok, bad = Var("X"), Not(Var("X"))
        for _ in range(40):
            ok, bad = Or(ok, ok), Or(bad, bad)
        t0 = time.perf_counter()
        assert check_monotone(Min("X", ok)) is None
        assert check_monotone(Min("X", bad)) == ["min X"] + ["\\/ left"] * 40 + ["-", "X"]
        assert time.perf_counter() - t0 < 0.5


class TestEval:
    def test_forward_diamond_on_chain(self):
        g = chain_lts("a", "t")
        assert eval_mu(g, parse_mu("<a>T")) == g.set_of([0])

    def test_backward_diamond_on_chain(self):
        g = chain_lts("a", "t")
        assert eval_mu(g, parse_mu("T<a>")) == g.set_of([1])

    def test_star_covers_reachable_states(self):
        g = Lts(3, 0, [(0, "a", 1), (1, "t", 2), (2, "t", 2)])
        got = eval_mu(g, parse_mu("`0 * T"))
        # independent breadth-first reachability
        seen = {g.initial}
        queue = deque([g.initial])
        while queue:
            s = queue.popleft()
            for _, dst in g.out_edges(s):
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        assert got == g.set_of(seen)

    def test_star_matches_bfs_on_random_graphs(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_lts(rng, max_states=10)
            expr = random_label_expr(rng)
            base = g.set_of(s for s in range(g.num_states) if rng.random() < 0.4)
            got = eval_mu(g, SuffixStar(Var("S"), expr), env={"S": base})
            seen = set(base)
            queue = deque(base)
            while queue:
                s = queue.popleft()
                for lab, dst in g.out_edges(s):
                    if dst not in seen and eval_label_expr(expr, lab):
                        seen.add(dst)
                        queue.append(dst)
            assert got == g.set_of(seen)

    def test_negation_is_complement(self):
        rng = random.Random(5)
        for _ in range(50):
            g = random_lts(rng, max_states=8)
            f = parse_mu("<a>T \\/ T<b>")
            assert eval_mu(g, Not(f)) == eval_mu(g, f).complement()

    def test_non_monotone_rejected(self):
        g = chain_lts("a")
        with pytest.raises(EvalError, match="monotone"):
            eval_mu(g, parse_mu("min X | -X"))

    def test_negated_closed_binder_evaluates(self):
        g = Lts(3, 0, [(0, "a", 1), (1, "b", 2), (2, "a", 0)])
        inner = eval_mu(g, parse_mu("min X | <a>X \\/ `0"))
        assert inner == g.set_of([0, 2])
        assert eval_mu(g, parse_mu("-(min X | <a>X \\/ `0)")) == inner.complement()
        assert eval_mu(g, parse_mu("(min X | <a>X \\/ `0) <=> T")) == inner
        with pytest.raises(EvalError, match="monotone"):
            eval_mu(g, parse_mu("-(min X | -X)"))

    def test_unbound_rejected(self):
        g = chain_lts("a")
        with pytest.raises(EvalError, match="unbound"):
            eval_mu(g, Var("X"))

    def test_env_supplies_free_variables(self):
        g = chain_lts("a")
        s = g.set_of([1])
        assert eval_mu(g, Var("X"), env={"X": s}) == s

    def test_least_fixpoint_equals_enumeration_on_micro_graphs(self):
        """On graphs small enough to enumerate all candidate sets, iteration
        must find exactly the least fixpoint of the body."""
        rng = random.Random(9)
        bodies = [
            Or(FwdDiamond(Atom("a"), TRUE), FwdDiamond(Top(), Var("X"))),
            Or(INIT, BwdDiamond(Var("X"), Top())),
            Or(BwdDiamond(TRUE, Atom("b")), FwdDiamond(Atom("a"), Var("X"))),
        ]
        for _ in range(40):
            g = random_lts(rng, max_states=6)
            for body in bodies:
                got = eval_mu(g, Min("X", body))
                fixpoints = []
                for bits in range(1 << g.num_states):
                    cand = _bits_set(g, bits)
                    if eval_mu(g, body, env={"X": cand}) == cand:
                        fixpoints.append(cand)
                least = min(fixpoints, key=lambda s: len(s))
                assert all((least - other).is_empty for other in fixpoints)
                assert got == least

    def test_greatest_fixpoint_equals_enumeration_on_micro_graphs(self):
        rng = random.Random(10)
        body = And(FwdDiamond(Top(), Var("X")), TRUE)
        for _ in range(20):
            g = random_lts(rng, max_states=5)
            got = eval_mu(g, Max("X", body))
            fixpoints = [
                _bits_set(g, bits)
                for bits in range(1 << g.num_states)
                if eval_mu(g, body, env={"X": _bits_set(g, bits)}) == _bits_set(g, bits)
            ]
            greatest = max(fixpoints, key=lambda s: len(s))
            assert got == greatest


def _bits_set(g, bits):
    return StateSet(g.num_states, bits)


def _closure(g, base, expr):
    """States reachable from `base` along edges matching `expr`, by BFS."""
    seen = set(base)
    queue = deque(seen)
    while queue:
        s = queue.popleft()
        for lab, dst in g.out_edges(s):
            if dst not in seen and eval_label_expr(expr, lab):
                seen.add(dst)
                queue.append(dst)
    return g.set_of(seen)


class TestSemiNaiveStar:
    """`f * A` against a BFS closure computed here, for closed and open `f`."""

    def test_closed_and_open_args_match_bfs(self):
        rng = random.Random(31)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            expr, inner = random_label_expr(rng), random_label_expr(rng)
            base = g.set_of(s for s in range(g.num_states) if rng.random() < 0.3)
            env = {"S": base}
            args = [
                INIT,
                BwdDiamond(TRUE, inner),
                FwdDiamond(inner, TRUE),
                Var("S"),
                Or(Var("S"), BwdDiamond(Var("S"), inner)),
                SuffixStar(Var("S"), inner),
            ]
            for arg in args:
                got = eval_mu(g, SuffixStar(arg, expr), env=env)
                assert got == _closure(g, eval_mu(g, arg, env=env), expr), print_mu(arg)

    def test_star_under_a_binder_matches_bfs(self):
        # min X | `0 * A \/ X<B> * A: the star's argument changes every round.
        rng = random.Random(37)
        for _ in range(60):
            g = random_lts(rng, max_states=10)
            a, b = random_label_expr(rng), random_label_expr(rng)
            got = eval_mu(g, Min("X", SuffixStar(Or(INIT, BwdDiamond(Var("X"), b)), a)))
            expected = _closure(g, {g.initial}, a)
            while True:
                stepped = {d for s in expected for lab, d in g.out_edges(s) if eval_label_expr(b, lab)}
                grown = _closure(g, set(expected) | stepped, a)
                if grown == expected:
                    break
                expected = grown
            assert got == expected

    def test_chain_takes_one_search(self, image_count):
        """On a chain of n states, `0 * a is one search, which enters each
        state once."""
        n = 300
        g = chain_lts(*["a"] * (n - 1))
        assert eval_mu(g, SuffixStar(INIT, Atom("a"))).is_all
        assert image_count.calls == image_count.searches == 1
        assert image_count.entered == n



def _steps(g, expr, forward=True):
    """Per state, its successors (or, forward=False, its predecessors) along
    edges matching `expr`, read off the transitions."""
    out = [set() for _ in range(g.num_states)]
    for src, label, dst in g.transitions:
        if eval_label_expr(expr, label):
            if forward:
                out[src].add(dst)
            else:
                out[dst].add(src)
    return out


def _search(start, moves):
    """Every state reachable from `start` by any number of `moves`, by BFS."""
    seen = set(start)
    queue = deque(seen)
    while queue:
        for dst in moves(queue.popleft()):
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    return seen


def _with_edge(g, expr):
    return {src for src, label, _ in g.transitions if eval_label_expr(expr, label)}


class TestFrontierLoop:
    """Linear least fixpoints, iterated on the frontier, against searches
    written here, which share no code with the evaluator."""

    def test_reach_formula_matches_a_backward_search(self):
        rng = random.Random(53)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            event, internal = random_label_expr(rng), random_label_expr(rng)
            f = Min("X", Or(FwdDiamond(event, TRUE), FwdDiamond(internal, Var("X"))))
            back = _steps(g, internal, forward=False)
            assert eval_mu(g, f) == g.set_of(_search(_with_edge(g, event), back.__getitem__))

    def test_closed_and_side_matches_a_guarded_search(self):
        # min X | <e>T \/ (<i>X /\ <c>T): an i-step back is taken only into a state with a c-edge.
        rng = random.Random(59)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            event, internal, guard = (random_label_expr(rng) for _ in range(3))
            f = Min("X", Or(FwdDiamond(event, TRUE), And(FwdDiamond(internal, Var("X")), FwdDiamond(guard, TRUE))))
            back, allowed = _steps(g, internal, forward=False), _with_edge(g, guard)
            expected = _search(_with_edge(g, event), lambda s: back[s] & allowed)
            assert eval_mu(g, f) == g.set_of(expected)

    def test_variable_under_a_star_matches_a_forward_search(self):
        # min X | (`0 \/ X<b>) * a: the states reached along a- and b-edges.
        rng = random.Random(61)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            a, b = random_label_expr(rng), random_label_expr(rng)
            f = Min("X", SuffixStar(Or(INIT, BwdDiamond(Var("X"), b)), a))
            step_a, step_b = _steps(g, a), _steps(g, b)
            expected = _search({g.initial}, lambda s: step_a[s] | step_b[s])
            assert eval_mu(g, f) == g.set_of(expected)

    def test_variable_under_a_tick_window_matches_a_search(self):
        # min X | `0 \/ X o Tick{lo,hi}: the states reached by any number of
        # moves of lo to hi ticks, each tick followed by non-tick steps.
        rng = random.Random(67)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            lo = rng.randint(0, 2)
            hi = lo + rng.randint(0, 2)
            tick, other = _steps(g, Atom("t")), _steps(g, LNot(Atom("t")))

            def ticks(s):
                # The states lo to hi ticks after s.
                out, cur = set(), {s}
                for k in range(1, hi + 1):
                    cur = _search(set().union(*(tick[q] for q in cur)), other.__getitem__)
                    if k >= lo:
                        out |= cur
                return out

            f = Min("X", Or(INIT, SuffixTicks(Var("X"), lo, hi)))
            assert eval_mu(g, f) == g.set_of(_search({g.initial}, ticks)), (lo, hi)

    def test_non_linear_binder_matches_a_naive_loop(self):
        # min X | <e>T \/ (<a>X /\ <b>X) mentions X twice under an And, so
        # it keeps the plain loop; here a state joins once it has an a- and
        # a b-successor inside.
        rng = random.Random(71)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            event, a, b = (random_label_expr(rng) for _ in range(3))
            f = Min("X", Or(FwdDiamond(event, TRUE), And(FwdDiamond(a, Var("X")), FwdDiamond(b, Var("X")))))
            step_a, step_b = _steps(g, a), _steps(g, b)
            expected = _with_edge(g, event)
            while True:
                grown = expected | {s for s in range(g.num_states) if step_a[s] & expected and step_b[s] & expected}
                if grown == expected:
                    break
                expected = grown
            assert eval_mu(g, f) == g.set_of(expected)
            assert eval_mu(g, Min("X", And(FwdDiamond(a, Var("X")), FwdDiamond(b, Var("X"))))).is_empty
        # State 0 joins on its a-successor from round 1 and its b-successor
        # from round 2, which a loop fed only round 2's states would miss.
        g = Lts(3, 0, [(0, "a", 1), (0, "b", 2), (1, "e", 1), (2, "a", 1), (2, "b", 1)])
        f = Min("X", Or(FwdDiamond(Atom("e"), TRUE), And(FwdDiamond(Atom("a"), Var("X")), FwdDiamond(Atom("b"), Var("X")))))
        assert eval_mu(g, f).is_all

def _ticks_spelled(f, lo: int, hi: int):
    """`f o Tick{lo,hi}` spelled as the union of `f o Tick ... o Tick`, each
    `f o Tick` as `(f o t) * (-t)`."""
    counts = []
    for k in range(hi + 1):
        if k >= lo:
            counts.append(f)
        f = SuffixStar(BwdDiamond(f, Atom("t")), LNot(Atom("t")))
    out = counts[0]
    for g in counts[1:]:
        out = Or(out, g)
    return out


class TestCountedTicks:
    """`f o Tick{lo,hi}` against the union it abbreviates, for closed and
    open `f`; its tick loop images each count's set once."""

    def test_parse_and_print(self):
        f = parse_mu("`0 o b o Tick{2,5} * a")
        assert f == SuffixStar(SuffixTicks(BwdDiamond(INIT, Atom("b")), 2, 5), Atom("a"))
        assert print_mu(f) == "`0 o b o Tick{2,5} * a"
        assert parse_mu("`0 o Tick { 0 , 1 }") == SuffixTicks(INIT, 0, 1)
        assert print_mu(SuffixTicks(FwdDiamond(Atom("a"), TRUE), 1, 1)) == "(<a>T) o Tick"
        spelled = parse_mu("`0 o t * (-t)")  # no longer abbreviated: it is another node
        assert print_mu(spelled) == "`0 o t * (-t)" and spelled != parse_mu("`0 o Tick")
        with pytest.raises(ParseError, match=r"^empty tick count range \{2,1\} \(at offset 9\)$"):
            parse_mu("`0 o Tick{2,1}")
        with pytest.raises(ParseError, match=r"^tick count 1000000000 over the limit of 100000 \(at offset 9\)$"):
            parse_mu("`0 o Tick{0,1000000000}")
        with pytest.raises(ParseError, match=r"^unexpected character '\{' \(at offset 6\)$"):
            parse_mu("`0 o a{1,2}")
        # A label named Tick takes no count: the count is then out of place.
        with pytest.raises(ParseError, match=r"^expected '>', found '\{1,2\}' \(at offset 5\)$"):
            parse_mu("<Tick{1,2}>T")

    @pytest.mark.parametrize("lo, hi, text", [(3, 1, "`0 o Tick{3,1}"), (0, 100_001, "`0 o Tick{0,100001}")])
    def test_a_tick_node_checks_its_count_as_the_parser_does(self, lo, hi, text):
        """So every tick node prints text that parse_mu reads back."""
        with pytest.raises(ParseError) as parsed:
            parse_mu(text)
        message, _, offset = str(parsed.value).rpartition(" (at offset ")
        assert offset == "9)"
        for build in (lambda: SuffixTicks(INIT, lo, hi), lambda: Tick(lo, hi)):
            with pytest.raises(ValueError) as built:
                build()
            assert type(built.value) is ValueError and str(built.value) == message

    @pytest.mark.parametrize("lo", [0, MAX_TICK_COUNT])
    def test_loop_stops_once_a_count_repeats_the_set(self, lo, image_count):
        """On a tick cycle the set of count k + 1 is that of count k, so
        the loop stops there whatever the counts."""
        g = Lts(2, 0, [(0, "a", 1), (1, "t", 1)])
        expected = g.set_of([1]) if lo else g.set_of([0, 1])
        assert eval_mu(g, SuffixTicks(Or(INIT, BwdDiamond(INIT, Atom("a"))), lo, MAX_TICK_COUNT)) == expected
        assert image_count.calls < 10

    def test_matches_the_spelled_union(self):
        rng = random.Random(43)
        for _ in range(150):
            g = random_lts(rng, max_states=12)
            inner = random_label_expr(rng)
            env = {"S": g.set_of(s for s in range(g.num_states) if rng.random() < 0.3)}
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(0, 3)
            for arg in (INIT, BwdDiamond(TRUE, inner), Var("S"), Or(Var("S"), BwdDiamond(Var("S"), inner))):
                got = eval_mu(g, SuffixTicks(arg, lo, hi), env=env)
                assert got == eval_mu(g, _ticks_spelled(arg, lo, hi), env=env), print_mu(arg)

    def test_under_a_binder(self):
        # min X | `0 \/ X o Tick{0,1} reaches what min X | `0 \/ (X o t) * (-t) does.
        rng = random.Random(47)
        for _ in range(60):
            g = random_lts(rng, max_states=10)
            got = eval_mu(g, Min("X", Or(INIT, SuffixTicks(Var("X"), 0, 1))))
            assert got == eval_mu(g, Min("X", Or(INIT, SuffixStar(BwdDiamond(Var("X"), Atom("t")), LNot(Atom("t"))))))

    def test_window_from_0_reuses_the_loop(self, image_count):
        """After `f o Tick{lo,hi}`, the window `f o Tick{0,hi}` over the same
        `f` costs no search; the other way round it runs the loop again, so
        the visited formula of a counted step puts its end first.  The loop
        takes, per tick count, the `t` image of the count before and one
        search from it, which enters that count's two states."""
        g = chain_lts(*["t", "z"] * 20)
        window, every = SuffixTicks(INIT, 5, 9), SuffixTicks(INIT, 0, 9)
        expected = [eval_mu(g, _ticks_spelled(INIT, 5, 9)), eval_mu(g, _ticks_spelled(INIT, 0, 9))]
        assert expected[0] == g.set_of(range(9, 19)) and expected[1] == g.set_of(range(19))
        image_count.calls = image_count.searches = image_count.entered = 0
        assert eval_mu(g, window) == expected[0]
        assert (image_count.calls, image_count.searches, image_count.entered) == (18, 9, 18)
        image_count.calls = 0
        assert eval_all(g, (window, every)) == expected
        assert image_count.calls == 18
        image_count.calls = 0
        eval_all(g, (every, window))
        assert image_count.calls == 36


def _ticks_closure(g, base, lo: int, hi: int):
    """The states lo to hi ticks after those in `base`, each tick a `t` edge
    and then a BFS `_closure` along `-t`."""
    out, cur = set(base) if lo == 0 else set(), set(base)
    for k in range(1, hi + 1):
        cur = set(_closure(g, {dst for s in cur for lab, dst in g.out_edges(s) if lab == "t"}, LNot(Atom("t"))))
        if k >= lo:
            out |= cur
    return g.set_of(out)


class TestSearchMembership:
    """A search keeps the states it has entered in an int in a graph under
    `_DENSE` states, in a set in a larger one.  Around that switch the star
    is the BFS closure and the tick window the union it spells."""

    @pytest.mark.parametrize("n", [_DENSE - 1, _DENSE, _DENSE + 1], ids=["under", "at", "over"])
    def test_both_membership_paths_match_the_references(self, n):
        rng = random.Random(n)
        for _ in range(30):
            edges = [(rng.randrange(n), rng.choice(LABELS), rng.randrange(n)) for _ in range(rng.randint(n, 2 * n))]
            g = Lts(n, 0, edges, extra_labels=LABELS)
            expr, inner = random_label_expr(rng), random_label_expr(rng)
            base = g.set_of(s for s in range(n) if rng.random() < rng.choice((0.05, 0.5, 1)))
            env = {"S": base}
            lo = rng.randint(0, 3)
            hi = lo + rng.randint(0, 3)
            assert eval_mu(g, SuffixStar(Var("S"), expr), env) == _closure(g, base, expr)
            window = SuffixTicks(Var("S"), lo, hi)
            spelled = eval_mu(g, _ticks_spelled(Var("S"), lo, hi), env)
            assert eval_mu(g, window, env) == _ticks_closure(g, base, lo, hi) == spelled
            # A closed argument: the window from 0 is the one its loop left.
            arg = FwdDiamond(inner, TRUE)
            at = eval_mu(g, arg)
            got = eval_all(g, (SuffixTicks(arg, lo, hi), SuffixTicks(arg, 0, hi)))
            assert got == [_ticks_closure(g, at, lo, hi), _ticks_closure(g, at, 0, hi)]


def _monotone_formula(rng: random.Random, free: tuple[str, ...]):
    while True:
        f = random_formula(rng, rng.randint(1, 4), free)
        if check_monotone(f) is None:
            return f


class TestEvalAll:
    """One `eval_all` call evaluates a batch of formulas on one graph, and
    each closed subterm they share by identity once."""

    def test_env_of_another_graph_is_rejected(self):
        g, other = chain_lts("a"), chain_lts("a", "b")
        assert eval_all(g, (TRUE, Var("S")), env={"S": g.set_of([1])}) == [g.set_of([0, 1]), g.set_of([1])]
        with pytest.raises(ValueError, match="different graph"):
            eval_all(g, (TRUE, Var("S")), env={"S": other.set_of([1])})

    def test_batches_match_one_call_per_formula(self, image_count):
        """300 seeded batches share closed subterms by identity (`f`, `-f`,
        `f \\/ h`), every other one under an environment; each gives every
        formula its own set.  The same batch with one unbound or non-monotone
        formula slipped in is refused before any image work."""
        rng = random.Random(61)
        for case in range(300):
            g = random_lts(rng, max_states=12)
            env = {"S": StateSet(g.num_states, rng.getrandbits(g.num_states))} if case % 2 else None
            free = ("S",) if env else ()
            f, h = _monotone_formula(rng, free), _monotone_formula(rng, free)
            batch = (f, Not(f), Or(f, h), h, And(h, Or(f, h)))
            assert eval_all(g, batch, env) == [eval_mu(g, x, env) for x in batch], print_mu(f)
            bad = And(h, Var("U")) if case % 3 else Min("X", And(f, Not(Var("X"))))
            at = rng.randrange(len(batch) + 1)
            image_count.calls = 0
            with pytest.raises(EvalError):
                eval_all(g, batch[:at] + (bad,) + batch[at:], env)
            assert image_count.calls == 0

    def test_closed_subterms_are_shared_within_a_batch(self, image_count):
        g = chain_lts("a", "b", "a")
        star = SuffixStar(INIT, Top())
        assert eval_mu(g, star).is_all
        assert image_count.calls == image_count.searches == 1
        image_count.calls = 0
        batch = (star, Or(Not(star), star), And(star, Var("S")))
        sets = eval_all(g, batch, env={"S": g.set_of([1])})
        assert sets[0].is_all and sets[1].is_all and sets[2] == g.set_of([1])
        assert image_count.calls == image_count.searches - 1 == 1


class TestTautology:
    def test_true_everywhere(self):
        g = chain_lts("a")
        assert is_tautology(g, TRUE).holds

    def test_initial_only_fails_with_witness(self):
        g = chain_lts("a")
        res = is_tautology(g, INIT)
        assert not res.holds and res.witness == 1
