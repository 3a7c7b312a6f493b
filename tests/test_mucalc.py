import random
import time
from collections import deque

import pytest

from conftest import chain_lts, random_label_expr, random_lts
from obscheck import lts
from obscheck.lts import Atom, Lts, StateSet, Top, eval_label_expr
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
    SuffixO,
    SuffixStar,
    Var,
    check_monotone,
    eval_mu,
    is_tautology,
    parse_mu,
    print_mu,
    tick_suffix,
)
from obscheck._scan import ParseError


def random_formula(rng: random.Random, depth: int, bound: tuple[str, ...]):
    """Closed random formula for printer round-trips (not necessarily monotone)."""
    atoms = [lambda: TRUE, lambda: INIT]
    if bound:
        atoms.append(lambda: Var(rng.choice(bound)))
    if depth == 0:
        return rng.choice(atoms)()
    roll = rng.randrange(12)
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
        return SuffixO(sub(), random_label_expr(rng))
    if roll == 9:
        return SuffixStar(sub(), random_label_expr(rng))
    if roll == 10:
        return tick_suffix(sub())
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
        assert f == SuffixO(SuffixStar(INIT, LNot(Atom("b"))), Atom("b"))

    def test_true_constant(self):
        assert parse_mu("T") == TRUE

    def test_o_tick_abbreviation(self):
        assert parse_mu("`0 o Tick") == tick_suffix(INIT)

    def test_binder_extends_maximally_right(self):
        f = parse_mu("min X | X o a")
        assert f == Min("X", SuffixO(Var("X"), Atom("a")))

    def test_unbound_variable_rejected(self):
        with pytest.raises(ParseError, match="unbound"):
            parse_mu("min X | Y")

    def test_backward_diamond(self):
        assert parse_mu("T<error>") == BwdDiamond(TRUE, Atom("error"))

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
        f = SuffixO(FwdDiamond(Atom("a"), TRUE), Atom("b"))
        assert print_mu(f) == "(<a>T) o b"
        assert parse_mu(print_mu(f)) == f

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
                assert all(least.issubset(other) for other in fixpoints)
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

    def test_chain_takes_one_round_per_state(self, monkeypatch):
        """On a chain of n states, `0 * a needs n - 1 productive rounds, which
        stays inside the state-count bound, and images each state once."""
        n = 300
        g = chain_lts(*["a"] * (n - 1))
        imaged, calls = [0], [0]
        image = lts._image

        def counting_image(bits, masks):
            calls[0] += 1
            imaged[0] += bin(bits).count("1")
            return image(bits, masks)

        monkeypatch.setattr(lts, "_image", counting_image)
        assert eval_mu(g, SuffixStar(INIT, Atom("a"))).is_all
        assert calls[0] == n  # n - 1 productive rounds and the empty last one
        assert imaged[0] == n


class TestTautology:
    def test_true_everywhere(self):
        g = chain_lts("a")
        assert is_tautology(g, TRUE).holds

    def test_initial_only_fails_with_witness(self):
        g = chain_lts("a")
        res = is_tautology(g, INIT)
        assert not res.holds and res.witness == 1
