import random

from conftest import LABELS, chain_lts, random_lts, random_regex, random_step
from obscheck.fott import Interval, present_regex
from obscheck.lts import Atom, Lts
from obscheck.lts import Not as LNot
from obscheck.lts import Or as LOr
from obscheck.mucalc import (
    INIT,
    TRUE,
    BwdDiamond,
    FwdDiamond,
    Min,
    MuFormula,
    Or,
    Var,
    eval_mu,
    parse_mu,
    print_mu,
)
from obscheck.mucompile import (
    compile_both,
    compile_end,
    compile_visited,
    error_condition,
    error_entry_region,
    reach_formula,
)
from obscheck.pathregex import (
    Eps,
    Seq,
    Union,
    build_nfa,
    match_word,
    oracle_end_states,
    oracle_visited_states,
    parse_regex,
    seq_of,
)
from obscheck.timednet import builtin_mouse, builtin_present, explore, explore_full, describe_state


class TestCompileEnd:
    def test_empty_word_is_the_initial_state(self):
        assert compile_end(parse_regex("eps")) == INIT

    def test_prefix_text(self):
        f = compile_end(parse_regex("(-b)* . b"))
        assert print_mu(f) == "`0 * (-b) o b"

    def test_window_branch_text(self):
        branch = parse_regex("(-b)* . b . (-t)* . Tick . Tick . Tick . Tick . a . T*")
        f = compile_end(branch)
        assert print_mu(f) == "`0 * (-b) o b * (-t) o Tick o Tick o Tick o Tick o a * T"
        assert parse_mu(print_mu(f)) == f

    def test_union_compiles_to_disjunction(self):
        rng = random.Random(2)
        for _ in range(20):
            r1, r2 = random_regex(rng, 3), random_regex(rng, 3)
            assert compile_end(Union(r1, r2)) == Or(compile_end(r1), compile_end(r2))


class TestCompileVisited:
    def test_empty_word(self):
        assert compile_visited(parse_regex("eps")) == INIT

    def test_single_step(self):
        f = compile_visited(parse_regex("a"))
        assert f == Or(INIT, BwdDiamond(INIT, Atom("a")))

    def test_pattern_agrees_with_oracle_on_builtin(self):
        g = explore(builtin_present(4, 5))
        pattern = present_regex("a", "b", Interval(4, 5, upper_open=True))
        assert eval_mu(g, compile_visited(pattern)) == oracle_visited_states(g, pattern)


def distinct_nodes(f: MuFormula) -> int:
    seen, stack = set(), [f]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [getattr(node, a) for a in ("arg", "left", "right", "body") if hasattr(node, a)]
    return len(seen)


class TestLinearSize:
    def test_visited_formula_grows_linearly_with_the_window(self):
        small = compile_visited(present_regex("a", "b", Interval(30, 60, upper_open=True)))
        large = compile_visited(present_regex("a", "b", Interval(60, 120, upper_open=True)))
        assert distinct_nodes(large) <= 2.2 * distinct_nodes(small)

    def test_formula_size_does_not_depend_on_the_window(self):
        sizes = {
            distinct_nodes(compile_visited(present_regex("a", "b", Interval(lo, 2 * lo, upper_open=True))))
            for lo in (30, 3000)
        }
        assert len(sizes) == 1


class TestCountedTicks:
    def test_end_and_visited_text(self):
        regex = parse_regex("b . Tick{2,3} . a")
        end, visited = compile_both(regex)
        assert print_mu(end) == "`0 o b o Tick{2,3} o a"
        assert print_mu(visited) == "`0 \\/ `0 o b \\/ (`0 o b o Tick{2,3} \\/ `0 o b o Tick{0,3}) \\/ `0 o b o Tick{2,3} o a"
        assert (parse_mu(print_mu(end)), parse_mu(print_mu(visited))) == (end, visited)

    def test_one_tick_is_the_count_one_to_one(self):
        """`Tick{1,1}` is `Tick`, and a window from 1 needs no window from 0
        in its visited formula: count 0 is end(R), already visited."""
        assert print_mu(compile_end(parse_regex("a . Tick{1,1}"))) == "`0 o a o Tick"
        assert print_mu(compile_visited(parse_regex("a . Tick{1,3}"))) == "`0 \\/ `0 o a \\/ `0 o a o Tick{1,3}"

    def test_window_from_0_is_its_own_visited_set(self):
        end, visited = compile_both(parse_regex("b . Tick{0,3}"))
        assert print_mu(visited) == "`0 \\/ `0 o b \\/ `0 o b o Tick{0,3}"
        assert visited.right is end


class TestErrorCondition:
    def test_formula_shape(self):
        f = error_condition("error")
        assert f == parse_mu("<error>T \\/ ((T<error> * T) /\\ -(`0 * (-error)))")

    def test_right_operand_is_the_entry_region(self):
        """`full_report` reads the region off the condition's right operand."""
        for label in ("error", "e"):
            assert error_condition(label).right == error_entry_region(label)

    def test_empty_on_error_free_graph(self):
        g = chain_lts("a", "t")
        assert eval_mu(g, error_condition("error")).is_empty

    def test_covers_error_locations_on_builtin(self):
        net = builtin_present(4, 5)
        g, states = explore_full(net)
        condition = eval_mu(g, error_condition("error"))
        assert not condition.is_empty
        for i, s in enumerate(states):
            if describe_state(net, s)["locations"]["Present"] == "error":
                assert i in condition


class TestReachFormula:
    def test_shape_matches_reachability_recursion(self):
        internal = LNot(LOr(LOr(Atom("a"), Atom("b")), Atom("t")))
        f = reach_formula(Atom("a"), internal)
        assert f == Min("X", Or(FwdDiamond(Atom("a"), TRUE), FwdDiamond(internal, Var("X"))))

    def test_tick_variant(self):
        internal = LNot(Atom("t"))
        f = reach_formula(Atom("t"), internal)
        assert f == Min("X", Or(FwdDiamond(Atom("t"), TRUE), FwdDiamond(internal, Var("X"))))

    def test_two_step_reach_on_chain(self):
        g = Lts(3, 0, [(0, "z", 1), (1, "a", 2)])
        internal = LNot(LOr(LOr(Atom("a"), Atom("b")), Atom("t")))
        assert eval_mu(g, reach_formula(Atom("a"), internal)) == g.set_of([0, 1])


class TestOracleEquivalence:
    def test_random_pairs(self):
        """Compiled end/visited formulas and the product-automaton oracles
        must agree on arbitrary graphs and expressions."""
        rng = random.Random(99)
        for _ in range(150):
            g = random_lts(rng)
            r = random_regex(rng)
            end_f, visited_f = compile_both(r)
            assert eval_mu(g, end_f) == oracle_end_states(g, r)
            assert eval_mu(g, visited_f) == oracle_visited_states(g, r)

    def test_builtin_graphs(self):
        pattern = present_regex("a", "b", Interval(4, 5, upper_open=True))
        for g in (explore(builtin_present(4, 5)), explore(builtin_present(3, 4)), explore(builtin_mouse())):
            end_f, visited_f = compile_both(pattern)
            assert eval_mu(g, end_f) == oracle_end_states(g, pattern)
            assert eval_mu(g, visited_f) == oracle_visited_states(g, pattern)


def shared_regex(rng: random.Random):
    """Random regex whose branches extend one chain object, so that one node
    sits in several branches; half of the chains start with a union under a
    sequence."""
    steps = lambda k: [random_step(rng) for _ in range(rng.randint(0, k))]
    chain = seq_of(steps(3))
    if rng.random() < 0.5:
        chain = Seq(Union(chain, seq_of(steps(2))), random_step(rng))
    regex = chain
    for _ in range(rng.randint(1, 3)):
        regex = Union(regex, seq_of(steps(2), chain))
        chain = Seq(chain, random_step(rng))
    return regex


def unshared(regex):
    """A structurally equal copy in which no two branches share a node."""
    if type(regex) is Eps:
        return Eps()
    if type(regex) is Union:
        return Union(unshared(regex.left), unshared(regex.right))
    return Seq(unshared(regex.head), regex.step)


class TestSharedPrefixes:
    def test_shared_dag_matches_its_unshared_copy(self):
        """Compiler, evaluator, product oracles, NFA and matcher give the same
        answers on an expression whose branches share prefix objects as on
        its tree-shaped copy."""
        rng = random.Random(17)
        for _ in range(150):
            g = random_lts(rng)
            shared = shared_regex(rng)
            copy = unshared(shared)
            assert copy == shared
            words = [
                tuple(rng.choice(LABELS) for _ in range(rng.randint(0, 6))) for _ in range(40)
            ]

            def routes(r):
                end_f, visited_f = compile_both(r)
                nfa = build_nfa(r)
                return (
                    eval_mu(g, end_f),
                    eval_mu(g, visited_f),
                    oracle_end_states(g, r),
                    oracle_visited_states(g, r),
                    [nfa.accepts(w) for w in words],
                    [match_word(r, w) for w in words],
                )

            got = routes(shared)
            assert got == routes(copy), shared
            assert got[0] == got[2] and got[1] == got[3] and got[4] == got[5]
            assert build_nfa(shared).num_states <= build_nfa(copy).num_states
