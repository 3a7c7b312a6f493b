import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import LABELS, chain_lts, random_label_expr, random_lts
from obscheck.lts import (
    Atom,
    Lts,
    Not,
    Or,
    ParseError,
    StateSet,
    Top,
    eval_label_expr,
    format_label_expr,
    label_truth,
    load_aut,
    parse_label_expr,
    save_aut,
    to_dot,
    _BLOCK,
    _DENSE,
    _bits_of,
    _members,
)
from obscheck.timednet import builtin_present, explore


class TestLabelExpr:
    def test_union_of_atoms(self):
        assert parse_label_expr("a \\/ b") == Or(Atom("a"), Atom("b"))

    def test_negated_union_matches_silent_label(self):
        expr = parse_label_expr("-(a \\/ b \\/ t)")
        assert eval_label_expr(expr, "z") is True
        assert all(not eval_label_expr(expr, l) for l in ("a", "b", "t"))

    def test_top_matches_everything(self):
        expr = parse_label_expr("T")
        assert expr == Top()
        assert eval_label_expr(expr, "anything") is True

    def test_precedence_not_over_and_over_or(self):
        # -a /\ b \/ c reads as ((-a) /\ b) \/ c
        expr = parse_label_expr("-a /\\ b \\/ c")
        assert eval_label_expr(expr, "c") is True
        assert eval_label_expr(expr, "b") is True
        assert eval_label_expr(expr, "a") is False

    def test_atom_matches_only_itself(self):
        assert eval_label_expr(Atom("a"), "a") is True
        assert eval_label_expr(Not(Atom("t")), "t") is False
        assert eval_label_expr(Or(Atom("a"), Atom("b")), "t") is False

    def test_truth_of_an_expression_that_nobody_else_holds(self):
        """The memo outlives its expression and still answers each text."""
        truth = label_truth(Not(Atom("x")))
        assert (truth["a"], truth["x"]) == (True, False)
        top = label_truth(Top())
        assert top["a"] is True and dict(top) == {"a": True}

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse_label_expr("a \\/ ")
        assert err.value.offset == 5

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_label_expr("   ")

    def test_printer_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            expr = random_label_expr(rng, depth=3)
            assert parse_label_expr(format_label_expr(expr)) == expr


class TestStateSet:
    def test_algebra(self):
        a = StateSet.of(5, [0, 2])
        b = StateSet.of(5, [2, 4])
        assert list(a | b) == [0, 2, 4]
        assert list(a & b) == [2]
        assert list(a.complement()) == [1, 3, 4]
        assert len(a) == 2

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateSet.of(3, [0]) | StateSet.of(4, [0])

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError):
            StateSet.of(3, [3])

    @pytest.mark.parametrize("width", [_DENSE // 2, _DENSE, 5 * _DENSE])
    def test_members_and_bits_agree_with_the_helpers(self, width):
        """On random sets of fewer and of more than `_DENSE` states, with
        repeats and in any order, `of` builds the bits `_bits_of` does and
        iterating walks the members `_members` does, in ascending order,
        the first of them the `least`."""
        rng = random.Random(width)
        for density in (0.0, 0.05, 0.5, 0.95, 1.0):
            states = [s for s in range(width) if rng.random() < density]
            given_order = states + rng.sample(states, len(states) // 3)
            rng.shuffle(given_order)
            bits = sum(1 << s for s in states)
            assert StateSet.of(width, given_order).bits == _bits_of(given_order, width) == bits
            assert list(StateSet(width, bits)) == _members(bits) == states
            assert StateSet(width, bits).least() == (states[0] if states else None)

    @pytest.mark.parametrize(
        "width, states, bad",
        [(3, [0, 3, -1], 3), (3, [-1, 0, 3], -1), (2 * _DENSE, [*range(_DENSE), 9 * _DENSE, -1], 9 * _DENSE)],
        ids=["over", "under", "dense"],
    )
    def test_the_first_state_out_of_range_is_named(self, width, states, bad):
        with pytest.raises(ValueError) as err:
            StateSet.of(width, iter(states))
        assert str(err.value) == f"state {bad} out of range 0..{width - 1}"

    @given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
    def test_complement_de_morgan(self, xs, ys):
        a, b = StateSet.of(8, xs), StateSet.of(8, ys)
        assert (a | b).complement() == a.complement() & b.complement()


class TestPostPre:
    def test_post_examples(self):
        g = chain_lts("a", "t")
        assert g.post_bits(0b001, Atom("a")) == 0b010
        assert g.post_bits(0b001, Atom("t")) == 0
        assert g.post_bits(0b011, Top()) == 0b110

    def test_pre_examples(self):
        g = chain_lts("a", "t")
        assert g.pre_bits(0b100, Atom("t")) == 0b010
        assert g.pre_bits(0b010, Atom("a")) == 0b001
        assert g.pre_bits(0b001, Top()) == 0

    def test_monotone_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_lts(rng, max_states=8)
            expr = random_label_expr(rng)
            small = g.set_of(s for s in range(g.num_states) if rng.random() < 0.3)
            big = small | g.set_of(s for s in range(g.num_states) if rng.random() < 0.3)
            assert g.post_bits(small.bits, expr) & ~g.post_bits(big.bits, expr) == 0
            assert g.pre_bits(small.bits, expr) & ~g.pre_bits(big.bits, expr) == 0

    def test_post_pre_duality_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(40):
            g = random_lts(rng, max_states=7)
            expr = random_label_expr(rng)
            for q in range(g.num_states):
                for q2 in range(g.num_states):
                    fwd = g.post_bits(1 << q, expr) >> q2 & 1
                    bwd = g.pre_bits(1 << q2, expr) >> q & 1
                    assert fwd == bwd

    @pytest.mark.parametrize("size", [_DENSE - 1, _DENSE, _DENSE + 1], ids=["under", "at", "over"])
    def test_both_image_paths_give_the_image_of_the_edges(self, size):
        """A set of `_DENSE` states or more is imaged by the byte walk, a
        smaller one by the lowest-bit loop.  Around that switch, forward and
        backward, the image is the one read off the transitions here."""
        rng = random.Random(size)
        for _ in range(40):
            n = rng.randint(size, 3 * _DENSE)
            edges = [(rng.randrange(n), rng.choice(LABELS), rng.randrange(n)) for _ in range(rng.randint(n, 3 * n))]
            g = Lts(n, 0, edges)
            expr = random_label_expr(rng)
            chosen = set(rng.sample(range(n), size))
            bits = sum(1 << s for s in chosen)
            kept = [(src, dst) for src, label, dst in g.transitions if eval_label_expr(expr, label)]
            assert g.post_bits(bits, expr) == g.set_of({dst for src, dst in kept if src in chosen}).bits
            assert g.pre_bits(bits, expr) == g.set_of({src for src, dst in kept if dst in chosen}).bits


RESERVED = "'T' is reserved for label expressions, not transitions"


class TestLtsConstruction:
    def test_duplicate_transitions_dropped(self):
        g = Lts(2, 0, [(0, "a", 1), (0, "a", 1)])
        assert len(g.transitions) == 1

    def test_reserved_top_label_rejected(self):
        with pytest.raises(ValueError):
            Lts(2, 0, [(0, "T", 1)])

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            Lts(2, 0, [(0, "a", 2)])
        with pytest.raises(ValueError):
            Lts(2, 5, [])

    def test_duplicates_dropped_in_first_seen_order(self):
        g = Lts(3, 0, [(1, "b", 2), (0, "a", 1), (1, "b", 2), (2, "a", 0), (0, "a", 1)])
        assert g.transitions == ((1, "b", 2), (0, "a", 1), (2, "a", 0))

    def test_labels_in_first_appearance_order(self):
        g = Lts(3, 0, [(0, "b", 1), (1, "a", 2), (2, "b", 0)], extra_labels=["c", "a", "d", "c"])
        assert g.labels == ("b", "a", "c", "d")

    @pytest.mark.parametrize(
        "edges, extra, message",
        [
            ([(0, "T", 1)], [], RESERVED),
            ([(0, "a", 2)], [], "transition (0, 'a', 2) leaves the state range"),
            ([(0, "T", 2)], [], "transition (0, 'T', 2) leaves the state range"),
            ([(0, "a", 1), (0, "T", 1), (0, "b", 5)], [], RESERVED),
            ([(0, "a", 1), (0, "b", 5), (0, "T", 1)], [], "transition (0, 'b', 5) leaves the state range"),
            ([(0, "a", 1)], ["T"], RESERVED),
            ([(0, "a", 7)], ["T"], "transition (0, 'a', 7) leaves the state range"),
        ],
    )
    def test_first_fault_is_reported(self, edges, extra, message):
        with pytest.raises(ValueError) as err:
            Lts(2, 0, edges, extra_labels=extra)
        assert str(err.value) == message


class TestAutFormat:
    def test_load_simple_chain(self):
        g = load_aut('des (0, 2, 3)\n(0, "a", 1)\n(1, "t", 2)\n')
        assert g.num_states == 3 and g.initial == 0
        assert set(g.transitions) == {(0, "a", 1), (1, "t", 2)}

    def test_save_is_canonical(self):
        g = Lts(3, 0, [(1, "t", 2), (0, "a", 1)])
        assert save_aut(g) == 'des (0, 2, 3)\n(0, "a", 1)\n(1, "t", 2)\n'
        assert save_aut(load_aut(save_aut(g))) == save_aut(g)

    def test_save_sorts_edges_given_out_of_source_order(self):
        g = Lts(3, 1, [(2, "t", 0), (0, "b", 2), (1, "a", 2), (0, "a", 2), (0, "a", 1)])
        expected = (
            'des (1, 5, 3)\n(0, "a", 1)\n(0, "a", 2)\n(0, "b", 2)\n(1, "a", 2)\n(2, "t", 0)\n'
        )
        assert save_aut(g) == expected
        assert save_aut(g) == expected  # the second call reads the kept sort
        assert g.transitions[0] == (2, "t", 0)

    def test_round_trip_over_generated_graph(self):
        g = explore(builtin_present(4, 5))
        assert load_aut(save_aut(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "des (0, 1, 2)",  # declared transition missing
            'des (0, 1, 2)\n(0, "a", 1)\n(1, "a", 0)',  # one too many
            'des (0, 1, 2)\n(0, "a", 5)',  # target out of range
            'nonsense\n(0, "a", 1)',
            'des (3, 0, 2)',  # initial out of range
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(ValueError):
            load_aut(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("des (0, 0, 0)", "a graph needs at least one state"),
            ('des (0, 1, 0)\n(0, "a", 0)', "a graph needs at least one state"),
            ("des (3, 0, 2)", "initial state 3 out of range 0..1"),
        ],
    )
    def test_state_count_is_checked_before_the_initial_state(self, text, message):
        with pytest.raises(ValueError) as err:
            load_aut(text)
        assert str(err.value) == message


class TestDot:
    def test_plain_digraph(self):
        g = chain_lts("a")
        text = to_dot(g)
        assert text.startswith("digraph")
        assert "0 [shape=doublecircle];" in text
        assert "0 -> 1 [label=a];" in text
        assert "filled" not in text

    def test_highlighted_states_filled(self):
        g = chain_lts("a", "t")
        text = to_dot(g, g.set_of([1, 2]))
        assert text.count("style=filled") == 2

    def test_single_state_graph(self):
        g = Lts(1, 0, [])
        text = to_dot(g)
        assert "0 [shape=doublecircle];" in text
        assert "->" not in text

    def test_highlight_containing_the_initial_state(self):
        g = chain_lts("a", "t")
        assert to_dot(g, g.set_of([2, 0])) == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            "  0 [shape=doublecircle, style=filled];\n"
            "  2 [style=filled];\n"
            "  0 -> 1 [label=a];\n  1 -> 2 [label=t];\n}\n"
        )

    def test_highlight_without_the_initial_state(self):
        g = Lts(4, 2, [(0, "a", 1), (2, "b", 3)])
        assert to_dot(g, g.set_of([3, 1])) == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            "  1 [style=filled];\n"
            "  2 [shape=doublecircle];\n"
            "  3 [style=filled];\n"
            "  0 -> 1 [label=a];\n  2 -> 3 [label=b];\n}\n"
        )

    def test_edges_given_out_of_source_order(self):
        g = Lts(3, 0, [(2, "t", 0), (1, "b", 2), (0, "b", 1), (0, "a", 2)], extra_labels=["c"])
        expected = (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            "  0 [shape=doublecircle];\n"
            "  0 -> 2 [label=a];\n  0 -> 1 [label=b];\n"
            "  1 -> 2 [label=b];\n  2 -> 0 [label=t];\n}\n"
        )
        assert to_dot(g) == expected
        assert save_aut(g).splitlines()[1:] == [
            '(0, "a", 2)', '(0, "b", 1)', '(1, "b", 2)', '(2, "t", 0)'
        ]
        assert to_dot(g) == expected  # after save_aut, from the shared sort

    def test_backslash_and_quote_in_a_label_are_escaped(self):
        g = Lts(2, 0, [(0, "a\\", 1), (1, 'q"', 0)])
        assert to_dot(g) == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            "  0 [shape=doublecircle];\n"
            '  0 -> 1 [label="a\\\\"];\n  1 -> 0 [label="q\\""];\n}\n'
        )

    def test_dot_keywords_in_any_case_are_quoted(self):
        g = Lts(2, 0, [(0, "node", 1), (1, "Graph", 0), (0, "STRICT", 0), (1, "nodes", 1)])
        assert to_dot(g) == (
            "digraph lts {\n  rankdir=LR;\n  node [shape=circle];\n"
            "  0 [shape=doublecircle];\n"
            '  0 -> 0 [label="STRICT"];\n  0 -> 1 [label="node"];\n'
            '  1 -> 0 [label="Graph"];\n  1 -> 1 [label=nodes];\n}\n'
        )


class TestWritersAcrossBlocks:
    """save_aut and to_dot on more edges than two blocks of lines, against
    renderings spelled one line at a time."""

    QUOTED = {"a": "a", "b_2": "b_2", "x y": '"x y"'}

    @pytest.fixture(scope="class")
    def graph(self):
        rng, labels = random.Random(5), list(self.QUOTED)
        edges = [(rng.randrange(3000), rng.choice(labels), rng.randrange(3000)) for _ in range(10_000)]
        g = Lts(3000, 17, edges, extra_labels=["unused"])
        assert len(g.transitions) > 2 * _BLOCK and list(g.transitions) != sorted(g.transitions)
        return g

    def test_save_aut(self, graph):
        lines = [f"des (17, {len(graph.transitions)}, 3000)"]
        lines += [f'({src}, "{label}", {dst})' for src, label, dst in sorted(graph.transitions)]
        assert save_aut(graph) == "\n".join(lines) + "\n"
        assert load_aut(save_aut(graph)) == graph

    @pytest.mark.parametrize("highlight", [None, (0, 17, 2999)])
    def test_to_dot(self, graph, highlight):
        lines = ["digraph lts {", "  rankdir=LR;", "  node [shape=circle];"]
        for state in sorted({17, *(highlight or ())}):
            attrs = ["shape=doublecircle"] if state == 17 else []
            attrs += ["style=filled"] if state in (highlight or ()) else []
            lines.append(f"  {state} [{', '.join(attrs)}];")
        lines += [
            f"  {src} -> {dst} [label={self.QUOTED[label]}];" for src, label, dst in sorted(graph.transitions)
        ]
        lines.append("}")
        marked = None if highlight is None else graph.set_of(highlight)
        assert to_dot(graph, marked) == "\n".join(lines) + "\n"
