from pathlib import Path

import pytest

from obscheck.checker import find_tickless_cycle, internal_label_expr
from obscheck.lts import Atom
from obscheck.timednet import (
    Cmp,
    Elapse,
    Event,
    ExploreError,
    NetError,
    Process,
    TimedNet,
    Interval,
    Transition,
    VarDecl,
    builtin_mouse,
    builtin_present,
    describe_state,
    explore,
    explore_full,
    parse_net,
)

DATA = Path(__file__).parent / "data"


class TestBuiltinPresent:
    def test_graph_labels(self, present45_graph):
        assert set(present45_graph.labels) == {"a", "b", "z", "t", "start", "watch", "stop", "error"}

    def test_state_count_small(self, present45_graph):
        assert 20 <= present45_graph.num_states <= 40

    def test_error_edges_leave_late_watch_only(self):
        """Every error edge starts in the watch location with the clock at its
        clamp, and there is one error-location state per reachable value of
        the shared variable."""
        net = builtin_present(4, 5)
        g, states = explore_full(net)
        for src, label, dst in g.transitions:
            if label == "error":
                info = describe_state(net, states[src])
                assert info["locations"]["Present"] == "watch"
                assert info["clocks"]["Present"] == 1  # d2 - d1
        error_values = {
            describe_state(net, s)["variables"]["x"]
            for s in states
            if describe_state(net, s)["locations"]["Present"] == "error"
        }
        assert error_values == {0, 1, 2}

    def test_deterministic_exploration(self):
        assert explore(builtin_present(4, 5)) == explore(builtin_present(4, 5))
        a = explore(builtin_present(4, 5)).transitions
        b = explore(builtin_present(4, 5)).transitions
        assert a == b

    def test_no_internal_cycle(self, present45_graph):
        internal = internal_label_expr([Atom("a"), Atom("b")])
        assert find_tickless_cycle(present45_graph, internal) is None

    def test_degenerate_window_starts_watching_immediately(self):
        net = builtin_present(0, 1)
        g, states = explore_full(net)
        # the observer can be in watch with no tick fired yet
        for i, s in enumerate(states):
            info = describe_state(net, s)
            if info["locations"]["Present"] == "watch":
                depth = _bfs_depth(g, i)
                assert all(lab != "t" for lab in depth)
                break
        else:
            pytest.fail("watch never entered")

    def test_empty_window_rejected(self):
        with pytest.raises(NetError):
            builtin_present(4, 4)
        with pytest.raises(NetError):
            builtin_present(5, 4)


def _bfs_depth(g, target):
    from collections import deque

    parent = {g.initial: None}
    queue = deque([g.initial])
    while queue:
        s = queue.popleft()
        if s == target:
            labels = []
            cur = s
            while parent[cur] is not None:
                cur, lab = parent[cur]
                labels.append(lab)
            return list(reversed(labels))
        for lab, dst in g.out_edges(s):
            if dst not in parent:
                parent[dst] = (s, lab)
                queue.append(dst)
    raise AssertionError("target unreachable")


class TestBuiltinMouse:
    def test_shape(self):
        net = builtin_mouse()
        assert len(net.processes) == 2
        assert list(net.variables) == ["dbl"]
        assert net.variables["dbl"].hi == 1

    def test_error_reachable_across_windows(self):
        g = explore(builtin_mouse())
        assert any(label == "error" for _, label, _ in g.transitions)

    def test_delay_outprioritizes_click(self):
        g = explore(builtin_mouse())
        for s in range(g.num_states):
            labels = {lab for lab, _ in g.out_edges(s)}
            assert not ({"delay", "click"} <= labels)


class TestExploreSemantics:
    def test_urgent_event_loop_freezes_time(self):
        net = TimedNet(
            processes=[
                Process(
                    name="Spin",
                    locations=("l",),
                    initial="l",
                    transitions=(Transition("l", "l", "w", Event(urgent=True)),),
                )
            ]
        )
        g = explore(net)
        assert g.num_states == 1
        assert set(g.labels) == {"w"}

    def test_tick_self_loop_when_clamped(self):
        net = TimedNet(
            processes=[
                Process(
                    name="Idle",
                    locations=("l",),
                    initial="l",
                    transitions=(Transition("l", "l", "w", Event()),),
                )
            ]
        )
        g = explore(net)
        # no timing constants anywhere: the clock clamps at zero and the tick
        # loops on the single state
        assert g.num_states == 1
        assert (0, "t", 0) in g.transitions

    def test_state_ceiling_enforced(self):
        with pytest.raises(ExploreError):
            explore(builtin_present(4, 5), max_states=10)

    def test_pending_reaction_fires_before_anything_else(self):
        net = builtin_present(4, 5)
        g, states = explore_full(net)
        for i, s in enumerate(states):
            if s[3]:  # pending reactions
                labels = {lab for lab, _ in g.out_edges(i)}
                reaction_labels = {
                    net.processes[p].transitions[ti].label for p, ti in s[3]
                }
                assert labels == reaction_labels


class TestValidation:
    def test_nonurgent_bounded_elapse_rejected(self):
        with pytest.raises(NetError, match="urgent"):
            TimedNet(
                processes=[
                    Process(
                        name="P",
                        locations=("l", "m"),
                        initial="l",
                        transitions=(Transition("l", "m", "go", Elapse(Interval(2, 5))),),
                    )
                ]
            )

    def test_observer_with_events_rejected(self):
        from obscheck.timednet import Reaction

        with pytest.raises(NetError, match="observers"):
            TimedNet(
                processes=[
                    Process(
                        name="P",
                        locations=("l",),
                        initial="l",
                        transitions=(
                            Transition("l", "l", "e", Event()),
                            Transition("l", "l", "r", Reaction("e")),
                        ),
                    )
                ]
            )

    def test_unknown_probe_event_rejected(self):
        from obscheck.timednet import Reaction

        with pytest.raises(NetError, match="unknown event"):
            TimedNet(
                processes=[
                    Process(
                        name="Sys",
                        locations=("l",),
                        initial="l",
                        transitions=(Transition("l", "l", "e", Event()),),
                    ),
                    Process(
                        name="Obs",
                        locations=("w",),
                        initial="w",
                        transitions=(Transition("w", "w", "r", Reaction("missing")),),
                    ),
                ]
            )

    def test_priority_on_unknown_label_rejected(self):
        with pytest.raises(NetError, match="priority"):
            TimedNet(
                processes=[
                    Process(
                        name="P",
                        locations=("l",),
                        initial="l",
                        transitions=(Transition("l", "l", "e", Event()),),
                    )
                ],
                priorities=[("e", "ghost")],
            )

    def test_guard_on_unknown_variable_rejected(self):
        with pytest.raises(NetError, match="unknown variable"):
            TimedNet(
                processes=[
                    Process(
                        name="P",
                        locations=("l",),
                        initial="l",
                        transitions=(
                            Transition("l", "l", "e", Event(guard=(Cmp("v", "=", 0),))),
                        ),
                    )
                ]
            )
        with pytest.raises(NetError, match="unknown comparison operator"):
            TimedNet(
                variables={"v": VarDecl(0, 1, 0)},
                processes=[
                    Process(
                        name="P",
                        locations=("l",),
                        initial="l",
                        transitions=(
                            Transition("l", "l", "e", Event(guard=(Cmp("v", "==", 0),))),
                        ),
                    )
                ],
            )

    def test_net_is_frozen_after_validation(self):
        """The exploration indexes are built once, so nothing they derive
        from may change afterwards."""
        net = builtin_present(4, 5)
        with pytest.raises(AttributeError):
            net.processes = net.processes[::-1]
        with pytest.raises(AttributeError):
            net.processes.reverse()
        with pytest.raises(AttributeError):
            net.priorities.append(("watch", "z"))
        with pytest.raises(TypeError):
            net.variables["y"] = net.variables["x"]
        assert explore(net).num_states == explore(builtin_present(4, 5)).num_states


class TestParseNet:
    def test_golden_file_matches_builtin(self):
        text = (DATA / "present_4_5.net").read_text()
        assert parse_net(text) == builtin_present(4, 5)

    def test_error_reports_line_number(self):
        with pytest.raises(NetError, match="line 3"):
            parse_net("process P\ninit l\nfrom l wobble q to l")

    def test_nonurgent_bounded_elapse_rejected(self):
        text = "process P\ninit l\nfrom l elapse [2,5] label go to m"
        with pytest.raises(NetError, match="urgent"):
            parse_net(text)

    def test_unknown_probe_rejected(self):
        text = (
            "process Sys\ninit l\nfrom l on e to l\n"
            "process Obs\ninit w\nfrom w probe ghost label r to w"
        )
        with pytest.raises(NetError, match="unknown event"):
            parse_net(text)

    def test_probe_window_without_integer_instant_rejected(self):
        text = (
            "process Sys\ninit l\nfrom l on e to l\n"
            "process Obs\ninit w\nfrom w probe e when elapsed in ]2,3[ label r to w"
        )
        with pytest.raises(NetError, match="no integer instant"):
            parse_net(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\nprocess P\ninit l  # trailing\nfrom l on e to l\n"
        net = parse_net(text)
        assert net.processes[0].name == "P"

    def test_event_label_must_match_event_name(self):
        text = "process P\ninit l\nfrom l on e label f to l"
        with pytest.raises(NetError, match="label"):
            parse_net(text)
