import hashlib
import operator
import time
import tracemalloc
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obscheck.checker import find_tickless_cycle, internal_label_expr
from obscheck.cli import main
from obscheck.lts import Atom, save_aut, to_dot
from obscheck.timednet import (
    Cmp,
    Elapse,
    Event,
    ExploreError,
    NetError,
    Process,
    Reaction,
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


class TestClockClamp:
    """A clock stops at the first value past every window of its location,
    so a clamped clock is never inside a window it has left."""

    def test_open_lower_bound_is_reached(self):
        g = explore(parse_net("process P\ninit s0\nfrom s0 elapse ]2,w[ label go to s1"))
        assert _walk(g, ["t", "t"]) is not None and "go" not in _labels_at(g, _walk(g, ["t", "t"]))
        assert "go" in _labels_at(g, _walk(g, ["t", "t", "t"]))

    def test_probe_window_closes_after_its_upper_bound(self):
        net = parse_net(
            "process Sys\ninit l\nfrom l on e to l\n"
            "process Obs\ninit w\nfrom w probe e when elapsed in [0,1] label r to w"
        )
        g = explore(net)
        for ticks in (0, 1):
            assert _labels_at(g, _walk(g, ["t"] * ticks + ["e"])) == {"r"}
        for ticks in (2, 3, 4):
            assert "r" not in _labels_at(g, _walk(g, ["t"] * ticks + ["e"]))


def _walk(g, labels):
    """The state reached from the initial one along `labels`, each of which
    must label exactly one edge on the way."""
    state = g.initial
    for label in labels:
        (state,) = [dst for lab, dst in g.out_edges(state) if lab == label]
    return state


def _labels_at(g, state):
    return {lab for lab, _ in g.out_edges(state)}


# SHA-256 of save_aut(explore(net)), recorded before exploration read the
# networks through compiled move tables.
BUILTIN_DIGESTS = {
    "present_4_5": "dd00e309f5c9598099fa5aa294b8e2ac3ccccee8317810367e6b832073d3af6a",
    "present_12_20": "1a6fd8fdf0d159c3eb8f635c5d659e53014f4d0249f4097b1a84d8c2f976b5e6",
    "mouse": "b83adc09b1eb26a8f280f8f21b96d6546ed6f2e877deca88dec8502ab9172050",
}

# SHA-256 of to_dot(explore(net)), recorded before exploration ran on state
# codes and before save_aut and to_dot shared one sort.
BUILTIN_DOT_DIGESTS = {
    "present_4_5": "a16b0efc53dfc9f3ee97b402f2daa0e7cf4260180fa47c7db26995810b84b515",
    "present_12_20": "0b97a5cdeaaf1c4d04fb4c706e831fa54a1083c60bf8d4acba2eb280ead30afa",
    "mouse": "01cf551f273b9938d1118d36e7eca6efd680c58a5bb02fe17125ef6bdea01661",
}


@pytest.mark.parametrize(
    "name, net",
    [
        ("present_4_5", builtin_present(4, 5)),
        ("present_12_20", builtin_present(12, 20)),
        ("mouse", builtin_mouse()),
    ],
)
def test_builtin_graphs_are_unchanged(name, net):
    g = explore(net)
    digest = hashlib.sha256(save_aut(g).encode()).hexdigest()
    assert digest == BUILTIN_DIGESTS[name]
    assert hashlib.sha256(to_dot(g).encode()).hexdigest() == BUILTIN_DOT_DIGESTS[name]


# ---------------------------------------------------------------------------
# A name-based reference for exploration, written from the rules in the
# timednet module docstring, compared with explore_full on random networks.

_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
        "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _replace(seq, i, value):
    out = list(seq)
    out[i] = value
    return tuple(out)


def _clamp(proc, loc):
    out = 0
    for tr in proc.transitions:
        if tr.source == loc and type(tr.kind) in (Elapse, Reaction):
            lo, hi = tr.kind.window.integer_range()
            out = max(out, lo if hi is None else hi + 1)
    return out


def reference_successors(net, state):
    locs, vals, clocks, pending = state
    procs = net.processes
    here = [proc.locations[i] for proc, i in zip(procs, locs)]
    if pending:
        out = []
        for p, ti in pending:
            tr = procs[p].transitions[ti]
            nl = _replace(locs, p, procs[p].locations.index(tr.target))
            rest = tuple(e for e in pending if e[0] != p)
            out.append((tr.label, (nl, vals, _replace(clocks, p, 0), rest)))
        return out
    env = dict(zip(net.variables, vals))
    enabled = []
    for p, proc in enumerate(procs):
        for tr in proc.transitions:
            if tr.source != here[p]:
                continue
            if type(tr.kind) is Event:
                if all(_OPS[c.op](env[c.var], c.value) for c in tr.kind.guard):
                    enabled.append((p, tr))
            elif type(tr.kind) is Elapse and tr.kind.window.contains(clocks[p]):
                enabled.append((p, tr))
    labels = {tr.label for _, tr in enabled}
    suppressed = {low for high, low in net.priorities if high in labels}
    out = []
    blocked = False
    for p, tr in enabled:
        if tr.label in suppressed:
            continue
        nl = _replace(locs, p, procs[p].locations.index(tr.target))
        if type(tr.kind) is Event:
            new_env = dict(env, **dict(tr.kind.assigns))
            nv = tuple(new_env[name] for name in net.variables)
            nc = clocks if tr.kind.keepclock else _replace(clocks, p, 0)
            queued = tuple(
                (q, qi)
                for q, qproc in enumerate(procs)
                for qi, qtr in enumerate(qproc.transitions)
                if type(qtr.kind) is Reaction
                and qtr.kind.event == tr.label
                and qtr.source == here[q]
                and qtr.kind.window.contains(clocks[q])
            )
            out.append((tr.label, (nl, nv, nc, queued)))
            blocked |= tr.kind.urgent
        else:
            out.append((tr.label, (nl, vals, _replace(clocks, p, 0), ())))
            blocked |= tr.kind.urgent and clocks[p] == tr.kind.window.upper
    if not blocked:
        nc = tuple(min(c + 1, _clamp(proc, loc)) for c, proc, loc in zip(clocks, procs, here))
        out.append(("t", (locs, vals, nc, ())))
    return out


def reference_explore(net, max_states):
    """(states in BFS order, transitions), or None past `max_states`."""
    init = (
        tuple(proc.locations.index(proc.initial) for proc in net.processes),
        tuple(decl.init for decl in net.variables.values()),
        (0,) * len(net.processes),
        (),
    )
    index = {init: 0}
    order = [init]
    transitions = []
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for label, succ in reference_successors(net, order[i]):
            if succ not in index:
                if len(order) >= max_states:
                    return None
                index[succ] = len(order)
                order.append(succ)
                queue.append(index[succ])
            transitions.append((i, label, index[succ]))
    return tuple(order), transitions


@st.composite
def networks(draw):
    """Valid networks of one or two ordinary processes and up to two
    observers probing their events, over at most two small variables."""
    variables = {
        f"v{i}": VarDecl(0, hi, draw(st.integers(0, hi)))
        for i, hi in enumerate(draw(st.lists(st.integers(0, 2), max_size=2)))
    }
    events = ("a", "b", "c")

    def cmp():
        var = draw(st.sampled_from(sorted(variables)))
        return Cmp(var, draw(st.sampled_from(sorted(_OPS))), draw(st.integers(-1, 3)))

    def window(urgent):
        lo = draw(st.integers(0, 3))
        if urgent:
            return Interval(lo, lo + draw(st.integers(0, 2)))
        return Interval(lo, None, lower_open=draw(st.booleans()))

    def probe_window():
        lo = draw(st.integers(0, 2))
        hi = draw(st.one_of(st.none(), st.integers(lo, lo + 2)))
        lower_open = draw(st.booleans())
        w = Interval(lo, hi, lower_open=lower_open, upper_open=hi is not None and draw(st.booleans()))
        return w if w.integer_range() is not None else Interval(lo, hi)

    processes = []
    used = set()
    fired = []  # the event labels of the ordinary processes, which probes observe

    def process(name, observer):
        locs = [f"l{i}" for i in range(draw(st.integers(1, 3)))]
        transitions = []
        for _ in range(draw(st.integers(1, 4))):
            source, target = draw(st.sampled_from(locs)), draw(st.sampled_from(locs))
            roll = draw(st.integers(0, 4))
            if observer and roll < 3:
                label = draw(st.sampled_from(("r", "s")))
                kind = Reaction(draw(st.sampled_from(fired)), probe_window())
            elif not observer and roll < 3:
                label = draw(st.sampled_from(events))
                fired.append(label)
                assigned = draw(st.sets(st.sampled_from(sorted(variables)), max_size=2)) if variables else ()
                kind = Event(
                    guard=tuple(cmp() for _ in range(draw(st.integers(0, 2 if variables else 0)))),
                    assigns=tuple((var, draw(st.integers(0, variables[var].hi))) for var in sorted(assigned)),
                    urgent=draw(st.booleans()),
                    keepclock=source == target and draw(st.booleans()),
                )
            else:
                label = draw(st.sampled_from(("d", "e")))
                urgent = draw(st.booleans())
                kind = Elapse(window(urgent), urgent=urgent)
            used.add(label)
            transitions.append(Transition(source, target, label, kind))
        return Process(name, tuple(locs), locs[0], tuple(transitions))

    for p in range(draw(st.integers(1, 2))):
        processes.append(process(f"P{p}", observer=False))
    if fired:
        for o in range(draw(st.integers(0, 2))):
            processes.append(process(f"O{o}", observer=True))
    labels = st.sampled_from(sorted(used))
    priorities = draw(st.lists(st.tuples(labels, labels), max_size=3))
    return TimedNet(variables=variables, processes=tuple(processes), priorities=priorities)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(networks())
def test_exploration_agrees_with_the_reference(net):
    expected = reference_explore(net, 2000)
    if expected is None:
        with pytest.raises(ExploreError):
            explore_full(net, 2000)
        return
    g, states = explore_full(net, 2000)
    assert states == expected[0]
    assert g.transitions == tuple(dict.fromkeys(expected[1]))


def assert_agrees(net, max_states=2000):
    """explore_full matches the reference, and explore gives its graph."""
    expected = reference_explore(net, max_states)
    assert expected is not None
    g, states = explore_full(net, max_states)
    assert states == expected[0]
    assert g.transitions == tuple(dict.fromkeys(expected[1]))
    plain = explore(net, max_states)
    assert plain == g and plain.transitions == g.transitions
    return g, states


class TestStateCode:
    """Fixed networks at the edges of the state code's bit fields."""

    def test_negative_domain(self):
        g, states = assert_agrees(parse_net(
            "var x : -3..-1 = -2\n"
            "process P\ninit l\n"
            "from l on up when x < -1 do x := -1 to l\n"
            "from l on down when x >= -2 do x := -3 to l\n"
        ))
        assert {vals for _, vals, _, _ in states} == {(-3,), (-2,), (-1,)}

    def test_one_value_domain(self):
        g, states = assert_agrees(parse_net(
            "var x : 5..5 = 5\nvar y : 0..1 = 0\n"
            "process P\ninit l\n"
            "from l on e when x = 5 do x := 5, y := 1 to l\n"
            "from l on f when x != 5 do y := 0 to l\n"
        ))
        assert {vals for _, vals, _, _ in states} == {(5, 0), (5, 1)}
        assert "f" not in g.labels

    def test_codes_wider_than_64_bits(self):
        big = 10**15
        g, states = assert_agrees(parse_net(
            f"var x : 0..{big} = {big}\nvar y : 0..{big} = 0\n"
            "process P\ninit l\n"
            f"from l on e when x = {big} do x := 0, y := {big} to m\n"
            f"from m on f when y > {big - 1} do x := {big - 1} to l\n"
            "from l elapse [3,w[ label d to l\n"
        ))
        assert {vals for _, vals, _, _ in states} == {(big, 0), (0, big), (big - 1, big)}

    def test_keepclock_loop_above_zero(self):
        g, states = assert_agrees(parse_net(
            "process P\ninit l\n"
            "from l on k keepclock to l\n"
            "from l elapse [2,w[ label go to m\n"
            "from m on back to l\n"
        ))
        after = _walk(g, ["t", "k"])
        assert after == _walk(g, ["t"]) and states[after][2] == (1,)

    def test_three_pending_reactions_fire_in_order(self):
        net = parse_net(
            "process Sys\ninit l\nfrom l on e to l\n"
            "process O0\ninit w\nfrom w probe e label r0 to w\n"
            "from w probe e when elapsed in [0,0] label s0 to v\n"
            "process O1\ninit w\nfrom w probe e label r1 to v\n"
            "process O2\ninit w\nfrom w probe e label r2 to w\n"
        )
        g, states = assert_agrees(net)
        pending = _walk(g, ["e"])
        assert states[pending][3] == ((1, 0), (1, 1), (2, 0), (3, 0))
        assert [lab for lab, _ in g.out_edges(pending)] == ["r0", "s0", "r1", "r2"]
        # firing one of O0's reactions drops both of its entries
        assert states[_walk(g, ["e", "s0"])][3] == ((2, 0), (3, 0))

    def test_elapse_sharing_a_probed_label_queues_nothing(self):
        assert_agrees(parse_net(
            "process Sys\ninit l\nfrom l on e to l\n"
            "process Clock\ninit k\nfrom k elapse [1,w[ label e to k\n"
            "process Obs\ninit w\nfrom w probe e label r to w\n"
        ))

    def test_ceiling_at_the_boundary(self):
        net = builtin_present(4, 5)
        n = explore(net).num_states
        assert_agrees(net, n)
        assert reference_explore(net, n - 1) is None
        with pytest.raises(ExploreError):
            explore(net, n - 1)
        with pytest.raises(ExploreError):
            explore_full(net, n - 1)

    def test_an_observer_carrying_the_label_it_probes(self):
        # Only observers probe and they fire no events, so the nearest case
        # to an event probed by its own process: the observer's elapse and
        # reaction carry the probed label, and neither queues a reaction.
        g, states = assert_agrees(parse_net(
            "process Sys\ninit l\nfrom l on e to l\n"
            "process Obs\ninit w\nfrom w probe e label e to v\n"
            "from w elapse [1,w[ label e to w\n"
        ))
        after = [states[dst][3] for label, dst in g.out_edges(_walk(g, ["t"])) if label == "e"]
        assert sorted(after) == [(), ((1, 0),)]

    def test_two_processes_fire_a_label_a_third_probes(self):
        g, states = assert_agrees(parse_net(
            "process A\ninit l\nfrom l on e to m\nfrom m on f to l\n"
            "process B\ninit l\nfrom l on e to l\n"
            "process Obs\ninit w\nfrom w probe e label r to v\n"
            "from v probe e when elapsed in [1,1] label s to w\n"
        ))
        fired = [dst for label, dst in g.out_edges(0) if label == "e"]
        assert len(fired) == 2 and all(states[j][3] == ((2, 0),) for j in fired)

    @pytest.mark.parametrize("net", [builtin_present(4, 5), builtin_present(12, 20), builtin_mouse()])
    def test_builtins_agree(self, net):
        assert_agrees(net)


INIT_NOT_FIRST = (
    "var x : -2..3 = 1\nvar y : 0..1 = 0\n"
    "process P\nfrom a on e do y := 1 to b\ninit b\nfrom b on f to a\n"
    "process O\ninit w\nfrom w probe e label r to w\n"
)


class TestCompiledPerCall:
    """Exploration compiles the network afresh on each call and keeps
    nothing on it."""

    @pytest.mark.parametrize("net", [builtin_present(4, 5), builtin_mouse(), parse_net(INIT_NOT_FIRST)])
    def test_net_holds_only_its_fields(self, net):
        before = {name: getattr(net, name) for name in net._fields}
        explore(net)
        assert not hasattr(net, "__dict__")
        assert net._fields == ("variables", "processes", "priorities")
        assert all(getattr(net, name) is value for name, value in before.items())

    @pytest.mark.parametrize(
        "net, locs, vals",
        [
            (builtin_present(4, 5), (0, 0), (0,)),
            (builtin_mouse(), (0, 0), (0,)),
            (parse_net((DATA / "present_4_5.net").read_text()), (0, 0), (0,)),
            (parse_net(INIT_NOT_FIRST), (1, 0), (1, 0)),
        ],
    )
    def test_state_zero_is_the_initial_state(self, net, locs, vals):
        assert explore_full(net)[1][0] == (locs, vals, (0,) * len(locs), ())

    def test_exploring_twice_gives_the_same_graph(self):
        net = builtin_present(12, 20)
        g, states = explore_full(net)
        again, states_again = explore_full(net)
        assert again.transitions == g.transitions and states_again == states
        assert explore(net).transitions == g.transitions


class TestNothingSizedByAWindow:
    TEXT = (
        "process P\ninit l\n"
        "from l elapse [1000000000,1000000000] urgent label go to m\n"
        "from m on e to l\n"
    )

    def test_explore_reaches_the_ceiling(self):
        start = time.perf_counter()
        with pytest.raises(ExploreError):
            explore(parse_net(self.TEXT), 50)
        assert time.perf_counter() - start < 1

    def test_equal_rows_are_stored_once(self):
        # P's clock takes a new value at each state, and all but the last give
        # equal rows: one row per value peaked at 2.98 MiB, one shared at 2.42.
        net = parse_net(self.TEXT)
        tracemalloc.start()
        try:
            with pytest.raises(ExploreError):
                explore(net, 10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.7 * 2**20

    def test_gen_exits_two(self, tmp_path, capsys):
        path = tmp_path / "wide.net"
        path.write_text(self.TEXT)
        start = time.perf_counter()
        assert main(["gen", "--model", str(path)]) == 2
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert "ceiling" in err and "Traceback" not in err


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
        """What was validated is what every exploration compiles."""
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("var x : 0..2", "line 1: malformed variable declaration 'var x : 0..2'"),
            ("process P Q", "line 1: malformed process declaration 'process P Q'"),
            ("init l", "line 1: init outside a process"),
            ("init l m", "line 1: init outside a process"),
            ("process P\ninit l m", "line 2: malformed init 'init l m'"),
            ("priority a b", "line 1: malformed priority declaration 'priority a b'"),
            ("process P\ninit l\nfrom l wobble q to l", "line 3: malformed transition 'from l wobble q to l'"),
            ("process P\ninit l\nfrom l on e f to l", "line 3: malformed event transition 'e f'"),
            ("process P\ninit l\nfrom l elapse [0,1] to l", "line 3: malformed elapse transition '[0,1]'"),
            ("process P\ninit l\n\nfrom l probe e to l", "line 4: malformed probe transition 'e'"),
            ("process P\ninit l\nfrom l elapse [a,1] urgent label go to l", "line 3: malformed time window '[a,1]'"),
            ("process P\ninit l\nfrom l probe e when elapsed in [0,] label r to l", "line 3: malformed time window '[0,]'"),
            ("process P\ninit l\nfrom l on e when x = 1,  y  to l", "line 3: malformed guard 'y'"),
            ("process P\ninit l\nfrom l on e when x = 1 do x = 2 to l", "line 3: malformed assignment 'x = 2'"),
        ],
    )
    def test_malformed_line_message(self, text, message):
        with pytest.raises(NetError) as err:
            parse_net(text)
        assert str(err.value) == message

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
