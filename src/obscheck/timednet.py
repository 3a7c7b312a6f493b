"""Discrete-time process networks with probes, priorities, urgency, bounded
variables, and their exploration into a labeled state graph.

A network is a parallel composition of processes over shared bounded integer
variables.  Ordinary processes move through *event* transitions (guarded,
with assignments) and *elapse* transitions (time windows on the clock of the
current location).  Observer processes never take part in events: they carry
*reaction* transitions bound to probed event labels, and fire as separate
urgent internal steps right after the observed event.

Time is discrete: a distinguished tick edge (label `t`) advances every
process clock by one, clamped at the first value past every window of the
current location: the largest, over the elapse and reaction windows leaving
it, of the window's least integer when it is unbounded and one past its
greatest integer otherwise (0 when it has none).  No window tells apart the
clock values at or above the clamp, so clamping loses nothing.  Every elapse
transition with a finite upper bound must be urgent, which construction and
parsing enforce.

Exploration rules, from a state (locations, variables, clocks, pending
reactions):

  1. pending reactions, if any, are the only possible steps; firing one moves
     its observer, resets its clock, and drops that observer's pending entries;
  2. otherwise every event whose guard holds and every elapse whose clock lies
     in its window is enabled, and the priorities are taken over the labels
     of all of them: a label is suppressed when a label declared above it is
     enabled.  Events and elapses that are not suppressed are offered
     together.  An event applies its assignments, resets its clock unless it
     keeps it, and queues every reaction on that event whose elapsed window
     holds at this instant; an elapse resets its clock;
  3. the tick may fire only with no pending reaction, no offered urgent event,
     and no offered urgent elapse sitting at its finite upper bound; a
     suppressed urgent step does not block the tick.

Each `explore` or `explore_full` call compiles the network once (`_Compiled`,
whose docstring defines the state code and the move format) and then keys,
stores and builds each state as one int, its state code.  Each step is a mask
and an or on that int, read from rows built the first time the search meets
a value of a group of adjacent process fields (`_GROUP_BITS`), so a state
reads one row per group, not per process; the compiled tables and the rows
live as long as the call, and none is built ahead of time, so nothing is sized by a window bound.
`explore` never decodes a state code; `explore_full` decodes each one once
into a `NetState`.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Mapping
from types import MappingProxyType

from ._scan import Node, _set
from .lts import RESERVED_LABEL, TICK_LABEL, Interval, Lts

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class NetError(ValueError):
    """Invalid network description; carries a line number when parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ExploreError(ValueError):
    pass


_CMP_OPS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}

_NOTHING: frozenset[str] = frozenset()

class Cmp(Node):
    __slots__ = _fields = ("var", "op", "value")

    def __init__(self, var: str, op: str, value: int):
        _set(self, "var", var)
        _set(self, "op", op)  # a key of _CMP_OPS
        _set(self, "value", value)


class Event(Node):
    __slots__ = _fields = ("guard", "assigns", "urgent", "keepclock")

    def __init__(
        self,
        guard: tuple[Cmp, ...] = (),
        assigns: tuple[tuple[str, int], ...] = (),
        urgent: bool = False,
        keepclock: bool = False,
    ):
        _set(self, "guard", guard)
        _set(self, "assigns", assigns)
        _set(self, "urgent", urgent)
        _set(self, "keepclock", keepclock)


class Elapse(Node):
    __slots__ = _fields = ("window", "urgent")

    def __init__(self, window: Interval, urgent: bool = False):
        _set(self, "window", window)
        _set(self, "urgent", urgent)


class Reaction(Node):
    __slots__ = _fields = ("event", "window")

    def __init__(self, event: str, window: Interval = Interval(0, None)):
        _set(self, "event", event)
        _set(self, "window", window)


class Transition(Node):
    __slots__ = _fields = ("source", "target", "label", "kind")

    def __init__(self, source: str, target: str, label: str, kind: Event | Elapse | Reaction):
        _set(self, "source", source)
        _set(self, "target", target)
        _set(self, "label", label)
        _set(self, "kind", kind)


class Process(Node):
    __slots__ = _fields = ("name", "locations", "initial", "transitions")

    def __init__(
        self, name: str, locations: tuple[str, ...], initial: str, transitions: tuple[Transition, ...]
    ):
        _set(self, "name", name)
        _set(self, "locations", locations)
        _set(self, "initial", initial)
        _set(self, "transitions", transitions)


class VarDecl(Node):
    __slots__ = _fields = ("lo", "hi", "init")

    def __init__(self, lo: int, hi: int, init: int):
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "init", init)


class TimedNet(Node):
    """Immutable once built: the fields become tuples and a read-only mapping.
    Building one validates it; exploration compiles it afresh on each call."""

    __slots__ = _fields = ("variables", "processes", "priorities")

    def __init__(
        self,
        variables: Mapping[str, VarDecl] = MappingProxyType({}),
        processes: tuple[Process, ...] = (),
        priorities: tuple[tuple[str, str], ...] = (),
    ):
        _set(self, "variables", MappingProxyType(dict(variables)))
        _set(self, "processes", tuple(processes))
        _set(self, "priorities", tuple(tuple(pair) for pair in priorities))
        self._validate()

    def _validate(self) -> None:
        for name, decl in self.variables.items():
            if not _NAME_RE.match(name):
                raise NetError(f"bad variable name {name!r}")
            if decl.lo > decl.hi:
                raise NetError(f"variable {name}: empty domain {decl.lo}..{decl.hi}")
            if not decl.lo <= decl.init <= decl.hi:
                raise NetError(f"variable {name}: initial value outside its domain")
        if not self.processes:
            raise NetError("a network needs at least one process")
        event_labels = set()
        all_labels = set()
        names = set()
        for proc in self.processes:
            if proc.name in names:
                raise NetError(f"duplicate process {proc.name!r}")
            names.add(proc.name)
            locs = set(proc.locations)
            if len(locs) != len(proc.locations):
                raise NetError(f"process {proc.name}: duplicate location")
            if proc.initial not in locs:
                raise NetError(f"process {proc.name}: unknown initial location {proc.initial!r}")
            has_event = False
            has_reaction = False
            for tr in proc.transitions:
                if tr.source not in locs or tr.target not in locs:
                    raise NetError(f"process {proc.name}: transition endpoints must be locations")
                if not _NAME_RE.match(tr.label) or tr.label in (TICK_LABEL, RESERVED_LABEL):
                    raise NetError(f"process {proc.name}: label {tr.label!r} is reserved or invalid")
                all_labels.add(tr.label)
                kind = tr.kind
                if type(kind) is Event:
                    has_event = True
                    event_labels.add(tr.label)
                    for cmp in kind.guard:
                        if cmp.var not in self.variables:
                            raise NetError(f"guard on unknown variable {cmp.var!r}")
                        if cmp.op not in _CMP_OPS:
                            raise NetError(f"unknown comparison operator {cmp.op!r}")
                    for var, value in kind.assigns:
                        decl = self.variables.get(var)
                        if decl is None:
                            raise NetError(f"assignment to unknown variable {var!r}")
                        if not decl.lo <= value <= decl.hi:
                            raise NetError(f"assignment {var} := {value} leaves its domain")
                    if kind.keepclock and tr.source != tr.target:
                        raise NetError("keepclock only makes sense on a self loop")
                elif type(kind) is Elapse:
                    w = kind.window
                    if kind.urgent:
                        if w.upper is None:
                            raise NetError("an urgent elapse needs a finite upper bound")
                        if w.upper_open or w.lower_open:
                            raise NetError("urgent elapse windows must be closed")
                        if w.lower > w.upper:
                            raise NetError("empty elapse window")
                    else:
                        if w.upper is not None:
                            raise NetError(
                                "an elapse with a finite upper bound must be urgent; "
                                "only an unbounded elapse may be skipped by letting time pass"
                            )
                elif type(kind) is Reaction:
                    has_reaction = True
                    if kind.window.integer_range() is None:
                        raise NetError("reaction window contains no integer instant")
                else:
                    raise NetError(f"unknown transition kind {kind!r}")
            if has_reaction and has_event:
                raise NetError(
                    f"process {proc.name}: observers react to events but never engage in them"
                )
        for proc in self.processes:
            for tr in proc.transitions:
                if type(tr.kind) is Reaction and tr.kind.event not in event_labels:
                    raise NetError(
                        f"process {proc.name}: probe on unknown event {tr.kind.event!r}"
                    )
        for high, low in self.priorities:
            for lab in (high, low):
                if lab not in all_labels:
                    raise NetError(f"priority on unknown label {lab!r}")


# A network state: location index per process, value per variable, clock per
# process, and the sorted tuple of pending (process, transition) reactions.
NetState = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...]]


def describe_state(net: TimedNet, state: NetState) -> dict:
    locs, vals, clocks, pending = state
    return {
        "locations": {
            proc.name: proc.locations[locs[p]] for p, proc in enumerate(net.processes)
        },
        "variables": dict(zip(net.variables, vals)),
        "clocks": {proc.name: clocks[p] for p, proc in enumerate(net.processes)},
        "pending": tuple(
            (net.processes[p].name, net.processes[p].transitions[ti].label)
            for p, ti in pending
        ),
    }


# The widest group of adjacent process fields the search reads as one field,
# in bits.  A group's dict holds one row per field value met, and a wider
# group meets more values, each joined from more processes.  Bounds of 16 to
# 32 bits explored the benchmark's ten-observer networks about 14% faster
# than one field per process (Python 3.11, Xeon), with no clear best.
_GROUP_BITS = 21


def _field_mask(offset: int, width: int) -> int:
    return ((1 << width) - 1) << offset


class _Compiled:
    """One network compiled for exploration, built once per `explore` or
    `explore_full` call; this is the one place the state code and the move
    format are defined.

    A state code is one int: one bit per reaction (the pending set, in
    (process, transition) order from the lowest bit up), then one field per
    process holding `location | clock << location_bits`, then one field per
    variable holding `value - lo`, each field the fewest bits that hold every
    value it can take.  The tables:

    - `procs[p]`: (offset, location bits, width) of process p's field, and
      `vars[v]`: (offset, width, lo) of variable v's field;
    - `init`: the code of the initial state;
    - `groups`: adjacent process fields the search reads as one field, each
      (offset, mask, members, rows), `rows` holding one row per field value
      met.  Width-0 processes are grouped apart (joined to a moving clock,
      their one row would be rebuilt per clock value), and only a single
      process makes a group wider than `_GROUP_BITS`.  A member is one
      process's (shift, mask, location bits, moves, probes, clamps, tick):
      its field is `(group field >> shift) & mask`; `moves[loc]` are the event
      and elapse moves leaving location `loc`, in transition order, each
        (lo, hi, blocks_from, free, blocking):
      the clock window as the inclusive range lo..hi, the clock value from
      which the offered move blocks the tick (math.inf: never), and the
      move as offered below and from that value, each
        (label, keep, put, guards, probed, blocks):
      the step `(s & keep) | put`, each guard as (offset, mask, operator,
      value - lo) on a variable field, whether it may queue reactions (some
      process probes the label; never for an elapse) and whether it blocks
      the tick; `probes` are its reactions as (bit, event, source, lo, hi);
      `clamps[loc]` is the clock value at which ticks stop counting in
      `loc`, and `tick` one tick of its clock, as an addend;
    - `fire[bit]`: the step (label, keep, put) of a pending bit: it moves its
      observer, resets that observer's clock and drops all of that
      observer's pending bits;
    - `suppresses`: per label, the labels declared below it;
    - `pending[bit]`: the (process, transition) of a reaction bit.
    """

    def __init__(self, net: TimedNet):
        processes = net.processes
        loc_index = [{loc: i for i, loc in enumerate(proc.locations)} for proc in processes]
        clamps = [[0] * len(proc.locations) for proc in processes]
        probes = [[] for _ in processes]
        self.pending = []
        for p, proc in enumerate(processes):
            for ti, tr in enumerate(proc.transitions):
                kind = tr.kind
                if type(kind) is Event:
                    continue
                source = loc_index[p][tr.source]
                lo, hi = kind.window.integer_range()
                clamps[p][source] = max(clamps[p][source], lo if hi == math.inf else hi + 1)
                if type(kind) is Reaction:
                    probes[p].append((len(self.pending), kind.event, source, lo, hi))
                    self.pending.append((p, ti))

        offset = len(self.pending)
        self.procs = []
        self.init = 0
        for p, proc in enumerate(processes):
            loc_bits = (len(proc.locations) - 1).bit_length()
            width = loc_bits + max(clamps[p]).bit_length()
            self.procs.append((offset, loc_bits, width))
            self.init |= loc_index[p][proc.initial] << offset
            offset += width
        self.vars = []
        for decl in net.variables.values():
            width = (decl.hi - decl.lo).bit_length()
            self.vars.append((offset, width, decl.lo))
            self.init |= (decl.init - decl.lo) << offset
            offset += width

        var_fields = dict(zip(net.variables, self.vars))
        watched = {event for reactions in probes for _, event, _, _, _ in reactions}
        self.fire = []
        moves = [[[] for _ in proc.locations] for proc in processes]
        for p, proc in enumerate(processes):
            offset, loc_bits, width = self.procs[p]
            owned = sum(1 << bit for bit, *_ in probes[p])
            for tr in proc.transitions:
                kind = tr.kind
                put = loc_index[p][tr.target] << offset
                if type(kind) is Reaction:
                    self.fire.append((tr.label, ~(_field_mask(offset, width) | owned), put))
                    continue
                if type(kind) is Event:
                    lo, hi, blocks_from = 0, math.inf, 0 if kind.urgent else math.inf
                    keep = ~_field_mask(offset, loc_bits if kind.keepclock else width)
                    for var, value in kind.assigns:
                        voffset, vwidth, vlo = var_fields[var]
                        keep &= ~_field_mask(voffset, vwidth)
                        put = (put & ~_field_mask(voffset, vwidth)) | (value - vlo) << voffset
                    guards = tuple(
                        (var_fields[c.var][0], (1 << var_fields[c.var][1]) - 1,
                         _CMP_OPS[c.op], c.value - var_fields[c.var][2])
                        for c in kind.guard
                    )
                    probed = tr.label in watched
                else:
                    lo, hi = kind.window.integer_range()
                    blocks_from = hi if kind.urgent else math.inf
                    keep, guards, probed = ~_field_mask(offset, width), (), False
                move = (tr.label, keep, put, guards, probed)
                moves[p][loc_index[p][tr.source]].append(
                    (lo, hi, blocks_from, move + (False,), move + (True,))
                )

        spans, span_width = [], 0  # the processes of each group
        for p, (_, _, width) in enumerate(self.procs):
            if spans and (width == 0) == (span_width == 0) and span_width + width <= _GROUP_BITS:
                spans[-1].append(p)
                span_width += width
            else:
                spans.append([p])
                span_width = width
        self.groups = []
        for span in spans:
            start, members = self.procs[span[0]][0], []
            for p in span:
                offset, loc_bits, width = self.procs[p]
                members.append((offset - start, (1 << width) - 1, loc_bits, moves[p], probes[p], clamps[p],
                                1 << (offset + loc_bits)))
            self.groups.append((start, (1 << (offset + width - start)) - 1, tuple(members), {}))

        suppresses: dict[str, set[str]] = {}
        for high, low in net.priorities:
            suppresses.setdefault(high, set()).add(low)
        self.suppresses = {high: frozenset(lows) for high, lows in suppresses.items()}

    def decode(self, code: int) -> NetState:
        fields = [
            ((code >> offset) & ((1 << width) - 1), loc_bits) for offset, loc_bits, width in self.procs
        ]
        return (
            tuple(field & ((1 << loc_bits) - 1) for field, loc_bits in fields),
            tuple(((code >> offset) & ((1 << width) - 1)) + lo for offset, width, lo in self.vars),
            tuple(field >> loc_bits for field, loc_bits in fields),
            tuple(pt for i, pt in enumerate(self.pending) if (code >> i) & 1),
        )


def _build_row(members: tuple, field: int) -> tuple:
    """A group's row at its field value: per member in process order, the
    moves its clock admits as offered at that clock, concatenated; the tick
    increments (0 at the clamp), summed; the reactions it admits, folded
    into (event, the pending bits it queues) items."""
    moves, inc, queues = [], 0, {}
    for shift, mask, loc_bits, moves_at, probes, clamps, tick in members:
        value = (field >> shift) & mask
        loc, clock = value & ((1 << loc_bits) - 1), value >> loc_bits
        moves += [
            blocking if clock >= blocks_from else free
            for lo, hi, blocks_from, free, blocking in moves_at[loc]
            if lo <= clock <= hi
        ]
        for bit, event, source, lo, hi in probes:
            if source == loc and lo <= clock <= hi:
                queues[event] = queues.get(event, 0) | 1 << bit
        if clock < clamps[loc]:
            inc += tick
    return tuple(moves), inc, tuple(queues.items())


def _search(compiled: _Compiled, max_states: int) -> tuple[Lts, list[int]]:
    """Breadth-first state graph over state codes, plus the code of each state.

    A group's moves, reactions and tick increment depend only on its field,
    so each field value met is built once into a row, (moves, tick
    increment, reaction items), kept in the group's dict; equal rows are
    stored once.  A state with nothing pending reads one row per group, and
    one fold ORs their reaction items into one dict, from which each offered
    move on a probed label takes its bits.
    """
    distinct: dict = {}  # each row once, whichever groups and fields share it
    groups, fire, suppresses = compiled.groups, compiled.fire, compiled.suppresses
    pending_mask = (1 << len(fire)) - 1
    index = {compiled.init: 0}
    order = [compiled.init]
    transitions = []
    for i, s in enumerate(order):  # the loop reaches every state appended below
        out = []
        if s & pending_mask:
            bits = s & pending_mask
            while bits:
                low = bits & -bits
                label, keep, put = fire[low.bit_length() - 1]
                out.append((label, (s & keep) | put))
                bits ^= low
        else:
            here = []
            queued: dict[str, int] = {}
            inc = 0
            for offset, mask, members, rows in groups:
                field = (s >> offset) & mask
                row = rows.get(field)
                if row is None:
                    row = _build_row(members, field)
                    row = rows[field] = distinct.setdefault(row, row)
                moves, step, items = row
                here.append(moves)
                inc += step
                for event, bits in items:
                    queued[event] = queued.get(event, 0) | bits
            # Every enabled move is offered and the priorities then filter
            # what the labels of all of them suppress.
            suppressed = _NOTHING
            blockers = []  # labels of the moves that block the tick if offered
            for moves in here:
                for label, keep, put, guards, probed, blocks in moves:
                    for offset, mask, op, value in guards:
                        if not op((s >> offset) & mask, value):
                            break
                    else:
                        if label in suppresses:
                            suppressed = suppressed | suppresses[label]
                        if blocks:
                            blockers.append(label)
                        if probed:
                            put |= queued.get(label, 0)
                        out.append((label, (s & keep) | put))
            if suppressed:
                out = [step for step in out if step[0] not in suppressed]
                blockers = [label for label in blockers if label not in suppressed]
            if not blockers:
                out.append((TICK_LABEL, s + inc))
        for label, succ in out:
            j = index.get(succ)
            if j is None:
                j = len(order)
                if j >= max_states:
                    raise ExploreError(f"state count exceeded the ceiling of {max_states}")
                index[succ] = j
                order.append(succ)
            transitions.append((i, label, j))
    return Lts(len(order), 0, transitions), order


def explore_full(net: TimedNet, max_states: int = 100_000) -> tuple[Lts, tuple[NetState, ...]]:
    """Breadth-first state graph plus the network state behind each index."""
    compiled = _Compiled(net)
    g, codes = _search(compiled, max_states)
    return g, tuple(map(compiled.decode, codes))


def explore(net: TimedNet, max_states: int = 100_000) -> Lts:
    """Deterministic discrete-time state graph of the network."""
    return _search(_Compiled(net), max_states)[0]


# ---------------------------------------------------------------------------
# Built-in networks


def builtin_present(d1: int, d2: int) -> TimedNet:
    """Universal environment composed with the observer for
    "event a after the first b within [d1, d2[".

    The environment is a single location firing a (x := 1), b (x := 2), and
    an urgent silent reset z (guard x != 0, x := 0) so that probes on a and b
    see every interleaving of events and delays.  The observer waits in
    `idle` for the first b, sits in `start` for exactly d1 ticks, then
    watches: a within [0, d2-d1[ leads to `ok`, and once d2-d1 ticks have
    passed the `error` step becomes (and stays) enabled.

    The watch step outprioritizes the events: without that, an `a` fired at
    exactly d1 ticks could slip in before the observer starts watching and
    would be missed even though it satisfies the pattern.
    """
    if not 0 <= d1 < d2:
        raise NetError(f"the window [{d1},{d2}[ is empty or unbounded")
    universal = Process(
        name="Universal",
        locations=("u0",),
        initial="u0",
        transitions=(
            Transition("u0", "u0", "a", Event(assigns=(("x", 1),))),
            Transition("u0", "u0", "b", Event(assigns=(("x", 2),))),
            Transition("u0", "u0", "z", Event(guard=(Cmp("x", "!=", 0),), assigns=(("x", 0),), urgent=True)),
        ),
    )
    observer = Process(
        name="Present",
        locations=("idle", "start", "watch", "ok", "error"),
        initial="idle",
        transitions=(
            Transition("idle", "start", "start", Reaction("b", Interval(0, None))),
            Transition("start", "watch", "watch", Elapse(Interval(d1, d1), urgent=True)),
            Transition("watch", "ok", "stop", Reaction("a", Interval(0, d2 - d1, upper_open=True))),
            Transition("watch", "error", "error", Elapse(Interval(d2 - d1, None))),
        ),
    )
    return TimedNet(
        variables={"x": VarDecl(0, 2, 0)},
        processes=(universal, observer),
        priorities=(("watch", "a"), ("watch", "b")),
    )


def builtin_mouse() -> TimedNet:
    """Button emitting `double` when clicked at least twice in strictly less
    than one time unit, watched by a naive observer that errors on any second
    click.  The `delay` elapse outprioritizes `click`, which is what makes
    the window strict."""
    push = Process(
        name="Push",
        locations=("s0", "s1", "s2"),
        initial="s0",
        transitions=(
            Transition("s0", "s1", "click", Event(assigns=(("dbl", 0),))),
            Transition("s1", "s1", "click", Event(assigns=(("dbl", 1),), keepclock=True)),
            Transition("s1", "s2", "delay", Elapse(Interval(1, 1), urgent=True)),
            Transition("s2", "s0", "double", Event(guard=(Cmp("dbl", "=", 1),), urgent=True)),
            Transition("s2", "s0", "z", Event(guard=(Cmp("dbl", "=", 0),), urgent=True)),
        ),
    )
    never_twice = Process(
        name="neverTwice",
        locations=("w0", "w1", "err"),
        initial="w0",
        transitions=(
            Transition("w0", "w1", "once", Reaction("click", Interval(0, None))),
            Transition("w1", "err", "error", Reaction("click", Interval(0, None))),
        ),
    )
    return TimedNet(
        variables={"dbl": VarDecl(0, 1, 0)},
        processes=(push, never_twice),
        priorities=(("delay", "click"),),
    )


# ---------------------------------------------------------------------------
# Plain-text network format

_VAR_RE = re.compile(r"var\s+(\w+)\s*:\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*=\s*(-?\d+)$")
_PROCESS_RE = re.compile(r"process\s+(\w+)$")
_INIT_RE = re.compile(r"init\s+(\w+)$")
_PRIORITY_RE = re.compile(r"priority\s+(\w+)\s*>\s*(\w+)$")
_FROM_RE = re.compile(r"from\s+(\w+)\s+(on|elapse|probe)\s+(.*?)\s+to\s+(\w+)$")
_ON_RE = re.compile(
    r"(\w+)"
    r"(?:\s+when\s+(?P<guard>.*?))?"
    r"(?:\s+do\s+(?P<do>.*?))?"
    r"(?P<urgent>\s+urgent)?"
    r"(?P<keepclock>\s+keepclock)?"
    r"(?:\s+label\s+(?P<label>\w+))?$"
)
_ELAPSE_RE = re.compile(
    r"(?P<window>[\[\]][^\[\]]*[\[\]])"
    r"(?P<urgent>\s+urgent)?"
    r"\s+label\s+(?P<label>\w+)$"
)
_PROBE_RE = re.compile(
    r"(\w+)"
    r"(?:\s+when\s+elapsed\s+in\s+(?P<window>[\[\]][^\[\]]*[\[\]]))?"
    r"\s+label\s+(?P<label>\w+)$"
)
_WINDOW_RE = re.compile(r"([\[\]])\s*(\d+)\s*,\s*(\d+|w)\s*([\[\]])$")
_CMP_RE = re.compile(r"(\w+)\s*(=|!=|<=|>=|<|>)\s*(-?\d+)$")
_ASSIGN_RE = re.compile(r"(\w+)\s*:=\s*(-?\d+)$")


def _match(pattern: re.Pattern, text: str, what: str, line: int) -> re.Match:
    m = pattern.match(text)
    if m is None:
        raise NetError(f"malformed {what} {text!r}", line)
    return m


def _parse_list(text: str | None, pattern: re.Pattern, what: str, line: int) -> list[tuple[str, ...]]:
    """The groups of each comma-separated part; none for an absent list."""
    return [_match(pattern, part.strip(), what, line).groups() for part in text.split(",")] if text else []


def _parse_window(text: str, line: int) -> Interval:
    left, lo, hi, right = _match(_WINDOW_RE, text, "time window", line).groups()
    lower_open = left == "]"
    if hi == "w":
        if right != "[":
            raise NetError("an unbounded window must end with '['", line)
        return Interval(int(lo), None, lower_open=lower_open)
    return Interval(int(lo), int(hi), lower_open=lower_open, upper_open=right == "[")


def parse_net(text: str) -> TimedNet:
    """Line-oriented format: `var`, `process`, `init`, `from`, `priority`
    declarations; `#` starts a comment.  Validation errors carry the line."""
    variables: dict[str, VarDecl] = {}
    priorities: list[tuple[str, str]] = []
    processes: list[Process] = []
    current: dict | None = None

    def close_current():
        nonlocal current
        if current is None:
            return
        if current["init"] is None:
            raise NetError(f"process {current['name']}: missing init declaration", current["line"])
        locations = list(dict.fromkeys(current["locations"]))
        processes.append(
            Process(
                name=current["name"],
                locations=tuple(locations),
                initial=current["init"],
                transitions=tuple(current["transitions"]),
            )
        )
        current = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("var "):
            name, lo, hi, init = _match(_VAR_RE, line, "variable declaration", lineno).groups()
            if name in variables:
                raise NetError(f"duplicate variable {name!r}", lineno)
            variables[name] = VarDecl(int(lo), int(hi), int(init))
        elif line.startswith("process"):
            m = _match(_PROCESS_RE, line, "process declaration", lineno)
            close_current()
            current = {"name": m.group(1), "init": None, "locations": [], "transitions": [], "line": lineno}
        elif line.startswith("init"):
            if current is None:
                raise NetError("init outside a process", lineno)
            m = _match(_INIT_RE, line, "init", lineno)
            if current["init"] is not None:
                raise NetError(f"process {current['name']}: second init declaration", lineno)
            current["init"] = m.group(1)
            current["locations"].append(m.group(1))
        elif line.startswith("priority"):
            priorities.append(_match(_PRIORITY_RE, line, "priority declaration", lineno).groups())
        elif line.startswith("from"):
            if current is None:
                raise NetError("transition outside a process", lineno)
            source, kind_kw, middle, target = _match(_FROM_RE, line, "transition", lineno).groups()
            if kind_kw == "on":
                mm = _match(_ON_RE, middle, "event transition", lineno)
                event = mm.group(1)
                label = mm.group("label") or event
                if label != event:
                    raise NetError(
                        f"an event transition is observed through its label; "
                        f"{label!r} differs from {event!r}",
                        lineno,
                    )
                guard = _parse_list(mm.group("guard"), _CMP_RE, "guard", lineno)
                assigns = _parse_list(mm.group("do"), _ASSIGN_RE, "assignment", lineno)
                kind = Event(
                    guard=tuple(Cmp(var, op, int(k)) for var, op, k in guard),
                    assigns=tuple((var, int(k)) for var, k in assigns),
                    urgent=bool(mm.group("urgent")),
                    keepclock=bool(mm.group("keepclock")),
                )
            elif kind_kw == "elapse":
                mm = _match(_ELAPSE_RE, middle, "elapse transition", lineno)
                label = mm.group("label")
                kind = Elapse(_parse_window(mm.group("window"), lineno), urgent=bool(mm.group("urgent")))
            else:
                mm = _match(_PROBE_RE, middle, "probe transition", lineno)
                label = mm.group("label")
                window = _parse_window(mm.group("window"), lineno) if mm.group("window") else Interval(0, None)
                kind = Reaction(mm.group(1), window)
            current["locations"].extend((source, target))
            current["transitions"].append(Transition(source, target, label, kind))
        else:
            raise NetError(f"unrecognized line {line!r}", lineno)
    close_current()
    return TimedNet(variables=variables, processes=processes, priorities=priorities)
