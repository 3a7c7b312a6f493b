"""The syntax-tree nodes and the records: their `repr`, structural `==` and
`hash`, immutability and construction-time checks; `==`, `hash` and `repr`
on trees deeper than the recursion limit; and the Python calls that building
and re-hashing a node make."""

import sys
from types import MappingProxyType, SimpleNamespace

import pytest

from obscheck import checker, fott, lts, mucalc, pathregex, timednet
from obscheck._scan import Token
from obscheck.lts import Atom, Interval, StateSet

A, B = Atom("a"), Atom("b")
X = mucalc.Var("X")
IV = Interval(4, 5, upper_open=True)
CMP = timednet.Cmp("x", "=", 0)
VAR = timednet.VarDecl(0, 1, 0)
PROC = timednet.Process("P", ("a",), "a", ())
STEP = pathregex.Tick()

# (class, keyword arguments, repr): one sample of every node and record type.
SAMPLES = [
    (Token, dict(kind="ident", text="a", pos=0), "Token(kind='ident', text='a', pos=0)"),
    (lts.Atom, dict(name="a"), "Atom(name='a')"),
    (lts.Top, dict(), "Top()"),
    (lts.Not, dict(arg=A), "Not(arg=Atom(name='a'))"),
    (lts.And, dict(left=A, right=B), "And(left=Atom(name='a'), right=Atom(name='b'))"),
    (lts.Or, dict(left=A, right=B), "Or(left=Atom(name='a'), right=Atom(name='b'))"),
    (Interval, dict(lower=4, upper=5, upper_open=True),
     "Interval(lower=4, upper=5, lower_open=False, upper_open=True)"),
    (StateSet, dict(width=4, bits=6), "StateSet(4, {1, 2})"),
    (mucalc.TrueConst, dict(), "TrueConst()"),
    (mucalc.InitConst, dict(), "InitConst()"),
    (mucalc.Var, dict(name="X"), "Var(name='X')"),
    (mucalc.Not, dict(arg=A), "Not(arg=Atom(name='a'))"),
    (mucalc.And, dict(left=A, right=B), "And(left=Atom(name='a'), right=Atom(name='b'))"),
    (mucalc.Or, dict(left=A, right=B), "Or(left=Atom(name='a'), right=Atom(name='b'))"),
    (mucalc.Implies, dict(left=X, right=X), "Implies(left=Var(name='X'), right=Var(name='X'))"),
    (mucalc.Iff, dict(left=X, right=X), "Iff(left=Var(name='X'), right=Var(name='X'))"),
    (mucalc.FwdDiamond, dict(label=A, arg=X), "FwdDiamond(label=Atom(name='a'), arg=Var(name='X'))"),
    (mucalc.BwdDiamond, dict(arg=X, label=A), "BwdDiamond(arg=Var(name='X'), label=Atom(name='a'))"),
    (mucalc.Min, dict(var="X", body=X), "Min(var='X', body=Var(name='X'))"),
    (mucalc.Max, dict(var="X", body=X), "Max(var='X', body=Var(name='X'))"),
    (mucalc.SuffixStar, dict(arg=X, label=A), "SuffixStar(arg=Var(name='X'), label=Atom(name='a'))"),
    (mucalc.SuffixTicks, dict(arg=X, lo=1, hi=2), "SuffixTicks(arg=Var(name='X'), lo=1, hi=2)"),
    (mucalc.TautologyResult, dict(holds=False, witness=3), "TautologyResult(holds=False, witness=3)"),
    (pathregex.Eps, dict(), "Eps()"),
    (pathregex.Seq, dict(head=pathregex.EPS, step=pathregex.One(A)),
     "Seq(head=Eps(), step=One(label=Atom(name='a')))"),
    (pathregex.Union, dict(left=pathregex.EPS, right=pathregex.EPS), "Union(left=Eps(), right=Eps())"),
    (pathregex.One, dict(label=A), "One(label=Atom(name='a'))"),
    (pathregex.Star, dict(label=A), "Star(label=Atom(name='a'))"),
    (pathregex.Tick, dict(lo=1, hi=1), "Tick(lo=1, hi=1)"),
    (pathregex.Nfa, dict(num_states=2, accepting=2, edges=(((A, 1),), ())),
     "Nfa(num_states=2, accepting=2, edges=(((Atom(name='a'), 1),), ()))"),
    (fott.And, dict(left=fott.EqLit("h", ()), right=fott.EqLit("h", ())),
     "And(left=EqLit(var='h', word=()), right=EqLit(var='h', word=()))"),
    (fott.Not, dict(arg=fott.EqLit("h", ("a",))), "Not(arg=EqLit(var='h', word=('a',)))"),
    (fott.Exists, dict(var="h", body=fott.EqLit("h", ())), "Exists(var='h', body=EqLit(var='h', word=()))"),
    (fott.EqLit, dict(var="h", word=("a", "t")), "EqLit(var='h', word=('a', 't'))"),
    (fott.EqCat, dict(whole="h", prefix="h1", suffix="h2"), "EqCat(whole='h', prefix='h1', suffix='h2')"),
    (fott.DurIn, dict(var="h", interval=IV),
     "DurIn(var='h', interval=Interval(lower=4, upper=5, lower_open=False, upper_open=True))"),
    (timednet.Cmp, dict(var="x", op="=", value=0), "Cmp(var='x', op='=', value=0)"),
    (timednet.Event, dict(guard=(CMP,), assigns=(("x", 1),)),
     "Event(guard=(Cmp(var='x', op='=', value=0),), assigns=(('x', 1),), urgent=False, keepclock=False)"),
    (timednet.Elapse, dict(window=IV),
     "Elapse(window=Interval(lower=4, upper=5, lower_open=False, upper_open=True), urgent=False)"),
    (timednet.Reaction, dict(event="a"),
     "Reaction(event='a', window=Interval(lower=0, upper=None, lower_open=False, upper_open=False))"),
    (timednet.Transition, dict(source="a", target="a", label="b", kind=timednet.Event()),
     "Transition(source='a', target='a', label='b', "
     "kind=Event(guard=(), assigns=(), urgent=False, keepclock=False))"),
    (timednet.Process, dict(name="P", locations=("a",), initial="a", transitions=()),
     "Process(name='P', locations=('a',), initial='a', transitions=())"),
    (timednet.VarDecl, dict(lo=0, hi=1, init=0), "VarDecl(lo=0, hi=1, init=0)"),
    (timednet.TimedNet, dict(variables={"x": VAR}, processes=(PROC,)),
     "TimedNet(variables=mappingproxy({'x': VarDecl(lo=0, hi=1, init=0)}), "
     "processes=(Process(name='P', locations=('a',), initial='a', transitions=()),), priorities=())"),
    (checker.Verdict, dict(name="v", holds=False, witness_state=3),
     "Verdict(name='v', holds=False, witness_state=3, witness_trace=None, lasso_split=None)"),
    (checker.Report, dict(timings={"eq": 1.0}), "Report(verdicts=[], timings={'eq': 1.0})"),
]

# Immutable, but a field holds a list, a dict or a read-only mapping, which
# has no hash.
UNHASHABLE = {checker.Verdict, checker.Report, timednet.TimedNet}

IDS = [f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}" for cls, _, _ in SAMPLES]


def test_every_node_and_record_type_has_a_sample():
    assert len({cls for cls, _, _ in SAMPLES}) == len(SAMPLES) == 46


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
class TestSemanticsPinned:
    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_equal_fields_are_equal_and_hash_equal(self, cls, fields, text):
        one, other = cls(**fields), cls(**fields)
        assert one == other and not one != other
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(one)
        else:
            assert hash(one) == hash(other) == hash(one)

    def test_the_same_fields_in_another_class_differ(self, cls, fields, text):
        twins = [
            other(**fields)
            for other, other_fields, _ in SAMPLES
            if other is not cls and other_fields.keys() == fields.keys()
        ]
        for twin in [*twins, SimpleNamespace(**fields)]:
            assert cls(**fields) != twin and twin != cls(**fields)

    def test_keeps_no_dict(self, cls, fields, text):
        """Fields and kept values, such as a compiled form, are all slots."""
        assert not hasattr(cls(**fields), "__dict__")

    def test_fields_are_read_only_unless_mutable(self, cls, fields, text):
        """No node or record is mutable: `Verdict` and `Report` too are built
        whole."""
        node = cls(**fields)
        name = next(iter(fields), "anything")
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
        assert repr(node) == text


def test_a_field_that_differs_makes_nodes_unequal():
    assert lts.Or(A, B) != lts.Or(A, Atom("c"))
    assert pathregex.Tick(1, 2) != pathregex.Tick(1, 1)
    assert Interval(4, 5) != IV
    assert checker.Verdict("v", True) != checker.Verdict("v", False)


def test_defaults_are_fresh_or_shared_as_before():
    assert checker.Report().verdicts is not checker.Report().verdicts
    assert timednet.TimedNet(processes=(PROC,)).variables == {}
    assert pathregex.Tick() == pathregex.Tick(1, 1)
    assert StateSet(3) == StateSet(3, 0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: pathregex.Tick(3, 2), "empty tick count range {3,2}"),
        (lambda: mucalc.SuffixTicks(X, 3, 2), "empty tick count range {3,2}"),
        (lambda: Interval(-1, 2), "durations are counts of ticks; negative bound"),
        (lambda: Interval(1, -2), "negative upper bound"),
        (lambda: StateSet(2, 4), "bit vector wider than the graph it belongs to"),
        (lambda: timednet.TimedNet(variables={"1x": VAR}, processes=(PROC,)), "bad variable name '1x'"),
    ],
    ids=["Tick", "SuffixTicks", "Interval lower", "Interval upper", "StateSet", "TimedNet"],
)
def test_construction_still_validates(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_a_timed_net_keeps_read_only_copies_of_its_fields():
    variables = {"x": VAR}
    net = timednet.TimedNet(variables=variables, processes=[PROC], priorities=[])
    variables["y"] = VAR
    assert type(net.variables) is MappingProxyType and set(net.variables) == {"x"}
    assert net.processes == (PROC,) and net.priorities == ()


DEPTH = 5000


def _seq_chain(first: str):
    return pathregex.seq_of(pathregex.One(Atom(first if i == 0 else "a")) for i in range(DEPTH))


def _and_chain(first: str):
    return fott.and_chain([fott.EqLit("h", (first if i == 0 else "a",)) for i in range(DEPTH)])


def _or_chain(first: str):
    f = mucalc.Var(first)
    for _ in range(DEPTH):
        f = mucalc.Or(f, mucalc.Var("X"))
    return f


@pytest.mark.parametrize("build", [_seq_chain, _and_chain, _or_chain], ids=["seq_of", "and_chain", "Or"])
def test_equality_and_hash_do_not_recurse(build):
    """Trees deeper than the recursion limit compare and hash; the pairs are
    built apart, so no subtree is shared between them."""
    assert DEPTH > sys.getrecursionlimit()
    one, other, changed = build("a"), build("a"), build("b")
    assert one == other and hash(one) == hash(other)
    assert one != changed and changed != other
    assert hash(changed) == hash(build("b"))


# (tree, repr): the text of each tree is built here by hand, nesting and all.
DEEP_REPRS = [
    (_seq_chain("a"), "Seq(head=" * DEPTH + "Eps()" + ", step=One(label=Atom(name='a')))" * DEPTH),
    (_and_chain("a"), "And(left=" * (DEPTH - 1) + "EqLit(var='h', word=('a',))"
     + ", right=EqLit(var='h', word=('a',)))" * (DEPTH - 1)),
    (_or_chain("X"), "Or(left=" * DEPTH + "Var(name='X')" + ", right=Var(name='X'))" * DEPTH),
]


@pytest.mark.parametrize("tree, text", DEEP_REPRS, ids=["seq_of", "and_chain", "Or"])
def test_repr_does_not_recurse(tree, text):
    """A tree deeper than the recursion limit prints as a shallow one does."""
    assert repr(tree) == text


# One small tree per family of nodes, with nodes nested in fields, in
# tuples and in lists.
SMALL_TREES = [
    (lts.Or(lts.Not(A), lts.And(lts.Top(), B)),
     "Or(left=Not(arg=Atom(name='a')), right=And(left=Top(), right=Atom(name='b')))"),
    (mucalc.parse_mu("min X | <a>T \\/ X o b"),
     "Min(var='X', body=Or(left=FwdDiamond(label=Atom(name='a'), arg=TrueConst()), "
     "right=BwdDiamond(arg=Var(name='X'), label=Atom(name='b'))))"),
    (mucalc.parse_mu("`0 * -t o Tick{0,2}"),
     "SuffixTicks(arg=SuffixStar(arg=InitConst(), label=Not(arg=Atom(name='t'))), lo=0, hi=2)"),
    (pathregex.parse_regex("a . Tick{2,3} \\/ b*"),
     "Union(left=Seq(head=Seq(head=Eps(), step=One(label=Atom(name='a'))), step=Tick(lo=2, hi=3)), "
     "right=Seq(head=Eps(), step=Star(label=Atom(name='b'))))"),
    (fott.Exists("h", fott.And(fott.EqLit("h", ("a",)), fott.Not(fott.DurIn("h", IV)))),
     "Exists(var='h', body=And(left=EqLit(var='h', word=('a',)), right=Not(arg=DurIn(var='h', "
     "interval=Interval(lower=4, upper=5, lower_open=False, upper_open=True)))))"),
    (timednet.Process("P", ("a",), "a", (timednet.Transition("a", "a", "b", timednet.Event((CMP,))),)),
     "Process(name='P', locations=('a',), initial='a', transitions=(Transition(source='a', target='a', "
     "label='b', kind=Event(guard=(Cmp(var='x', op='=', value=0),), assigns=(), urgent=False, "
     "keepclock=False)),))"),
    (checker.Report([checker.Verdict("v", False, witness_state=2)], {}),
     "Report(verdicts=[Verdict(name='v', holds=False, witness_state=2, witness_trace=None, "
     "lasso_split=None)], timings={})"),
]


@pytest.mark.parametrize("tree, text", SMALL_TREES, ids=["lts", "mucalc", "ticks", "pathregex", "fott", "timednet", "checker"])
def test_repr_of_a_small_tree(tree, text):
    assert repr(tree) == text


def _python_calls(action) -> list[str]:
    """The names of the Python functions that `action()` calls, in order."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    assert calls[0] == action.__name__
    return calls[1:]


@pytest.mark.parametrize(
    "build",
    [
        lambda: lts.Atom("a"),
        lambda: lts.Or(A, B),
        lambda: mucalc.FwdDiamond(A, X),
        lambda: pathregex.Seq(pathregex.EPS, STEP),
        lambda: StateSet(4, 6),
    ],
    ids=["Atom", "Or", "FwdDiamond", "Seq", "StateSet"],
)
def test_building_a_node_makes_one_python_call(build):
    assert _python_calls(build) == ["__init__"]


def test_a_second_hash_makes_at_most_one_python_call():
    node = mucalc.FwdDiamond(lts.Or(A, lts.Not(B)), mucalc.And(X, mucalc.TRUE))
    first = hash(node)
    assert len(_python_calls(lambda: hash(node))) <= 1
    assert hash(node) == first
