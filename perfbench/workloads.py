"""The four benchmark workloads: seeded inputs, one pass each, and the check
of every output against a reference that does not come from the code under
test.

A workload builds its inputs from the seed once (`build`).  Each pass then
takes the inputs for that pass (`prepare`, untimed), runs the operations
(`run`) and checks the outputs (`check`, untimed), which returns (operations
attempted, operations failed).  An operation that raises counts as failed.
`run` splits a pass into timed pieces, each run through the `timer` it is
given as `timer(group, fn, *args)`; every pass has the same pieces in the
same order.

Every obscheck function is looked up through its module at call time, so the
traced run's wrappers see every call made from here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import traceback
from pathlib import Path

from obscheck import cli, fott, lts, mucalc, mucompile, pathregex, timednet
from obscheck.lts import And, Atom, Not, Or, Top
from obscheck.pathregex import EPS, One, Seq, Star, Tick, Union

LABELS = ("a", "b", "t", "z")


class Workload:
    """`items_per_pass` counts the `item`s one pass works through, and
    `rss_passes` is the number of passes after which peak RSS is read."""

    name: str
    item: str
    items_per_pass: int
    rss_passes = 1

    def prepare(self):
        """Inputs of the next pass, built outside the timed region."""
        raise NotImplementedError

    def run(self, inputs, timer):
        """The operations, in pieces timed by `timer`; returns their outputs."""
        raise NotImplementedError

    def check(self, inputs, out) -> tuple[int, int]:
        """(operations attempted, operations failed) for one pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# present_check: the `check` command on the builtin present model ladder

# (case name, d1, d2, pattern lo, pattern hi); every window is half-open.
PRESENT_CASES = (
    ("w12_20", 12, 20, 12, 20),
    ("w20_40", 20, 40, 20, 40),
    ("w30_60", 30, 60, 30, 60),
    ("w20_40_vs_20_39", 20, 40, 20, 39),
)

# Expected verdicts, in report order, written down from the meaning of each
# check rather than read off the program.  When the pattern matches the
# observer, every verdict holds except the naive converse inclusion, whose
# counterexample is a time-divergent lasso.  When the pattern closes one tick
# early, a watch state one tick before the deadline is neither visited by the
# pattern nor in error: equivalence and soundness fail, correctness holds.
MATCHING_VERDICTS = (
    ("eq_tautology", True),
    ("reach[a]", True),
    ("reach[b]", True),
    ("reach[t]", True),
    ("innocuous", True),
    ("naive_errors_in_complement", True),
    ("naive_complement_in_errors", False),
    ("oracle_agreement", True),
    ("no_tickless_cycle", True),
)
MISMATCHED_VERDICTS = (
    ("eq_tautology", False),
    ("eq_soundness", False),
    ("eq_correctness", True),
) + MATCHING_VERDICTS[1:]


class PresentCheck(Workload):
    """In-process `obscheck check --json` on each rung; one operation per call."""

    name = "present_check"
    item = "checks"

    def __init__(self, seed: int):
        cases = list(PRESENT_CASES)
        random.Random(seed).shuffle(cases)
        self.cases = [
            (
                case,
                [
                    "check", "--model", f"builtin:present:{d1}:{d2}",
                    "--pattern", "present", "--a", "a", "--b", "b",
                    "--lo", str(lo), "--hi", str(hi), "--hi-open",
                    "--error-label", "error", "--json",
                ],
                (d1, d2) == (lo, hi),
            )
            for case, d1, d2, lo, hi in cases
        ]
        self.items_per_pass = len(self.cases)

    def prepare(self):
        return self.cases

    def run(self, cases, timer):
        out = []
        for case, argv, _ in cases:
            buf = io.StringIO()
            out.append((timer(f"verdict_s.{case}", _check_command, argv, buf), buf.getvalue()))
        return out

    def check(self, cases, out):
        failed = 0
        for (case, _, matching), (status, text) in zip(cases, out):
            if not _present_ok(status, text, matching):
                _report(self.name, f"{case}: unexpected result: {text[:200]!r}", status)
                failed += 1
        return len(out), failed


def _check_command(argv, buf):
    """Exit status of the command, or the exception it raised."""
    try:
        with contextlib.redirect_stdout(buf):
            return cli.main(argv)
    except Exception as err:  # noqa: BLE001 - an exception is a failed operation
        return err


def _present_ok(status, text: str, matching: bool) -> bool:
    if status != (0 if matching else 1):
        return False
    try:
        doc = json.loads(text)
    except ValueError:
        return False
    verdicts = doc["verdicts"]
    expected = MATCHING_VERDICTS if matching else MISMATCHED_VERDICTS
    if [(v["name"], v["holds"]) for v in verdicts] != list(expected):
        return False
    if doc["overall"] is not matching:
        return False
    for v in verdicts:
        if not v["holds"] and not isinstance(v["witnessState"], int):
            return False
    if matching:
        lasso = next(v for v in verdicts if v["name"] == "naive_complement_in_errors")
        cycle = lasso["witnessTrace"][lasso["lassoSplit"]:]
        if not cycle or any(label != "t" for label in cycle):
            return False
    return True


# ---------------------------------------------------------------------------
# random_crosscheck: compiled formulas against product oracles, and the
# direct word matcher against the automaton, on many small random inputs

# 44 rounds of the 12 graph sizes x 3 branch counts.  The seed draws what
# each pair holds, so the work of a pass varies with the seed; over 396 pairs
# the label evaluations of a pass ranged over 20% across ten seeds, and more
# pairs per pass average that out.
PAIRS_PER_PASS = 1584
PAIR_PIECES = 16  # timed pieces per pass, of consecutive pairs
WORDS_PER_PAIR = 4


def random_label_expr(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        return Atom(rng.choice(LABELS))
    if roll < 0.65:
        return Top()
    if roll < 0.8:
        return Not(random_label_expr(rng, depth - 1))
    if roll < 0.9:
        return Or(random_label_expr(rng, depth - 1), random_label_expr(rng, depth - 1))
    return And(random_label_expr(rng, depth - 1), random_label_expr(rng, depth - 1))


def random_regex(rng: random.Random, branches: int):
    regex = None
    for _ in range(branches):
        branch = EPS
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.4:
                step = One(random_label_expr(rng))
            elif roll < 0.8:
                step = Star(random_label_expr(rng))
            else:
                step = Tick()
            branch = Seq(branch, step)
        regex = branch if regex is None else Union(regex, branch)
    return regex


def random_graph(rng: random.Random, n: int):
    labels = rng.sample(LABELS, rng.randint(1, len(LABELS)))
    edges = [
        (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    ]
    return lts.Lts(n, 0, edges, extra_labels=labels)


def _label_holds(expr, symbol: str) -> bool:
    kind = type(expr)
    if kind is Atom:
        return expr.name == symbol
    if kind is Top:
        return True
    if kind is Not:
        return not _label_holds(expr.arg, symbol)
    if kind is And:
        return _label_holds(expr.left, symbol) and _label_holds(expr.right, symbol)
    return _label_holds(expr.left, symbol) or _label_holds(expr.right, symbol)


def sample_word(rng: random.Random, regex) -> tuple[str, ...]:
    """A word shaped like one branch of the regex.  About nine in ten such
    words are accepted and four in five uniform words are not, so a pair's
    four words exercise both answers.  It is only an input, never a
    reference."""
    if type(regex) is Union:
        return sample_word(rng, rng.choice((regex.left, regex.right)))
    if type(regex) is not Seq:
        return ()
    word = list(sample_word(rng, regex.head))
    step = regex.step
    if type(step) is Tick:
        word.append("t")
        word.extend(rng.choice(("a", "b", "z")) for _ in range(rng.randint(0, 2)))
        return tuple(word)
    fits = [s for s in LABELS if _label_holds(step.label, s)] or list(LABELS)
    count = 1 if type(step) is One else rng.randint(0, 2)
    word.extend(rng.choice(fits) for _ in range(count))
    return tuple(word)


class RandomCrosscheck(Workload):
    """Each pass builds the same seeded pairs as fresh objects, so every pass
    meets regexes, label expressions and graphs it has never seen.  Each pair
    is checked on its own.  Peak RSS is read after 5 passes, by which time
    what pathregex's id-keyed caches pin is most of the process's memory."""

    name = "random_crosscheck"
    item = "pairs"
    rss_passes = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.items_per_pass = PAIRS_PER_PASS

    def prepare(self):
        rng = random.Random(self.seed)
        pairs = []
        for i in range(PAIRS_PER_PASS):
            # Sizes cycle rather than being drawn, so that seeds differ in
            # content but hardly in the work a pass holds.
            g = random_graph(rng, 1 + i % 12)
            r = random_regex(rng, 1 + i // 12 % 3)
            words = [sample_word(rng, r) for _ in range(WORDS_PER_PAIR // 2)]
            words += [
                tuple(rng.choice(LABELS) for _ in range(rng.randint(0, 8)))
                for _ in range(WORDS_PER_PAIR - len(words))
            ]
            pairs.append((g, r, words))
        return pairs

    def run(self, pairs, timer):
        out = []
        step = -(-len(pairs) // PAIR_PIECES)
        for lo in range(0, len(pairs), step):
            out += timer("pairs", _crosscheck, pairs[lo : lo + step])
        return out

    def check(self, pairs, out):
        failed = 0
        for i, got in enumerate(out):
            if isinstance(got, Exception):
                _report(self.name, f"pair {i} raised", got)
                failed += 1
                continue
            (end, end_ref, visited, visited_ref), verdicts = got
            if end != end_ref or visited != visited_ref or any(m != a for m, a in verdicts):
                _report(self.name, f"pair {i}: routes disagree on {pairs[i][1]!r:.300}")
                failed += 1
        return len(out), failed


def _crosscheck(pairs) -> list:
    """Both routes on each pair: (the four state sets, the word verdicts),
    or the exception the pair raised."""
    out = []
    for g, r, words in pairs:
        try:
            end_f, visited_f = mucompile.compile_both(r)
            sets = (
                mucalc.eval_mu(g, end_f),
                pathregex.oracle_end_states(g, r),
                mucalc.eval_mu(g, visited_f),
                pathregex.oracle_visited_states(g, r),
            )
            nfa = pathregex.build_nfa(r)
            verdicts = [(pathregex.match_word(r, w), nfa.accepts(w)) for w in words]
            out.append((sets, verdicts))
        except Exception as err:  # noqa: BLE001 - an exception is a failed operation
            out.append(err)
    return out


# ---------------------------------------------------------------------------
# trace_sweep: the criterion-4 word sweep, regex matcher against trace formula

SWEEP_MAX_LENGTH = 6
SWEEP_CHUNKS = 4  # timed pieces per interval, of consecutive words
SWEEP_INTERVALS = (
    ("i4_5", fott.Interval(4, 5, upper_open=True)),
    ("i1_3", fott.Interval(1, 3, upper_open=True)),
    ("i0_1", fott.Interval(0, 1, upper_open=True)),
    ("i2_2", fott.Interval(2, 2)),
)


class TraceSweep(Workload):
    """Every word up to SWEEP_MAX_LENGTH, in a seeded order, against each
    interval; one operation per (word, interval), timed in SWEEP_CHUNKS
    runs of consecutive words per interval."""

    name = "trace_sweep"
    item = "words"

    def __init__(self, seed: int):
        words = [
            w for n in range(SWEEP_MAX_LENGTH + 1) for w in itertools.product(LABELS, repeat=n)
        ]
        random.Random(seed).shuffle(words)
        self.words = words
        self.patterns = [
            (name, fott.present_regex("a", "b", iv), fott.present_fott("a", "b", iv))
            for name, iv in SWEEP_INTERVALS
        ]
        self.items_per_pass = len(words) * len(self.patterns)

    def prepare(self):
        return None

    def run(self, _, timer):
        disagree, errors = [], []
        step = -(-len(self.words) // SWEEP_CHUNKS)
        for name, regex, formula in self.patterns:
            for lo in range(0, len(self.words), step):
                words = self.words[lo : lo + step]
                timer(f"sweep_s.{name}", _sweep, regex, formula, words, disagree, errors)
        return disagree, errors

    def check(self, _, out):
        disagree, errors = out
        for w in disagree[:5]:
            _report(self.name, f"regex and trace formula disagree on {''.join(w)!r}")
        if errors:
            _report(self.name, f"{len(errors)} operations raised; the first", errors[0])
        return self.items_per_pass, len(disagree) + len(errors)


def _sweep(regex, formula, words, disagree: list, errors: list) -> None:
    """Appends each word on which the two routes disagree, and each exception."""
    match_word, eval_fott = pathregex.match_word, fott.eval_fott
    for w in words:
        try:
            if match_word(regex, w) != eval_fott(formula, {"x": w}):
                disagree.append(w)
        except Exception as err:  # noqa: BLE001 - an exception is a failed operation
            errors.append(err)


# ---------------------------------------------------------------------------
# explore_net: the `gen` path on a seeded network

# Windows (d1, d2 - d1) of the observers.  A seed assigns them to observers in
# its own order and names each observer's labels, so every seed explores
# graphs of one shape and size, with different labels, state numbering and
# output bytes.
NET_WINDOWS = ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (0, 2), (1, 1), (2, 1))
NET_VARIANTS = 64
REFERENCE_FILE = Path(__file__).with_name("explore_net_ref.json")


def net_text(seed: int) -> str:
    """Universal environment plus one present-style observer per window,
    each with its own labels and its own priorities over the events."""
    rng = random.Random(seed % NET_VARIANTS)
    windows = list(NET_WINDOWS)
    rng.shuffle(windows)
    tags = rng.sample([c + d for c in "cdefghijklmnopqrsuvwxy" for d in "0123456789"], len(windows))
    lines = [
        "var x : 0..2 = 0",
        "",
        "process Universal",
        "init u0",
        "from u0 on a do x := 1 to u0",
        "from u0 on b do x := 2 to u0",
        "from u0 on z when x != 0 do x := 0 urgent to u0",
    ]
    priorities = []
    for tag, (d1, width) in zip(tags, windows):
        lines += [
            "",
            f"process Obs_{tag}",
            "init idle",
            f"from idle probe b when elapsed in [0,w[ label start_{tag} to start",
            f"from start elapse [{d1},{d1}] urgent label watch_{tag} to watch",
            f"from watch probe a when elapsed in [0,{width}[ label stop_{tag} to ok",
            f"from watch elapse [{width},w[ label error_{tag} to error",
        ]
        priorities += [f"priority watch_{tag} > a", f"priority watch_{tag} > b"]
    rng.shuffle(priorities)
    return "\n".join(lines + [""] + priorities) + "\n"


def gen_digest(states: int, transitions: int, aut: str, dot: str) -> list:
    return [
        states,
        transitions,
        hashlib.sha256(aut.encode()).hexdigest(),
        hashlib.sha256(dot.encode()).hexdigest(),
    ]


def load_reference(seed: int) -> list:
    table = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return table["variants"][seed % NET_VARIANTS]


class ExploreNet(Workload):
    """parse_net, explore, save_aut and to_dot on the seed's network; one
    operation per pass, timed per step and checked against the recorded
    reference."""

    name = "explore_net"
    item = "states"

    def __init__(self, seed: int):
        self.text = net_text(seed)
        self.reference = load_reference(seed)
        self.items_per_pass = self.reference[0]

    def prepare(self):
        return self.text

    def run(self, text, timer):
        try:
            g = timer("gen_s.explore", timednet.explore, timer("gen_s.parse", timednet.parse_net, text))
            aut = timer("gen_s.save_aut", lts.save_aut, g)
            dot = timer("gen_s.to_dot", lts.to_dot, g)
            return g.num_states, len(g.transitions), aut, dot
        except Exception as err:  # noqa: BLE001 - an exception is a failed operation
            return err

    def check(self, _, out):
        if isinstance(out, Exception):
            _report(self.name, "the pass raised", out)
            return 1, 1
        got = gen_digest(*out)
        if got != self.reference:
            _report(self.name, f"output {got} differs from the reference {self.reference}")
            return 1, 1
        return 1, 0


WORKLOADS = {w.name: w for w in (PresentCheck, RandomCrosscheck, TraceSweep, ExploreNet)}


def build(name: str, seed: int):
    return WORKLOADS[name](seed)


def _report(workload: str, message: str, err=None) -> None:
    print(f"perfbench {workload}: {message}", file=sys.stderr)
    if isinstance(err, BaseException):
        traceback.print_exception(err, file=sys.stderr)
    elif err is not None:
        print(f"  exit status {err!r}", file=sys.stderr)
