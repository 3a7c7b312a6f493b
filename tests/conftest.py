"""Shared fixtures and seeded random model generators."""

import contextlib
import gc
import random
from dataclasses import dataclass

import pytest
from hypothesis import settings

from obscheck import lts
from obscheck.lts import And as LAnd
from obscheck.lts import Atom, Lts
from obscheck.lts import Not as LNot
from obscheck.lts import Or as LOr
from obscheck.lts import Top
from obscheck.pathregex import One, PathRegex, Star, Tick, Union, seq_of
from obscheck.timednet import builtin_present, explore, parse_net

# Every @given test draws the same examples on every run, so tier-1 results
# repeat; tests keep their own max_examples and deadlines.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

LABELS = ("a", "b", "t", "z")

ZENO_NET = """
var x : 0..2 = 0

process Universal
init u0
from u0 on a do x := 1 to u0
from u0 on b do x := 2 to u0
from u0 on z when x != 0 do x := 0 urgent to u0

process Spinner
init idle
from idle probe b when elapsed in [0,w[ label hook to spin
from spin elapse [0,0] urgent label spin to spin
"""


def observers_net(windows) -> str:
    """The universal environment plus one present-style observer per window
    (d1, d2 - d1), each with its own labels and its own priorities over the
    events: the shape of the benchmark's `explore_net` networks."""
    lines = [
        "var x : 0..2 = 0",
        "process Universal",
        "init u0",
        "from u0 on a do x := 1 to u0",
        "from u0 on b do x := 2 to u0",
        "from u0 on z when x != 0 do x := 0 urgent to u0",
    ]
    priorities = []
    for i, (d1, width) in enumerate(windows):
        lines += [
            f"process Obs{i}",
            "init idle",
            f"from idle probe b when elapsed in [0,w[ label start{i} to start",
            f"from start elapse [{d1},{d1}] urgent label watch{i} to watch",
            f"from watch probe a when elapsed in [0,{width}[ label stop{i} to ok",
            f"from watch elapse [{width},w[ label error{i} to error",
        ]
        priorities += [f"priority watch{i} > a", f"priority watch{i} > b"]
    return "\n".join(lines + priorities) + "\n"


SIX_OBSERVERS_NET = observers_net(((0, 1), (1, 2), (2, 1), (3, 2), (1, 1), (2, 2)))


def random_label_expr(rng: random.Random, depth: int = 2):
    roll = rng.random()
    if depth == 0 or roll < 0.55:
        return Atom(rng.choice(LABELS))
    if roll < 0.65:
        return Top()
    if roll < 0.8:
        return LNot(random_label_expr(rng, depth - 1))
    if roll < 0.9:
        return LOr(random_label_expr(rng, depth - 1), random_label_expr(rng, depth - 1))
    return LAnd(random_label_expr(rng, depth - 1), random_label_expr(rng, depth - 1))


def random_step(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return One(random_label_expr(rng))
    if roll < 0.8:
        return Star(random_label_expr(rng))
    if roll < 0.9:
        return Tick()
    lo = rng.randint(0, 2)
    return Tick(lo, lo + rng.randint(0, 2))


def random_regex(rng: random.Random, max_steps: int = 5) -> PathRegex:
    out = None
    for _ in range(rng.randint(1, 3)):
        branch = seq_of(random_step(rng) for _ in range(rng.randint(0, max_steps)))
        out = branch if out is None else Union(out, branch)
    return out


def random_lts(rng: random.Random, max_states: int = 12, max_labels: int = 4) -> Lts:
    n = rng.randint(1, max_states)
    labels = rng.sample(LABELS, rng.randint(1, max_labels))
    edges = [
        (rng.randrange(n), rng.choice(labels), rng.randrange(n))
        for _ in range(rng.randint(0, 3 * n))
    ]
    return Lts(n, 0, edges, extra_labels=labels)


@dataclass
class ImageCount:
    calls: int = 0  # calls of the post/pre image and of the star and tick-step search
    bits: int = 0  # states fed to the image or entered by the search, summed over the calls
    searches: int = 0  # the calls of the search alone
    entered: int = 0  # the states the searches entered alone, their start states included
    words: int = 0  # 64-bit words of the bit sets the image and the searches read or build


def _words(bits: int) -> int:
    return (bits.bit_length() + 63) >> 6


@pytest.fixture
def image_count(monkeypatch) -> ImageCount:
    """Counts the post/pre image and search work done from here to the end of the test."""
    count = ImageCount()
    image, search, members, bits_of = lts._image, lts._search, lts._members, lts._bits_of

    def counting_image(bits, edges, matches):
        count.calls += 1
        count.bits += bits.bit_count()
        out = image(bits, edges, matches)
        count.words += _words(bits) + _words(out)
        return out

    def counting_search(todo, edges, matches, seen):
        size = len if type(seen) is set else int.bit_count
        before, started = size(seen), size(todo)
        seen = search(todo, edges, matches, seen)
        entered = started + size(seen) - before
        count.calls += 1
        count.searches += 1
        count.bits += entered
        count.entered += entered
        return seen

    def counting_members(bits):
        count.words += _words(bits)
        return members(bits)

    def counting_bits_of(states, n):
        out = bits_of(states, n)
        count.words += _words(out)
        return out

    monkeypatch.setattr(lts, "_image", counting_image)
    monkeypatch.setattr(lts, "_search", counting_search)
    monkeypatch.setattr(lts, "_members", counting_members)
    monkeypatch.setattr(lts, "_bits_of", counting_bits_of)
    return count


@pytest.fixture(scope="session")
def present45_graph():
    return explore(builtin_present(4, 5))


@pytest.fixture(scope="session")
def zeno_graph():
    return explore(parse_net(ZENO_NET))


@contextlib.contextmanager
def collector_off():
    """Runs the block after a full collection with the cycle collector off,
    so that what the block drops is freed by reference counting or not at all."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def chain_lts(*labels: str) -> Lts:
    """0 -l1-> 1 -l2-> 2 ... along the given labels."""
    return Lts(len(labels) + 1, 0, [(i, lab, i + 1) for i, lab in enumerate(labels)])
