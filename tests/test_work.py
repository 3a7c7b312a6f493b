"""Work bounds on the shapes whose cost used to grow faster than their size.
Each test counts work (no wall clock) on a ladder of sizes up to 2,000 and
bounds it at 2.2x per doubling, or tighter."""

import pytest

from obscheck.checker import internal_label_expr
from obscheck.lts import Atom, Lts
from obscheck.mucalc import eval_mu
from obscheck.mucompile import reach_formula

LADDER = (500, 1000, 2000)


def internal_chain(n: int) -> Lts:
    """n internal `z` steps to a state where `a` and `t` loop."""
    return Lts(n + 1, 0, [(i, "z", i + 1) for i in range(n)] + [(n, "a", n), (n, "t", n)])


@pytest.mark.parametrize("event", ["a", "t"])
def test_reach_formula_on_an_internal_chain(image_count, event):
    """The reach formula's binder is linear, so each round images only the
    state the round before added: N + 1 bits for `<e>T` on every state, then
    one per chain step, at most 2(N + 1) in all."""
    internal = internal_label_expr([Atom("a")])
    work = []
    for n in LADDER:
        g = internal_chain(n)
        image_count.bits = 0
        assert eval_mu(g, reach_formula(Atom(event), internal)).is_all
        assert image_count.bits <= 2 * (n + 1), n
        work.append(image_count.bits)
    assert work[1] <= 2.2 * work[0] and work[2] <= 2.2 * work[1], work
