"""Checks of the benchmark's own inputs, and of the explore_net reference table.

    python3 perfbench/selfcheck.py

The generated .net text must parse for a sweep of seeds, the `gen` output of
every variant must match explore_net_ref.json, and every variant must give
the same number of states and transitions (the seed only permutes windows
among observers and renames labels).  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys

from run import import_program

import_program()

import workloads  # noqa: E402
from obscheck import lts, timednet  # noqa: E402

SWEEP_SEEDS = list(range(2 * workloads.NET_VARIANTS)) + [10**6 + 7, 2**31 - 1]


def check_parse() -> int:
    failures = 0
    for seed in SWEEP_SEEDS:
        try:
            net = timednet.parse_net(workloads.net_text(seed))
        except timednet.NetError as err:
            print(f"seed {seed}: parse_net rejected the text: {err}")
            failures += 1
            continue
        if len(net.processes) != 1 + len(workloads.NET_WINDOWS):
            print(f"seed {seed}: expected {1 + len(workloads.NET_WINDOWS)} processes")
            failures += 1
    print(f"parse_net sweep: {len(SWEEP_SEEDS)} seeds, {failures} failures")
    return failures


def gen(variant: int) -> list:
    g = timednet.explore(timednet.parse_net(workloads.net_text(variant)))
    return workloads.gen_digest(g.num_states, len(g.transitions), lts.save_aut(g), lts.to_dot(g))


def main() -> int:
    failures = check_parse()
    for v in range(workloads.NET_VARIANTS):
        if gen(v) != workloads.load_reference(v):
            print(f"variant {v}: gen output differs from the reference")
            failures += 1
    print(f"explore_net reference: {workloads.NET_VARIANTS} variants checked")
    sizes = {tuple(row[:2]) for row in json.loads(workloads.REFERENCE_FILE.read_text())["variants"]}
    if len(sizes) != 1:
        print(f"variants differ in size: {sorted(sizes)}")
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
