"""obscheck benchmark: one workload per run, single process, single thread,
closed loop (each operation starts after the previous one returns).

    python3 perfbench/run.py --workload present_check --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

With --trace 0 the run measures the end-to-end metrics with no wrappers
installed.  With --trace 1 it reports the per-layer metrics instead: one
pass runs under tracemalloc, two under counters, and then untraced and
span-traced passes alternate; the spans are written to
.perfbench/spans-<workload>.tsv.gz when the run ends.  Every output is checked
in every pass.  The last line of standard output is one JSON object; the
lines before it show the same metrics, plus the per-case and per-item figures
that only one workload has, by name with their units.  The program is
imported from the src/ directory next to this one, never from elsewhere.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("present_check", "random_crosscheck", "trace_sweep", "explore_net")
SETUP_SAMPLES = 7  # spread over the run; setup_s is their median
SETUP_BURST = 2  # back-to-back set-ups per sample; a sample is the fastest
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
REF_LOOPS = 3  # reference loops at each boundary between timed pieces
# About the fastest time of reference_loop() on the host the baseline was
# taken on; it fixes the speed that pass_s is scaled to.
REF_NOMINAL_S = 0.00075


def import_program() -> None:
    if not (SRC / "obscheck" / "__init__.py").is_file():
        sys.exit(f"perfbench: no obscheck sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import obscheck

    if Path(obscheck.__file__).resolve().parent != SRC / "obscheck":
        sys.exit(f"perfbench: imported obscheck from {obscheck.__file__}, not from {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> None:
    """Child side of setup_s: import, build the inputs of the first pass,
    then print the monotonic clock, which the parent compares with the
    moment it started this interpreter, and the reference time measured
    right after, on the child's own core."""
    import_program()
    import workloads

    workloads.build(args.workload, args.seed).prepare()
    done = time.monotonic()
    print(repr(done), repr(fastest_reference()))


def setup_sample(args) -> float:
    """The fastest of SETUP_BURST set-ups in fresh interpreters, one after
    another, each scaled to the nominal speed by the reference time its
    interpreter measured, so that a sample reads the set-up cost and not
    the load from other processes on the machine."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
    ]
    times = []
    for _ in range(SETUP_BURST):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit("perfbench: set-up probe failed")
        end, ref = map(float, done.stdout.split()[-2:])
        times.append((end - t0) * REF_NOMINAL_S / ref)
    return min(times)


def fastest_reference() -> float:
    """Fastest of REF_LOOPS runs of reference_loop(), in seconds."""
    best = float("inf")
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def reference_loop() -> int:
    """Fixed pure-Python work that never touches obscheck: building,
    sorting and hashing small tuples, as obscheck does with states, labels
    and transitions.  Work of this kind slows down under the machine's load
    by close to the same factor as the workloads' pieces do; a tight loop of
    integer and dictionary operations slowed down about twice as much."""
    items = [(i * 7919 % 997, i, (i, i + 1)) for i in range(1800)]
    items.sort()
    keys = {item[0] for item in items}
    pairs = frozenset(item[2] for item in items)
    return len(keys) + len(pairs)


class PieceTimer:
    """The clock a workload's `run` times its pieces with, called as
    `timer(group, fn, *args)`.  A piece is known by its group and its place
    among that group's pieces in the pass, and collects one sample per pass:
    (seconds, reference seconds).  With `calibrate`, reference_loop() runs
    REF_LOOPS times at each boundary between pieces, and a piece's reference
    is the fastest of the loops at its two boundaries; without it, the
    reference is REF_NOMINAL_S."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.samples: dict[tuple[str, int], list[tuple[float, float]]] = {}
        self._count: dict[str, int] = {}
        self._edge = REF_NOMINAL_S

    def start_pass(self) -> None:
        self._count = {}
        self._edge = self._reference()

    def _reference(self) -> float:
        return fastest_reference() if self.calibrate else REF_NOMINAL_S

    def __call__(self, group: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
        before, self._edge = self._edge, self._reference()
        index = self._count[group] = self._count.get(group, -1) + 1
        self.samples.setdefault((group, index), []).append((seconds, min(before, self._edge)))
        return result

    def scaled(self) -> dict[tuple[str, int], float]:
        """Each piece's median time in the run once scaled to the nominal
        speed: the median of seconds * REF_NOMINAL_S / reference."""
        return {
            key: statistics.median(seconds * REF_NOMINAL_S / ref for seconds, ref in samples)
            for key, samples in self.samples.items()
        }

    def fastest(self) -> dict[tuple[str, int], float]:
        return {key: min(seconds for seconds, _ in samples) for key, samples in self.samples.items()}


class Tally:
    """Operations attempted and failed over every pass of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, counts) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def one_pass(workload, tally: Tally, timed=None, timer=None):
    """prepare, run and check one pass; `timed` wraps the run (for tracing)
    and `timer` times its pieces.  Returns (seconds in run, run output, what
    `timed` measured)."""
    inputs = workload.prepare()
    timer = timer or PieceTimer(calibrate=False)
    timer.start_pass()

    def run():
        t0 = time.perf_counter()
        out = workload.run(inputs, timer)
        return time.perf_counter() - t0, out

    (seconds, out), extra = timed(run) if timed else (run(), None)
    tally.add(workload.check(inputs, out))
    return seconds, out, extra


def end_to_end(args, workload, tally: Tally):
    """Passes until the run's seconds are spent.  Set-up samples are taken
    between passes, spread over the run, so that they meet the same mix of
    machine load as the passes.  pass_s sums, over the timed pieces of a
    pass, each piece's median time in the run scaled to the nominal speed
    (PieceTimer.scaled)."""
    timer = PieceTimer(calibrate=True)
    setups, peak_rss_mb, passes = [], None, 0
    min_passes = max(MIN_TIMED_PASSES, workload.rss_passes)
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or passes < min_passes:
        if time.perf_counter() - start >= len(setups) * args.seconds / SETUP_SAMPLES:
            setups.append(setup_sample(args))
        one_pass(workload, tally, timer=timer)
        passes += 1
        if passes == workload.rss_passes:  # after a fixed amount of work
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample(args))
    groups = {}
    for (group, _), seconds in timer.scaled().items():
        groups[group] = groups.get(group, 0.0) + seconds
    pass_s = sum(groups.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extras = {group: (groups[group], "s") for group in sorted(groups)} if len(groups) > 1 else {}
    extras["pass_s.fastest"] = (sum(timer.fastest().values()), "s")
    refs = [ref for samples in timer.samples.values() for _, ref in samples]
    extras["reference_s.median"] = (statistics.median(refs), "s")
    extras[f"{workload.item}_per_s"] = (workload.items_per_pass / pass_s, "1/s")
    return metrics, extras, passes


def per_layer(args, workload, tally: Tally):
    """The tracemalloc and counting passes come first and count against the
    run's seconds; untraced and span-traced passes then alternate."""
    import tracing

    stop = time.perf_counter() + args.seconds
    retained = tracing.retained_kb(lambda: one_pass(workload, tally))
    _, _, post_pre = one_pass(workload, tally, tracing.post_pre_pass)
    _, _, counts = one_pass(workload, tally, tracing.counting_pass)
    recorder = tracing.SpanRecorder()
    plain, traced, layers = [], [], []
    while time.perf_counter() < stop or len(traced) < MIN_TRACED_PASSES:
        plain.append(one_pass(workload, tally)[0])
        seconds, _, summary = one_pass(workload, tally, recorder.traced_pass)
        traced.append(seconds)
        layers.append(summary)
    recorder.write(ROOT / ".perfbench" / f"spans-{args.workload}.tsv.gz")

    metrics = {}
    for name in list(tracing.INCLUSIVE) + list(tracing.SELF):
        metrics[name] = (statistics.median(s[name] for s in layers), "s")
    for name in tracing.POST_PRE:
        metrics[name] = (post_pre[name], "s" if name.endswith("_s") else "count")
    for name in tracing.COUNTS:
        metrics[name] = (counts[name], "count")
    for name, kib in retained.items():
        metrics[name] = (kib, "KiB")
    metrics["trace.pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics, {}, len(plain) + len(traced)


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter; prints their metric lines."""
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    import_program()
    import workloads

    workload = workloads.build(args.workload, args.seed)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, extras, passes = measure(args, workload, tally)

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} timed_passes={passes} "
        f"attempted={tally.attempted} failed={tally.failed} "
        f"fail_frac={tally.failed / max(tally.attempted, 1)!r}"
    )
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"  {name:28s} {value!r} {unit}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
