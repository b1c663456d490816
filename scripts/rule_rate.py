#!/usr/bin/env python3
"""Print the process CPU time and the trace memory per rule application of
the reduction strategies on the branch-diamond family.

    python3 scripts/rule_rate.py

It runs `run_auto(expfam(k))` and `run_general(expfam(k))` for k = 8,
16, 32, 64 and 128, and `run_exponential_demo(expfam(k), strategy)` for
both strategies and k = 3..6. `run_auto` sends the acyclic `expfam` to
`run_acyclic`; `run_general` is the one algorithm for every sound
deterministic diagram, and its rows show what that costs on the same
inputs. For each it prints the number of applications, the most
results the initial atom holds after an application (read from the
changes the trace records), the CPU milliseconds per application, and
the KB of memory the trace holds per application. The time is the median
over calls, each on a freshly built diagram and after a full garbage
collection, so every call builds the indexes it reads and the collections
that fall due inside it depend on its own allocations alone; there are at
least three calls, and as many as it takes to time 2,000 applications, so
a small diagram is timed over as much work as a large one. The memory is
what `tracemalloc` counts as still allocated, after a collection, from
one more call that keeps its trace. A per-application cost that stays
flat as k grows means an application costs its site, not the diagram.

Last it prints the time per application of `run_auto(expfam(128))` over
that of `run_auto(expfam(8))`, timed in interleaved rounds: each round
times k = 8, k = 128 and k = 8 again, back to back, and divides the time
at k = 128 by the mean of its two neighbours; the ratio is the median
over the rounds. On a shared host a slow spell then lands on both sides
of one round's ratio instead of on one point of the table alone.
Standard library only; negsum is loaded from the `src/` directory next to
this script.
"""

from __future__ import annotations

import gc
import math
import pathlib
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from negsum import expfam, run_auto, run_general  # noqa: E402
from negsum.strategies import run_exponential_demo  # noqa: E402

REPEATS = 3
MIN_APPLICATIONS = 2000  # each point times at least this many applications
AUTO_KS = (8, 16, 32, 64, 128)
RATIO_KS = (8, 128)  # the points of the interleaved ratio
ROUNDS = 7
DEMO_KS = (3, 4, 5, 6)


def peak_initial_results(trace) -> int:
    """The most results the initial atom holds after any application of
    the trace, read from the changes it records."""
    initial = trace.initial.initial
    count, peak = len(trace.initial.results(initial)), 0
    for app in trace.applications:
        if app.change.spec.id == initial:
            count = len(app.change.spec.results)
        peak = max(peak, count)
    return peak


def held_kb(k: int, reduce) -> float:
    """KB still allocated, after a collection, by `reduce(expfam(k))`
    while its trace is kept."""
    neg = expfam(k)
    gc.collect()
    tracemalloc.start()
    try:
        trace = reduce(neg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del trace
    return held / 1024


def per_application(k: int, reduce) -> tuple[float, object]:
    """(median CPU ms per application, the last call's trace) of
    `reduce(expfam(k))`."""
    times = []
    calls = REPEATS
    while len(times) < calls:
        neg = expfam(k)
        gc.collect()
        t0 = time.process_time()
        trace = reduce(neg)
        times.append(time.process_time() - t0)
        total = trace.total
        calls = max(REPEATS, math.ceil(MIN_APPLICATIONS / total))
    return 1000 * statistics.median(times) / total, trace


def measure(k: int, reduce) -> tuple[int, int, float, float]:
    """(applications, peak results on the initial atom, median CPU ms per
    application, KB of trace per application) of `reduce(expfam(k))`."""
    ms, trace = per_application(k, reduce)
    total, peak = trace.total, peak_initial_results(trace)
    del trace
    return total, peak, ms, held_kb(k, reduce) / total


def interleaved_ratio(small: int, large: int) -> float:
    """The median over `ROUNDS` rounds of the CPU time per application of
    `run_auto(expfam(large))` over the mean of that of
    `run_auto(expfam(small))` timed just before and just after it."""
    ratios = []
    for _ in range(ROUNDS):
        ms = [per_application(k, run_auto)[0] for k in (small, large, small)]
        ratios.append(2 * ms[1] / (ms[0] + ms[2]))
    return statistics.median(ratios)


def runs() -> list[tuple[str, int, object]]:
    """(name, k, reduction) of every row, in the order they are printed."""
    rows = [(name, k, reduce)
            for name, reduce in (("run_auto", run_auto), ("run_general", run_general))
            for k in AUTO_KS]
    for strategy in ("initial", "alternating"):
        demo = lambda neg, s=strategy: run_exponential_demo(neg, s)  # noqa: E731
        rows += [(f"demo {strategy}", k, demo) for k in DEMO_KS]
    return rows


def main() -> int:
    for name, k, reduce in runs():
        total, peak, ms, kb = measure(k, reduce)
        print(
            f"{name} expfam({k}): applications {total} peak_initial_results {peak} "
            f"ms_per_application {ms:.4f} trace_kb_per_application {kb:.2f}"
        )
    small, large = RATIO_KS
    print(
        f"run_auto expfam({large}) over expfam({small}), {ROUNDS} interleaved rounds: "
        f"ms_per_application_ratio {interleaved_ratio(small, large):.2f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
