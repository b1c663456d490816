#!/usr/bin/env python3
"""Print the process CPU time per rule application of the reduction
strategies on the branch-diamond family.

    python3 scripts/rule_rate.py

It runs `run_auto(expfam(k))` for k = 8, 16, 32, 64 and 128, and
`run_exponential_demo(expfam(k), strategy)` for both strategies and
k = 3..6. For each it prints the number of applications, the number of
results the eager strategy piles on the initial atom, and the CPU
milliseconds per application: the median of three calls, each on a
freshly built diagram and after a full garbage collection, so every call
builds the indexes it reads and the collections that fall due inside it
depend on its own allocations alone. A per-application cost that stays
flat as k grows means an application costs its site, not the diagram.
Standard library only; negsum is loaded from the `src/` directory next to
this script.
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from negsum import expfam, run_auto  # noqa: E402
from negsum.strategies import run_exponential_demo  # noqa: E402

REPEATS = 3
AUTO_KS = (8, 16, 32, 64, 128)
DEMO_KS = (3, 4, 5, 6)


def measure(k: int, reduce) -> tuple[int, int, float]:
    """(applications, peak results on the initial atom, median CPU ms per
    application) of `reduce(expfam(k))`."""
    times = []
    for _ in range(REPEATS):
        neg = expfam(k)
        gc.collect()
        t0 = time.process_time()
        trace = reduce(neg)
        times.append(time.process_time() - t0)
        total = trace.total
        peak = max(len(app.after.results(app.after.initial)) for app in trace.applications)
        del trace, neg
    return total, peak, 1000 * statistics.median(times) / total


def main() -> int:
    runs = [("run_auto", k, run_auto) for k in AUTO_KS]
    for strategy in ("initial", "alternating"):
        demo = lambda neg, s=strategy: run_exponential_demo(neg, s)  # noqa: E731
        runs += [(f"demo {strategy}", k, demo) for k in DEMO_KS]
    for name, k, reduce in runs:
        total, peak, ms = measure(k, reduce)
        print(
            f"{name} expfam({k}): applications {total} peak_initial_results {peak} "
            f"ms_per_application {ms:.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
