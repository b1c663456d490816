#!/usr/bin/env python3
"""Print the marking exploration rate of `reachability` on `expfam(k)`.

    python3 scripts/markings_rate.py [k ...]      (default: 6 7)

For each k it prints the number of markings and edges of the reachability
graph, the process CPU time of one `reachability` call, the markings
explored per CPU second, and the process CPU time of one `check_soundness`
call (`check_s`), the walk included. Each time is the median of three
calls, each on a freshly built diagram, so the per-diagram index that
exploration builds on first use is paid in every call. Each call starts after a full
garbage collection, with no earlier graph alive, so the collections that
fall due inside it depend on its own allocations alone.

The last column, `graph_mb`, is the memory a diagram holds for its
reachability graph once the search is done: `reachability` keeps the
graph on the diagram, for the next engine to read. It is measured by
`tracemalloc` over one more, untimed call, after the diagram's marking
kernel is built. Standard library only; negsum is loaded from the `src/`
directory next to this script.
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from negsum import check_soundness, expfam, reachability  # noqa: E402

REPEATS = 3


def measure(k: int) -> tuple[int, int, float]:
    """(markings, edges, median CPU seconds) of `reachability(expfam(k))`."""
    times = []
    for _ in range(REPEATS):
        neg = expfam(k)
        gc.collect()
        t0 = time.process_time()
        graph = reachability(neg)
        times.append(time.process_time() - t0)
        markings, edges = len(graph.nodes), len(graph.edges)
        del graph, neg
    return markings, edges, statistics.median(times)


def check_seconds(k: int) -> float:
    """Median CPU seconds of `check_soundness(expfam(k))`, each call on a
    fresh diagram, so it explores the graph too."""
    times = []
    for _ in range(REPEATS):
        neg = expfam(k)
        gc.collect()
        t0 = time.process_time()
        check_soundness(neg)
        times.append(time.process_time() - t0)
        del neg
    return statistics.median(times)


def graph_mb(k: int) -> float:
    """MB that `reachability(expfam(k))` leaves allocated: the graph the
    diagram keeps."""
    neg = expfam(k)
    neg.marking_kernel  # built first: it is not part of the graph
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = reachability(neg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del graph
    return held / 2**20


def main(argv: list[str]) -> int:
    ks = [int(a) for a in argv] or [6, 7]
    for k in ks:
        markings, edges, seconds = measure(k)
        rate = markings / seconds if seconds else float("inf")
        print(
            f"expfam({k}): markings {markings} edges {edges} "
            f"reachability_s {seconds:.4f} markings_per_s {rate:.0f} "
            f"graph_mb {graph_mb(k):.3f} check_s {check_seconds(k):.4f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
