#!/usr/bin/env python3
"""Print one JSON record of how negsum's engines scale.

    python3 scripts/scaling.py > BENCH_scaling.json

The paper claims that the reduction rules summarize a sound deterministic
negotiation in polynomial time, while its state space grows exponentially.
Every point of the record carries its K (atoms) and L (outcomes).

* `expfam`, k = 1..7: the markings and edges of `reachability(expfam(k))`,
  its CPU seconds and markings per second, `graph_mb` held by the graph
  the diagram keeps, and `check_s` of `check_soundness`. For k = 1..6, the
  CPU seconds and `tracemalloc` peak of `brute_force_summary` (the oracle,
  its reachability included) under `eval_rate.py`'s seeded relations; for
  k = 1..4, the CPU seconds of `summarize_by_states` (elimination).
* `rules`: `run_auto` (`run_acyclic` here) and `run_general` on
  `expfam(k)`, k = 8..128: the applications against the strategy's bound
  (K*L for `run_acyclic`, 2K^3+K^2+KL+L for `run_general`), the most
  results the initial atom holds, the CPU seconds, the ms per application
  and the KB of trace held per application. `demo`: the same, unbounded,
  for both strategies of `run_exponential_demo`, k = 3..6.
* `ratio`: the ms per application of `run_auto` at k = 128 over k = 8: the
  median over rounds of k = 8, 128, 8 of the middle over the mean of its
  neighbours, so a slow spell of a shared host lands on both sides.
* `sweep`: `generate_sound(3, 3K, 5, acyclic, max_atoms=K)`, K = 25, 50,
  100, acyclic and cyclic: markings, oracle seconds, `run_auto`'s columns.
* `slopes`: per series and column, the least-squares slope of log column
  against log K.

Every time is the median CPU time of a call over fresh diagrams, each
after a full garbage collection (`cpu_seconds`); a reduction is timed over
at least three calls and 2,000 applications. Memory is what `tracemalloc`
counts as held after a collection, or at its peak, over one more call
(`traced`). The record names the git revision, whether `src/` or
`scripts/` differ from it, the Python version, the machine and its CPU
count. Standard library only; negsum is loaded from `src/` beside it.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from functools import partial

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from eval_rate import relations  # noqa: E402
from negsum import (  # noqa: E402
    brute_force_summary, check_soundness, classify, expfam, generate_sound, reachability,
    run_auto, run_exponential_demo, run_general, summarize_by_states,
)

REPEATS = 3
MIN_APPLICATIONS = 2000  # a reduction is timed over at least this many
STATE_KS = range(1, 8)
ORACLE_KS = range(1, 7)
ELIMINATION_KS = range(1, 5)
RULE_KS = (8, 16, 32, 64, 128)
DEMO_KS = (3, 4, 5, 6)
RATIO_KS = (8, 128)  # the points of the interleaved ratio
ROUNDS = 7
SWEEP_KS = (25, 50, 100)
REDUCTIONS = {"run_auto": run_auto, "run_general": run_general, **{
    demo: partial(run_exponential_demo, strategy=demo) for demo in ("initial", "alternating")}}
SLOPE_COLUMNS = ("markings", "reachability_s", "check_s", "oracle_s", "elimination_s",
                 "applications", "rules_s")


def cpu_seconds(prepare, applications: int = 0) -> float:
    """The median CPU seconds of `prepare()()`, each call on fresh inputs
    that `prepare` builds and after a full garbage collection, over
    `REPEATS` calls; for a reduction of `applications` applications, over
    as many more as it takes to time `MIN_APPLICATIONS` of them."""
    times = []
    for _ in range(max(REPEATS, math.ceil(MIN_APPLICATIONS / (applications or math.inf)))):
        call = prepare()
        gc.collect()
        t0 = time.process_time()
        call()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def traced(prepare) -> tuple[int, int, object]:
    """(bytes still held after a collection, peak bytes, result) of one
    call `prepare()()`, counting only what the call allocates."""
    call = prepare()
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, peak, result


def explore(neg):
    """`reachability` on `neg` after its marking kernel, which is not part
    of the graph."""
    neg.marking_kernel
    return partial(reachability, neg)


def oracle(neg):
    """`brute_force_summary` on `neg` under the seeded relations."""
    space, interp = relations(neg)
    return partial(brute_force_summary, neg, interp, space)


def state_row(k: int) -> dict:
    neg = expfam(k)
    graph = reachability(neg)
    markings, edges = len(graph.codes), sum(map(len, graph.succ))
    seconds = cpu_seconds(lambda: partial(reachability, expfam(k)))
    return {
        "k": k, "K": len(neg.atoms), "L": neg.num_outcomes(), "markings": markings, "edges": edges,
        "reachability_s": seconds,
        "markings_per_s": markings / seconds if seconds else None,
        "graph_mb": traced(lambda: explore(expfam(k)))[0] / 2**20,
        "check_s": cpu_seconds(lambda: partial(check_soundness, expfam(k))),
        "oracle_s": cpu_seconds(lambda: oracle(expfam(k))) if k in ORACLE_KS else None,
        "oracle_peak_mb": traced(lambda: oracle(expfam(k)))[1] / 2**20 if k in ORACLE_KS else None,
        "elimination_s": cpu_seconds(lambda: partial(summarize_by_states, expfam(k)))
        if k in ELIMINATION_KS else None,
    }


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


def rules_row(build, name: str) -> dict:
    """The rules columns of the reduction `name` on fresh `build()`
    diagrams; a bound for `run_auto` and `run_general`."""
    neg, reduce = build(), REDUCTIONS[name]
    held, _peak, trace = traced(lambda: partial(reduce, build()))
    (k, l), total = (len(neg.atoms), neg.num_outcomes()), trace.total
    row = {"K": k, "L": l, "applications": total,
           "peak_initial_results": peak_initial_results(trace)}
    del trace
    if name in ("run_auto", "run_general"):
        # `run_auto` sends a deterministic multi-agent diagram to
        # `run_acyclic` if it is acyclic, else to `run_general`
        general = name == "run_general" or not classify(neg).acyclic
        limit = 2 * k**3 + k**2 + k * l + l if general else k * l
        row.update(strategy="run_general" if general else "run_acyclic", bound=limit,
                   applications_per_bound=total / limit)
    seconds = cpu_seconds(lambda: partial(reduce, build()), total)
    row.update(rules_s=seconds, ms_per_application=1000 * seconds / total,
               trace_kb_per_application=held / 1024 / total)
    return row


def interleaved_ratio() -> dict:
    small, large = RATIO_KS
    totals = {k: run_auto(expfam(k)).total for k in RATIO_KS}

    def ms(k):
        return cpu_seconds(lambda: partial(run_auto, expfam(k)), totals[k]) / totals[k]

    rounds = ((ms(small), ms(large), ms(small)) for _ in range(ROUNDS))
    ratios = [2 * middle / (before + after) for before, middle, after in rounds]
    return {"run_auto": [small, large], "rounds": ROUNDS,
            "ms_per_application_ratio": statistics.median(ratios)}


def sweep_row(K: int, acyclic: bool) -> dict:
    build = partial(generate_sound, 3, 3 * K, 5, acyclic, max_atoms=K)
    return {
        "max_atoms": K, "markings": len(reachability(build()).codes),
        "oracle_s": cpu_seconds(lambda: oracle(build())),
        **rules_row(build, "run_auto"),
    }


def slope(points) -> float | None:
    """The least-squares slope of log y against log x over the points with
    a y; None without two distinct x."""
    points = [(math.log(x), math.log(y)) for x, y in points if y]
    if len({x for x, _ in points}) < 2:
        return None
    return statistics.linear_regression(*zip(*points)).slope


def slopes(record: dict) -> dict:
    series = {"expfam": record["expfam"]}
    for family in ("rules", "demo", "sweep"):
        series.update((f"{family} {name}", rows) for name, rows in record[family].items())
    return {
        f"{label} {column}": slope((row["K"], row[column]) for row in rows)
        for label, rows in series.items()
        for column in SLOPE_COLUMNS
        if column in rows[0]
    }


def git(*args: str) -> str:
    run = subprocess.run(["git", "-C", str(HERE), *args], capture_output=True, text=True)
    return run.stdout.strip()


def record() -> dict:
    out = {
        "rev": git("rev-parse", "HEAD") or None,
        "edited": bool(git("status", "--porcelain", "--", ":/src", ":/scripts")),
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "expfam": [state_row(k) for k in STATE_KS],
        "rules": {name: [{"k": k, **rules_row(partial(expfam, k), name)} for k in RULE_KS]
                  for name in ("run_auto", "run_general")},
        "demo": {name: [{"k": k, **rules_row(partial(expfam, k), name)} for k in DEMO_KS]
                 for name in ("initial", "alternating")},
        "ratio": interleaved_ratio(),
        "sweep": {("acyclic" if acyclic else "cyclic"): [sweep_row(K, acyclic) for K in SWEEP_KS]
                  for acyclic in (True, False)},
    }
    out["slopes"] = slopes(out)
    return out


def main() -> None:
    print(json.dumps(record(), indent=2, allow_nan=False))


if __name__ == "__main__":
    main()
