#!/usr/bin/env python3
"""Print one JSON record of how negsum's engines scale, layer by layer.

    python3 scripts/scaling.py > BENCH_scaling.json

The paper claims that the reduction rules summarize a sound deterministic
negotiation in polynomial time, while its state space grows exponentially.
Every point of the record carries its K (atoms) and L (outcomes).

* `cli`, measured first, so that `peak_rss_mb` (the process's
  `ru_maxrss`) counts only the imports and these calls: per command, the
  CPU seconds of one in-process `negsum.cli.main` call, output captured,
  over the 18 bundled fixtures; the same over all commands; and `load`,
  `fileio.load` alone (reading, parsing and validating one fixture file,
  the first step of every command). One warm-up call builds the parser.
  Each call follows a full collection, as every timed call here does,
  which leaves the caches cold: back to back, the same calls take about
  half as long.
* `evaluation`: on `expfam(1..3)`, `shape 4` (`generate_sound(200800, 32,
  5, False, max_atoms=16)`: 5 agents, K = 15, 40 markings, a state summary
  whose labels have long shared tails) and the fixture `running_multi`.
  Per engine (`states`, `rules`): the relation compositions one evaluation
  of its summary makes (`Kernel.eval` interns the relations it meets by
  value), the factors it puts in spread form (`Kernel.spread`), `eval_s`
  of `eval_expr` over the summary's expressions, which read each relation
  through the rows it keeps from the first, untimed evaluation, and
  `read_back`: `parse_s` of `parse_expr` of each expression's
  `format_expr` text, then `eval_s` and `format_s` of what was parsed (the
  reprint must equal the text). Per input: `crosscheck_s` of the
  benchmark's cross-check (`brute_force_summary`, then `eval_expr` and
  `rels_equal` for each result of both engines, which must agree), each
  call on relations built anew, with the pair-to-rows `conversions`
  (`Kernel._convert`) one call makes; and its reachable `markings`, the
  number `n` of global assignments of its agents and `oracle_s` of
  `brute_force_summary`. The summaries explore each input before it is
  timed, so these time the oracle's own work, not the search.
* `expfam`, k = 1..7: the markings and edges of `reachability(expfam(k))`,
  its CPU seconds and markings per second, `graph_mb` held by the graph
  the diagram keeps, and `check_s` of `check_soundness`. For k = 1..6, the
  CPU seconds and `tracemalloc` peak of `brute_force_summary` (the oracle,
  its reachability included); for k = 1..4, the CPU seconds of
  `summarize_by_states` (elimination).
* `rules`: `run_auto` (`run_acyclic` here) and `run_general` on
  `expfam(k)`, k = 8..128: the applications against the strategy's bound
  (K*L for `run_acyclic`, 2K^3+K^2+KL+L for `run_general`), the guard
  calls per application (`GUARDS`, counted where `negsum.rules` and
  `negsum.strategies` look them up, over one more, untimed call), the most
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
(`traced`). The relations are `ab.py`'s seeded left-total relations over
two states per agent. The record names the git revision, whether `src/`
or `scripts/` differ from it, the Python version, the machine and its CPU
count. Standard library only (`resource`: Unix); negsum is loaded from
`src/` beside it.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from functools import partial

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ab  # noqa: E402
import negsum  # noqa: E402
from negsum import (  # noqa: E402
    brute_force_summary, check_soundness, classify, cli, eval_expr, expfam, fileio,
    fixture_names, format_expr, generate_sound, load_fixture, parse_expr, reachability,
    rels_equal, rules, run_auto, run_exponential_demo, run_general, strategies,
    summarize_by_states, transformers,
)

REPEATS = 3
MIN_APPLICATIONS = 2000  # a reduction is timed over at least this many
FIXTURES = HERE.parent / "src" / "negsum" / "fixtures"
FIXTURE_NAMES = fixture_names()
# (name, command and options); the file goes after the command
COMMANDS = (
    ("validate", ["validate"]),
    ("classify", ["classify"]),
    ("reach", ["reach"]),
    ("dot", ["reach", "--dot"]),
    ("check", ["check"]),
    ("states", ["summarize", "--method", "states"]),
    ("rules", ["summarize", "--method", "reduce"]),
    ("reduce", ["reduce", "--trace"]),
    ("diag", ["diag", "--fragments", "--loops"]),
)
EVAL_INPUTS = (
    *((f"expfam({k})", partial(expfam, k)) for k in (1, 2, 3)),
    ("shape 4", partial(generate_sound, 200800, 32, 5, False, max_atoms=16)),
    ("running_multi", partial(load_fixture, "running_multi")),
)
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
GUARDS = ("merge_partner", "iteration_applicable", "uniform", "uniform_target",
          "shortcut_guard", "is_useless_arc")
SLOPE_COLUMNS = ("markings", "reachability_s", "check_s", "oracle_s", "elimination_s",
                 "applications", "guard_calls_per_application", "rules_s")
relations = partial(ab.relations, negsum)  # (space, interp) of a diagram


def cpu_seconds(*prepares, applications: int = 0) -> float:
    """The median CPU seconds of one call `prepare()()` over `REPEATS`
    calls of each of the `prepares`, each call on fresh inputs that
    `prepare` builds and after a full garbage collection; for a reduction
    of `applications` applications, over as many more as it takes to time
    `MIN_APPLICATIONS` of them."""
    times = []
    for prepare in prepares:
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


@contextlib.contextmanager
def counting(sites):
    """A Counter of the calls, by name, to each `(owner, name)` attribute
    while the block runs; the attributes are restored after it."""
    calls, saved = Counter(), [(owner, name, getattr(owner, name)) for owner, name in sites]

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    try:
        for owner, name, f in saved:
            setattr(owner, name, counted(name, f))
        yield calls
    finally:
        for owner, name, f in saved:
            setattr(owner, name, f)


def run_cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_latency() -> dict:
    paths = [str(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["validate", paths[0]])  # warm-up: the first call builds the parser
        calls = {"load": [partial(partial, fileio.load, p) for p in paths]}
        for name, (command, *options) in COMMANDS:
            if name == "reduce":
                options = [*options, os.path.join(tmp, "reduce.log")]
            calls[name] = [partial(partial, run_cli, [command, p, *options]) for p in paths]
        median_s = {name: cpu_seconds(*prepares) for name, prepares in calls.items()}
        median_s["all commands"] = cpu_seconds(
            *(prepare for name, _ in COMMANDS for prepare in calls[name]))
    return {"fixtures": len(paths), "median_s": median_s, "peak_rss_mb": peak_rss_mb()}


def evaluate(exprs, space, interp) -> None:
    for e in exprs:
        eval_expr(e, interp, space)


def engine_row(summary, space, interp) -> dict:
    """The evaluation columns of one engine's summary (final result ->
    expression)."""
    exprs = list(summary.values())
    with counting([(transformers, "_compose"), (transformers.Kernel, "spread")]) as calls:
        evaluate(exprs, space, interp)
    texts = [format_expr(e) for e in exprs]
    parsed = [parse_expr(t) for t in texts]
    if [format_expr(e) for e in parsed] != texts:
        raise RuntimeError("a parsed summary reprints differently")
    return {
        "compositions": calls["_compose"], "spreads": calls["spread"],
        "eval_s": cpu_seconds(lambda: partial(evaluate, exprs, space, interp)),
        "read_back": {
            "parse_s": cpu_seconds(lambda: partial(list, map(parse_expr, texts))),
            "eval_s": cpu_seconds(lambda: partial(evaluate, parsed, space, interp)),
            "format_s": cpu_seconds(lambda: partial(list, map(format_expr, parsed))),
        },
    }


def cross_check(neg, engines: dict, space, interp) -> None:
    """The benchmark's cross-check of `neg`: the oracle, then each
    engine's summary evaluated and compared with it."""
    expected = brute_force_summary(neg, interp, space)
    for engine, summary in engines.items():
        for result, expr in summary.items():
            if not rels_equal(eval_expr(expr, interp, space), expected[result], space):
                raise RuntimeError(f"{engine}: result {result} disagrees with the oracle")


def evaluation_row(neg) -> dict:
    space, interp = relations(neg)
    engines = {"states": summarize_by_states(neg).summary, "rules": run_auto(neg).summary}
    row = {engine: engine_row(summary, space, interp) for engine, summary in engines.items()}
    with counting([(transformers.Kernel, "_convert")]) as calls:
        cross_check(neg, engines, *relations(neg))
    named = {a for rel in interp.values() for a in rel.parties}
    row.update(
        conversions=calls["_convert"],
        crosscheck_s=cpu_seconds(lambda: partial(cross_check, neg, engines, *relations(neg))),
        markings=len(reachability(neg).codes), n=math.prod(len(space[a]) for a in named),
        oracle_s=cpu_seconds(lambda: partial(brute_force_summary, neg, interp, space)),
    )
    return row


def explore(neg):
    """`reachability` on `neg` after its marking kernel, which is not part
    of the graph."""
    neg.marking_kernel
    return partial(reachability, neg)


def oracle(neg):
    """`brute_force_summary` on `neg` under its relations."""
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
    with counting((module, name) for module in (rules, strategies) for name in GUARDS
                  if hasattr(module, name)) as calls:
        reduce(build())
    row["guard_calls_per_application"] = sum(calls.values()) / total
    if name in ("run_auto", "run_general"):
        # `run_auto` sends a deterministic multi-agent diagram to
        # `run_acyclic` if it is acyclic, else to `run_general`
        general = name == "run_general" or not classify(neg).acyclic
        limit = 2 * k**3 + k**2 + k * l + l if general else k * l
        row.update(strategy="run_general" if general else "run_acyclic", bound=limit,
                   applications_per_bound=total / limit)
    seconds = cpu_seconds(lambda: partial(reduce, build()), applications=total)
    row.update(rules_s=seconds, ms_per_application=1000 * seconds / total,
               trace_kb_per_application=held / 1024 / total)
    return row


def interleaved_ratio() -> dict:
    small, large = RATIO_KS
    totals = {k: run_auto(expfam(k)).total for k in RATIO_KS}

    def ms(k):
        return cpu_seconds(lambda: partial(run_auto, expfam(k)),
                           applications=totals[k]) / totals[k]

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
        "cli": cli_latency(),
        "evaluation": {name: evaluation_row(build()) for name, build in EVAL_INPUTS},
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
