#!/usr/bin/env python3
"""Time negsum's working tree against a git revision, layer by layer, and
print one JSON record of how its engines scale.

    python3 scripts/scaling.py REV > BENCH_scaling.json

REV's `src/negsum` (from `git archive`) and the working tree's (copied)
are imported side by side as `negsum_rev` and `negsum_tree`. Every input
is built once, by the tree, as JSON text, and each side loads its own
diagrams from it outside the timing. Every time is measured on both sides
in interleaved pairs, the side that goes first alternating, so a change of
the host's speed falls on both. A time column holds `tree` and `rev`, each
side's median CPU seconds; `ratio`, the median per-pair tree / REV (below
1: the tree is faster), with its quartiles `q1` and `q3`; and `tree_won`
and `rev_won`, the pairs each side was faster in. A timed call runs on
fresh inputs, after a full garbage collection and with the collector off
(`timed`), as the benchmark times its jobs; what the process held once
both packages were loaded is frozen out of the collections. A column takes
`REPEATS` pairs per input, a reduction at least `MIN_APPLICATIONS`
applications per side. Counts are computed on both sides, and
`answers_equal` says per section whether they all agreed. The record holds
the tree's counts, memory (`tracemalloc`, over one more call) and slopes.

The paper claims that the reduction rules summarize a sound deterministic
negotiation in polynomial time, while its state space grows exponentially.
Every point carries its K (atoms) and L (outcomes). The sections:

* `cli`, first, so that `peak_rss_mb` counts only the imports of both
  packages and these calls: per command, one in-process `cli.main` call
  over the 18 bundled fixtures (its exit code and output are the counts);
  all commands together; and `load` (`fileio.load` alone).
* `evaluation`, on `expfam(1..3)`, `shape 4` (`generate_sound(200800, 32,
  5, False, max_atoms=16)`: K = 15, 40 markings) and `running_multi`. Per
  engine (`states`, `rules`): the compositions and spread factors
  (`Kernel.spread`) of one evaluation of its summary, `eval_s` of
  `eval_expr` over it (reading the rows that evaluation kept), and
  `read_back`: `parse_s` of its printed text, `eval_s` and `format_s` of
  what was parsed, which must reprint the same. Per input: `crosscheck_s`
  (the oracle, then each result of both engines evaluated and compared) on
  relations built anew, with one call's `conversions` (`Kernel._convert`);
  `markings`; `n`, the global assignments; and `oracle_s` alone.
* `expfam`, k = 1..7: markings, edges, `reachability_s`, the tree's
  `markings_per_s`, `graph_mb` held by the graph the diagram keeps, and
  `check_s`; for k <= 6 the oracle's seconds and peak memory, for k <= 4
  `elimination_s` of `summarize_by_states`.
* `rules`: `run_auto` (`run_acyclic` here) and `run_general` on
  `expfam(k)`, k = 8..128: applications against the strategy's bound (K*L,
  or 2K^3+K^2+KL+L for `run_general`), guard calls per application
  (`GUARDS`, counted where `rules` and `strategies` look them up), the most
  results the initial atom holds, `rules_s`, and the tree's ms and KB of
  trace per application. `demo`: the same, unbounded, for both orders of
  `run_exponential_demo`, k = 3..6.
* `ratio`: per side, the ms per application of `run_auto` at k = 128 over
  k = 8, each pair's value the middle of k = 8, 128, 8 over the mean of
  its neighbours.
* `sweep`: `generate_sound(3, 3K, 5, acyclic, max_atoms=K)`, K = 25, 50,
  100, acyclic and cyclic: markings, `oracle_s` and `run_auto`'s columns.
* `pass`: a benchmark pass's jobs, `check` (`check_soundness`), `rules`
  (`run_auto`), `states` (`summarize_by_states`), `crosscheck` (the oracle,
  then each result of both summaries evaluated and compared), `diag`
  (every atom's and outcome's target, and `find_loops`) and `demo` (both
  orders of `run_exponential_demo`), and `pass`, their sum, over
  `PASS_ROUNDS` rounds. In a round each side loads its diagrams and runs
  the jobs on them in that order, so what a diagram keeps from one job is
  there for the next, as in a pass; the sides take each call in turn, the
  side that goes first alternating. The workloads: `fixtures`, the 18 fixtures (the only one with
  `diag`); `expfam`, with check k = 1..5, rules 1..8, states 1..3,
  crosscheck 1..4 and demo 1..5 (the only one with `demo`); and
  `generated`, eight `generate_sound` shapes, each with an unsound mutant,
  at most 50 markings and 150 edges each. The counts are every answer.
* `slopes`: per series and column, the least-squares slope of log column
  against log K.

The relations are seeded left-total relations over two states per agent
(a fixture's own where it ships them). The header names REV and its
commit, the tree's commit and whether `src/` or `scripts/` differ from it
(`edited`), the Python version, the machine and its CPU count.

On identical code the ratios scatter around 1. Two A/A runs (`scaling.py
HEAD` on a clean tree, Python 3.11, a shared 2-core x86_64 host) read
every `pass` job's median within 0.982-1.010 (quartiles within
0.93-1.05); the row columns of calls of 1 ms or more within 0.90-1.25,
80 % of them within 0.96-1.05; and those of shorter calls within
0.68-1.46, 80 % within 0.97-1.09. A 20 % slowdown planted in
`check_soundness` read 1.19-1.21 on the `pass` `check` job, REV faster in
all 30 rounds, and 1.22-1.33 on every `expfam` `check_s`. A run takes
2.5-3 minutes there. Standard library only (`resource`: Unix).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import itertools
import json
import math
import os
import pathlib
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from collections import Counter
from functools import partial

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "src" / "negsum" / "fixtures"
FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))
SIDES: dict = {}  # "tree" and "rev": each side's negsum package, within `loaded`
COMPARED: list[bool] = []  # per count computed on both sides, whether they agreed

REPEATS = 4  # pairs per input; even, so that each side goes first as often
MIN_APPLICATIONS = 2000  # a reduction is timed over at least this many per side
COMMANDS = (  # (name, command and options); the file goes after the command
    ("validate", ["validate"]), ("classify", ["classify"]), ("reach", ["reach"]),
    ("dot", ["reach", "--dot"]), ("check", ["check"]),
    ("states", ["summarize", "--method", "states"]),
    ("rules", ["summarize", "--method", "reduce"]),
    ("reduce", ["reduce", "--trace"]), ("diag", ["diag", "--fragments", "--loops"]),
)
EVAL_INPUTS = (  # (name, the diagram a package builds)
    *((f"expfam({k})", lambda ns, k=k: ns.expfam(k)) for k in (1, 2, 3)),
    ("shape 4", lambda ns: ns.generate_sound(200800, 32, 5, False, max_atoms=16)),
    ("running_multi", lambda ns: ns.loads(fixture_text("running_multi"))),
)
STATE_KS = range(1, 8)
ORACLE_KS = range(1, 7)
ELIMINATION_KS = range(1, 5)
RULE_KS = (8, 16, 32, 64, 128)
DEMO_KS = (3, 4, 5, 6)
RATIO_KS = (8, 128)  # the points of the interleaved ratio
ROUNDS = 8
SWEEP_KS = (25, 50, 100)
# one call, one guard evaluation: `shortcut_check` is the shortcut guard
# (`shortcut_guard` wraps it), and `_reducible_unmerged` checks the
# iteration guard inline first
GUARDS = ("merge_partner", "iteration_applicable", "_reducible_unmerged", "uniform",
          "uniform_target", "shortcut_check", "is_useless_arc")
SLOPE_COLUMNS = ("markings", "reachability_s", "check_s", "oracle_s", "elimination_s",
                 "applications", "guard_calls_per_application", "rules_s")
PASS_ROUNDS = 30
PASS_WORKLOADS = ("fixtures", "expfam", "generated")
JOBS = ("check", "rules", "states", "crosscheck", "diag", "demo")
# (agents, inverse-rule steps, max atoms, acyclic), as the benchmark's
# `generated` workload draws them
GEN_SHAPES = ((3, 24, 12, False), (3, 40, 20, True), (4, 32, 16, False), (4, 48, 24, True),
              (5, 32, 16, False), (5, 40, 20, True), (4, 40, 20, False), (3, 64, 32, True))
GEN_MAX_MARKINGS, GEN_MAX_EDGES, GEN_MAX_ATTEMPTS = 50, 150, 200


# -- the two sides -----------------------------------------------------------

def git(*args: str) -> bytes:
    """The standard output of git run on this checkout."""
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def commit(rev: str) -> str:
    return git("rev-parse", rev).decode().strip()


def import_package(name: str, package: pathlib.Path):
    """The package at `package` imported as `name`, with its `cli`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


@contextlib.contextmanager
def loaded(rev: str):
    """Within it, `SIDES` holds REV's negsum package and the working
    tree's, and what the process held as they were loaded is frozen out of
    the garbage collections; after it, neither package is left in
    `sys.modules`."""
    with tempfile.TemporaryDirectory(prefix="negsum-scaling-") as tmp:
        try:
            tar = git("archive", "--format=tar", rev, "src/negsum")
            with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
                archive.extractall(tmp)
            tree = pathlib.Path(tmp, "tree", "negsum")
            shutil.copytree(ROOT / "src" / "negsum", tree,
                            ignore=shutil.ignore_patterns("__pycache__"))
            SIDES["rev"] = import_package("negsum_rev", pathlib.Path(tmp, "src", "negsum"))
            SIDES["tree"] = import_package("negsum_tree", tree)
            gc.freeze()
            yield
        finally:  # the modules' files go with the directory
            gc.unfreeze()
            SIDES.clear()
            for name in [n for n in sys.modules
                         if n.partition(".")[0] in ("negsum_rev", "negsum_tree")]:
                del sys.modules[name]


def fixture_text(name: str) -> str:
    # not `negsum.fixture_text`, which finds its files through the package
    # name `negsum`, under which neither side is imported
    return (FIXTURES / f"{name}.json").read_text(encoding="utf-8")


def text(build) -> str:
    """The JSON text of the diagram `build` makes with the tree."""
    tree = SIDES["tree"]
    return tree.dumps(build(tree))


def same(count):
    """`count(ns)` of the tree, noting in `COMPARED` whether REV's agrees."""
    tree, rev = count(SIDES["tree"]), count(SIDES["rev"])
    COMPARED.append(tree == rev)
    return tree


# -- timing ------------------------------------------------------------------

def timed(call) -> tuple[object, float]:
    """(result, CPU seconds) of `call()`, after a full garbage collection
    and with the collector off during the call."""
    gc.collect()
    gc.disable()
    t0 = time.process_time()
    try:
        result = call()
    finally:
        seconds = time.process_time() - t0
        gc.enable()
    return result, seconds


def interleave(samples, pairs: int) -> tuple[list, list]:
    """The tree's and REV's values of each `sample(ns)`, `pairs` times on
    each side, in pairs whose first side alternates."""
    values = {"tree": [], "rev": []}
    for sample in samples:
        for _ in range(pairs):
            order = ("tree", "rev") if len(values["tree"]) % 2 == 0 else ("rev", "tree")
            for side in order:
                values[side].append(sample(SIDES[side]))
    return values["tree"], values["rev"]


def column(tree: list[float], rev: list[float]) -> dict:
    """Each side's median, and the median, quartiles and win counts of the
    per-pair ratio tree / REV."""
    ratios = [t / r for t, r in zip(tree, rev)]
    q1, ratio, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                     if len(ratios) > 1 else ratios * 3)
    return {"tree": statistics.median(tree), "rev": statistics.median(rev),
            "ratio": ratio, "q1": q1, "q3": q3,
            "tree_won": sum(t < r for t, r in zip(tree, rev)),
            "rev_won": sum(t > r for t, r in zip(tree, rev))}


def times(*prepares, applications: int = 0) -> dict:
    """The time column of one call `prepare(ns)()` on fresh inputs that
    `prepare` builds, over `REPEATS` pairs per prepare or, for a reduction
    of `applications` applications, as many as it takes to time
    `MIN_APPLICATIONS` of them on each side."""
    pairs = max(REPEATS, 2 * math.ceil(MIN_APPLICATIONS / 2 / (applications or math.inf)))
    return column(*interleave([lambda ns, p=p: timed(p(ns))[1] for p in prepares], pairs))


def traced(call) -> tuple[int, int, object]:
    """(bytes still held after a collection, peak bytes, result) of one
    `call()`, counting only what the call allocates."""
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


def relations(ns, neg):
    """The diagram's own relations when it ships one for every outcome;
    otherwise seeded left-total relations over two states per agent."""
    if neg.states is not None and all(o in neg.rels for o in neg.outcomes()):
        return neg.states, dict(neg.rels)
    space = {a: ("0", "1") for a in neg.agents}
    interp = {}
    for atom, result in neg.outcomes():
        rng = random.Random(f"1/{atom}/{result}")
        parties = neg.parties(atom)
        local = list(itertools.product("01", repeat=len(parties)))
        pairs = frozenset(
            (q, q2) for q in local for q2 in rng.sample(local, rng.randint(1, 2)))
        interp[(atom, result)] = ns.Rel(parties, pairs)
    return space, interp


# -- cli ---------------------------------------------------------------------

def run_cli(ns, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ns.cli.main(argv)
    return code, out.getvalue()


def peak_rss_mb() -> float:
    """The process's peak resident set size so far (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_latency() -> dict:
    paths = [str(FIXTURES / f"{name}.json") for name in FIXTURE_NAMES]
    with tempfile.TemporaryDirectory() as tmp:
        argvs = {}
        for name, (command, *options) in COMMANDS:
            if name == "reduce":
                options = [*options, os.path.join(tmp, "reduce.log")]
            argvs[name] = [[command, p, *options] for p in paths]
        same(lambda ns: [run_cli(ns, argv) for argv in itertools.chain(*argvs.values())])
        calls = {"load": [lambda ns, p=p: partial(ns.fileio.load, p) for p in paths]}
        for name, argv_list in argvs.items():
            calls[name] = [lambda ns, a=a: partial(run_cli, ns, a) for a in argv_list]
        median_s = {name: times(*prepares) for name, prepares in calls.items()}
        median_s["all commands"] = times(*(p for name, _ in COMMANDS for p in calls[name]))
    return {"fixtures": len(paths), "median_s": median_s, "peak_rss_mb": peak_rss_mb()}


# -- evaluation --------------------------------------------------------------

def evaluate(ns, exprs, space, interp) -> None:
    for e in exprs:
        ns.eval_expr(e, interp, space)


def cross_check(ns, neg, engines: dict, space, interp) -> None:
    """The benchmark's cross-check of `neg`: the oracle, then each
    engine's summary evaluated and compared with it."""
    expected = ns.brute_force_summary(neg, interp, space)
    for engine, summary in engines.items():
        for result, expr in summary.items():
            if not ns.rels_equal(ns.eval_expr(expr, interp, space), expected[result], space):
                raise RuntimeError(f"{engine}: result {result} disagrees with the oracle")


def engine_row(engine: str, setups: dict) -> dict:
    """The evaluation columns of one engine's summary (final result ->
    expression); `setups` maps each side's package to its (diagram,
    space, interp, summaries)."""
    exprs, texts, parsed = {}, {}, {}
    for ns, (_, _, _, engines) in setups.items():
        exprs[ns] = list(engines[engine].values())
        texts[ns] = [ns.format_expr(e) for e in exprs[ns]]
        parsed[ns] = [ns.parse_expr(t) for t in texts[ns]]
        if [ns.format_expr(e) for e in parsed[ns]] != texts[ns]:
            raise RuntimeError(f"{ns.__name__}: a parsed summary reprints differently")

    def counts(ns):
        kernel = ns.transformers
        with counting([(kernel, "_compose"), (kernel.Kernel, "spread")]) as calls:
            evaluate(ns, exprs[ns], *setups[ns][1:3])
        return calls["_compose"], calls["spread"], texts[ns]

    def evaluating(exprs):
        return lambda ns: partial(evaluate, ns, exprs[ns], *setups[ns][1:3])

    compositions, spreads, _ = same(counts)
    return {
        "compositions": compositions, "spreads": spreads, "eval_s": times(evaluating(exprs)),
        "read_back": {
            "parse_s": times(lambda ns: partial(list, map(ns.parse_expr, texts[ns]))),
            "eval_s": times(evaluating(parsed)),
            "format_s": times(lambda ns: partial(list, map(ns.format_expr, parsed[ns]))),
        },
    }


def evaluation_row(diagram: str) -> dict:
    def setup(ns):
        neg = ns.loads(diagram)
        engines = {"states": ns.summarize_by_states(neg).summary, "rules": ns.run_auto(neg).summary}
        return (neg, *relations(ns, neg), engines)

    setups = {ns: setup(ns) for ns in SIDES.values()}
    row = {engine: engine_row(engine, setups) for engine in ("states", "rules")}

    def conversions(ns):
        neg, _, _, engines = setups[ns]
        with counting([(ns.transformers.Kernel, "_convert")]) as calls:
            cross_check(ns, neg, engines, *relations(ns, neg))
        return calls["_convert"]

    def crosscheck(ns):
        neg, _, _, engines = setups[ns]
        return partial(cross_check, ns, neg, engines, *relations(ns, neg))

    def oracle_call(ns):
        neg, space, interp, _ = setups[ns]
        return partial(ns.brute_force_summary, neg, interp, space)

    _, space, interp, _ = setups[SIDES["tree"]]
    named = {a for rel in interp.values() for a in rel.parties}
    row.update(
        conversions=same(conversions), crosscheck_s=times(crosscheck),
        markings=same(lambda ns: len(ns.reachability(setups[ns][0]).codes)),
        n=math.prod(len(space[a]) for a in named), oracle_s=times(oracle_call),
    )
    return row


# -- state space -------------------------------------------------------------

def oracle(ns, neg):
    """`brute_force_summary` on `neg` under its relations."""
    space, interp = relations(ns, neg)
    return partial(ns.brute_force_summary, neg, interp, space)


def state_row(k: int) -> dict:
    diagram = text(lambda ns: ns.expfam(k))
    tree = SIDES["tree"]
    neg = tree.loads(diagram)

    def graph(ns):
        g = ns.reachability(ns.loads(diagram))
        return len(g.codes), sum(map(len, g.succ))

    def fresh(call):
        return lambda ns: call(ns, ns.loads(diagram))

    markings, edges = same(graph)
    seconds = times(fresh(lambda ns, neg: partial(ns.reachability, neg)))
    explored = tree.loads(diagram)
    explored.marking_kernel  # not part of the graph
    return {
        "k": k, "K": len(neg.atoms), "L": neg.num_outcomes(), "markings": markings, "edges": edges,
        "reachability_s": seconds,
        "markings_per_s": markings / seconds["tree"] if seconds["tree"] else None,
        "graph_mb": traced(partial(tree.reachability, explored))[0] / 2**20,
        "check_s": times(fresh(lambda ns, neg: partial(ns.check_soundness, neg))),
        "oracle_s": times(fresh(oracle)) if k in ORACLE_KS else None,
        "oracle_peak_mb": traced(oracle(tree, tree.loads(diagram)))[1] / 2**20
        if k in ORACLE_KS else None,
        "elimination_s": times(fresh(lambda ns, neg: partial(ns.summarize_by_states, neg)))
        if k in ELIMINATION_KS else None,
    }


# -- rules -------------------------------------------------------------------

def reduction(ns, name: str):
    """The strategy `name` of the package, or its demo order `name`."""
    if name in ("run_auto", "run_general"):
        return getattr(ns, name)
    return partial(ns.run_exponential_demo, strategy=name)


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


def rules_row(diagram: str, name: str) -> dict:
    """The rules columns of the reduction `name` on fresh diagrams loaded
    from `diagram`; a bound for `run_auto` and `run_general`."""
    tree = SIDES["tree"]
    neg = tree.loads(diagram)

    def counts(ns):
        sites = [(module, g) for module in (ns.rules, ns.strategies) for g in GUARDS
                 if hasattr(module, g)]
        with counting(sites) as calls:
            trace = reduction(ns, name)(ns.loads(diagram))
        return trace.total, peak_initial_results(trace), sum(calls.values())

    total, peak, guards = same(counts)
    k, l = len(neg.atoms), neg.num_outcomes()
    row = {"K": k, "L": l, "applications": total, "peak_initial_results": peak,
           "guard_calls_per_application": guards / total}
    if name in ("run_auto", "run_general"):
        # `run_auto` sends a deterministic multi-agent diagram to
        # `run_acyclic` if it is acyclic, else to `run_general`
        general = name == "run_general" or not tree.classify(neg).acyclic
        limit = 2 * k**3 + k**2 + k * l + l if general else k * l
        row.update(strategy="run_general" if general else "run_acyclic", bound=limit,
                   applications_per_bound=total / limit)
    held = traced(partial(reduction(tree, name), tree.loads(diagram)))[0]
    seconds = times(lambda ns: partial(reduction(ns, name), ns.loads(diagram)),
                    applications=total)
    row.update(rules_s=seconds, ms_per_application=1000 * seconds["tree"] / total,
               trace_kb_per_application=held / 1024 / total)
    return row


def interleaved_ratio() -> dict:
    small, large = RATIO_KS
    diagrams = {k: text(lambda ns, k=k: ns.expfam(k)) for k in RATIO_KS}
    totals = {k: same(lambda ns, k=k: ns.run_auto(ns.loads(diagrams[k])).total)
              for k in RATIO_KS}

    def ms(ns, k):
        calls = max(REPEATS, math.ceil(MIN_APPLICATIONS / totals[k]))
        return statistics.median(timed(partial(ns.run_auto, ns.loads(diagrams[k])))[1]
                                 for _ in range(calls)) / totals[k]

    def round_ratio(ns):
        before, middle, after = ms(ns, small), ms(ns, large), ms(ns, small)
        return 2 * middle / (before + after)

    return {"run_auto": [small, large], "rounds": ROUNDS,
            "ms_per_application_ratio": column(*interleave([round_ratio], ROUNDS))}


def sweep_row(K: int, acyclic: bool) -> dict:
    diagram = text(lambda ns: ns.generate_sound(3, 3 * K, 5, acyclic, max_atoms=K))
    return {
        "max_atoms": K, "markings": same(lambda ns: len(ns.reachability(ns.loads(diagram)).codes)),
        "oracle_s": times(lambda ns: oracle(ns, ns.loads(diagram))),
        **rules_row(diagram, "run_auto"),
    }


# -- the pass ----------------------------------------------------------------

def _small(ns, neg) -> bool:
    try:
        graph = ns.reachability(neg, cap=GEN_MAX_MARKINGS)
    except ns.BudgetExceeded:
        return False
    return sum(map(len, graph.succ)) <= GEN_MAX_EDGES


def _generated(ns) -> list[str]:
    texts = []
    for i, (agents, steps, max_atoms, acyclic) in enumerate(GEN_SHAPES):
        for attempt in range(GEN_MAX_ATTEMPTS):
            seed = (1000 + i) * GEN_MAX_ATTEMPTS + attempt
            neg = ns.generate_sound(seed, steps, agents, acyclic, max_atoms=max_atoms)
            if not _small(ns, neg):
                continue
            mutant = ns.mutate_unsound(neg, random.Random(seed))
            if mutant is not None and _small(ns, mutant):
                texts += [ns.dumps(neg), ns.dumps(mutant)]
                break
    return texts


def _reducible(ns, diagram: str) -> bool:
    try:
        ns.run_auto(ns.loads(diagram))
    except ns.NegsumError:  # no strategy covers the diagram
        return False
    return True


def workload(name: str) -> tuple[list[str], dict[str, list]]:
    """The workload's diagrams as JSON text, built by the tree, and per
    job the indexes of the diagrams it runs on."""
    tree = SIDES["tree"]
    if name == "fixtures":
        texts = [fixture_text(f) for f in FIXTURE_NAMES]
        jobs = dict.fromkeys(JOBS, range(len(texts)))
        jobs["rules"] = [i for i, t in enumerate(texts) if _reducible(tree, t)]
        return texts, {**jobs, "demo": ()}
    if name == "expfam":
        texts = [tree.dumps(tree.expfam(k)) for k in range(1, 9)]
        return texts, {"check": range(0, 5), "rules": range(0, 8), "states": range(0, 3),
                       "crosscheck": range(0, 4), "diag": (), "demo": range(0, 5)}
    texts = _generated(tree)
    return texts, {**dict.fromkeys(JOBS, range(len(texts))), "diag": (), "demo": ()}


def run_side(ns, texts: list[str], jobs: dict[str, list]):
    """One side's pass, call by call: each step times one call and yields
    its job, its CPU seconds and what it answered, in plain values."""
    negs = [ns.loads(t) for t in texts]
    rels = {i: relations(ns, negs[i]) for i in jobs["crosscheck"]}
    sums: dict[int, list] = {}  # per diagram, the summaries found so far
    for i in jobs["check"]:
        v, s = timed(partial(ns.check_soundness, negs[i]))
        yield "check", s, (v.sound, v.state_count, sorted(v.dead_atoms), v.stuck_witness)
    for i in jobs["rules"]:
        trace, s = timed(partial(ns.run_auto, negs[i]))
        if trace.summary is not None:
            sums.setdefault(i, []).append(trace.summary)
        yield "rules", s, (trace.verdict, trace.counters.get("total", 0))
    for i in jobs["states"]:
        res, s = timed(partial(ns.summarize_by_states, negs[i]))
        if res.summary is not None:
            sums.setdefault(i, []).append(res.summary)
        yield "states", s, sorted((r, ns.format_expr(e)) for r, e in (res.summary or {}).items())
    for i in jobs["crosscheck"]:
        space, interp = rels[i]

        def crosscheck():
            expected = ns.brute_force_summary(negs[i], interp, space)
            return [r in expected and ns.rels_equal(ns.eval_expr(e, interp, space),
                                                    expected[r], space)
                    for summary in sums.get(i, ()) for r, e in summary.items()]

        agreed, s = timed(crosscheck)
        yield "crosscheck", s, agreed
    for i in jobs["diag"]:
        neg = negs[i]

        def diag():
            reports = [ns.target_of_atom(neg, a) for a in neg.atoms]
            reports += [ns.target_of_outcome(neg, o) for o in neg.outcomes()]
            return reports, ns.find_loops(neg)

        (reports, loops), s = timed(diag)
        yield "diag", s, ([(str(r.target), r.conflict, sorted(r.explored_atoms)) for r in reports],
                          [(loop.outcomes, str(loop.marking)) for loop in loops])
    for i in jobs["demo"]:
        for strategy in ("initial", "alternating"):
            trace, s = timed(partial(ns.run_exponential_demo, negs[i], strategy))
            yield "demo", s, (trace.total, trace.counters["peak_initial_results"], trace.verdict)


def pass_rows(name: str) -> dict:
    """Per job that runs, and `pass`, its time column over `PASS_ROUNDS`
    rounds. In a round each side runs its pass, and the sides take each
    call in turn, the side that goes first alternating from call to call."""
    texts, jobs = workload(name)
    seconds = {side: [] for side in SIDES}  # per round, job -> CPU seconds
    answers = {side: [] for side in SIDES}
    for k in range(PASS_ROUNDS):
        runs = {side: run_side(ns, texts, jobs) for side, ns in SIDES.items()}
        for side in SIDES:
            seconds[side].append(dict.fromkeys(JOBS, 0.0))
        for step in itertools.count(k):
            order = ("tree", "rev") if step % 2 == 0 else ("rev", "tree")
            steps = [next(runs[side], None) for side in order]
            if steps[0] is None:
                break
            for side, (job, s, answer) in zip(order, steps):
                seconds[side][-1][job] += s
                answers[side].append(answer)
    COMPARED.append(answers["tree"] == answers["rev"])
    for rounds in seconds.values():
        for r in rounds:
            r["pass"] = sum(r.values())
    return {job: column([r[job] for r in seconds["tree"]], [r[job] for r in seconds["rev"]])
            for job in (*JOBS, "pass") if job == "pass" or jobs[job]}


# -- the record --------------------------------------------------------------

def slope(points) -> float | None:
    """The least-squares slope of log y against log x over the points with
    a y; None without two distinct x."""
    points = [(math.log(x), math.log(y)) for x, y in points if y]
    if len({x for x, _ in points}) < 2:
        return None
    return statistics.linear_regression(*zip(*points)).slope


def slopes(record: dict) -> dict:
    """The slopes of the tree's columns."""
    series = {"expfam": record["expfam"]}
    for family in ("rules", "demo", "sweep"):
        series.update((f"{family} {name}", rows) for name, rows in record[family].items())

    def tree(value):
        return value["tree"] if isinstance(value, dict) else value

    return {
        f"{label} {c}": slope((row["K"], tree(row[c])) for row in rows)
        for label, rows in series.items()
        for c in SLOPE_COLUMNS
        if c in rows[0]
    }


SECTIONS = {
    "cli": cli_latency,
    "evaluation": lambda: {name: evaluation_row(text(build)) for name, build in EVAL_INPUTS},
    "expfam": lambda: [state_row(k) for k in STATE_KS],
    "rules": lambda: {name: [{"k": k, **rules_row(text(lambda ns: ns.expfam(k)), name)}
                             for k in RULE_KS] for name in ("run_auto", "run_general")},
    "demo": lambda: {name: [{"k": k, **rules_row(text(lambda ns: ns.expfam(k)), name)}
                            for k in DEMO_KS] for name in ("initial", "alternating")},
    "ratio": interleaved_ratio,
    "sweep": lambda: {("acyclic" if acyclic else "cyclic"): [sweep_row(K, acyclic)
                                                              for K in SWEEP_KS]
                      for acyclic in (True, False)},
    "pass": lambda: {name: pass_rows(name) for name in PASS_WORKLOADS},
}


def record(rev: str) -> dict:
    out = {
        "rev": {"name": rev, "commit": commit(rev)},
        "tree": {"commit": commit("HEAD"),
                 "edited": bool(git("status", "--porcelain", "--", "src", "scripts").strip())},
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "pass_rounds": PASS_ROUNDS,
        "answers_equal": {},
    }
    for name, build in SECTIONS.items():
        start = len(COMPARED)
        out[name] = build()
        out["answers_equal"][name] = all(COMPARED[start:])
    out["slopes"] = slopes(out)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/scaling.py", description="Time the working tree against REV.")
    parser.add_argument("rev")
    rev = parser.parse_args(argv).rev
    with loaded(rev):
        print(json.dumps(record(rev), indent=2, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
