#!/usr/bin/env python3
"""Compare the speed of negsum at a git revision with the working tree's.

    python3 scripts/ab.py REV [workload ...] [--json FILE]
                                  (workloads: fixtures expfam generated;
                                   default: all)

Both sides are loaded the same way: REV's `src/negsum` is extracted with
`git archive` into a temporary directory and imported under the package
name `negsum_rev`, and the working tree's `src/negsum` (the one next to
this script) is copied into that directory and imported under the name
`negsum_tree` (their relative imports make that work unedited). Both run
the same jobs in ROUNDS interleaved rounds, the side that goes first
alternating from round to round, so a change of the host's speed within
a minute falls on both.

A round runs, on diagrams of each side's own, loaded from the same JSON
text outside the timing, the jobs of a benchmark pass in its order:

  check       check_soundness
  rules       run_auto
  states      summarize_by_states
  crosscheck  brute_force_summary, then eval_expr and rels_equal for each
              result of the rules and states summaries
  diag        target_of_atom of every atom, target_of_outcome of every
              outcome, and find_loops
  demo        run_exponential_demo with both strategies, as `negsum demo`
              runs it

The jobs of a side share its diagram objects, so whatever a diagram keeps
from one job is there for the next, as in a pass. Workloads:

  fixtures   the 18 bundled fixtures, each job on every one it covers
             (the smallest; the only workload with a diag)
  expfam     expfam(k): check k = 1..5, rules 1..8, states 1..3,
             crosscheck 1..4, demo 1..5 (the only workload with a demo)
  generated  eight generate_sound diagrams, one per shape, each with an
             unsound mutant, at most 50 markings and 150 edges each

The relations of the cross-check are seeded left-total relations over two
states per agent (a fixture's own where it ships them). Each job's time
is the process CPU time of its calls, with the garbage collector off
during each call and a full collection before each side's round.

Per workload and job (and `pass`, all jobs together) it prints the median
over the rounds of the ratio tree / REV of the job's CPU time, the
ratio's quartiles, and how many rounds each side was faster in; a ratio
below 1 means the working tree is faster. A last line per workload says
whether both sides gave the same answers in the first round: verdicts,
marking counts, applications, printed summaries and cross-check results.
The last line gives the line count of `src/negsum/*.py` on each side.
With `--json FILE`, the same table is also written to FILE as JSON, with
both revisions (REV as given and its commit, and the commit the working
tree is on, with whether it has edits), the Python version, the host's
machine type and CPU count, and the round count.

On identical code the ratio scatters around 1 by about 1 %: seven A/A
runs (`ab.py HEAD fixtures` on a clean tree, 30 rounds each, Python
3.11, a shared 2-core x86_64 host) read `fixtures` `rules` 0.988-1.013,
median 1.002. So a ratio within about 1 % of 1 is not a difference of
code. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import itertools
import json
import os
import pathlib
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import negsum  # noqa: E402

ROUNDS = 30
REV_PACKAGE, TREE_PACKAGE = "negsum_rev", "negsum_tree"
JOBS = ("check", "rules", "states", "crosscheck", "diag", "demo")

# (agents, inverse-rule steps, max atoms, acyclic), as the benchmark's
# `generated` workload draws them
GEN_SHAPES = (
    (3, 24, 12, False),
    (3, 40, 20, True),
    (4, 32, 16, False),
    (4, 48, 24, True),
    (5, 32, 16, False),
    (5, 40, 20, True),
    (4, 40, 20, False),
    (3, 64, 32, True),
)
GEN_MAX_MARKINGS, GEN_MAX_EDGES, GEN_MAX_ATTEMPTS = 50, 150, 200


def git(*args: str) -> bytes:
    """The standard output of git run on this checkout."""
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def load_rev(rev: str, into: str):
    """The negsum package of `rev`, extracted under `into`."""
    tar = git("archive", "--format=tar", rev, "src/negsum")
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into)
    return import_package(REV_PACKAGE, pathlib.Path(into, "src", "negsum"))


def load_tree(into: str):
    """The working tree's negsum package, copied under `into`."""
    package = pathlib.Path(into, "tree", "negsum")
    shutil.copytree(ROOT / "src" / "negsum", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return import_package(TREE_PACKAGE, package)


def import_package(name: str, package: pathlib.Path):
    """The package at `package` imported as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def line_count(package: pathlib.Path) -> int:
    """The lines of the package's modules, `*.py`, as `wc -l` counts
    them."""
    return sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))


# -- workloads: diagrams as JSON text, and the diagrams each job runs on ----

def _small(neg) -> bool:
    try:
        graph = negsum.reachability(neg, cap=GEN_MAX_MARKINGS)
    except negsum.BudgetExceeded:
        return False
    return sum(map(len, graph.succ)) <= GEN_MAX_EDGES


def _generated() -> list:
    texts = []
    for i, (agents, steps, max_atoms, acyclic) in enumerate(GEN_SHAPES):
        for attempt in range(GEN_MAX_ATTEMPTS):
            seed = (1000 + i) * GEN_MAX_ATTEMPTS + attempt
            neg = negsum.generate_sound(seed, steps, agents, acyclic, max_atoms=max_atoms)
            if not _small(neg):
                continue
            mutant = negsum.mutate_unsound(neg, random.Random(seed))
            if mutant is not None and _small(mutant):
                texts += [negsum.dumps(neg), negsum.dumps(mutant)]
                break
    return texts


def _reducible(text: str) -> bool:
    try:
        negsum.run_auto(negsum.loads(text))
    except negsum.NegsumError:  # no strategy covers the diagram
        return False
    return True


def workload(name: str) -> tuple[list[str], dict[str, list]]:
    """The workload's diagrams as JSON text, and per job the indexes of
    the diagrams it runs on."""
    if name == "fixtures":
        texts = [negsum.fixture_text(f) for f in negsum.fixture_names()]
        jobs = dict.fromkeys(JOBS, range(len(texts)))
        jobs["rules"] = [i for i, t in enumerate(texts) if _reducible(t)]
        return texts, {**jobs, "demo": ()}
    if name == "expfam":
        texts = [negsum.dumps(negsum.expfam(k)) for k in range(1, 9)]
        return texts, {
            "check": range(0, 5), "rules": range(0, 8),
            "states": range(0, 3), "crosscheck": range(0, 4), "diag": (),
            "demo": range(0, 5),
        }
    if name == "generated":
        texts = _generated()
        return texts, {**dict.fromkeys(JOBS, range(len(texts))), "diag": (), "demo": ()}
    raise SystemExit(f"unknown workload {name!r}: fixtures, expfam or generated")


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
            (q, q2) for q in local for q2 in rng.sample(local, rng.randint(1, 2))
        )
        interp[(atom, result)] = ns.Rel(parties, pairs)
    return space, interp


# -- one side of one round --------------------------------------------------

def _timed(fn):
    gc.disable()
    t0 = time.process_time()
    try:
        out = fn()
    finally:
        t1 = time.process_time()
        gc.enable()
    return out, t1 - t0


def run_side(ns, texts: list[str], jobs: dict[str, list], answer: bool):
    """Per job, the CPU seconds of its calls, and with `answer` what they
    answered, in plain values."""
    negs = [ns.loads(t) for t in texts]
    rels = {i: relations(ns, negs[i]) for i in jobs["crosscheck"]}
    seconds = dict.fromkeys(JOBS, 0.0)
    answers = []
    sums: dict[int, list] = {}
    gc.collect()

    def run(job, fn):
        out, s = _timed(fn)
        seconds[job] += s
        return out

    for i in jobs["check"]:
        v = run("check", lambda: ns.check_soundness(negs[i]))
        answers.append((v.sound, v.state_count, sorted(v.dead_atoms), v.stuck_witness))
    for i in jobs["rules"]:
        trace = run("rules", lambda: ns.run_auto(negs[i]))
        answers.append((trace.verdict, trace.counters.get("total", 0)))
        if trace.summary is not None:
            sums.setdefault(i, []).append(trace.summary)
    for i in jobs["states"]:
        res = run("states", lambda: ns.summarize_by_states(negs[i]))
        if res.summary is not None:
            sums.setdefault(i, []).append(res.summary)
        if answer:
            summary = res.summary or {}
            answers.append(sorted((r, ns.format_expr(e)) for r, e in summary.items()))

    for i in jobs["crosscheck"]:
        space, interp = rels[i]

        def crosscheck():
            oracle = ns.brute_force_summary(negs[i], interp, space)
            return [
                r in oracle and ns.rels_equal(ns.eval_expr(e, interp, space), oracle[r], space)
                for summary in sums.get(i, ())
                for r, e in summary.items()
            ]

        answers.append(run("crosscheck", crosscheck))
    for i in jobs["diag"]:
        neg = negs[i]

        def diag():
            reports = [ns.target_of_atom(neg, a) for a in neg.atoms]
            reports += [ns.target_of_outcome(neg, o) for o in neg.outcomes()]
            return reports, ns.find_loops(neg)

        reports, loops = run("diag", diag)
        if answer:
            answers.append([(str(r.target), r.conflict, sorted(r.explored_atoms))
                            for r in reports])
            answers.append([(loop.outcomes, str(loop.marking)) for loop in loops])
    for i in jobs["demo"]:
        for strategy in ("initial", "alternating"):
            trace = run("demo", lambda: ns.run_exponential_demo(negs[i], strategy))
            answers.append((trace.total, trace.counters["peak_initial_results"], trace.verdict))
    return seconds, answers if answer else None


# -- the comparison ---------------------------------------------------------

def compare(tree_ns, rev_ns, texts, jobs, rounds: int):
    """Per job and `pass`: (median ratio, q1, q3, tree won, REV won), and
    whether the first round's answers were equal."""
    ratios: dict[str, list[float]] = {job: [] for job in (*JOBS, "pass")}
    same = True
    for k in range(rounds):
        sides = [("tree", tree_ns), ("rev", rev_ns)]
        if k % 2:
            sides.reverse()
        got = {name: run_side(ns, texts, jobs, k == 0) for name, ns in sides}
        (tree, tree_answers), (rev, rev_answers) = got["tree"], got["rev"]
        if k == 0:
            same = tree_answers == rev_answers
        tree["pass"], rev["pass"] = sum(tree.values()), sum(rev.values())
        for job, values in ratios.items():
            if rev[job] > 0:
                values.append(tree[job] / rev[job])
    rows = {}
    for job, values in ratios.items():
        if not values:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        won = sum(v < 1 for v in values), sum(v > 1 for v in values)
        rows[job] = (statistics.median(values), q1, q3, *won)
    return rows, same


def report(rev: str, tree_ns, rev_ns, names: list[str]) -> dict:
    """Print the table, and return it: per workload, its rows by job and
    whether the answers were equal."""
    print(f"{rev} ({REV_PACKAGE}) against the working tree, {ROUNDS} rounds; "
          "ratio = tree / REV CPU time")
    print(f"{'workload':<10} {'job':<11} {'median':>7} {'q1':>7} {'q3':>7} "
          f"{'tree won':>9} {'REV won':>8}")
    table = {}
    for name in names:
        texts, jobs = workload(name)
        rows, same = compare(tree_ns, rev_ns, texts, jobs, ROUNDS)
        for job, (median, q1, q3, tree_won, rev_won) in rows.items():
            print(f"{name:<10} {job:<11} {median:7.3f} {q1:7.3f} {q3:7.3f} "
                  f"{tree_won:9d} {rev_won:8d}")
        print(f"{name:<10} answers {'equal' if same else 'DIFFER'}")
        table[name] = {
            "jobs": {
                job: dict(zip(("median", "q1", "q3", "tree_won", "rev_won"), row))
                for job, row in rows.items()
            },
            "answers_equal": same,
        }
    return table


def record(rev: str, table: dict, rev_lines: int, tree_lines: int) -> dict:
    """The table with what it was measured on."""
    return {
        "rev": {"name": rev, "commit": git("rev-parse", rev).decode().strip()},
        "tree": {
            "commit": git("rev-parse", "HEAD").decode().strip(),
            "edited": bool(git("status", "--porcelain", "--", "src/negsum").strip()),
        },
        "python": platform.python_version(),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "rounds": ROUNDS,
        "ratio": "tree / REV CPU time",
        "workloads": table,
        "lines": {"rev": rev_lines, "tree": tree_lines},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/ab.py", description="Compare REV's speed with the working tree's."
    )
    parser.add_argument("rev")
    parser.add_argument("workloads", nargs="*", metavar="fixtures|expfam|generated")
    parser.add_argument("--json", metavar="FILE", help="also write the table to FILE")
    args = parser.parse_args(argv)
    names = args.workloads or ["fixtures", "expfam", "generated"]
    with tempfile.TemporaryDirectory(prefix="negsum-ab-") as tmp:
        try:
            rev_ns, tree_ns = load_rev(args.rev, tmp), load_tree(tmp)
            table = report(args.rev, tree_ns, rev_ns, names)
            rev_lines = line_count(pathlib.Path(tmp, "src", "negsum"))
            tree_lines = line_count(pathlib.Path(tmp, "tree", "negsum"))
            print(f"{'lines':<10} src/negsum/*.py: REV {rev_lines}, tree {tree_lines} "
                  f"({tree_lines - rev_lines:+d})")
        finally:  # the modules' files go with the directory
            for name in [n for n in sys.modules
                         if n.partition(".")[0] in (REV_PACKAGE, TREE_PACKAGE)]:
                del sys.modules[name]
    if args.json:
        out = record(args.rev, table, rev_lines, tree_lines)
        pathlib.Path(args.json).write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
