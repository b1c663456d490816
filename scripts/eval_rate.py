#!/usr/bin/env python3
"""Print the cost of evaluating summaries into relations.

    python3 scripts/eval_rate.py

For the state-elimination summary and the rule summary of `expfam(k)`,
k = 1..3, of one generated diagram whose state summary has labels with
long shared tails (`generate_sound(200800, 32, 5, False, max_atoms=16)`:
5 agents, K = 15, 40 markings), and of the bundled fixture
`running_multi`, it prints the number of relation compositions one
evaluation makes (one per distinct joint party tuple, factor value and
value of the product of the rest: `Kernel.eval` interns the relations it
meets by value), the number of factors it puts in spread form
(`Kernel.spread`: built once per evaluation for each distinct factor
value and joint party tuple), and the CPU milliseconds of `eval_expr` over the summary's
expressions; those runs read each relation through the rows it keeps
from the first, untimed one, so the conversions from pairs are timed in
the cross-check row. The read-back columns time the path of a printed
summary: `parse_expr` of each expression's `format_expr` text, then
`eval_expr` and `format_expr` of what was parsed (the reprint must equal
the text). Each input also gets an oracle row: its number of reachable
markings, the number n of global assignments of its agents, and the CPU
milliseconds of `brute_force_summary`, the union of all large steps off
the reachability graph. The cross-check row times the benchmark's
cross-check sequence: `brute_force_summary`, then `eval_expr` and
`rels_equal` for each result of both engines, on relations built anew for
each run, as every benchmark pass builds them; it also prints the number
of pair-to-rows conversions (`Kernel._convert`) one such run makes.
`scripts/scaling.py` times the oracle on larger diagrams, `expfam(1..6)`,
under the same relations. Each time is the median of three runs,
each after a full garbage collection. A diagram keeps its reachability
graph once explored, and each input is explored before its first timed
run, so the oracle and cross-check rows time the oracle's own work, not
the search. The relations are seeded left-total
relations over two states per agent, built as the benchmark's cross-check
builds them.
Standard library only; negsum is loaded from the `src/` directory next to
this script.
"""

from __future__ import annotations

import gc
import itertools
import math
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from negsum import (  # noqa: E402
    Rel,
    brute_force_summary,
    eval_expr,
    expfam,
    format_expr,
    generate_sound,
    load_fixture,
    parse_expr,
    reachability,
    rels_equal,
    run_auto,
    summarize_by_states,
    transformers,
)

REPEATS = 3
INPUTS = (
    *((f"expfam({k})", lambda k=k: expfam(k)) for k in (1, 2, 3)),
    ("shape 4", lambda: generate_sound(200800, 32, 5, False, max_atoms=16)),
    ("running_multi", lambda: load_fixture("running_multi")),
)


def relations(neg):
    """Each outcome's seeded relation over two states per agent: every
    local entry state relates to one or two exit states."""
    space = {a: ("0", "1") for a in neg.agents}
    interp = {}
    for atom, result in neg.outcomes():
        rng = random.Random(f"1/{atom}/{result}")
        parties = neg.parties(atom)
        local = list(itertools.product("01", repeat=len(parties)))
        pairs = frozenset((q, q2) for q in local for q2 in rng.sample(local, rng.randint(1, 2)))
        interp[(atom, result)] = Rel(parties, pairs)
    return space, interp


def summaries(neg):
    """(engine, its summary: final result -> expression) for both
    engines."""
    return (
        ("states", summarize_by_states(neg).summary),
        ("rules", run_auto(neg).summary),
    )


def median_ms(job) -> float:
    """The median CPU milliseconds of `job()` over `REPEATS` runs, each
    after a full garbage collection."""
    times = []
    for _ in range(REPEATS):
        gc.collect()
        t0 = time.process_time()
        job()
        times.append(time.process_time() - t0)
    return 1000 * statistics.median(times)


def measure(neg) -> list[tuple[str, int, int, float]]:
    """(engine, compositions, spreads, median CPU ms) of evaluating the
    state and the rule summary of `neg`."""
    space, interp = relations(neg)
    compose, spread = transformers._compose, transformers.Kernel.spread
    calls = {"compose": 0, "spread": 0}

    def counted_compose(a, b):
        calls["compose"] += 1
        return compose(a, b)

    def counted_spread(self, r, parties):
        calls["spread"] += 1
        return spread(self, r, parties)

    out = []
    for engine, summary in summaries(neg):
        exprs = list(summary.values())
        transformers._compose = counted_compose
        transformers.Kernel.spread = counted_spread
        try:
            calls.update(compose=0, spread=0)
            for e in exprs:
                eval_expr(e, interp, space)
        finally:
            transformers._compose = compose
            transformers.Kernel.spread = spread
        ms = median_ms(lambda: [eval_expr(e, interp, space) for e in exprs])
        out.append((engine, calls["compose"], calls["spread"], ms))
    return out


def read_back(neg) -> list[tuple[str, float, float, float]]:
    """(engine, parse ms, eval ms, format ms) of the state and the rule
    summary of `neg` read back from its printed text."""
    space, interp = relations(neg)
    out = []
    for engine, summary in summaries(neg):
        texts = [format_expr(e) for e in summary.values()]
        parsed = []
        parse_ms = median_ms(lambda: parsed.append([parse_expr(t) for t in texts]))
        exprs = parsed[-1]
        eval_ms = median_ms(lambda: [eval_expr(e, interp, space) for e in exprs])
        reprinted = []
        format_ms = median_ms(lambda: reprinted.append([format_expr(e) for e in exprs]))
        if reprinted[-1] != texts:
            raise RuntimeError(f"{engine}: the parsed summary reprints differently")
        out.append((engine, parse_ms, eval_ms, format_ms))
    return out


def cross_check_sequence(neg, engines, space, interp) -> None:
    """The benchmark's cross-check of `neg`: the oracle, then each
    engine's summary evaluated and compared with it."""
    expected = brute_force_summary(neg, interp, space)
    for engine, summary in engines:
        for result, expr in summary.items():
            if not rels_equal(eval_expr(expr, interp, space), expected[result], space):
                raise RuntimeError(f"{engine}: result {result} disagrees with the oracle")


def crosscheck(neg) -> tuple[int, float]:
    """(pair-to-rows conversions, median CPU ms) of one cross-check of
    `neg`, each run on relations of its own, built before it is timed."""
    engines = summaries(neg)
    fresh = [relations(neg) for _ in range(REPEATS + 1)]
    convert = transformers.Kernel._convert
    calls = [0]

    def counted_convert(self, rel):
        calls[0] += 1
        return convert(self, rel)

    transformers.Kernel._convert = counted_convert
    try:
        cross_check_sequence(neg, engines, *fresh.pop())
    finally:
        transformers.Kernel._convert = convert
    return calls[0], median_ms(lambda: cross_check_sequence(neg, engines, *fresh.pop()))


def oracle(neg) -> tuple[int, int, float]:
    """(reachable markings, global assignments n, median CPU ms of
    `brute_force_summary`) of `neg` under the seeded relations."""
    space, interp = relations(neg)
    markings = len(reachability(neg).codes)
    named = {a for rel in interp.values() for a in rel.parties}
    n = math.prod(len(space[a]) for a in named)
    return markings, n, median_ms(lambda: brute_force_summary(neg, interp, space))


def main() -> int:
    for name, build in INPUTS:
        neg = build()
        for (engine, compositions, spreads, ms), (_, parse_ms, eval_ms, format_ms) in zip(
            measure(neg), read_back(neg)
        ):
            print(
                f"{name} {engine}: compositions {compositions} spreads {spreads}"
                f" eval_ms {ms:.3f}"
                f" read_back parse_ms {parse_ms:.3f} eval_ms {eval_ms:.3f}"
                f" format_ms {format_ms:.3f}"
            )
        conversions, ms = crosscheck(neg)
        print(f"{name} crosscheck: conversions {conversions} crosscheck_ms {ms:.3f}")
        markings, n, ms = oracle(neg)
        print(f"{name} oracle: markings {markings} n {n} brute_force_ms {ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
