#!/usr/bin/env python3
"""Print the cost of evaluating summaries into relations.

    python3 scripts/eval_rate.py

For the state-elimination summary and the rule summary of `expfam(k)`,
k = 1..3, and of one generated diagram whose state summary has labels
with long shared tails (`generate_sound(200800, 32, 5, False,
max_atoms=16)`: 5 agents, K = 15, 40 markings), it prints the number of
relation compositions one evaluation makes and the CPU milliseconds of
`eval_expr` over the summary's expressions: the median of three runs,
each after a full garbage collection. The relations are seeded left-total
relations over two states per agent, built as the benchmark's cross-check
builds them. Standard library only; negsum is loaded from the `src/`
directory next to this script.
"""

from __future__ import annotations

import gc
import itertools
import pathlib
import random
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from negsum import (  # noqa: E402
    Rel,
    eval_expr,
    expfam,
    generate_sound,
    run_auto,
    summarize_by_states,
    transformers,
)

REPEATS = 3
INPUTS = (
    *((f"expfam({k})", lambda k=k: expfam(k)) for k in (1, 2, 3)),
    ("shape 4", lambda: generate_sound(200800, 32, 5, False, max_atoms=16)),
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


def measure(neg) -> list[tuple[str, int, float]]:
    """(engine, compositions, median CPU ms) of evaluating the state and
    the rule summary of `neg`."""
    space, interp = relations(neg)
    compose = transformers._compose
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return compose(a, b)

    out = []
    for engine, summary in (
        ("states", summarize_by_states(neg).summary),
        ("rules", run_auto(neg).summary),
    ):
        exprs = list(summary.values())
        transformers._compose = counted
        try:
            calls[0] = 0
            for e in exprs:
                eval_expr(e, interp, space)
        finally:
            transformers._compose = compose
        times = []
        for _ in range(REPEATS):
            gc.collect()
            t0 = time.process_time()
            for e in exprs:
                eval_expr(e, interp, space)
            times.append(time.process_time() - t0)
        out.append((engine, calls[0], 1000 * statistics.median(times)))
    return out


def main() -> int:
    for name, build in INPUTS:
        for engine, compositions, ms in measure(build()):
            print(f"{name} {engine}: compositions {compositions} eval_ms {ms:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
