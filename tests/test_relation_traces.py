"""Golden digests of the relation layer.

Pins the concrete relations that the transformer kernel computes on the
cases of `test_rule_traces` (every bundled fixture, the generated
diagrams and their mutants), under `conftest.interp_for`:

  brute   `brute_force_summary`, per final result
  rules   `eval_expr` of the `run_auto` summary, per final result
  states  `eval_expr` of the `summarize_by_states` summary, per result
  star    `star` of every outcome's relation

Each relation is written as its `parties` and its sorted `pairs`, so the
digests pin the exact value, not only its global meaning. An exception is
recorded as text. The expected values are sha256 digests kept in
`relation_traces.json`, recorded with the pair-set algebra before the
bitset kernel replaced it; a rewritten kernel must reproduce them byte
for byte.

Re-record (only for an intended change of the relation layer) with
`PYTHONPATH=src python tests/test_relation_traces.py --record`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from negsum import (
    BudgetExceeded,
    NegsumError,
    brute_force_summary,
    eval_expr,
    reachability,
    run_auto,
    star,
    summarize_by_states,
)

from conftest import interp_for
from test_rule_traces import build_cases, digest

EXPECTED_PATH = Path(__file__).with_name("relation_traces.json")
MAX_MARKINGS = 200


def rel_text(rel) -> str:
    return f"{rel.parties}\n" + "\n".join(repr(p) for p in sorted(rel.pairs))


def _guarded(fn):
    try:
        return fn()
    except NegsumError as e:
        return f"raises {type(e).__name__}: {e}"


def _per_result(rels) -> str:
    if rels is None:
        return "none"
    return "\n".join(f"{r}:\n{rel_text(rels[r])}" for r in sorted(rels))


def _evaluated(summary, interp, space):
    if summary is None:
        return None
    return {r: eval_expr(e, interp, space) for r, e in summary.items()}


def relation_texts(neg) -> dict[str, str]:
    space, interp = interp_for(neg)
    return {
        "brute": _guarded(
            lambda: _per_result(brute_force_summary(neg, interp, space))
        ),
        "rules": _guarded(
            lambda: _per_result(_evaluated(run_auto(neg).summary, interp, space))
        ),
        "states": _guarded(
            lambda: _per_result(
                _evaluated(summarize_by_states(neg).summary, interp, space)
            )
        ),
        "star": "\n".join(
            f"{o}:\n{_guarded(lambda: rel_text(star(interp[o], space)))}"
            for o in sorted(interp)
        ),
    }


def relation_digests(neg) -> dict[str, str]:
    return {kind: digest(text) for kind, text in relation_texts(neg).items()}


def relation_cases() -> list[str]:
    """The cases whose reachability graph has at most MAX_MARKINGS
    markings, in the order of `build_cases`."""
    out = []
    for case, neg in build_cases().items():
        try:
            reachability(neg, cap=MAX_MARKINGS)
        except BudgetExceeded:
            continue
        out.append(case)
    return out


def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def test_case_set_matches_the_recording():
    assert relation_cases() == list(expected())


@pytest.mark.parametrize("case", relation_cases())
def test_relation_layer_is_unchanged(case):
    assert relation_digests(build_cases()[case]) == expected()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_relation_traces.py --record")
    table = {case: relation_digests(build_cases()[case]) for case in relation_cases()}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases to {EXPECTED_PATH}")
