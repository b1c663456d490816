"""The diagrams a reduction trace passes through, rebuilt from its change
log.

A trace keeps each application's `Change`, not the diagrams. `.before`,
`.after` and `stage_snapshots` rebuild them by replaying the log from
`trace.initial`. `replay_digests.json` pins, per case of `build_cases()`,
a sha256 over the text of every application's `.before` and `.after` of
`run_auto`, and of `run_general` with its stage snapshots on deterministic
diagrams: the atoms and their results in order, every transition entry
and every transformer. It was recorded while every rule output was still
a separately built diagram, so the replayed diagrams must equal those.
(The order of entries in the transition and transformer tables is not
part of a diagram's value: `model.rewrite` puts the entries it writes at
the end.)

Re-record (only for an intended change of the diagrams) with
`PYTHONPATH=src python tests/test_trace_replay.py --record`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from negsum import NegsumError, classify, format_expr, run_auto, run_general

from test_rule_traces import build_cases

DIGESTS_PATH = Path(__file__).with_name("replay_digests.json")


def diagram_text(neg) -> str:
    """Everything a diagram holds: its atoms in their order, and the
    entries of its transition and transformer tables."""
    lines = [f"agents {neg.agents} initial {neg.initial} final {neg.final}"]
    lines += [f"atom {a.id} {a.parties} {a.results}" for a in neg.atoms.values()]
    lines += [f"t {key} {sorted(ts)}" for key, ts in sorted(neg.transition.items())]
    lines += [f"x {o} {format_expr(e)}" for o, e in sorted(neg.transformers.items())]
    return "\n".join(lines) + "\n"


def walk_text(trace) -> str:
    """The text of every application's `.before` and `.after`, in order,
    then of the stage snapshots."""
    parts = []
    for app in trace.applications:
        parts += ["before\n", diagram_text(app.before), "after\n", diagram_text(app.after)]
    for stage, neg in sorted(trace.stage_snapshots.items()):
        parts += [f"stage {stage}\n", diagram_text(neg)]
    return "".join(parts)


def case_text(neg) -> str:
    try:
        text = walk_text(run_auto(neg))
    except NegsumError as e:
        text = f"raises {type(e).__name__}\n"
    if classify(neg).deterministic:
        text += "general\n" + walk_text(run_general(neg))
    return text


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def expected():
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def test_case_set_matches_the_recording():
    assert list(build_cases()) == list(expected())


@pytest.mark.parametrize("case", list(build_cases()))
def test_replayed_diagrams_are_unchanged(case):
    assert digest(case_text(build_cases()[case])) == expected()[case]


def test_a_rejected_index_leaves_the_trace_replayable():
    case = "fixture:fdm_acyclic"
    neg = build_cases()[case]
    trace = run_auto(neg)
    trace.applications[-1].after  # the replay copy stands at the last change
    for bad in (-1, trace.total + 1):
        with pytest.raises(IndexError, match=rf"0\.\.{trace.total}"):
            trace.diagram(bad)
    text = walk_text(trace)
    if classify(neg).deterministic:
        text += "general\n" + walk_text(run_general(neg))
    assert digest(text) == expected()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_trace_replay.py --record")
    table = {case: digest(case_text(neg)) for case, neg in build_cases().items()}
    DIGESTS_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases to {DIGESTS_PATH}")
