"""Golden traces of the reduction strategies.

Pins the trace lines, verdict, reason and printed summary of `run_auto`
on every bundled fixture, on the `generate_sound` seeds that the
strategy and differential tests use, and on one `mutate_unsound` mutant
of each generated diagram. The expected values are sha256 digests kept
in `rule_traces.json`, recorded before the guards were indexed; a faster
engine must reproduce them byte for byte.

`rule_steps.json` pins, per case, the `(kind, line, stage)` of every
application of `run_auto`: which strategy branch chose each step and in
which stage, which the trace lines above do not show. It was recorded
before the strategies were rewritten as one priority-step driver.

`DEMO_DIGESTS` pins the same text for `run_exponential_demo` on
`expfam(1..5)`, both strategies, recorded before the rules rewrote only
the outcomes they remove and add.

Re-record (only for an intended change of the traces) with
`PYTHONPATH=src python tests/test_rule_traces.py --record`.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from negsum import (
    NegsumError,
    classify,
    expfam,
    fixture_names,
    format_expr,
    generate_sound,
    load_fixture,
    mutate_unsound,
    run_auto,
    run_general,
)
from negsum.rules import OrderedOutcomes
from negsum.strategies import run_exponential_demo

EXPECTED_PATH = Path(__file__).with_name("rule_traces.json")
STEPS_PATH = Path(__file__).with_name("rule_steps.json")


def _generated_shapes():
    """(seed, steps, agents, acyclic) of every generated diagram the
    strategy and differential tests reduce, without repeats."""
    shapes = []
    shapes += [(s, 2 + s % 6, 2 + s % 3, True) for s in range(30)]
    shapes += [(s, 1 + s % 6, 2 + s % 3, True) for s in range(25)]
    shapes += [(s, 3 + s % 5, 2 + s % 2, False) for s in range(15)]
    shapes += [(s, 2 + s % 5, 1, False) for s in range(15)]
    shapes += [(s, 3 + s % 4, 2 + s % 2, False) for s in range(60)]
    return list(dict.fromkeys(shapes))


@lru_cache(maxsize=None)
def build_cases():
    """Case id -> diagram, in a fixed order."""
    cases = {}
    for name in fixture_names():
        cases[f"fixture:{name}"] = load_fixture(name)
    for seed, steps, agents, acyclic in _generated_shapes():
        base = generate_sound(seed, steps, num_agents=agents, acyclic=acyclic)
        tag = f"gen:{seed}:{steps}:{agents}:{'a' if acyclic else 'c'}"
        cases[tag] = base
        mutant = mutate_unsound(base, random.Random(seed))
        if mutant is not None:
            cases[f"{tag}:mutant"] = mutant
    return cases


def trace_text(trace) -> str:
    lines = list(trace.trace_lines())
    lines.append(f"verdict={trace.verdict} reason={trace.reason}")
    for r in sorted(trace.summary or {}):
        lines.append(f"{r}: {format_expr(trace.summary[r])}")
    return "\n".join(lines) + "\n"


def run_auto_text(neg) -> str:
    try:
        return trace_text(run_auto(neg))
    except NegsumError as e:
        return f"raises {type(e).__name__}\n"


def run_auto_steps(neg) -> str:
    """One `kind line stage` line per application of `run_auto`."""
    try:
        trace = run_auto(neg)
    except NegsumError as e:
        return f"raises {type(e).__name__}\n"
    return "".join(
        f"{app.kind} {app.line} {app.stage}\n" for app in trace.applications
    )


def run_general_unchecked(neg):
    """`run_general` with its stage check blind: R(N) reports no lowest
    stage, so the check never fires."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OrderedOutcomes, "lowest", lambda self: None)
        return run_general(neg)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@lru_cache(maxsize=None)
def expected(path=EXPECTED_PATH):
    return json.loads(path.read_text(encoding="utf-8"))


def test_case_set_matches_the_recording():
    assert list(build_cases()) == list(expected())
    assert list(build_cases()) == list(expected(STEPS_PATH))


@pytest.mark.parametrize("case", list(build_cases()))
def test_run_auto_trace_is_unchanged(case):
    neg = build_cases()[case]
    assert digest(run_auto_text(neg)) == expected()[case]


@pytest.mark.parametrize("case", list(build_cases()))
def test_run_auto_lines_and_stages_are_unchanged(case):
    neg = build_cases()[case]
    assert digest(run_auto_steps(neg)) == expected(STEPS_PATH)[case]


def test_invariant_check_does_not_change_run_general():
    for case, neg in build_cases().items():
        if not classify(neg).deterministic:
            continue
        checked = trace_text(run_general(neg))
        unchecked = trace_text(run_general_unchecked(neg))
        assert checked == unchecked, case


def test_invariant_check_catches_a_lower_stage_reducible_outcome(monkeypatch):
    """Make the maintained R(N) report a 1-party outcome right after the
    first stage-2 application: the check must raise, and with the check
    blind the planted outcome lies outside every later pool and changes
    nothing."""
    from negsum.rules import Reducible

    neg = load_fixture("running_multi")
    reference = run_general(neg)
    stages = [app.stage for app in reference.applications]
    plant_at = stages.index(2)  # R(N) updates: one per recorded application
    real = Reducible.advance

    def planted(self, app):
        nonlocal calls
        real(self, app)
        if calls == plant_at:
            parties = self.neg.parties
            self.outcomes.add(next(o for o in self.neg.outcomes() if len(parties(o[0])) == 1))
        calls += 1

    monkeypatch.setattr(Reducible, "advance", planted)
    calls = 0
    with pytest.raises(AssertionError, match="stage 2 created a 1-reducible outcome"):
        run_general(neg)
    calls = 0
    unchecked = run_general_unchecked(neg)
    assert calls == len(reference.applications)
    assert trace_text(unchecked) == trace_text(reference)


# sha256 of `trace_text` of `run_exponential_demo(expfam(k), strategy)`,
# recorded before the rules rewrote only the outcomes they touch
DEMO_DIGESTS = {
    ("initial", 1): "7bb4f191306b3dc8dcf2707b8a8eec92bc505c632442a39063b154888c61fb33",
    ("initial", 2): "c07285d6b8d0a352411798e12eaf7a470ced15f3184dfee6cd3eab58ed068995",
    ("initial", 3): "b4b2cc5130209313f4d4fca90305897b3097022802e13e0112c385f0aa1658bc",
    ("initial", 4): "7cec9b7fb622b34aa0968c0fe39b20524e27f72420866dcf8315570cfd848014",
    ("initial", 5): "9d282108d8f9cab3b55fabc77c70e07f17f6ce967f98000a9f7ec9653e2c9bba",
    ("alternating", 1): "7bb4f191306b3dc8dcf2707b8a8eec92bc505c632442a39063b154888c61fb33",
    ("alternating", 2): "dd8975296f0bb363cc19d6c919914253522a244c61ee162689ebad12ae6b3a3c",
    ("alternating", 3): "c8a51eb11f58577bf0161f6fc73b30e89396c8fe4ee75f477322e88a8815979f",
    ("alternating", 4): "9c9ba075a54a4729d812357b44cfbcf93b624e50aebfab6af8e2c74c87b3fd40",
    ("alternating", 5): "a32a259eb7fcade818f867bfebd46d9fd078ea47e8831b7d9dd8cafa5949b320",
}


@pytest.mark.parametrize("strategy, k", list(DEMO_DIGESTS))
def test_exponential_demo_trace_is_unchanged(strategy, k):
    trace = run_exponential_demo(expfam(k), strategy)
    assert digest(trace_text(trace)) == DEMO_DIGESTS[(strategy, k)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_rule_traces.py --record")
    for path, text_of in ((EXPECTED_PATH, run_auto_text), (STEPS_PATH, run_auto_steps)):
        table = {case: digest(text_of(neg)) for case, neg in build_cases().items()}
        path.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
        print(f"recorded {len(table)} cases to {path}")
