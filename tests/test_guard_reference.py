"""The guards that read `Negotiation.sends` against the table scans they
replaced.

`uniform`, `uniform_target` and `iteration_applicable` decide from the
outcome's cached party counts per target atom (`Negotiation.sends`).
Before, each rebuilt every party's target set from the transition table;
those bodies are kept here as the reference. The guards must agree with
them on every outcome of every `build_cases()` diagram, on every diagram
along that diagram's `run_auto` trace (so final outcomes, the forks of the
weakly deterministic fixtures and self-loops are all met, and the counts
are read after the diagram was rewritten in place), and along
`run_general(expfam(k))`, and on a diagram whose parties all go to
forks.
"""

from __future__ import annotations

from functools import cache

import pytest

from negsum import (
    AtomSpec,
    NegsumError,
    expfam,
    iteration_applicable,
    run_auto,
    run_general,
    uniform,
    uniform_target,
    validate,
)

from test_rule_traces import build_cases


# ---------------------------------------------------------------------------
# The reference guards
# ---------------------------------------------------------------------------

def reference_uniform(neg, outcome):
    n, r = outcome
    targets = [neg.targets(n, p, r) for p in neg.parties(n)]
    return all(t == targets[0] for t in targets)


def reference_uniform_target(neg, outcome):
    n, r = outcome
    targets = {neg.targets(n, p, r) for p in neg.parties(n)}
    if len(targets) != 1:
        return None
    only = next(iter(targets))
    if len(only) != 1:
        return None
    return next(iter(only))


def reference_iteration_applicable(neg, outcome):
    n, r = outcome
    return all(neg.targets(n, p, r) == frozenset([n]) for p in neg.parties(n))


def guard_values(neg):
    """outcome -> (uniform, uniform target, iteration applies), by the guards
    and by the reference."""
    found, expected = {}, {}
    for o in neg.outcomes():
        found[o] = (uniform(neg, o), uniform_target(neg, o), iteration_applicable(neg, o))
        expected[o] = (
            reference_uniform(neg, o),
            reference_uniform_target(neg, o),
            reference_iteration_applicable(neg, o),
        )
    return found, expected


def assert_trace_matches(trace):
    """The guards agree with the reference on every diagram of the trace.
    `trace.diagram(i)` rebuilds the diagrams in order on one replayed
    copy, so each is checked before the next change is made."""
    for i in range(len(trace.applications) + 1):
        found, expected = guard_values(trace.diagram(i))
        assert found == expected, f"after {i} applications"


@cache
def cases():
    return build_cases()


def forks():
    """Outcomes whose parties all go to forks, where counting only the
    parties sent to one atom alone, or counting every arc, would decide
    wrongly: `split` and `loop` are not uniform, `same` is, and `loop`
    is no iteration although every party may come back to n0."""
    agents = ("p", "q")
    atoms = [
        AtomSpec("n0", agents, ("split", "loop", "same", "half")),
        AtomSpec("a", agents, ("r",)),
        AtomSpec("b", agents, ("r",)),
        AtomSpec("nf", agents, ("end",)),
    ]
    sends = {
        "split": ({"a", "b"}, {"b", "nf"}),
        "loop": ({"n0", "a"}, {"n0"}),
        "same": ({"a", "b"}, {"a", "b"}),
        "half": ({"a"}, {"a", "b"}),
    }
    transition = {}
    for r, targets in sends.items():
        for p, ts in zip(agents, targets):
            transition[("n0", p, r)] = ts
    for atom, r, ts in (("a", "r", {"nf"}), ("b", "r", {"nf"}), ("nf", "end", set())):
        for p in agents:
            transition[(atom, p, r)] = ts
    return validate(agents, atoms, "n0", "nf", transition)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", list(cases()))
def test_build_cases_match_the_reference(case):
    neg = cases()[case]
    found, expected = guard_values(neg)
    assert found == expected
    try:
        trace = run_auto(neg)
    except NegsumError:
        return
    assert_trace_matches(trace)


def test_the_cases_meet_every_kind_of_outcome():
    """The cases hold final outcomes, forks, self-loops, uniform outcomes
    with a single target, and non-uniform ones."""
    kinds = set()
    for neg in cases().values():
        for o in neg.outcomes():
            sets = {neg.targets(o[0], p, o[1]) for p in neg.parties(o[0])}
            if o[0] == neg.final:
                kinds.add("final")
            if any(len(ts) > 1 for ts in sets):
                kinds.add("fork")
            if iteration_applicable(neg, o):
                kinds.add("self-loop")
            if uniform_target(neg, o) not in (None, o[0]):
                kinds.add("single target")
            if not uniform(neg, o):
                kinds.add("non-uniform")
    assert kinds == {"final", "fork", "self-loop", "single target", "non-uniform"}


def test_forks_match_the_reference():
    neg = forks()
    found, expected = guard_values(neg)
    assert found == expected
    assert [found[("n0", r)] for r in ("split", "loop", "same", "half")] == [
        (False, None, False),
        (False, None, False),
        (True, None, False),
        (False, None, False),
    ]


@pytest.mark.parametrize("k", range(1, 9))
def test_run_general_on_expfam_matches_the_reference(k):
    assert_trace_matches(run_general(expfam(k)))
