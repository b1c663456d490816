"""A reduction rewrites one private copy of its input, and its trace keeps
a log of changes instead of the diagrams.

Every strategy and the demo leave their input equal to a fresh load, with
what it had computed (its marking kernel); so do the public `apply_*`
functions. `model.redo` makes each rule instance again exactly, and the
diagrams a trace rebuilds cost one replay of its log when visited in
order. The memory a trace holds per application does not grow with the
diagram.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest

from negsum import (
    NegsumError,
    check_soundness,
    classify,
    expfam,
    fixture_names,
    load_fixture,
    run_acyclic,
    run_acyclic_wd,
    run_auto,
    run_general,
    run_one_agent,
)
from negsum import model, rules, working
from negsum.strategies import run_exponential_demo

from conftest import all_rule_applications
from test_rule_traces import build_cases

STRATEGIES = {
    "run_auto": run_auto,
    "run_acyclic": run_acyclic,
    "run_one_agent": run_one_agent,
    "run_general": run_general,
    "run_acyclic_wd": run_acyclic_wd,
}


def assert_unchanged(neg, fresh):
    """`neg` equals `fresh`, tables in the same order."""
    assert neg == fresh
    assert list(neg.atoms) == list(fresh.atoms)
    assert list(neg.transition) == list(fresh.transition)
    assert list(neg.transformers) == list(fresh.transformers)


def test_strategies_leave_their_input_as_loaded():
    ran = set()
    for name in fixture_names():
        for strategy, reduce in STRATEGIES.items():
            neg = load_fixture(name)
            check_soundness(neg)
            kernel = neg.marking_kernel
            try:
                trace = reduce(neg)
            except NegsumError:
                continue
            ran.add(strategy)
            assert trace.initial is neg
            assert_unchanged(neg, load_fixture(name))
            assert neg.marking_kernel is kernel, (name, strategy)
            assert trace.final is not neg
    assert ran == set(STRATEGIES)


@pytest.mark.parametrize("strategy", ["initial", "alternating"])
def test_the_demo_leaves_its_input_as_built(strategy):
    neg = expfam(4)
    kernel = neg.marking_kernel
    trace = run_exponential_demo(neg, strategy)
    assert trace.total == (68 if strategy == "initial" else 21)
    assert_unchanged(neg, expfam(4))
    assert neg.marking_kernel is kernel


@pytest.mark.parametrize("name", ["fdm_acyclic", "fdm_cyclic", "useless_demo", "iter_demo"])
def test_rule_applications_leave_their_input_as_loaded(name):
    neg = load_fixture(name)
    kernel = neg.marking_kernel
    instances = all_rule_applications(neg)
    assert instances
    for _kind, _site, apply in instances:
        app = apply()
        assert app.before is neg
        assert app.after != neg
    assert_unchanged(neg, load_fixture(name))
    assert neg.marking_kernel is kernel


def test_redo_makes_every_rule_instance_again():
    """An application's change, made again by `model.redo` on a copy of its
    input, gives its output, with the input's atoms left in their order."""
    kinds = set()
    for case, neg in build_cases().items():
        named = neg.copy()
        named.transformers = {o: neg.transformer(o) for o in neg.outcomes()}
        for kind, site, apply in all_rule_applications(neg):
            app = apply()
            replay = named.copy()
            model.redo(replay, app.change)
            assert replay == app.after, (case, kind, site)
            kept = [a for a in neg.atoms if a in replay.atoms]
            assert list(replay.atoms) == kept, (case, kind, site)
            kinds.add(kind)
    assert kinds == {"merge", "iteration", "useless_arc", "shortcut"}


@pytest.mark.parametrize("k", [4, 16])
def test_visiting_the_diagrams_in_order_costs_one_replay(k, monkeypatch):
    """Every `.after` in order: one `redo` per application. Then every
    `.before` in order: the log starts again from the input once, and
    replays forward."""
    redone = []
    real = working.redo

    def counted(neg, change):
        redone.append(change)
        return real(neg, change)

    monkeypatch.setattr(working, "redo", counted)
    trace = run_auto(expfam(k))
    assert not redone
    afters = [app.after for app in trace.applications]
    assert len(redone) == trace.total
    befores = [app.before for app in trace.applications]
    assert len(redone) == 2 * trace.total - 1
    assert befores[0] is trace.initial
    assert afters[:-1] == befores[1:]
    assert afters[-1] == trace.final


def trace_kb_per_application(k, walk=0.0):
    """KB held per application by the trace of `run_auto(expfam(k))`, and
    in all, after visiting `.after` of the first `walk` share of its
    applications in order."""
    neg = expfam(k)
    gc.collect()
    tracemalloc.start()
    try:
        trace = run_auto(neg)
        for app in trace.applications[: round(walk * trace.total)]:
            app.after
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return held / 1024 / trace.total, held


@pytest.mark.parametrize("walk", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [32, 128])
def test_trace_memory_per_application_stays_flat(k, walk):
    """A trace keeps each application's change, not the diagram it made:
    the memory it holds per application stays flat from k = 8, and the
    769 applications of `run_auto(expfam(128))` hold under 5 MB. Visiting
    `.after` leaves the log one diagram, the last one rebuilt, which
    keeps it within both bounds, whether the walk stops halfway or at the
    end."""
    base, _held = trace_kb_per_application(8, walk)
    per_application, held = trace_kb_per_application(k, walk)
    assert per_application <= 1.5 * base
    assert held < 5 * 2**20


def test_general_strategy_checks_its_stages_after_every_application(monkeypatch):
    """The stage invariant check reads R(N) once per application: keyed on
    the application count, not on a new diagram. Nothing but the check
    reads it."""
    neg = load_fixture("running_multi")
    assert classify(neg).deterministic
    readers = []
    real = rules.OrderedOutcomes.lowest

    def counted(self):
        readers.append(sys._getframe(1).f_code.co_name)
        return real(self)

    monkeypatch.setattr(rules.OrderedOutcomes, "lowest", counted)
    trace = run_general(neg)
    assert trace.total > 1
    assert len(readers) == trace.total
    assert set(readers) == {"_reduce"}  # the stage check after each application
