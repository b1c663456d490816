"""The reachability graph kept on its diagram: one complete search serves
every state-space engine, a smaller cap still searches afresh, and a
diagram whose tables change, or that is copied or replayed, carries no
graph."""

from __future__ import annotations

import pytest

from conftest import synthetic_interp
from negsum import (
    BudgetExceeded,
    brute_force_summary,
    check_soundness,
    expfam,
    find_loops,
    load_fixture,
    reachability,
    run_auto,
    summarize_by_states,
)
from negsum.fixtures import fixture_names
from negsum.model import KEPT_GRAPH
from negsum.semantics import MarkingKernel
from negsum import working
from negsum.working import working_copy


def kept(neg):
    return neg.__dict__.get(KEPT_GRAPH)


@pytest.fixture
def expansions(monkeypatch):
    """The markings `MarkingKernel.successors` is asked about, in order."""
    asked = []
    real = MarkingKernel.successors

    def successors(self, m, enabled=None):
        asked.append(m)
        return real(self, m, enabled)

    monkeypatch.setattr(MarkingKernel, "successors", successors)
    return asked


@pytest.mark.parametrize("name", ["running_multi", "fdm_cyclic", "fdm_unsound", "expfam(3)"])
def test_check_elimination_oracle_and_loops_explore_once(name, expansions):
    neg = expfam(3) if name == "expfam(3)" else load_fixture(name)
    space, interp = synthetic_interp(neg)
    verdict = check_soundness(neg)
    summarize_by_states(neg)
    brute_force_summary(neg, interp, space)
    find_loops(neg)
    graph = kept(neg)
    # one breadth-first search: each marking expanded once, the initial first
    assert expansions == graph.codes
    assert verdict.state_count == len(graph.codes)


@pytest.mark.parametrize("name", ["running_multi", "ladder", "fdm_unsound", "expfam(3)"])
def test_a_smaller_cap_searches_afresh(name):
    neg = expfam(3) if name == "expfam(3)" else load_fixture(name)
    graph = reachability(neg)
    n = len(graph.codes)
    for cap in sorted({0, 1, n // 2, n - 1}):
        with pytest.raises(BudgetExceeded) as got:
            reachability(neg, cap=cap)
        with pytest.raises(BudgetExceeded) as fresh:
            reachability(neg.copy(), cap=cap)
        assert got.value.partial is not graph
        assert got.value.partial.codes == fresh.value.partial.codes
        assert got.value.partial.succ == fresh.value.partial.succ
        assert kept(neg) is graph
    assert reachability(neg, cap=n) is graph
    assert reachability(neg, cap=n + 1) is graph
    assert reachability(neg) is graph


def test_a_failed_search_keeps_nothing():
    neg = load_fixture("running_multi")
    with pytest.raises(BudgetExceeded):
        reachability(neg, cap=3)
    assert kept(neg) is None
    with pytest.raises(BudgetExceeded):
        check_soundness(neg, cap=3)
    assert kept(neg) is None
    graph = reachability(neg)
    assert kept(neg) is graph


def test_rule_runs_copies_rewrites_and_replays_carry_no_graph():
    neg = expfam(2)
    graph = reachability(neg)
    trace = run_auto(neg)
    assert trace.verdict == "summarized"
    assert kept(neg) is graph  # the input keeps its graph
    assert kept(neg.copy()) is None
    assert kept(working_copy(neg)) is None
    assert kept(trace.final) is None
    changes = trace.log.changes
    assert changes
    for i in range(1, len(changes) + 1):
        assert kept(trace.diagram(i)) is None

    # a rewritten diagram drops its graph, and explores its new tables
    rewritten = working_copy(neg)
    before = reachability(rewritten)
    working.rewrite(rewritten, *changes[0].arguments())
    assert kept(rewritten) is None
    after = reachability(rewritten)
    assert after is not before
    assert after.codes == reachability(trace.diagram(1)).codes
    assert after.succ == reachability(trace.diagram(1)).succ


@pytest.mark.parametrize("name", [*fixture_names(), "expfam(1)", "expfam(3)"])
def test_fired_is_the_outcomes_on_the_edges(name):
    """The dead atoms of the check are exactly those with no outcome on
    an edge of the graph."""
    neg = expfam(int(name[7])) if name.startswith("expfam") else load_fixture(name)
    graph = reachability(neg)
    fired = {atom for _m, (atom, _r), _m2 in graph.edges}
    verdict = check_soundness(neg)
    assert verdict.dead_atoms == set(neg.atoms) - fired
