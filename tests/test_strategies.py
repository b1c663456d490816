from __future__ import annotations

import pytest

from negsum import (
    AtomSpec,
    NotAcyclic,
    NotDeterministic,
    NotOneAgentOrReplication,
    brute_force_summary,
    check_soundness,
    classify,
    eval_expr,
    expfam,
    generate_sound,
    load_fixture,
    mutate_unsound,
    rels_equal,
    run_acyclic,
    run_acyclic_wd,
    run_auto,
    run_exponential_demo,
    run_general,
    run_one_agent,
    validate,
)
from negsum import strategies
from negsum.strategies import is_replication

from conftest import interp_for, outcome_index, reducible_outcomes_k, single_atom_negotiation


def acyclic_bound(neg):
    return len(neg.atoms) * neg.num_outcomes()


def one_agent_bound(neg):
    k, l = len(neg.atoms), neg.num_outcomes()
    return 2 * k**3 + k**2 + l


def general_bound(neg):
    k, l = len(neg.atoms), neg.num_outcomes()
    return 2 * k**3 + k**2 + k * l + l


# ---------------------------------------------------------------------------
# run_acyclic
# ---------------------------------------------------------------------------

def test_run_acyclic_requires_acyclicity():
    with pytest.raises(NotAcyclic):
        run_acyclic(load_fixture("fdm_cyclic"))


def test_run_acyclic_two_atom_endgame():
    # a sound two-atom diagram merges down to one result, then a single
    # shortcut into the final atom leaves an atomic diagram
    agents = ("p", "q")
    neg = validate(
        agents,
        [AtomSpec("n0", agents, ("a", "b")), AtomSpec("nf", agents, ("f",))],
        "n0",
        "nf",
        {
            ("n0", "p", "a"): {"nf"},
            ("n0", "q", "a"): {"nf"},
            ("n0", "p", "b"): {"nf"},
            ("n0", "q", "b"): {"nf"},
            ("nf", "p", "f"): set(),
            ("nf", "q", "f"): set(),
        },
    )
    trace = run_acyclic(neg)
    assert trace.verdict == "summarized"
    assert [a.kind for a in trace.applications] == ["merge", "d_shortcut"]
    assert trace.final.is_atomic()
    assert set(trace.summary) == {"f"}


def test_run_acyclic_unsound_fixture():
    trace = run_acyclic(load_fixture("fdm_unsound"))
    assert trace.verdict == "unsound"
    assert not check_soundness(load_fixture("fdm_unsound")).sound


def test_run_acyclic_on_shortcut_demo():
    neg = load_fixture("shortcut_demo")
    trace = run_acyclic(neg)
    assert trace.verdict == "summarized"
    assert trace.total <= acyclic_bound(neg)


def test_run_acyclic_generated_batch():
    for seed in range(25):
        neg = generate_sound(seed, steps=1 + seed % 6, num_agents=2 + seed % 3,
                             acyclic=True)
        trace = run_acyclic(neg)
        assert trace.verdict == "summarized", seed
        assert trace.total <= acyclic_bound(neg), seed


# ---------------------------------------------------------------------------
# run_one_agent
# ---------------------------------------------------------------------------

def test_run_one_agent_rejects_multi_agent():
    with pytest.raises(NotOneAgentOrReplication):
        run_one_agent(load_fixture("running_multi"))


def test_run_one_agent_atomic_is_empty_trace():
    trace = run_one_agent(single_atom_negotiation())
    assert trace.verdict == "summarized"
    assert trace.total == 0


def test_run_one_agent_dfs_walkthrough():
    neg = load_fixture("dfs_example")
    trace = run_one_agent(neg)
    assert trace.verdict == "summarized"
    assert trace.total <= one_agent_bound(neg)
    backward = [a for a in trace.applications if a.line == "backward_shortcut"]
    assert [(a.site[0][0], a.site[1]) for a in backward[:3]] == [
        ("n4", "n1"),
        ("n4", "n3"),
        ("n4", "n2"),
    ]
    # the (target, atom) ranks of the backward sites strictly increase
    rank = neg.atom_index
    keys = [(rank(a.site[1]), rank(a.site[0][0])) for a in backward]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # after the last backward shortcut an iteration makes the rest acyclic
    iterations = [a for a in trace.applications if a.kind == "iteration"]
    assert iterations
    first = iterations[0]
    assert not classify(first.before).acyclic
    assert classify(first.after).acyclic


@pytest.mark.parametrize(
    "name", ["pingpong", "cyclic_two_outcomes", "lemma3_counterexample"]
)
def test_run_one_agent_summarizes_cyclic_fixtures(name):
    neg = load_fixture(name)
    trace = run_one_agent(neg)
    assert trace.verdict == "summarized"
    assert trace.final.is_atomic()
    assert trace.total <= one_agent_bound(neg)
    assert set(trace.summary) == set(neg.results(neg.final))


def test_run_one_agent_generated_batch():
    for seed in range(15):
        neg = generate_sound(seed, steps=2 + seed % 5, num_agents=1)
        trace = run_one_agent(neg)
        assert trace.verdict == "summarized", seed
        assert trace.total <= one_agent_bound(neg), seed


def replicate(neg, copies=2):
    """Replicate a one-agent diagram: same atoms, every agent moves in
    lockstep."""
    agents = tuple(f"q{i}" for i in range(1, copies + 1))
    atoms = [AtomSpec(a.id, agents, a.results) for a in neg.atoms.values()]
    transition = {}
    for (n, _p, r), targets in neg.transition.items():
        for q in agents:
            transition[(n, q, r)] = set(targets)
    return validate(agents, atoms, neg.initial, neg.final, transition)


def test_run_one_agent_on_replication():
    base = load_fixture("dfs_example")
    rep = replicate(base, copies=3)
    assert is_replication(rep)
    trace = run_one_agent(rep)
    assert trace.verdict == "summarized"
    assert trace.total <= one_agent_bound(rep)
    # the replication follows the same decisions as its one-agent origin
    base_trace = run_one_agent(base)
    assert [a.kind for a in trace.applications] == [
        a.kind for a in base_trace.applications
    ]


# ---------------------------------------------------------------------------
# run_general
# ---------------------------------------------------------------------------

def test_run_general_rejects_non_deterministic():
    with pytest.raises(NotDeterministic):
        run_general(load_fixture("fdm_acyclic"))


def test_run_general_running_multi_stages():
    neg = load_fixture("running_multi")
    trace = run_general(neg)
    assert trace.verdict == "summarized"
    assert trace.total <= general_bound(neg)

    # stage 1 collapses the third agent's private loop into one atom
    s1 = trace.stage_snapshots[1]
    assert "n7" not in s1.atoms
    assert len(s1.results("n6")) == 1
    (r6,) = s1.results("n6")
    assert s1.targets("n6", "C", r6) == frozenset({"n8"})

    # stage 2 starts by removing n2 and n5 through non-uniform d-shortcuts
    stage2 = [a for a in trace.applications if a.stage == 2]
    non_uniform = [a for a in stage2 if a.line == "d_shortcut_non_uniform"]
    assert [a.produced["removed_atoms"] for a in non_uniform[:2]] == [["n2"], ["n5"]]
    s2 = trace.stage_snapshots[2]
    assert {"n2", "n5", "n3", "n4"}.isdisjoint(s2.atoms)

    # stage 3 shortcuts through the remaining fragment atoms, then the
    # final atom
    stage3 = [a for a in trace.applications if a.stage == 3]
    assert [a.site[1] for a in stage3] == ["n1", "n6", "n8", "nf"]
    assert trace.final.is_atomic()


def test_run_general_k_reducible_after_two_stages():
    trace = run_general(load_fixture("running_multi"))
    s2 = trace.stage_snapshots[2]
    assert reducible_outcomes_k(s2, 1) == set()
    assert reducible_outcomes_k(s2, 2) == set()
    pool = reducible_outcomes_k(s2, 3)
    assert {o[0] for o in pool} == {"n0"}


def test_run_general_fdm_cyclic():
    neg = load_fixture("fdm_cyclic")
    trace = run_general(neg)
    assert trace.verdict == "summarized"
    assert trace.total <= general_bound(neg)
    space, interp = interp_for(neg)
    oracle = brute_force_summary(neg, interp, space)
    for r in oracle:
        assert rels_equal(eval_expr(trace.summary[r], interp, space), oracle[r], space)


def test_run_general_ladder_matches_oracle():
    neg = load_fixture("ladder")
    trace = run_general(neg)
    assert trace.verdict == "summarized"
    space, interp = interp_for(neg)
    oracle = brute_force_summary(neg, interp, space)
    for r in oracle:
        assert rels_equal(eval_expr(trace.summary[r], interp, space), oracle[r], space)


def test_run_general_unsound_inputs():
    import random

    rng = random.Random(42)
    found = 0
    seed = 0
    while found < 6 and seed < 60:
        base = generate_sound(seed, steps=3 + seed % 4, num_agents=2 + seed % 2)
        seed += 1
        mutant = mutate_unsound(base, rng)
        if mutant is None:
            continue
        found += 1
        trace = run_general(mutant)
        assert trace.verdict == "unsound"
    assert found >= 3


def test_run_general_verdict_agrees_with_oracle_on_fixture_batch():
    for name in ("fdm_cyclic", "fdm_unsound", "regen", "running_multi",
                 "multifragment", "ladder", "shortcut_demo"):
        neg = load_fixture(name)
        if not classify(neg).deterministic:
            continue
        trace = run_general(neg)
        assert (trace.verdict == "summarized") == check_soundness(neg).sound, name


# ---------------------------------------------------------------------------
# run_acyclic_wd
# ---------------------------------------------------------------------------

def test_run_acyclic_wd_summarizes_wd_fixtures():
    for name in ("fdm_acyclic", "fdm_wd_summary", "useless_demo"):
        neg = load_fixture(name)
        trace = run_acyclic_wd(neg)
        assert trace.verdict == "summarized", name
        assert trace.final.is_atomic()


def test_run_acyclic_wd_matches_concrete_summary():
    neg = load_fixture("fdm_acyclic")
    trace = run_acyclic_wd(neg)
    space, interp = interp_for(neg)
    oracle = brute_force_summary(neg, interp, space)
    assert set(trace.summary) == set(oracle)
    for r in oracle:
        assert rels_equal(eval_expr(trace.summary[r], interp, space), oracle[r], space)


def test_run_acyclic_wd_unsound():
    trace = run_acyclic_wd(load_fixture("fdm_unsound"))
    assert trace.verdict == "unsound"


def test_run_acyclic_wd_outside_class_reports_unknown_or_summarizes():
    # not weakly deterministic: a non-atomic residue proves nothing
    trace = run_acyclic_wd(load_fixture("merge_demo"))
    assert trace.verdict in ("summarized", "unknown")
    # this fixture does reduce fully even though it is not weakly
    # deterministic (the walkthrough uses the final-atom shortcut early)
    trace2 = run_acyclic_wd(load_fixture("shortcut_problem"))
    assert trace2.verdict == "summarized"
    assert trace2.final.is_atomic()


@pytest.mark.parametrize(
    "name, total",
    [("fdm_wd_summary", 14), ("fdm_acyclic", 8), ("useless_demo", 5), ("shortcut_problem", 6)],
)
def test_run_acyclic_wd_summarizes_at_exactly_its_budget(monkeypatch, name, total):
    """A reduction that reaches the atomic diagram with its `WD_BUDGET`-th
    application is done; one application fewer leaves it unknown."""
    monkeypatch.setattr(strategies, "WD_BUDGET", total)
    trace = run_acyclic_wd(load_fixture(name))
    assert (trace.verdict, trace.total) == ("summarized", total)
    monkeypatch.setattr(strategies, "WD_BUDGET", total - 1)
    trace = run_acyclic_wd(load_fixture(name))
    assert (trace.verdict, trace.reason) == ("unknown", "budget-exhausted")
    assert trace.total == total - 1


# ---------------------------------------------------------------------------
# exponential family demo
# ---------------------------------------------------------------------------

def test_expfam_initial_strategy_peak():
    for k in (2, 3, 4):
        trace = run_exponential_demo(expfam(k), "initial")
        assert trace.verdict == "summarized"
        assert trace.final.is_atomic()
        assert trace.counters["peak_initial_results"] == 2 ** (k - 1)


def test_expfam_alternating_strategy_count():
    for k in (1, 2, 3, 4):
        trace = run_exponential_demo(expfam(k), "alternating")
        assert trace.verdict == "summarized"
        assert trace.total == 5 * k + 1
        assert trace.counters["peak_initial_results"] <= 2


def test_expfam_strategies_coincide_for_k1():
    a = run_exponential_demo(expfam(1), "initial")
    b = run_exponential_demo(expfam(1), "alternating")
    assert a.total == b.total
    assert sorted(x.kind for x in a.applications) == sorted(
        x.kind for x in b.applications
    )


def test_expfam_rejects_other_shapes():
    with pytest.raises(ValueError):
        run_exponential_demo(load_fixture("ladder"), "initial")


# ---------------------------------------------------------------------------
# dispatch and trace format
# ---------------------------------------------------------------------------

def test_run_auto_dispatch():
    assert run_auto(load_fixture("dfs_example")).verdict == "summarized"
    assert run_auto(load_fixture("shortcut_demo")).verdict == "summarized"
    assert run_auto(load_fixture("running_multi")).verdict == "summarized"
    assert run_auto(load_fixture("fdm_acyclic")).verdict == "summarized"
    with pytest.raises(NotDeterministic):
        run_auto(load_fixture("iter_demo"))  # cyclic and not deterministic


def test_trace_lines_format():
    trace = run_general(load_fixture("running_multi"))
    lines = trace.trace_lines()
    assert len(lines) == trace.total
    assert lines[0].startswith("k=1 rule=")
    for i, line in enumerate(lines, start=1):
        assert f"total={i}" in line
        assert " site=" in line and "." in line.split(" site=")[1]


def test_cross_strategy_summary_agreement():
    # state elimination and rule reduction agree on concrete summaries
    from negsum import summarize_by_states

    for name in ("ladder", "fdm_cyclic"):
        neg = load_fixture(name)
        space, interp = interp_for(neg)
        via_states = summarize_by_states(neg).summary
        via_rules = run_auto(neg).summary
        assert set(via_states) == set(via_rules)
        for r in via_states:
            assert rels_equal(
                eval_expr(via_states[r], interp, space),
                eval_expr(via_rules[r], interp, space),
                space,
            )


def test_trace_lines_cover_all_rule_kinds():
    trace = run_acyclic_wd(load_fixture("fdm_wd_summary"))
    lines = trace.trace_lines()
    kinds = {line.split("rule=")[1].split()[0] for line in lines}
    assert {"merge", "shortcut", "useless_arc"} <= kinds


def test_outcome_index_budget():
    import pytest as _pytest
    from negsum import BudgetExceeded

    neg = load_fixture("running_multi")
    with _pytest.raises(BudgetExceeded):
        outcome_index(neg, ("n0", "a"), cap=2)


def _one_agent_chain(length, loop_at_end=False):
    """Atoms c0 .. c{length-1} in a line for one agent, then the final
    atom; optionally the last chain atom gets a self-loop result."""
    agents = ("p",)
    ids = [f"c{i}" for i in range(length)] + ["nf"]
    last = ("r", "again") if loop_at_end else ("r",)
    atoms = [AtomSpec(a, agents, ("r",)) for a in ids[:-2]]
    atoms += [AtomSpec(ids[-2], agents, last), AtomSpec("nf", agents, ("f",))]
    transition = {(a, "p", "r"): {b} for a, b in zip(ids, ids[1:])}
    transition[("nf", "p", "f")] = set()
    if loop_at_end:
        transition[(ids[-2], "p", "again")] = {ids[-2]}
    return validate(agents, atoms, "c0", "nf", transition)


def test_outcome_index_of_a_long_chain_does_not_overflow_the_stack():
    assert outcome_index(_one_agent_chain(50), ("c0", "r")) == 50
    assert outcome_index(_one_agent_chain(1100), ("c0", "r")) == 1100


def test_outcome_index_finds_a_cycle_at_the_end_of_a_long_chain():
    import math

    assert math.isinf(outcome_index(_one_agent_chain(1100, True), ("c0", "r")))



@pytest.mark.parametrize(
    "make", [lambda: expfam(8), lambda: load_fixture("dfs_example"),
             lambda: load_fixture("running_multi"), lambda: load_fixture("fdm_wd_summary")],
    ids=["expfam(8)", "dfs_example", "running_multi", "fdm_wd_summary"],
)
def test_a_selected_shortcut_evaluates_its_guard_once(monkeypatch, make):
    """The strategies establish a shortcut's guard while they select it
    (`rules.shortcut_check`), then rewrite without checking it again.
    Guard calls that keep R(N) up to date (`rules._reducible_unmerged`)
    are not counted. The strategies
    rewrite one working diagram, so a call is keyed by the number of
    applications its log holds: the index of the application selected."""
    from negsum import rules, strategies

    calls: dict = {}
    upkeep = [0]
    guard, unmerged = rules.shortcut_check, rules._reducible_unmerged

    def counted(neg, outcome, n2, sends):
        if not upkeep[0]:
            site = (len(neg.log.changes), outcome, n2)
            calls[site] = calls.get(site, 0) + 1
        return guard(neg, outcome, n2, sends)

    def uncounted(*args):
        upkeep[0] += 1
        try:
            return unmerged(*args)
        finally:
            upkeep[0] -= 1

    monkeypatch.setattr(rules, "shortcut_check", counted)
    monkeypatch.setattr(strategies, "shortcut_check", counted)
    monkeypatch.setattr(rules, "_reducible_unmerged", uncounted)
    trace = run_auto(make())
    shortcuts = [a for a in trace.applications if a.kind in ("shortcut", "d_shortcut")]
    assert shortcuts
    for app in shortcuts:
        assert calls[(app.index, *app.site)] == 1, app
