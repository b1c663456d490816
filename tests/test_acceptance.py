"""Acceptance suite: one test per exit criterion, each printing a PASS
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Every expected value here is either pinned from the worked examples the
fixtures reproduce or recomputed on the fly by an independent oracle
(state-space exploration, fixpoint relation algebra, brute-force
enumeration); no tolerance applies anywhere, all checks are exact.
"""

from __future__ import annotations

import random

import pytest

from negsum import (
    Atomic,
    brute_force_summary,
    check_soundness,
    classify,
    concat_expr,
    dominating_atom,
    eval_expr,
    expfam,
    find_loops,
    fragment,
    generate_sound,
    load_fixture,
    mutate_unsound,
    rels_equal,
    run_acyclic,
    run_auto,
    run_exponential_demo,
    run_general,
    run_one_agent,
    segment,
    star_expr,
    summarize_by_states,
    synchronizers,
    syntactic_cycles,
    target_of_atom,
    union_expr,
)

from conftest import all_rule_applications, interp_for
from test_rule_traces import build_cases


def report(number: int, label: str):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_criterion_1_three_party_verdicts():
    assert check_soundness(load_fixture("fdm_acyclic")).sound
    assert check_soundness(load_fixture("fdm_cyclic")).sound
    verdict = check_soundness(load_fixture("fdm_unsound"))
    assert not verdict.sound
    assert verdict.stuck_witness is not None
    assert verdict.stuck_witness[:2] == [("n0", "st"), ("n1", "yes")]
    report(1, "three-party fixtures: sound, sound, unsound with exact witness")


def test_criterion_2_state_elimination_summary():
    neg = load_fixture("ladder")
    result = summarize_by_states(neg)
    assert result.fully_reduced
    b, c, d, e, f = (
        Atomic(("n1", "b")),
        Atomic(("n1", "c")),
        Atomic(("n2", "d")),
        Atomic(("n3", "e")),
        Atomic(("nf", "f")),
    )
    expected = concat_expr(
        Atomic(("n0", "a")),
        union_expr(
            concat_expr(star_expr(b), c, d),
            concat_expr(star_expr(b), d, star_expr(b), c),
        ),
        e,
        f,
    )
    # structural equality; union order is immaterial by construction
    assert result.summary == {"f": expected}

    space, interp = interp_for(neg)
    oracle = brute_force_summary(neg, interp, space)
    assert set(oracle) == {"f"}
    assert rels_equal(
        eval_expr(result.summary["f"], interp, space), oracle["f"], space
    )
    report(2, "ladder summary matches the pinned expression and its"
              " fixpoint denotation")


def test_criterion_3_rule_equivalence_suite():
    fixtures = ["fdm_acyclic", "fdm_cyclic", "ladder", "merge_demo", "iter_demo"]
    instances = 0
    for name in fixtures:
        neg = load_fixture(name)
        space, interp = interp_for(neg)
        sound_before = check_soundness(neg).sound
        before = summarize_by_states(neg)
        assert before.fully_reduced
        for kind, site, run in all_rule_applications(neg):
            instances += 1
            after_neg = run().after
            assert check_soundness(after_neg).sound == sound_before, (name, kind, site)
            after = summarize_by_states(after_neg)
            assert after.fully_reduced
            assert set(after.summary) == set(before.summary)
            for r in before.summary:
                assert rels_equal(
                    eval_expr(before.summary[r], interp, space),
                    eval_expr(after.summary[r], interp, space),
                    space,
                ), (name, kind, site, r)
    assert instances >= 10
    report(3, f"soundness and concrete summaries preserved across "
              f"{instances} rule instances")


def test_criterion_4_acyclic_algorithm_bound():
    sound_checked = 0
    seed = 0
    while sound_checked < 200:
        neg = generate_sound(
            seed, steps=2 + seed % 7, num_agents=2 + seed % 3, acyclic=True
        )
        seed += 1
        assert classify(neg).acyclic and classify(neg).deterministic
        assert check_soundness(neg).sound
        trace = run_acyclic(neg)
        assert trace.verdict == "summarized", seed
        bound = len(neg.atoms) * neg.num_outcomes()
        assert trace.total <= bound, seed
        sound_checked += 1

    rng = random.Random(2024)
    unsound_checked = 0
    seed = 0
    while unsound_checked < 200:
        base = generate_sound(
            seed, steps=3 + seed % 6, num_agents=2 + seed % 3, acyclic=True
        )
        seed += 1
        mutant = mutate_unsound(base, rng)
        if mutant is None:
            continue
        assert classify(mutant).acyclic and classify(mutant).deterministic
        trace = run_acyclic(mutant)
        assert trace.verdict == "unsound", seed
        unsound_checked += 1
    report(4, "200 sound acyclic instances summarized within K*L; "
              "200 unsound ones rejected")


def test_criterion_5_one_agent_algorithm():
    neg = load_fixture("dfs_example")
    trace = run_one_agent(neg)
    assert trace.verdict == "summarized"
    backward = [a for a in trace.applications if a.line == "backward_shortcut"]
    assert [(a.site[0][0], a.site[1]) for a in backward[:3]] == [
        ("n4", "n1"),
        ("n4", "n3"),
        ("n4", "n2"),
    ]

    counter = load_fixture("lemma3_counterexample")
    trace2 = run_one_agent(counter)
    assert trace2.verdict == "summarized"

    for name in ("dfs_example", "pingpong", "cyclic_two_outcomes",
                 "lemma3_counterexample", "atomic"):
        one = load_fixture(name)
        t = run_one_agent(one)
        k, l = len(one.atoms), one.num_outcomes()
        assert t.verdict == "summarized"
        assert t.total <= 2 * k**3 + k**2 + l, name
    for s in range(20):
        one = generate_sound(s, steps=2 + s % 6, num_agents=1)
        t = run_one_agent(one)
        k, l = len(one.atoms), one.num_outcomes()
        assert t.verdict == "summarized"
        assert t.total <= 2 * k**3 + k**2 + l, s
    report(5, "one-agent walkthrough order exact; counterexample fixture "
              "summarized; all runs within 2K^3+K^2+L")


def test_criterion_6_general_algorithm():
    neg = load_fixture("running_multi")
    trace = run_general(neg)
    assert trace.verdict == "summarized"

    s1 = trace.stage_snapshots[1]
    assert "n7" not in s1.atoms  # the private loop collapsed into n6
    assert len(s1.results("n6")) == 1
    (r6,) = s1.results("n6")
    assert s1.targets("n6", "C", r6) == frozenset({"n8"})

    stage2 = [a for a in trace.applications if a.stage == 2]
    non_uniform = [a for a in stage2 if a.line == "d_shortcut_non_uniform"]
    assert [a.produced["removed_atoms"] for a in non_uniform[:2]] == [["n2"], ["n5"]]

    k, l = len(neg.atoms), neg.num_outcomes()
    assert trace.total <= 2 * k**3 + k**2 + k * l + l
    report(6, "staged reduction matches the walkthrough and the counter bound")


def test_criterion_6_general_algorithm_on_every_deterministic_case():
    """`run_general` gives `run_auto`'s verdict on every deterministic case
    of the rule-trace corpus within 2K^3+K^2+KL+L, and within `run_acyclic`'s
    K*L on the acyclic ones."""
    deterministic = acyclic = 0
    for case, neg in build_cases().items():
        cls = classify(neg)
        if not cls.deterministic:
            continue
        k, l = len(neg.atoms), neg.num_outcomes()
        trace = run_general(neg)
        assert trace.verdict == run_auto(neg).verdict, case
        assert trace.total <= 2 * k**3 + k**2 + k * l + l, case
        deterministic += 1
        if cls.acyclic:
            assert trace.total <= k * l, case
            acyclic += 1
    assert deterministic > acyclic > 0
    report(6, f"run_general agrees with run_auto on {deterministic} deterministic cases, "
              f"within K*L on the {acyclic} acyclic ones")


def test_criterion_7_exponential_family():
    k = 4
    initial = run_exponential_demo(expfam(k), "initial")
    assert initial.verdict == "summarized"
    assert initial.counters["peak_initial_results"] == 2 ** (k - 1) == 8

    alternating = run_exponential_demo(expfam(k), "alternating")
    assert alternating.verdict == "summarized"
    assert alternating.total <= 5 * k + 1 == 21
    report(7, "peak of exactly 8 results eagerly, 21 applications alternating")


def test_criterion_8_structure_properties():
    fixtures = ["fdm_cyclic", "running_multi", "multifragment"]
    generated = [
        generate_sound(s, steps=3 + s % 4, num_agents=2 + s % 2) for s in range(10)
    ]
    diagrams = [(n, load_fixture(n)) for n in fixtures] + [
        (f"gen{s}", g) for s, g in enumerate(generated)
    ]
    for name, neg in diagrams:
        assert classify(neg).deterministic
        assert check_soundness(neg).sound
        loops = find_loops(neg)
        for loop in loops:
            if any(other.atoms < loop.atoms for other in loops):
                continue
            assert synchronizers(neg, loop), (name, loop.outcomes)
        for cycle in syntactic_cycles(neg):
            assert dominating_atom(neg, cycle) is not None, (name, cycle)
        for atom in neg.atoms:
            assert target_of_atom(neg, atom).unique, (name, atom)
            frag = fragment(neg, atom)
            assert frag.negotiation is not None
            assert check_soundness(frag.negotiation).sound, (name, atom)
            for r in neg.results(atom):
                seg = segment(neg, (atom, r))
                assert check_soundness(seg.negotiation).sound, (name, atom, r)
    report(8, "synchronizers, dominating atoms, unique targets and sound "
              "fragments on every sound deterministic diagram")


def test_criterion_9_cross_method_agreement():
    from negsum import fixture_names

    # every deterministic fixture
    for name in fixture_names():
        neg = load_fixture(name)
        if not classify(neg).deterministic:
            continue
        trace = run_auto(neg)
        oracle = check_soundness(neg)
        assert (trace.verdict == "summarized") == oracle.sound, name
        if trace.verdict != "summarized":
            continue
        states = summarize_by_states(neg)
        space, interp = interp_for(neg)
        assert set(states.summary) == set(trace.summary)
        for r in states.summary:
            assert rels_equal(
                eval_expr(states.summary[r], interp, space),
                eval_expr(trace.summary[r], interp, space),
                space,
            ), (name, r)

    # 100 generated deterministic instances, mixing sound ones with
    # unsound mutants
    rng = random.Random(77)
    checked = 0
    seed = 0
    while checked < 100:
        neg = generate_sound(
            seed,
            steps=2 + seed % 6,
            num_agents=1 + seed % 3,
            acyclic=seed % 2 == 0,
        )
        seed += 1
        if checked % 4 == 3:
            mutant = mutate_unsound(neg, rng)
            if mutant is None:
                continue
            neg = mutant
        trace = run_auto(neg)
        assert (trace.verdict == "summarized") == check_soundness(neg).sound, seed
        checked += 1
    report(9, "reduction verdicts agree with the state-space oracle on every "
              "deterministic fixture and 100 generated instances")
