"""Differential stress tests: random diagrams, two independent analysis
routes, exact agreement required.

Random one-agent diagrams are arbitrary digraphs in which every atom lies
between the initial and final atoms, so they cover much wilder cycle
structure than the inverse-rule generator. Each one is pushed through the
rule-based strategies and through state elimination, and the resulting
summaries are compared denotationally under random interpretations.
"""

from __future__ import annotations

import random

import pytest

from negsum import (
    AtomSpec,
    brute_force_summary,
    check_soundness,
    classify,
    eval_expr,
    expfam,
    generate_sound,
    rels_equal,
    run_acyclic,
    run_auto,
    run_general,
    run_one_agent,
    summarize_by_states,
    validate,
)
from negsum.strategies import is_replication

from conftest import synthetic_interp

from test_strategies import one_agent_bound, general_bound, replicate


def random_one_agent(seed: int, n_atoms: int = 6, extra_edges: int = 5):
    """A random valid one-agent negotiation: a random spanning path plus
    random extra edges, patched so every atom reaches the final atom."""
    rng = random.Random(seed)
    names = ["n0"] + [f"m{i}" for i in range(1, n_atoms - 1)] + ["nf"]
    edges = set()
    order = names[1:-1]
    rng.shuffle(order)
    chain = ["n0"] + order + ["nf"]
    for a, b in zip(chain, chain[1:]):
        edges.add((a, b))
    non_final = names[:-1]
    for _ in range(extra_edges):
        src = rng.choice(non_final)
        dst = rng.choice(names)
        if dst != "n0" or rng.random() < 0.5:
            edges.add((src, dst))
    edges = {(a, b) for a, b in edges if a != "nf"}

    atoms = []
    transition = {}
    counter = 0
    for name in names:
        outs = sorted(b for a, b in edges if a == name)
        if name == "nf":
            atoms.append(AtomSpec("nf", ("p",), ("end",)))
            transition[("nf", "p", "end")] = set()
            continue
        results = []
        for target in outs:
            counter += 1
            results.append(f"r{counter}")
            transition[(name, "p", f"r{counter}")] = {target}
        atoms.append(AtomSpec(name, ("p",), tuple(results)))
    return validate(("p",), atoms, "n0", "nf", transition)


@pytest.mark.parametrize("seed", range(40))
def test_one_agent_random_diagrams(seed):
    neg = random_one_agent(seed, n_atoms=4 + seed % 5, extra_edges=3 + seed % 5)
    assert check_soundness(neg).sound  # every one-agent diagram is sound
    trace = run_one_agent(neg)
    assert trace.verdict == "summarized"
    assert trace.total <= one_agent_bound(neg)

    space, interp = synthetic_interp(neg, seed)
    elim = summarize_by_states(neg)
    assert set(elim.summary) == set(trace.summary) == {"end"}
    assert rels_equal(
        eval_expr(trace.summary["end"], interp, space),
        eval_expr(elim.summary["end"], interp, space),
        space,
    )


@pytest.mark.parametrize("seed", range(12))
def test_general_strategy_agrees_on_one_agent_inputs(seed):
    neg = random_one_agent(seed, n_atoms=5, extra_edges=4)
    via_one = run_one_agent(neg)
    via_general = run_general(neg)
    assert via_general.verdict == via_one.verdict == "summarized"
    assert via_general.total <= general_bound(neg)
    space, interp = synthetic_interp(neg, seed)
    assert rels_equal(
        eval_expr(via_one.summary["end"], interp, space),
        eval_expr(via_general.summary["end"], interp, space),
        space,
    )


@pytest.mark.parametrize("seed", range(10))
def test_replications_of_random_diagrams(seed):
    base = random_one_agent(seed, n_atoms=5, extra_edges=3)
    rep = replicate(base, copies=2 + seed % 2)
    assert is_replication(rep)
    trace = run_one_agent(rep)
    assert trace.verdict == "summarized"
    assert trace.total <= one_agent_bound(rep)
    # the replication makes exactly the same decisions as its original
    assert [a.kind for a in trace.applications] == [
        a.kind for a in run_one_agent(base).applications
    ]


@pytest.mark.parametrize("seed", range(30))
def test_acyclic_generated_summaries_match_brute_force(seed):
    neg = generate_sound(seed, steps=2 + seed % 6, num_agents=2 + seed % 3,
                         acyclic=True)
    trace = run_acyclic(neg)
    assert trace.verdict == "summarized"
    space, interp = synthetic_interp(neg, seed)
    oracle = brute_force_summary(neg, interp, space)
    assert set(oracle) == set(trace.summary)
    for r in oracle:
        assert rels_equal(
            eval_expr(trace.summary[r], interp, space), oracle[r], space
        ), (seed, r)


def assert_summaries_match_brute_force(neg, seed, summaries):
    """Each named summary has the results of the brute-force union of all
    large steps, and the same relation for each."""
    space, interp = synthetic_interp(neg, seed)
    oracle = brute_force_summary(neg, interp, space)
    for engine, summary in summaries.items():
        assert set(summary) == set(oracle), (seed, engine)
        for r in oracle:
            assert rels_equal(
                eval_expr(summary[r], interp, space), oracle[r], space
            ), (seed, engine, r)


@pytest.mark.parametrize("seed", range(15))
def test_cyclic_generated_summaries_match_state_elimination(seed):
    neg = generate_sound(seed, steps=3 + seed % 5, num_agents=2 + seed % 2,
                         acyclic=False)
    cls = classify(neg)
    assert cls.deterministic
    trace = run_general(neg)
    assert trace.verdict == "summarized"
    elim = summarize_by_states(neg)
    assert_summaries_match_brute_force(
        neg, seed, {"rules": trace.summary, "states": elim.summary}
    )


# (agents, inverse-rule steps, max atoms, acyclic): the shapes of the
# benchmark's generated workload, up to 40 steps cyclic and 64 acyclic
BENCH_SHAPES = (
    (3, 24, 12, False),
    (3, 40, 20, True),
    (4, 32, 16, False),
    (4, 48, 24, True),
    (5, 32, 16, False),
    (5, 40, 20, True),
    (4, 40, 20, False),
    (3, 64, 32, True),
)


@pytest.mark.parametrize(
    "shape,seed", [(i, seed) for i in range(len(BENCH_SHAPES)) for seed in range(2)]
)
def test_benchmark_shaped_summaries_match_brute_force(shape, seed):
    agents, steps, max_atoms, acyclic = BENCH_SHAPES[shape]
    neg = generate_sound(seed, steps, agents, acyclic, max_atoms=max_atoms)
    trace = run_auto(neg)
    assert trace.verdict == "summarized", (shape, seed, trace.reason)
    summaries = {"rules": trace.summary, "states": summarize_by_states(neg).summary}
    assert_summaries_match_brute_force(neg, seed, summaries)


def random_deterministic(seed: int, n_agents: int = 2, n_inner: int = 4):
    """A random deterministic multi-agent diagram: random party sets and
    random singleton targets (ports respected), kept only when valid.
    Unlike the inverse-rule generator this produces shared cycles.

    Free targets alone make nearly every diagram unsound (none of the
    first 300 seeds), so each result's targets are synchronized with
    probability SYNC_SHARE: the result sends every party of a target atom
    there together, and sends a first result only to later atoms or nf.
    Synchronized targets keep every agent's path to nf, so the draws mix
    sound and unsound diagrams."""
    rng = random.Random(seed)
    agents = tuple(f"p{i}" for i in range(1, n_agents + 1))
    names = ["n0"] + [f"m{i}" for i in range(1, n_inner + 1)] + ["nf"]
    for _attempt in range(200):
        parties = {"n0": agents, "nf": agents}
        for name in names[1:-1]:
            size = rng.randint(1, n_agents)
            parties[name] = tuple(sorted(rng.sample(agents, size),
                                         key=agents.index))
        atoms = []
        transition = {}
        ok = True
        for pos, name in enumerate(names):
            n_results = 1 if name == "nf" else rng.randint(1, 2)
            results = tuple(f"r{j}" for j in range(1, n_results + 1))
            atoms.append(AtomSpec(name, parties[name], results))
            for r in results:
                if name == "nf":
                    for p in parties[name]:
                        transition[(name, p, r)] = set()
                    continue
                if rng.random() < SYNC_SHARE:
                    _synchronized_targets(rng, names, pos, r, parties, transition)
                    continue
                for p in parties[name]:
                    options = [
                        m for m in names if m != name and p in parties[m]
                    ]
                    if not options:
                        ok = False
                        break
                    transition[(name, p, r)] = {rng.choice(options)}
        if not ok:
            continue
        try:
            return validate(agents, atoms, "n0", "nf", transition)
        except Exception:
            continue
    return None


SYNC_SHARE = 0.9


def _synchronized_targets(rng, names, pos, result, parties, transition):
    """Targets for one result of atom names[pos] under which every party
    that enters a non-final atom enters it with all of that atom's
    parties, so it is enabled on arrival; nf may take parties one by one.
    The first result moves only to later atoms, so following first
    results always ends at nf."""
    name = names[pos]
    allowed = names[pos + 1:] if result == "r1" else names
    remaining = list(parties[name])
    while remaining:
        p = remaining[0]
        options = [
            m
            for m in allowed
            if m != name
            and p in parties[m]
            and (m == "nf" or set(parties[m]) <= set(remaining))
        ]
        target = rng.choice(options)
        for q in [p] if target == "nf" else parties[target]:
            transition[(name, q, result)] = {target}
            remaining.remove(q)


def test_random_deterministic_draws_sound_diagrams():
    # the oracle branch of the test below needs sound draws: at least a
    # quarter of its 60 seeds (21 of them at the time of writing)
    sound = 0
    for seed in range(60):
        neg = random_deterministic(seed, n_agents=2 + seed % 2, n_inner=3 + seed % 3)
        assert neg is not None, seed
        sound += check_soundness(neg, cap=200_000).sound
    assert sound >= 15, sound


@pytest.mark.parametrize("seed", range(60))
def test_random_deterministic_verdicts_match_oracle(seed):
    neg = random_deterministic(seed, n_agents=2 + seed % 2, n_inner=3 + seed % 3)
    if neg is None:
        pytest.skip("no valid sample for this seed")
    assert classify(neg).deterministic
    oracle = check_soundness(neg, cap=200_000)
    trace = run_general(neg)
    assert (trace.verdict == "summarized") == oracle.sound, seed
    if oracle.sound:
        elim = summarize_by_states(neg)
        space, interp = synthetic_interp(neg, seed)
        assert set(elim.summary) == set(trace.summary)
        for r in elim.summary:
            assert rels_equal(
                eval_expr(trace.summary[r], interp, space),
                eval_expr(elim.summary[r], interp, space),
                space,
            ), (seed, r)


def test_expfam_5_rule_summary_matches_brute_force():
    """expfam(5): 3,127 markings and 32 global assignments over two states
    per agent. The brute-force union of all large steps must equal the
    rule summary under the seeded relations."""
    neg = expfam(5)
    space, interp = synthetic_interp(neg, 5)
    oracle = brute_force_summary(neg, interp, space)
    trace = run_auto(neg)
    assert trace.verdict == "summarized"
    assert set(oracle) == set(trace.summary) == {"f"}
    assert rels_equal(eval_expr(trace.summary["f"], interp, space), oracle["f"], space)
