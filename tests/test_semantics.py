from __future__ import annotations

import pytest

from negsum import (
    BudgetExceeded,
    NotEnabled,
    check_soundness,
    classify_marking,
    enabled,
    final_marking,
    fixture_names,
    initial_marking,
    load_fixture,
    make_marking,
    reachability,
    step,
    CLASSIFICATIONS,
)
from negsum.generator import generate_sound
from negsum.semantics import successors

from conftest import reversed_ties, single_atom_negotiation


def test_enabled_initially_only_initial_atom():
    for name in fixture_names():
        neg = load_fixture(name)
        assert enabled(neg, initial_marking(neg)) == [neg.initial]


def test_enabled_fdm_acyclic_drawn_marking():
    # everyone ready for nf, M additionally ready for n2: only nf enabled
    neg = load_fixture("fdm_acyclic")
    m = make_marking(neg, {"F": {"nf"}, "D": {"nf"}, "M": {"n2", "nf"}})
    assert enabled(neg, m) == ["nf"]


def test_enabled_fdm_cyclic_drawn_marking():
    neg = load_fixture("fdm_cyclic")
    m = make_marking(neg, {"F": {"n1"}, "D": {"n1"}, "M": {"n2"}})
    assert enabled(neg, m) == ["n1"]


def test_step_fdm_acyclic_start():
    neg = load_fixture("fdm_acyclic")
    m = step(neg, initial_marking(neg), ("n0", "st"))
    assert m == make_marking(neg, {"F": {"n1"}, "D": {"n1"}, "M": {"n2", "nf"}})


def test_step_single_atom_reaches_final():
    neg = single_atom_negotiation()
    assert step(neg, initial_marking(neg), ("n0", "r")) == final_marking(neg)


def test_step_fdm_cyclic_no():
    neg = load_fixture("fdm_cyclic")
    m = step(neg, initial_marking(neg), ("n0", "no"))
    assert m == make_marking(neg, {"F": {"nf"}, "D": {"nf"}, "M": {"nf"}})


def test_step_not_enabled():
    neg = load_fixture("fdm_acyclic")
    with pytest.raises(NotEnabled):
        step(neg, initial_marking(neg), ("n1", "yes"))


def test_step_refuses_an_outcome_the_diagram_does_not_have():
    neg = load_fixture("fdm_acyclic")
    m = initial_marking(neg)
    for outcome in ((neg.initial, "nope"), ("zz", "r")):
        with pytest.raises(NotEnabled):
            step(neg, m, outcome)


def test_step_frame_property():
    # non-parties keep their sets on every edge of every fixture graph
    for name in fixture_names():
        neg = load_fixture(name)
        graph = reachability(neg)
        for src, (atom, _r), dst in graph.edges:
            parties = set(neg.parties(atom))
            for agent in neg.agents:
                if agent not in parties:
                    idx = neg.agent_index(agent)
                    assert src.ready[idx] == dst.ready[idx]


def test_ladder_reachability_shape():
    graph = reachability(load_fixture("ladder"))
    assert len(graph.nodes) == 7
    assert len(graph.edges) == 9
    self_loops = [(s, o) for s, o, d in graph.edges if s == d]
    assert len(self_loops) == 2
    assert all(o == ("n1", "b") for _s, o in self_loops)


def test_single_atom_reachability():
    neg = single_atom_negotiation(("a", "b"))
    graph = reachability(neg)
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 2
    assert graph.final is not None


def test_fdm_cyclic_node_count_regression():
    # pinned on the first exploration run
    graph = reachability(load_fixture("fdm_cyclic"))
    assert len(graph.nodes) == 5


def test_reachability_budget():
    neg = load_fixture("running_multi")
    with pytest.raises(BudgetExceeded) as err:
        reachability(neg, cap=3)
    assert err.value.partial is not None
    assert len(err.value.partial.nodes) == 3


def test_reachability_independent_of_tie_breaking():
    for name in fixture_names():
        neg = load_fixture(name)
        a = reachability(neg)
        with reversed_ties():  # on a copy: `neg` keeps the graph `a`
            b = reachability(neg.copy())
        assert set(a.nodes) == set(b.nodes)
        assert set(a.edges) == set(b.edges)


def test_reachability_deterministic_order():
    neg = load_fixture("running_multi")
    a, b = reachability(neg), reachability(neg)
    assert a.nodes == b.nodes and a.edges == b.edges


@pytest.mark.parametrize("name", fixture_names())
def test_soundness_verdict_matches_manifest(name):
    neg = load_fixture(name)
    verdict = check_soundness(neg)
    assert verdict.sound == CLASSIFICATIONS[name][3]
    assert verdict.sound == (not verdict.dead_atoms and verdict.stuck_witness is None)


def test_fdm_unsound_witness_prefix():
    verdict = check_soundness(load_fixture("fdm_unsound"))
    assert not verdict.sound
    assert verdict.stuck_witness[:2] == [("n0", "st"), ("n1", "yes")]


def test_every_node_on_a_final_path_when_sound():
    for name in ("fdm_acyclic", "running_multi", "ladder"):
        neg = load_fixture(name)
        graph = reachability(neg)
        preds = {}
        for src, _o, dst in graph.edges:
            preds.setdefault(dst, set()).add(src)
        can = {final_marking(neg)}
        stack = [final_marking(neg)]
        while stack:
            m = stack.pop()
            for p in preds.get(m, ()):
                if p not in can:
                    can.add(p)
                    stack.append(p)
        assert set(graph.nodes) <= can


def test_one_agent_negotiations_always_sound():
    for name in ("dfs_example", "pingpong", "cyclic_two_outcomes",
                 "lemma3_counterexample", "atomic"):
        assert check_soundness(load_fixture(name)).sound
    for seed in range(8):
        neg = generate_sound(seed, steps=4, num_agents=1)
        assert check_soundness(neg).sound


def test_classify_marking():
    neg = load_fixture("fdm_unsound")
    assert classify_marking(neg, final_marking(neg)) == "final"
    assert classify_marking(neg, initial_marking(neg)) == "live"
    m = initial_marking(neg)
    for o in [("n0", "st"), ("n1", "yes")]:
        m = step(neg, m, o)
    assert classify_marking(neg, m) == "deadlock"


def test_livelock_reported_through_witness():
    # p spins between a and b; the drawn exit through d needs q, but q is
    # parked at d2, which in turn needs p. Every atom stays on a graph
    # path to nf, yet after "go" the final marking is unreachable.
    from negsum import AtomSpec, validate

    agents = ("p", "q")
    atoms = [
        AtomSpec("n0", agents, ("go", "quit")),
        AtomSpec("a", ("p",), ("r",)),
        AtomSpec("b", ("p",), ("s",)),
        AtomSpec("d", agents, ("t",)),
        AtomSpec("d2", agents, ("u",)),
        AtomSpec("nf", agents, ("f",)),
    ]
    transition = {
        ("n0", "p", "go"): {"a"},
        ("n0", "q", "go"): {"d2"},
        ("n0", "p", "quit"): {"nf"},
        ("n0", "q", "quit"): {"nf"},
        ("a", "p", "r"): {"b"},
        ("b", "p", "s"): {"a", "d"},
        ("d", "p", "t"): {"nf"},
        ("d", "q", "t"): {"nf"},
        ("d2", "p", "u"): {"nf"},
        ("d2", "q", "u"): {"nf"},
        ("nf", "p", "f"): set(),
        ("nf", "q", "f"): set(),
    }
    neg = validate(agents, atoms, "n0", "nf", transition)
    # the spin marking is reachable from itself with nf out of reach
    m = step(neg, initial_marking(neg), ("n0", "go"))
    spin = step(neg, step(neg, m, ("a", "r")), ("b", "s"))
    again = step(neg, step(neg, spin, ("a", "r")), ("b", "s"))
    assert spin == again
    verdict = check_soundness(neg)
    assert not verdict.sound
    assert verdict.stuck_witness == [("n0", "go")]
    assert verdict.dead_atoms == {"d", "d2"}


def test_outcome_order_is_declaration_order():
    neg = load_fixture("fdm_acyclic")
    m = step(neg, initial_marking(neg), ("n0", "st"))
    assert [o for o, _ in successors(neg, m)][:3] == [
        ("n1", "yes"),
        ("n1", "no"),
        ("n1", "am"),
    ]
