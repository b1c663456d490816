from __future__ import annotations

import json

import networkx as nx
import pytest

import negsum.model
from negsum import (
    CLASSIFICATIONS,
    AtomSpec,
    NotDeterministic,
    ValidationError,
    classify,
    expfam,
    fixture_names,
    fixture_text,
    generate_sound,
    load_fixture,
    run_auto,
    validate,
)
from negsum.fileio import dumps, loads
from negsum.model import edit

from conftest import all_rule_applications, negotiation_graph, single_atom_negotiation


@pytest.mark.parametrize("name", fixture_names())
def test_fixture_matches_documented_classification(name):
    neg = load_fixture(name)
    det, wd, acyclic, _sound = CLASSIFICATIONS[name]
    cls = classify(neg)
    assert cls.deterministic == det
    assert cls.weakly_deterministic == wd
    assert cls.acyclic == acyclic
    # deterministic implies weakly deterministic
    assert not cls.deterministic or cls.weakly_deterministic


def test_a_state_space_listing_a_state_twice_is_rejected():
    """`validate` rejects a state space that lists one agent's state twice,
    so the loader does too, before any relation is evaluated over it."""
    doc = json.loads(fixture_text("fdm_acyclic"))
    doc["states"]["F"] = ["t1", "t2", "t1"]
    with pytest.raises(ValidationError, match="state space lists a state of agent 'F' twice"):
        loads(json.dumps(doc))
    neg = load_fixture("fdm_acyclic")
    with pytest.raises(ValidationError, match="agent 'D' twice"):
        validate(
            neg.agents, neg.atoms.values(), neg.initial, neg.final, neg.transition,
            rels=neg.rels, states={**neg.states, "D": ("t2", "t2")},
        )


def test_fdm_acyclic_shape():
    neg = load_fixture("fdm_acyclic")
    cls = classify(neg)
    assert not cls.deterministic  # M has a proper hyperarc
    assert cls.weakly_deterministic
    assert cls.acyclic
    assert "M" not in cls.deterministic_agents
    assert {"F", "D"} <= set(cls.deterministic_agents)


def test_fdm_cyclic_shape():
    cls = classify(load_fixture("fdm_cyclic"))
    assert cls.deterministic and not cls.acyclic


def test_single_atom_negotiation():
    neg = single_atom_negotiation(("r",))
    assert neg.initial == neg.final == "n0"
    cls = classify(neg)
    assert cls.deterministic and cls.weakly_deterministic and cls.acyclic


def test_run_auto_classifies_its_input_once(monkeypatch):
    real, classified = negsum.model._classify, []

    def counting(neg):
        classified.append(neg)
        return real(neg)

    monkeypatch.setattr(negsum.model, "_classify", counting)
    inputs = [load_fixture(name) for name in fixture_names()]
    inputs += [expfam(8), generate_sound(3, 24, 3, False), generate_sound(3, 40, 3, True)]
    for neg in inputs:
        classified.clear()
        try:
            run_auto(neg)
        except NotDeterministic:
            pass
        assert len(classified) == 1 and classified[0] is neg, neg


def test_rule_outputs_are_classified_afresh():
    # a rule can change the class (a useless-arc removal can make a cyclic
    # diagram acyclic), so `rewrite` must not carry the classification
    changed = 0
    for name in fixture_names():
        neg = load_fixture(name)
        before = classify(neg)
        for kind, site, apply in all_rule_applications(neg):
            after = apply().after
            assert "classification" not in vars(after), (name, kind, site)
            fresh = classify(after)
            assert fresh == classify(edit(after).done()), (name, kind, site)
            changed += fresh != before
    assert changed


def test_initial_distinct_from_final_when_larger():
    for name in fixture_names():
        neg = load_fixture(name)
        if len(neg.atoms) > 1:
            assert neg.initial != neg.final


def test_missing_path_violation():
    # removing all of n2's outgoing arcs strands it between n0 and nf
    neg = load_fixture("fdm_acyclic")
    t = {k: set(v) for k, v in neg.transition.items()}
    for agent in ("D", "M"):
        for r in ("yes", "no"):
            t[("n2", agent, r)] = set()
    with pytest.raises(ValidationError) as err:
        validate(neg.agents, list(neg.atoms.values()), neg.initial, neg.final, t)
    assert any("MissingPath" in v and "n2" in v for v in err.value.violations)


def test_non_final_empty_transition_violation():
    neg = load_fixture("fdm_acyclic")
    t = {k: set(v) for k, v in neg.transition.items()}
    t[("n1", "F", "yes")] = set()
    with pytest.raises(ValidationError) as err:
        validate(neg.agents, list(neg.atoms.values()), neg.initial, neg.final, t)
    assert any("NonFinalEmptyTransition" in v for v in err.value.violations)


def test_dangling_target_violation():
    neg = load_fixture("fdm_acyclic")
    t = {k: set(v) for k, v in neg.transition.items()}
    t[("n1", "F", "yes")] = {"ghost"}
    with pytest.raises(ValidationError) as err:
        validate(neg.agents, list(neg.atoms.values()), neg.initial, neg.final, t)
    assert any("DanglingTarget" in v for v in err.value.violations)


def test_initial_final_parties_violation():
    agents = ("p", "q")
    atoms = [AtomSpec("n0", ("p",), ("r",)), AtomSpec("nf", agents, ("f",))]
    t = {
        ("n0", "p", "r"): {"nf"},
        ("nf", "p", "f"): set(),
        ("nf", "q", "f"): set(),
    }
    with pytest.raises(ValidationError) as err:
        validate(agents, atoms, "n0", "nf", t)
    assert any("InitialOrFinalNotAllAgents" in v for v in err.value.violations)


def test_validation_collects_all_violations():
    neg = load_fixture("fdm_acyclic")
    t = {k: set(v) for k, v in neg.transition.items()}
    t[("n1", "F", "yes")] = {"ghost"}
    for agent in ("D", "M"):
        for r in ("yes", "no"):
            t[("n2", agent, r)] = set()
    with pytest.raises(ValidationError) as err:
        validate(neg.agents, list(neg.atoms.values()), neg.initial, neg.final, t)
    kinds = {v.split(":")[0] for v in err.value.violations}
    assert {"DanglingTarget", "NonFinalEmptyTransition", "MissingPath"} <= kinds


def test_graph_of_fdm_acyclic():
    neg = load_fixture("fdm_acyclic")
    g = negotiation_graph(neg)
    pairs = {(u, v) for u, v in g.edges(keys=False)}
    assert pairs == {
        ("n0", "n1"),
        ("n0", "n2"),
        ("n0", "nf"),
        ("n1", "n2"),
        ("n1", "nf"),
        ("n2", "nf"),
    }


def test_graph_single_atom():
    g = negotiation_graph(single_atom_negotiation())
    assert g.number_of_nodes() == 1 and g.number_of_edges() == 0


def test_graph_fdm_cyclic_self_loop():
    g = negotiation_graph(load_fixture("fdm_cyclic"))
    assert g.has_edge("n2", "n2")
    assert not nx.is_directed_acyclic_graph(g)


@pytest.mark.parametrize("name", fixture_names())
def test_acyclic_iff_topological_sort(name):
    neg = load_fixture(name)
    g = negotiation_graph(neg)
    try:
        list(nx.topological_sort(g))
        sortable = True
    except nx.NetworkXUnfeasible:
        sortable = False
    assert classify(neg).acyclic == sortable


@pytest.mark.parametrize("name", fixture_names())
def test_deterministic_means_singleton_arcs(name):
    neg = load_fixture(name)
    if classify(neg).deterministic:
        for (atom, _p, _r), targets in neg.transition.items():
            if atom != neg.final:
                assert len(targets) == 1


@pytest.mark.parametrize("name", fixture_names())
def test_serialize_validate_roundtrip_idempotent(name):
    neg = load_fixture(name)
    once = dumps(neg)
    again = dumps(loads(once))
    assert once == again
