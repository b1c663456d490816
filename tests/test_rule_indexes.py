"""The indexed guards agree with the full-table scans they replace.

The reference functions below are the scanning definitions of
`exclusive_access`, the "another outcome commits" bullet, the shortcut
guard, `shortcut_targets`, the useless-arc guard on acyclic diagrams and
acyclicity. Each indexed version is compared with its reference for
every outcome and atom of the fixtures, of generated diagrams (cyclic
and acyclic), of unsound mutants, and of every intermediate diagram
their reductions pass through.
"""

from __future__ import annotations

import random
from functools import lru_cache

import networkx as nx
import pytest

from negsum import (
    GuardReport,
    NegsumError,
    ValidationError,
    another_commits,
    commits_to,
    exclusive_access,
    fixture_names,
    generate_sound,
    is_acyclic,
    is_useless_arc,
    load_fixture,
    mutate_unsound,
    negotiation_graph,
    run_auto,
    shortcut_guard,
    shortcut_targets,
    unconditionally_enables,
    validate,
)
from negsum.rules import _useless_witness

# ---------------------------------------------------------------------------
# Reference definitions: scans of the whole transition table / outcome set
# ---------------------------------------------------------------------------


def exclusive_access_ref(neg, outcome, n2):
    n, r = outcome
    for p in neg.parties(n2):
        if (n, p, r) not in neg.transition or n2 not in neg.targets(n, p, r):
            return False
        for (m, q, s), targets in neg.transition.items():
            if q == p and (m, s) != (n, r) and n2 in targets:
                return False
    return True


def another_commits_ref(neg, outcome, n2):
    return any(
        commits_to(neg, other, n2) for other in neg.outcomes() if other != outcome
    )


def shortcut_guard_ref(neg, outcome, n2):
    n, _r = outcome
    site = (outcome, n2)
    if n2 == n:
        return GuardReport(site, "shortcut", False, "target equals the source atom")
    if not unconditionally_enables(neg, outcome, n2):
        return GuardReport(site, "shortcut", False, "does not unconditionally enable")
    excl = exclusive_access_ref(neg, outcome, n2)
    if n2 != neg.final:
        if excl:
            return GuardReport(site, "shortcut", True, "exclusive access")
        if another_commits_ref(neg, outcome, n2):
            return GuardReport(site, "shortcut", True, "another outcome commits")
        return GuardReport(
            site, "shortcut", False,
            "no exclusive access and no other outcome commits to the target",
        )
    if not excl:
        return GuardReport(
            site, "shortcut", False, "final target without exclusive access"
        )
    if len(neg.results(n)) != 1:
        return GuardReport(
            site, "shortcut", False,
            "final target but the outcome is not the atom's only result",
        )
    return GuardReport(site, "shortcut", True, "final target, exclusive, sole result")


def shortcut_targets_ref(neg, outcome):
    return [
        n2
        for n2 in neg.atoms
        if n2 != outcome[0] and shortcut_guard_ref(neg, outcome, n2).holds
    ]


def is_useless_arc_acyclic_ref(neg, arc):
    """The useless-arc guard on an acyclic diagram: the witness pattern,
    and some other arc enters the same atom."""
    if _useless_witness(neg, arc) is None:
        return False
    return any(a[3] == arc[3] and a != arc for a in neg.arcs())


def is_acyclic_ref(neg):
    return nx.is_directed_acyclic_graph(negotiation_graph(neg))


def missing_path_ref(agents, atoms, initial, final, transition):
    """Condition (3) messages as the networkx closure produced them."""
    atom_ids = [a.id for a in atoms]
    g = nx.MultiDiGraph()
    g.add_nodes_from(atom_ids)
    for (aid, _agent, _r), targets in transition.items():
        for t in targets:
            if t in atom_ids:
                g.add_edge(aid, t)
    fwd = nx.descendants(g, initial) | {initial}
    bwd = nx.ancestors(g, final) | {final}
    return [
        f"MissingPath: condition (3) fails at {aid!r}: not on a path from "
        f"{initial!r} to {final!r}"
        for aid in atom_ids
        if aid not in fwd or aid not in bwd
    ]


# ---------------------------------------------------------------------------
# Corpus: inputs plus every diagram their reductions pass through
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def corpus():
    inputs = {f"fixture:{name}": load_fixture(name) for name in fixture_names()}
    for seed in range(12):
        for acyclic in (True, False):
            base = generate_sound(seed, 3 + seed % 5, num_agents=2 + seed % 3,
                                  acyclic=acyclic)
            tag = f"gen:{seed}:{'a' if acyclic else 'c'}"
            inputs[tag] = base
            mutant = mutate_unsound(base, random.Random(seed))
            if mutant is not None:
                inputs[f"{tag}:mutant"] = mutant
    out = []
    for tag, neg in inputs.items():
        out.append((tag, neg))
        try:
            trace = run_auto(neg)
        except NegsumError:
            continue
        steps = enumerate(trace.applications, 1)
        out += [(f"{tag}@{i}", app.after) for i, app in steps]
    return out


def test_corpus_covers_both_guard_bullets():
    details = {
        shortcut_guard(neg, o, n2).detail
        for _tag, neg in corpus()
        for o in neg.outcomes()
        for n2 in neg.atoms
    }
    assert {"exclusive access", "another outcome commits"} <= details
    assert "final target, exclusive, sole result" in details


def test_exclusive_access_and_commits_match_scans():
    for tag, neg in corpus():
        for o in neg.outcomes():
            for n2 in neg.atoms:
                site = (tag, o, n2)
                excl = exclusive_access_ref(neg, o, n2)
                assert exclusive_access(neg, o, n2) == excl, site
                other = another_commits_ref(neg, o, n2)
                assert another_commits(neg, o, n2) == other, site


def test_shortcut_guard_reports_match_scans():
    for tag, neg in corpus():
        for o in neg.outcomes():
            for n2 in neg.atoms:
                assert shortcut_guard(neg, o, n2) == shortcut_guard_ref(neg, o, n2), (
                    tag, o, n2,
                )


def test_shortcut_targets_match_scans():
    for tag, neg in corpus():
        for o in neg.outcomes():
            assert shortcut_targets(neg, o) == shortcut_targets_ref(neg, o), (tag, o)


def test_acyclic_useless_arc_guard_matches_scan():
    hits = 0
    for tag, neg in corpus():
        if not is_acyclic_ref(neg):
            continue
        for arc in neg.arcs():
            expected = is_useless_arc_acyclic_ref(neg, arc)
            assert is_useless_arc(neg, arc) == expected, (tag, arc)
            hits += expected
    assert hits


def test_is_acyclic_matches_networkx():
    seen = set()
    for tag, neg in corpus():
        assert is_acyclic(neg) == is_acyclic_ref(neg), tag
        seen.add(is_acyclic(neg))
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# Condition (3) of validate, on the invalid diagrams of test_model.py
# ---------------------------------------------------------------------------


def _stranded_n2(t):
    for agent in ("D", "M"):
        for r in ("yes", "no"):
            t[("n2", agent, r)] = set()


def _dangling_and_stranded(t):
    t[("n1", "F", "yes")] = {"ghost"}
    _stranded_n2(t)


def _empty_triple(t):
    t[("n1", "F", "yes")] = set()


def _dangling(t):
    t[("n1", "F", "yes")] = {"ghost"}


@pytest.mark.parametrize(
    "break_it", [_stranded_n2, _dangling_and_stranded, _empty_triple, _dangling]
)
def test_validate_missing_path_messages_unchanged(break_it):
    neg = load_fixture("fdm_acyclic")
    t = {k: set(v) for k, v in neg.transition.items()}
    break_it(t)
    atoms = list(neg.atoms.values())
    with pytest.raises(ValidationError) as err:
        validate(neg.agents, atoms, neg.initial, neg.final, t)
    got = [v for v in err.value.violations if v.startswith("MissingPath")]
    assert got == missing_path_ref(neg.agents, atoms, neg.initial, neg.final, t)
    if break_it in (_stranded_n2, _dangling_and_stranded):
        assert got


def test_trace_keeps_no_index_of_superseded_diagrams():
    """A trace holds every intermediate diagram; their indexes are freed
    as the reduction moves past them, and rebuilt on demand."""
    neg = generate_sound(3, 40, num_agents=3)
    trace = run_auto(neg)
    assert trace.total > 1
    for app in trace.applications:
        assert "arcs_into" not in vars(app.before)
        assert "committed_by" not in vars(app.before)
    before = trace.applications[-1].before
    o = next(before.outcomes())
    assert shortcut_targets(before, o) == shortcut_targets_ref(before, o)
