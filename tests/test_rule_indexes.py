"""The indexed guards agree with the full-table scans they replace, and
the incremental rule engine agrees with a full recomputation.

The reference functions below are the scanning definitions of
`exclusive_access`, the "another outcome commits" bullet, the shortcut
guard, `shortcut_targets`, the useless-arc guard on acyclic diagrams and
acyclicity. Each indexed version is compared with its reference for
every outcome and atom of the fixtures, of generated diagrams (cyclic
and acyclic), of unsound mutants, and of every intermediate diagram
their reductions pass through.

A reduction rewrites a private copy of its input in place, without
validation; the copy brings the indexes it has built up to date from
each application's site (the outcomes it removes and adds), and the
reduction keeps R(N) up to date from the same site. For every
application of `run_auto` and `run_general` on the golden-trace cases, of
both strategies of the exponential demo, and for every rule instance on
their inputs, the maintained R(N) and its mergeable outcomes must equal
a full recomputation on the output, in outcome order and bucketed by
party count, the working copy's indexes must equal a fresh build, and
the output must come back equal from `validate`. On a cyclic input with
a fork, where R(N) is not kept up to date, advancing it must raise
`ValueError`, and R(N) evaluated anew on the working copy must equal the
recomputation.

The work of an application is counted, not timed: outcomes evaluated,
`_arrivals` comparisons and d-shortcut candidates examined per
application of `run_auto(expfam(k))`, and transition entries written per
application of the eager demo, must not grow with k.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache

import networkx as nx
import pytest

from negsum import (
    AtomSpec,
    GuardReport,
    NegsumError,
    classify,
    ValidationError,
    another_commits,
    apply_useless_arc,
    commits_to,
    exclusive_access,
    fixture_names,
    generate_sound,
    is_acyclic,
    is_useless_arc,
    load_fixture,
    merge_partner,
    mutate_unsound,
    expfam,
    reducible_outcomes,
    run_auto,
    run_general,
    shortcut_guard,
    shortcut_targets,
    unconditionally_enables,
    validate,
)
from negsum import rules, strategies
from negsum.rules import OrderedOutcomes, Reducible, _useless_witness, dirty_outcomes
from negsum import working
from negsum.working import working_copy
from negsum.strategies import ReductionTrace, run_exponential_demo

from conftest import all_rule_applications, negotiation_graph
from test_rule_traces import build_cases, run_general_unchecked

# the lowest stage as R(N) keeps it, also while `run_general_unchecked`
# blinds the stage check
lowest_stage = OrderedOutcomes.lowest

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
    """A trace keeps no intermediate diagram: each one it rebuilds from its
    log is a new diagram that has built no index, and a guard asked about
    one builds what it reads on that diagram."""
    neg = generate_sound(3, 40, num_agents=3)
    trace = run_auto(neg)
    assert trace.total > 1
    for app in trace.applications:
        assert "arcs_into" not in vars(app.before)
        assert "commitments" not in vars(app.before)
        assert "marking_kernel" not in vars(app.before)
    before = trace.applications[-1].before
    o = next(before.outcomes())
    assert shortcut_targets(before, o) == shortcut_targets_ref(before, o)


# ---------------------------------------------------------------------------
# The incremental engine against a full recomputation
# ---------------------------------------------------------------------------

INDEXES = ("arcs_into", "arrivals", "commitments")
# every index a reduction builds on its working copy
BUILT = (*INDEXES, "merge_groups", "sending")


def check_output(app):
    """The rule output is what `validate` makes of its parts."""
    after = app.after
    rebuilt = validate(
        after.agents,
        after.atoms.values(),
        after.initial,
        after.final,
        after.transition,
        transformers=after.transformers,
        rels=after.rels,
        states=after.states,
    )
    assert rebuilt == after, app
    assert list(rebuilt.atoms) == list(after.atoms), app
    assert set(after.transformers) == set(after.outcomes()), app
    assert set(app.changed) >= {app.site[0][0]}, app


def check_indexes(work, after):
    """The working diagram equals `after`, and every index it has built
    equals a fresh build on `after`; returns the names of the attributes
    it holds."""
    for part in ("agents", "atoms", "initial", "final", "transition", "transformers"):
        assert getattr(work, part) == getattr(after, part), part
    assert list(work.atoms) == list(after.atoms)
    carried = vars(work)
    fresh = after.copy()  # same tables, no index built yet
    for name in INDEXES:
        if name in carried:
            assert carried[name] == getattr(fresh, name), name
    for atom, groups in carried.get("merge_groups", {}).items():
        for r in after.results(atom):
            assert work.merge_group(atom, r) == fresh.merge_group(atom, r), (atom, r)
        assert groups == fresh.merge_groups[atom], atom
    for o, found in carried.get("sending", {}).items():
        assert found == fresh.sends(o), o
    return set(carried)


def built_copy(neg):
    """A working copy of `neg` with every index built."""
    work = working_copy(neg)
    for name in INDEXES:
        getattr(work, name)
    for o in work.outcomes():
        work.merge_group(*o)
        work.sends(o)
    return work


def assert_maintained(maintained, after):
    """The maintained R(N) and its mergeable outcomes equal a full
    recomputation on a fresh copy of `after`, and list them in outcome
    order, bucketed by the party count of their atom."""
    fresh = dataclasses.replace(after)
    expected = reducible_outcomes(fresh)
    assert maintained.outcomes == expected, after
    mergeable = {o for o in expected if merge_partner(fresh, o) is not None}
    assert maintained.mergeable == mergeable, after
    order = list(after.outcomes())
    for members in (maintained.outcomes, maintained.mergeable):
        assert list(members.in_order()) == [o for o in order if o in members]
        for k in {len(after.parties(a)) for a, _r in members}:
            in_k = [o for o in order if o in members and len(after.parties(o[0])) == k]
            assert list(members.in_order(k)) == in_k
        lowest = min((len(after.parties(a)) for a, _r in members), default=None)
        assert lowest_stage(members) == lowest


@pytest.fixture
def checked_steps(monkeypatch):
    """Check every application a strategy records, the indexes of its
    working copy and the R(N) it maintains after it; returns the list of
    (application, the names of the attributes the working copy held when
    checked)."""
    checked = []
    real = ReductionTrace.record

    def record(self, app):
        out = real(self, app)
        check_output(app)
        carried = check_indexes(self.work, app.after)
        if self.reducible is not None:
            assert_maintained(self.reducible, app.after)
        checked.append((app, carried))
        return out

    monkeypatch.setattr(ReductionTrace, "record", record)
    return checked


def test_carried_indexes_cover_what_the_strategies_read(checked_steps):
    """The checks below compare the working copy's indexes, so they must
    be there."""
    trace = run_auto(load_fixture("running_multi"))
    assert checked_steps
    for _app, carried in checked_steps:
        assert set(BUILT) <= carried
    evaluated = trace.counters["outcomes_evaluated"]
    assert evaluated < trace.total * trace.initial.num_outcomes()


@pytest.mark.parametrize("case", list(build_cases()))
def test_maintained_reducible_outcomes_match_full_recomputation(case, checked_steps):
    neg = build_cases()[case]
    runs = []
    try:
        runs.append(run_auto(neg))
    except NegsumError:
        pass
    if classify(neg).deterministic:
        runs.append(run_general(neg))
        runs.append(run_general_unchecked(neg))
    assert len(checked_steps) == sum(t.total for t in runs)


def cyclic_forked(neg):
    """Whether `neg` is cyclic and sends some party to two or more atoms:
    the diagrams on which R(N) is not kept up to date."""
    return not is_acyclic(neg) and any(len(t) > 1 for t in neg.transition.values())


def advance_and_compare(neg, app):
    """R(N) of a working copy of `neg` with every index built, advanced by
    `app` made again on that copy: R(N) must equal a full recomputation on
    the output, and every index a fresh build. On a cyclic forked `neg`
    the advance must raise `ValueError` instead, and R(N) evaluated anew
    on the working copy must equal the recomputation. Returns the R(N)
    compared."""
    work = built_copy(neg)
    maintained = Reducible(work, is_acyclic(neg))
    working.rewrite(work, *app.change.arguments())
    after = app.after
    if cyclic_forked(neg):
        with pytest.raises(ValueError, match="cyclic diagram with a fork"):
            maintained.advance(app)
        maintained = Reducible(work, is_acyclic(after))
    else:
        maintained.advance(app)
    assert_maintained(maintained, after)
    check_indexes(work, after)
    return maintained


def test_every_rule_instance_updates_reducible_outcomes_exactly():
    """Every rule instance, so that useless arcs and shortcuts that move
    the final atom are covered where no strategy picks them."""
    kinds = set()
    final_moves = 0
    for _case, neg in build_cases().items():
        for kind, _site, thunk in all_rule_applications(neg):
            app = thunk()
            check_output(app)
            advance_and_compare(neg, app)
            kinds.add(kind)
            final_moves += app.after.final != neg.final
    assert kinds == {"merge", "iteration", "useless_arc", "shortcut"}
    assert final_moves


def test_diagrams_without_forks_have_no_useless_arc_and_make_none():
    """`Reducible` skips the useless-arc guard on an input without forks:
    no arc of such a diagram is useless, and no rule instance on it makes
    a fork."""
    instances = 0
    for _case, neg in build_cases().items():
        if any(len(t) > 1 for t in neg.transition.values()):
            continue
        assert not any(is_useless_arc(neg, arc) for arc in neg.arcs())
        for _kind, _site, thunk in all_rule_applications(neg):
            assert all(len(t) <= 1 for t in thunk().after.transition.values())
            instances += 1
    assert instances > 100


def forked(neg, rng, forks=3):
    """A non-deterministic copy of the diagram: some party of an outcome
    is also sent to a second atom, while another party still goes to the
    first one only, so the new arc matches the useless-arc pattern."""
    transition = {k: set(v) for k, v in neg.transition.items()}
    sites = [
        (n, p, q, r, next(iter(neg.targets(n, p, r))))
        for n, r in neg.outcomes()
        for p in neg.parties(n)
        for q in neg.parties(n)
        if p != q and len(neg.targets(n, p, r)) == 1
        and neg.targets(n, p, r) == neg.targets(n, q, r)
    ]
    for n, p, q, r, n1 in rng.sample(sites, min(forks, len(sites))):
        extra = [
            t for t in neg.atoms
            if t not in (n1, neg.initial) and {p, q} <= set(neg.parties(t))
        ]
        if extra:
            transition[(n, p, r)].add(rng.choice(extra))
    return validate(neg.agents, neg.atoms.values(), neg.initial, neg.final, transition)


@lru_cache(maxsize=None)
def forked_cyclic_diagrams():
    out = []
    for seed in range(40):
        base = generate_sound(seed, 3 + seed % 4, num_agents=2 + seed % 2, acyclic=False)
        neg = forked(base, random.Random(seed))
        if cyclic_forked(neg):
            out.append((seed, neg))
    return out


def test_reducible_does_not_advance_on_cyclic_forked_diagrams():
    """On a cyclic diagram with a fork the useless-arc guard reads the
    whole diagram, so R(N) is not kept up to date there: the first
    application makes `advance` raise, and R(N) keeps its value on the
    input."""
    for _seed, neg in forked_cyclic_diagrams():
        work = working_copy(neg)
        reducible = Reducible(work, acyclic=False)
        on_input = set(reducible.outcomes)
        _kind, _site, thunk = all_rule_applications(neg)[0]
        app = thunk()
        working.rewrite(work, *app.change.arguments())
        with pytest.raises(ValueError, match="cyclic diagram with a fork"):
            reducible.advance(app)
        assert reducible.outcomes == on_input == reducible_outcomes(neg)


def test_random_rule_sequences_on_cyclic_forked_diagrams():
    """One working copy follows random rule sequences on cyclic forked
    diagrams, through the step where the diagram becomes acyclic: its
    indexes equal a fresh build, and R(N) evaluated on it equals a full
    recomputation, after every step. R(N) made on the input refuses to
    advance at every step, as the input is cyclic with a fork."""
    kinds = set()
    flips = 0
    for seed, neg in forked_cyclic_diagrams():
        rng = random.Random(seed)
        work = built_copy(neg)
        maintained = Reducible(work, is_acyclic(neg))
        current = neg
        for _ in range(12):
            instances = all_rule_applications(current)
            if not instances:
                break
            kind, site, thunk = rng.choice(instances)
            app = thunk()
            check_output(app)
            working.rewrite(work, *app.change.arguments())
            with pytest.raises(ValueError, match="cyclic diagram with a fork"):
                maintained.advance(app)
            after = app.after
            assert_maintained(Reducible(work, is_acyclic(after)), after)
            check_indexes(work, after)
            kinds.add(kind)
            flips += is_acyclic(after) and not is_acyclic(current)
            current = after
    assert len(forked_cyclic_diagrams()) >= 20
    assert "useless_arc" in kinds and flips


def two_agent_diagram(spec):
    """Agents A and B in every atom; `spec` maps atom -> result -> agent
    -> targets, initial atom n0 and final atom nf."""
    agents = ("A", "B")
    atoms = [AtomSpec(a, agents, tuple(results)) for a, results in spec.items()]
    transition = {
        (a, p, r): set(nxt.get(p, ()))
        for a, results in spec.items()
        for r, nxt in results.items()
        for p in agents
    }
    return validate(agents, atoms, "n0", "nf", transition)


def test_far_removal_makes_a_cyclic_useless_arc_essential():
    """Removing n0 -> m leaves m reachable only through n2, so k -> n2
    becomes the only way into the n2/m cycle: (k, s) leaves R(N), though
    nothing next to it changed, so it is not dirty. That is why R(N) is
    not kept up to date on a cyclic diagram with a fork: it is evaluated
    anew (`advance_and_compare`)."""
    neg = two_agent_diagram({
        "n0": {"r": {"A": ["k", "m"], "B": ["k"]}},
        "k": {"s": {"A": ["j", "n2"], "B": ["j"]}},
        "j": {"t": {"A": ["nf"], "B": ["nf"]}},
        "n2": {"u": {"A": ["m"], "B": ["m"]}},
        "m": {"v": {"A": ["nf"], "B": ["nf"]}, "w": {"A": ["n2"], "B": ["n2"]}},
        "nf": {"f": {}},
    })
    assert not is_acyclic(neg)
    assert ("k", "s") in reducible_outcomes(neg)
    app = apply_useless_arc(neg, ("n0", "A", "r", "m"))
    assert ("k", "s") not in dirty_outcomes(app.after, app.change)
    assert ("k", "s") not in advance_and_compare(neg, app).outcomes


def test_second_to_last_arc_into_an_atom_stops_being_useless():
    """On an acyclic diagram the useless-arc guard needs another arc into
    the target: when x's arc into t goes, y's arc is the last one."""
    neg = two_agent_diagram({
        "n0": {"r": {"A": ["x"], "B": ["x"]}, "s": {"A": ["y"], "B": ["y"]}},
        "x": {"r": {"A": ["j", "t"], "B": ["j"]}},
        "y": {"r": {"A": ["j", "t"], "B": ["j"]}},
        "j": {"r": {"A": ["nf"], "B": ["nf"]}},
        "t": {"r": {"A": ["nf"], "B": ["nf"]}},
        "nf": {"f": {}},
    })
    assert ("y", "r") in reducible_outcomes(neg)
    app = apply_useless_arc(neg, ("x", "A", "r", "t"))
    assert ("y", "r") in dirty_outcomes(app.after, app.change)
    assert ("y", "r") not in advance_and_compare(neg, app).outcomes


def test_last_arc_into_a_three_party_atom_stops_being_useless():
    """t has three parties and two arcs in, from x and y: when x's arc
    goes, y's is the only one, so it stops being useless, while the arcs
    into t never become one per party and nothing commits to t."""
    agents = ("A", "B", "C")
    parties = {"n0": agents, "x": ("A", "B"), "y": ("A", "B"), "j": ("A", "B"),
               "t": agents, "nf": agents}
    results = {
        "n0": {"r": {"A": ["x"], "B": ["x"], "C": ["nf"]},
               "s": {"A": ["y"], "B": ["y"], "C": ["nf"]}},
        "x": {"r": {"A": ["j", "t"], "B": ["j"]}},
        "y": {"r": {"A": ["j", "t"], "B": ["j"]}},
        "j": {"r": {"A": ["nf"], "B": ["nf"]}},
        "t": {"r": {"A": ["nf"], "B": ["nf"], "C": ["nf"]}},
        "nf": {"f": {}},
    }
    atoms = [AtomSpec(a, parties[a], tuple(rs)) for a, rs in results.items()]
    transition = {
        (a, p, r): set(nxt.get(p, ()))
        for a, rs in results.items()
        for r, nxt in rs.items()
        for p in parties[a]
    }
    neg = validate(agents, atoms, "n0", "nf", transition)
    assert ("y", "r") in reducible_outcomes(neg)
    app = apply_useless_arc(neg, ("x", "A", "r", "t"))
    assert ("y", "r") in dirty_outcomes(app.after, app.change)
    assert ("y", "r") not in advance_and_compare(neg, app).outcomes


@pytest.mark.parametrize("strategy", ["initial", "alternating"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_demo_applications_carry_exact_indexes(strategy, k, checked_steps, monkeypatch):
    """The demo's applications, the eager strategy's on an initial atom of
    up to 16 results included: every index built on the working copy
    before the first application is kept up to date through every
    application and equals a fresh build of the output."""
    monkeypatch.setattr(strategies, "working_copy", built_copy)
    built = set(BUILT)
    trace = run_exponential_demo(expfam(k), strategy)
    assert len(checked_steps) == trace.total
    for _app, carried in checked_steps:
        assert built <= carried
    if strategy == "initial" and k == 5:
        assert max(len(app.before.results("n0")) for app, _carried in checked_steps) == 16


@pytest.mark.parametrize("reduce", ["run_auto", "alternating"])
def test_many_party_outcomes_carry_exact_indexes(reduce, checked_steps, monkeypatch):
    """On `expfam(12)` the initial atom's outcome has 12 parties and each
    shortcut changes the targets of one: every index, the `sends` of the
    initial atom's new outcomes included, must still equal a fresh build
    after every application."""
    monkeypatch.setattr(strategies, "working_copy", built_copy)
    neg = expfam(12)
    if reduce == "run_auto":
        trace = run_auto(neg)
    else:
        trace = run_exponential_demo(neg, "alternating")
    assert len(checked_steps) == trace.total
    at_initial = [app for app, carried in checked_steps
                  if app.changed[0] == "n0" and "sending" in carried]
    assert at_initial


@pytest.mark.parametrize("k", [8, 16, 32, 64, 128])
def test_outcomes_evaluated_per_application_stays_flat(k):
    """R(N) is re-evaluated at each application's site, so the outcomes
    evaluated per application do not grow with the diagram."""

    def per_application(k):
        trace = run_auto(expfam(k))
        return trace.counters["outcomes_evaluated"] / trace.total

    base = per_application(8)
    assert base / 2 <= per_application(k) <= 2 * base


@pytest.mark.parametrize("k", [16, 32, 64, 128])
def test_arrivals_compared_per_application_stays_flat(k, monkeypatch):
    """`dirty_outcomes` compares what the guards read of an atom's
    incoming arcs only where the application changes the arcs into it,
    not at every target of the changed atoms: on `expfam(k)` the initial
    atom has k parties and targets."""
    calls = []
    real = rules._arrivals

    def counting(neg, t, *counts):
        calls.append(t)
        return real(neg, t, *counts)

    monkeypatch.setattr(rules, "_arrivals", counting)

    def per_application(k):
        calls.clear()
        trace = run_auto(expfam(k))
        return len(calls) / trace.total

    base = per_application(8)
    assert per_application(k) <= 2 * max(base, 1)


def transition_writes(app) -> int:
    """The entries of the output's transition table that the rule wrote:
    those whose key or target set is not the very object the input's table
    holds. A copied table holds the input's objects; a written entry has a
    key tuple built for it."""
    kept = {key: (key, targets) for key, targets in app.before.transition.items()}
    written = 0
    for key, targets in app.after.transition.items():
        old = kept.get(key)
        written += old is None or old[0] is not key or old[1] is not targets
    return written


@pytest.mark.parametrize("k", [4, 5, 6])
def test_transition_writes_per_application_do_not_grow_with_results(k):
    """The eager demo piles 2^(k-1) results on the initial atom, which has
    k parties. A rule writes the triples of the outcomes it adds alone, so
    the entries written per application and per party of the initial atom
    stay flat from k = 3, however many results the atom holds."""

    def per_application_and_party(k):
        trace = run_exponential_demo(expfam(k), "initial")
        writes = sum(transition_writes(app) for app in trace.applications)
        return writes / trace.total / k

    base = per_application_and_party(3)
    assert per_application_and_party(k) <= 2 * base


@pytest.mark.parametrize("k", [16, 32, 64, 128])
def test_d_shortcut_candidates_examined_per_application_stay_flat(k, monkeypatch):
    """A d-shortcut step looks only at the targets with at most one result
    and the final atom, which the working diagram keeps per outcome. On
    `expfam(k)` the initial atom's outcome, first in outcome order, has k
    targets with two results each until their branch is reduced: none of
    them is handed to the step, so the candidates per application do not
    grow with k. Both candidate lists a shortcut step can read are
    counted."""
    examined = []

    def counting(real):
        def candidates(neg, outcome):
            found = real(neg, outcome)
            examined.append(len(found))
            return found

        return candidates

    for name in ("shortcut_candidates", "d_shortcut_candidates"):
        monkeypatch.setattr(strategies, name, counting(getattr(strategies, name)))

    def per_application(k):
        examined.clear()
        trace = run_auto(expfam(k))
        assert trace.counters["d_shortcut"]
        return sum(examined) / trace.total

    base = per_application(8)
    assert 0 < per_application(k) <= 1.5 * base
