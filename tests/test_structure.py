from __future__ import annotations

import random

import pytest

from negsum import (
    check_soundness,
    classify,
    dominating_atom,
    execute_path,
    final_marking,
    find_loops,
    find_minimal_loop,
    fragment,
    generate_sound,
    initial_marking,
    k_fragment,
    load_fixture,
    make_marking,
    mutate_unsound,
    segment,
    step,
    synchronizers,
    syntactic_cycles,
    target_of_atom,
    target_of_outcome,
)
from negsum.structure import Loop, exit_name

from conftest import negotiation_graph

SOUND_DET = ["fdm_cyclic", "running_multi", "multifragment", "ladder",
             "dfs_example", "regen", "pingpong", "cyclic_two_outcomes",
             "lemma3_counterexample", "shortcut_demo", "fdm_unsound"]
SOUND_DET = [n for n in SOUND_DET if n != "fdm_unsound"]


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def test_target_running_multi_n6():
    neg = load_fixture("running_multi")
    report = target_of_atom(neg, "n6")
    assert report.unique
    assert report.target == make_marking(neg, {"C": {"n8"}})
    assert report.explored_atoms == frozenset({"n6", "n7"})


def test_target_running_multi_n3():
    neg = load_fixture("running_multi")
    report = target_of_atom(neg, "n3")
    assert report.unique
    assert report.target == make_marking(neg, {"A": {"nf"}, "B": {"n8"}})


def test_target_of_final_atom_is_final_marking():
    neg = load_fixture("running_multi")
    report = target_of_atom(neg, "nf")
    assert report.unique
    assert report.target == final_marking(neg)


@pytest.mark.parametrize("name", SOUND_DET)
def test_targets_unique_on_sound_deterministic(name):
    neg = load_fixture(name)
    for atom in neg.atoms:
        assert target_of_atom(neg, atom).unique, atom
        for r in neg.results(atom):
            assert target_of_outcome(neg, (atom, r)).unique, (atom, r)


def test_conflicting_targets_on_unsound_input():
    neg = load_fixture("fdm_unsound")
    report = target_of_atom(neg, "n0")
    assert not report.unique
    assert report.conflict is not None
    first, second = report.conflict
    assert first != second


# ---------------------------------------------------------------------------
# fragments and segments
# ---------------------------------------------------------------------------

def test_fragment_n1_is_the_two_party_core():
    neg = load_fixture("running_multi")
    frag = fragment(neg, "n1")
    assert frag.negotiation is not None
    assert set(frag.negotiation.atoms) == {"n1", "n2", "n3", "n4", "n5",
                                           exit_name("n1")}
    assert frag.negotiation.agents == ("A", "B")
    # n1, n3 and n4 generate the same fragment body
    for other in ("n3", "n4"):
        same = fragment(neg, other)
        assert set(same.negotiation.atoms) - {exit_name(other)} == set(
            frag.negotiation.atoms
        ) - {exit_name("n1")}


def test_fragment_of_final_atom_is_atomic():
    neg = load_fixture("running_multi")
    frag = fragment(neg, "nf")
    assert frag.is_atomic
    assert set(frag.negotiation.atoms) == {"nf", exit_name("nf")}


def test_fragment_of_initial_atom_is_whole_negotiation():
    neg = load_fixture("running_multi")
    frag = fragment(neg, "n0")
    assert set(frag.negotiation.atoms) == set(neg.atoms) | {exit_name("n0")}
    # the old final atom now leads to the fresh exit
    assert frag.negotiation.targets("nf", "A", "a") == frozenset({exit_name("n0")})
    assert frag.negotiation.final == exit_name("n0")


def test_segments_of_the_n1_fragment():
    neg = load_fixture("running_multi")
    seg_a = segment(neg, ("n1", "a"))
    assert set(seg_a.negotiation.atoms) == {"n1", "n2", exit_name("n1")}
    assert not seg_a.is_atomic
    seg_b4 = segment(neg, ("n4", "b"))
    assert set(seg_b4.negotiation.atoms) == {"n4", "n5", exit_name("n4")}
    assert not seg_b4.is_atomic
    # every other outcome of the fragment's atoms has an atomic segment
    for outcome in [("n1", "b"), ("n3", "a"), ("n4", "a"), ("n4", "c")]:
        assert segment(neg, outcome).is_atomic, outcome


@pytest.mark.parametrize("name", SOUND_DET)
def test_fragments_and_segments_sound(name):
    neg = load_fixture(name)
    for atom in neg.atoms:
        frag = fragment(neg, atom)
        assert frag.negotiation is not None, atom
        assert check_soundness(frag.negotiation).sound, atom
        assert classify(frag.negotiation).deterministic
        for r in neg.results(atom):
            seg = segment(neg, (atom, r))
            assert seg.negotiation is not None, (atom, r)
            assert check_soundness(seg.negotiation).sound, (atom, r)


def test_unsound_fragment_reports_evidence():
    neg = load_fixture("fdm_unsound")
    frag = fragment(neg, "n0")
    assert frag.negotiation is None
    assert frag.report.conflict is not None
    assert frag.report.explored_atoms  # the explored set is still returned


def test_multifragment_shapes_and_shared_exits():
    neg = load_fixture("multifragment")
    f1 = fragment(neg, "n1")
    f2 = fragment(neg, "n2")
    f5 = fragment(neg, "n5")
    assert set(f1.negotiation.atoms) == {"n1", "n3", "n4", exit_name("n1")}
    assert set(f2.negotiation.atoms) == {"n2", "n3", "n4", exit_name("n2")}
    assert set(f5.negotiation.atoms) == {"n5", "n6", exit_name("n5")}
    frags = k_fragment(neg, 1)
    assert len(frags) == 6  # every one-party atom generates a fragment
    exits = {f.atom: f.exit_atom for f in frags}
    # fragments share their exit atom exactly when the parties coincide
    assert exits["n1"] == exits["n2"] == exits["n3"] == exits["n4"]
    assert exits["n5"] == exits["n6"]
    assert exits["n5"] != exits["n1"]


# ---------------------------------------------------------------------------
# loops and synchronizers
# ---------------------------------------------------------------------------

def test_find_loops_running_multi_contains_private_loop():
    neg = load_fixture("running_multi")
    loops = find_loops(neg)
    atom_sets = {loop.atoms for loop in loops}
    assert frozenset({"n6", "n7"}) in atom_sets
    for loop in loops:
        assert loop.replay(neg)


def test_find_minimal_loop_is_inclusion_minimal():
    neg = load_fixture("running_multi")
    minimal = find_minimal_loop(neg)
    assert minimal is not None
    for loop in find_loops(neg):
        assert not loop.atoms < minimal.atoms


def test_no_loops_on_acyclic():
    assert find_minimal_loop(load_fixture("fdm_acyclic")) is None
    assert find_minimal_loop(load_fixture("shortcut_demo")) is None


def test_fdm_cyclic_loop_through_n1_n2():
    neg = load_fixture("fdm_cyclic")
    loops = find_loops(neg)
    assert any(loop.atoms == frozenset({"n1", "n2"}) for loop in loops)
    # replay the drawn loop from its enabling marking
    m = make_marking(neg, {"F": {"n1"}, "D": {"n1"}, "M": {"n2"}})
    loop = Loop([("n1", "tm"), ("n2", "r")], m).bind(neg)
    assert loop.replay(neg)


def test_synchronizers_of_drawn_loops():
    neg = load_fixture("running_multi")
    m1 = make_marking(neg, {"A": {"n1"}, "B": {"n1"}, "C": {"n8"}})
    sigma1 = Loop([("n1", "a"), ("n2", "a"), ("n4", "b"), ("n5", "a")], m1).bind(neg)
    assert sigma1.replay(neg)
    assert synchronizers(neg, sigma1) == {"n1", "n4"}

    m2 = make_marking(neg, {"C": {"n6"}, "A": {"n1"}, "B": {"n1"}})
    sigma2 = Loop([("n6", "a"), ("n7", "b")], m2).bind(neg)
    assert sigma2.replay(neg)
    assert synchronizers(neg, sigma2) == {"n6", "n7"}


def test_atoms_that_synchronize_no_loop():
    neg = load_fixture("running_multi")
    never = {"n0", "n2", "n5", "n8", "nf"}
    for loop in find_loops(neg):
        assert synchronizers(neg, loop).isdisjoint(never)


def test_single_atom_self_loop_synchronizes_itself():
    neg = load_fixture("fdm_cyclic")  # M's self-loop at n2 is not a marking
    # loop; build a replayable one-atom loop from the drawn one instead
    loops = [l for l in find_loops(neg) if len(l.atoms) == 1]
    # no single-atom marking loop exists here; check on a diagram that has
    # one instead
    neg2 = load_fixture("ladder")
    loops2 = [l for l in find_loops(neg2) if l.atoms == frozenset({"n1"})]
    assert loops2
    assert synchronizers(neg2, loops2[0]) == {"n1"}


@pytest.mark.parametrize("name", SOUND_DET)
def test_minimal_loops_synchronized(name):
    neg = load_fixture(name)
    loops = find_loops(neg)
    for loop in loops:
        if any(other.atoms < loop.atoms for other in loops):
            continue
        assert synchronizers(neg, loop), loop.outcomes


@pytest.mark.parametrize("name", SOUND_DET)
def test_every_syntactic_cycle_has_a_dominating_atom(name):
    neg = load_fixture(name)
    for cycle in syntactic_cycles(neg):
        assert dominating_atom(neg, cycle) is not None, cycle


def test_dominating_atom_examples():
    neg = load_fixture("running_multi")
    assert dominating_atom(neg, ["n6", "n7"]) == "n6"
    assert dominating_atom(neg, ["n1", "n2", "n4", "n5"]) in {"n1", "n4"}
    # a hypothetical cycle over atoms with incomparable parties dominates
    # nothing
    assert dominating_atom(neg, ["n2", "n5"]) is None


# ---------------------------------------------------------------------------
# path execution
# ---------------------------------------------------------------------------

def sample_paths(neg, limit=25, max_len=5):
    g = negotiation_graph(neg)
    rng = random.Random(4)
    paths = []
    edges = list(g.edges(keys=False, data=True))
    for _ in range(limit):
        n = rng.choice(list(neg.atoms))
        path = []
        for _ in range(rng.randint(1, max_len)):
            out = [(u, v, d) for u, v, d in edges if u == n]
            if not out:
                break
            u, v, d = rng.choice(out)
            path.append((u, d["agent"], d["result"]))
            n = v
        if path:
            paths.append(path)
    return paths


@pytest.mark.parametrize("name", ["running_multi", "multifragment", "fdm_cyclic"])
def test_paths_are_executable_on_sound_deterministic(name):
    neg = load_fixture(name)
    for path in sample_paths(neg):
        run = execute_path(neg, path)
        assert run is not None, path
        # replay and check the path outcomes appear in order
        m = initial_marking(neg)
        for o in run:
            m = step(neg, m, o)
        wanted = [(a, r) for a, _p, r in path]
        it = iter(run)
        assert all(o in it for o in wanted)


def test_execute_cycle_pumping():
    # executing a cycle twice in a row stays possible (sound deterministic)
    neg = load_fixture("running_multi")
    cycle = [("n6", "C", "a"), ("n7", "C", "b")]
    run = execute_path(neg, cycle * 3)
    assert run is not None


# ---------------------------------------------------------------------------
# generated-instance structure sweep
# ---------------------------------------------------------------------------

def test_structure_properties_on_generated_instances():
    for seed in range(10):
        neg = generate_sound(seed, steps=3 + seed % 4, num_agents=2 + seed % 2)
        assert check_soundness(neg).sound
        for atom in neg.atoms:
            report = target_of_atom(neg, atom)
            assert report.unique, (seed, atom)
            frag = fragment(neg, atom)
            assert check_soundness(frag.negotiation).sound, (seed, atom)
        loops = find_loops(neg)
        for loop in loops:
            if any(other.atoms < loop.atoms for other in loops):
                continue
            assert synchronizers(neg, loop), (seed, loop.outcomes)
        for cycle in syntactic_cycles(neg):
            assert dominating_atom(neg, cycle) is not None, (seed, cycle)


def test_target_exploration_budget():
    from negsum import BudgetExceeded

    neg = load_fixture("running_multi")
    with pytest.raises(BudgetExceeded):
        target_of_atom(neg, "n0", cap=2)
