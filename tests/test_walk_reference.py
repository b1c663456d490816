"""The targets and the outcome index against the depth-first walks they
replaced, and the budget of the walks they share at its boundary.

`target_of_atom`, `target_of_outcome` and `outcome_index` explore through
`semantics.walk`, the breadth-first walk behind `reachability`. Before,
each had a depth-first walk of its own; those walks are kept here as the
reference. The targets must agree with them in the target, both conflict
paths and the explored atoms, and the index in its value, on
`build_cases()` and beyond: larger generated diagrams with four and five
agents, their unsound mutants, `expfam(1..4)` and a launch marking that
lies on a cycle.
"""

from __future__ import annotations

import math
import random

import pytest

from negsum import (
    AtomSpec,
    BudgetExceeded,
    expfam,
    fixture_names,
    generate_sound,
    load_fixture,
    mutate_unsound,
    step,
    successors,
    target_of_atom,
    target_of_outcome,
    validate,
)

from conftest import make_marking, outcome_index
from test_rule_traces import build_cases


# ---------------------------------------------------------------------------
# The reference walks
# ---------------------------------------------------------------------------

def reference_targets(neg, atom, first):
    """(target, conflict, explored atoms) by a depth-first walk in outcome
    order that records the first path to each marking; the launch marking
    is not seen up front. After `first`, only atoms with strictly fewer
    parties than the launch atom follow."""
    kernel = neg.marking_kernel
    launch_parties = set(neg.parties(atom))

    def moves(m):
        outs = kernel.successors(m, kernel.enabled(m))
        if first is not None:
            outs = [(o, m2) for o, m2 in outs if set(neg.parties(o[0])) < launch_parties]
        return outs

    x_start = kernel.start(atom)
    if first is not None:
        roots = [([first], kernel.fire(x_start, first))]
    else:
        roots = [([o], m) for o, m in moves(x_start)]
    paths, fired, dead = {}, {atom}, {}
    stack = list(reversed(roots))
    while stack:
        path, m = stack.pop()
        if m in paths:
            continue
        paths[m] = path
        nxt = moves(m)
        if not nxt:
            dead[m] = path
            continue
        for o, m2 in reversed(nxt):
            fired.add(o[0])
            stack.append((path + [o], m2))
    targets = sorted(dead, key=lambda m: str(kernel.decode(m)))
    if len(dead) == 1:
        return kernel.decode(targets[0]), None, frozenset(fired)
    if not dead:
        return None, None, frozenset(fired)
    return None, (dead[targets[0]], dead[targets[1]]), frozenset(fired)


def reference_index(neg, outcome):
    """The longest path from the marking after the outcome, by a
    depth-first walk that answers infinity at its first back edge."""
    kernel = neg.marking_kernel
    moves = lambda m: iter(kernel.successors(m, kernel.enabled(m)))  # noqa: E731
    start = kernel.fire(kernel.start(outcome[0]), outcome)
    longest, on_stack = {}, {start}
    stack = [[start, moves(start), 0]]
    while stack:
        frame = stack[-1]
        for _o, m in frame[1]:
            if m in on_stack:
                return math.inf
            if m in longest:
                frame[2] = max(frame[2], 1 + longest[m])
                continue
            on_stack.add(m)
            stack.append([m, moves(m), 0])
            break
        else:
            stack.pop()
            on_stack.discard(frame[0])
            longest[frame[0]] = frame[2]
            if stack:
                stack[-1][2] = max(stack[-1][2], 1 + frame[2])
    return longest[start]


def report(rep):
    return rep.target, rep.conflict, rep.explored_atoms


def assert_same_as_reference(neg):
    """Every atom's and outcome's targets and index agree with the
    reference; returns how many of the targets are conflicts."""
    conflicts = 0
    for atom in neg.atoms:
        want = reference_targets(neg, atom, None)
        assert report(target_of_atom(neg, atom)) == want, atom
        conflicts += want[1] is not None
    for o in neg.outcomes():
        want = reference_targets(neg, o[0], o)
        assert report(target_of_outcome(neg, o)) == want, o
        conflicts += want[1] is not None
        assert outcome_index(neg, o) == reference_index(neg, o), o
    return conflicts


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def launch_on_a_cycle():
    """Atom `a` of agent p is launched at p's start marking, and `b.back`
    returns there. `a.r2` and `b.out` end in two dead markings, p waiting
    for q at `c` and at `e`: a conflict whose first path to `c` runs
    through the launch marking again, since the walk meets it as new."""
    agents = ("p", "q")
    atoms = [
        AtomSpec("n0", agents, ("go",)),
        AtomSpec("a", ("p",), ("r1", "r2")),
        AtomSpec("b", ("p",), ("back", "out")),
        AtomSpec("c", agents, ("f",)),
        AtomSpec("e", agents, ("f",)),
        AtomSpec("nf", agents, ("end",)),
    ]
    transition = {
        ("n0", "p", "go"): {"a"},
        ("n0", "q", "go"): {"c", "e"},
        ("a", "p", "r1"): {"b"},
        ("a", "p", "r2"): {"c"},
        ("b", "p", "back"): {"a"},
        ("b", "p", "out"): {"e"},
        ("nf", "p", "end"): set(),
        ("nf", "q", "end"): set(),
    }
    for atom in ("c", "e"):
        for p in agents:
            transition[(atom, p, "f")] = {"nf"}
    return validate(agents, atoms, "n0", "nf", transition)


GEN_SHAPES = [
    (seed, steps, agents, acyclic)
    for agents in (4, 5)
    for acyclic in (True, False)
    for seed in range(4)
    for steps in (12, 32)
]


@pytest.mark.parametrize("case", list(build_cases()))
def test_build_cases_match_the_reference(case):
    assert_same_as_reference(build_cases()[case])


def test_generated_diagrams_and_their_mutants_match_the_reference():
    conflicts = mutants = 0
    for seed, steps, agents, acyclic in GEN_SHAPES:
        neg = generate_sound(seed, steps, agents, acyclic, max_atoms=24)
        assert_same_as_reference(neg)
        mutant = mutate_unsound(neg, random.Random(seed))
        if mutant is not None:
            mutants += 1
            conflicts += assert_same_as_reference(mutant)
    assert mutants >= len(GEN_SHAPES) // 2 and conflicts > 0, (mutants, conflicts)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expfam_matches_the_reference(k):
    assert_same_as_reference(expfam(k))


def test_a_launch_marking_on_a_cycle_matches_the_reference():
    neg = launch_on_a_cycle()
    # the targets of a, of b, and of n0.go, after which p waits at c or e
    assert assert_same_as_reference(neg) == 3
    rep = target_of_atom(neg, "a")
    assert rep.conflict == (
        [("a", "r1"), ("b", "back"), ("a", "r2")],
        [("a", "r1"), ("b", "out")],
    )
    assert math.isinf(outcome_index(neg, ("b", "back")))
    # on a cycle through the marking after n0.yes, as in fdm_cyclic
    cyc = load_fixture("fdm_cyclic")
    assert math.isinf(outcome_index(cyc, ("n0", "yes")))
    assert outcome_index(cyc, ("n0", "yes")) == reference_index(cyc, ("n0", "yes"))


# ---------------------------------------------------------------------------
# The budget at its boundary
# ---------------------------------------------------------------------------

def stored(neg, start, allowed):
    """The markings reachable from `start` by outcomes of `allowed` atoms,
    counted by a closure over the public successor function."""
    seen, queue = {start}, [start]
    for m in queue:
        for o, m2 in successors(neg, m):
            if o[0] in allowed and m2 not in seen:
                seen.add(m2)
                queue.append(m2)
    return len(seen)


def walks(neg):
    """(name, call with a cap, launch marking, markings stored) of every
    target and index walk of the diagram."""
    for atom in neg.atoms:
        x = make_marking(neg, {p: {atom} for p in neg.parties(atom)})
        yield (f"target_of_atom {atom}", lambda cap, atom=atom: target_of_atom(neg, atom, cap),
               x, stored(neg, x, set(neg.atoms)))
        parties = set(neg.parties(atom))
        fewer = {b for b in neg.atoms if set(neg.parties(b)) < parties}
        for r in neg.results(atom):
            o = (atom, r)
            after = step(neg, x, o)
            yield (f"target_of_outcome {o}", lambda cap, o=o: target_of_outcome(neg, o, cap),
                   after, stored(neg, after, fewer))
            yield (f"outcome_index {o}", lambda cap, o=o: outcome_index(neg, o, cap),
                   after, stored(neg, after, set(neg.atoms)))


@pytest.mark.parametrize("name", [*fixture_names(), "launch_on_a_cycle"])
def test_a_walk_fits_a_cap_of_its_size_and_raises_below_it(name):
    neg = launch_on_a_cycle() if name == "launch_on_a_cycle" else load_fixture(name)
    for what, call, launch, n in walks(neg):
        call(n)
        for cap in (n - 1, 0):
            with pytest.raises(BudgetExceeded) as err:
                call(cap)
            partial = err.value.partial
            assert len(partial.codes) == len(partial.succ) == cap, what
            assert partial.initial == launch and partial.final is None, what
