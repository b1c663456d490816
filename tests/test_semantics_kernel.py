"""The compiled marking kernel against the tuple-based semantics it replaced.

The reference below is the semantics as it was before markings became
ints: markings are `Marking` tuples, a per-diagram move table holds each
atom's party indexes and per-result target tuples, and exploration hashes
`Marking`s. On every case the kernel's `enabled`, `successors`, `step`,
`reachability` (node and edge order, the graph with ties broken the other
way, partial graphs under small caps) and `check_soundness` (dead atoms, lex-least
witness, state count) must equal the reference's. The enabled-atom masks
must agree with it too: `MarkingKernel.enabled` at every node, and each
graph's `fired` mask with the atoms on its edges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negsum.semantics
from negsum import (
    BudgetExceeded,
    Marking,
    NotEnabled,
    check_soundness,
    enabled,
    expfam,
    fixture_names,
    generate_sound,
    load_fixture,
    reachability,
    step,
    successors,
)

from conftest import make_marking, reversed_ties
from test_differential import BENCH_SHAPES, random_deterministic


# ---------------------------------------------------------------------------
# The tuple-based semantics, kept as the reference
# ---------------------------------------------------------------------------

class RefBudget(Exception):
    def __init__(self, nodes, edges):
        self.nodes = nodes
        self.edges = edges


class Reference:
    def __init__(self, neg):
        self.neg = neg
        order = neg.atom_index
        # atom -> (party agent indexes, per result the parties' sorted targets)
        self.moves = {
            spec.id: (
                tuple(neg.agent_index(p) for p in spec.parties),
                tuple(
                    tuple(
                        tuple(sorted(neg.transition[(spec.id, p, r)], key=order))
                        for p in spec.parties
                    )
                    for r in spec.results
                ),
            )
            for spec in neg.atoms.values()
        }

    def initial(self):
        return Marking(tuple((self.neg.initial,) for _ in self.neg.agents))

    def final(self):
        return Marking(tuple(() for _ in self.neg.agents))

    def enabled(self, marking):
        ready = marking.ready
        found = {
            aid
            for atoms in ready
            for aid in atoms
            if all(aid in ready[i] for i in self.moves[aid][0])
        }
        return sorted(found, key=self.neg.atom_index)

    def successors(self, marking):
        ready = marking.ready
        out = []
        for aid in self.enabled(marking):
            parties, per_result = self.moves[aid]
            for r, targets in zip(self.neg.atoms[aid].results, per_result):
                new_ready = list(ready)
                for i, t in zip(parties, targets):
                    new_ready[i] = t
                out.append(((aid, r), Marking(tuple(new_ready))))
        return out

    def step(self, marking, outcome):
        for o, m2 in self.successors(marking):
            if o == outcome:
                return m2
        return None  # not enabled

    def reachability(self, cap=1_000_000, reverse_ties=False):
        x0 = self.initial()
        if cap < 1:
            raise RefBudget([], [])
        nodes = [x0]
        index = {x0: 0}
        edges = []
        queue = [x0]
        qpos = 0
        while qpos < len(queue):
            m = queue[qpos]
            qpos += 1
            outs = self.successors(m)
            if reverse_ties:
                outs.reverse()
            for o, m2 in outs:
                if m2 not in index:
                    if len(nodes) >= cap:
                        raise RefBudget(nodes, edges)
                    index[m2] = len(nodes)
                    nodes.append(m2)
                    queue.append(m2)
                edges.append((m, o, m2))
        xf = self.final()
        return nodes, edges, xf if xf in index else None

    def check_soundness(self):
        nodes, edges, final = self.reachability()
        dead = frozenset(self.neg.atoms) - {o[0] for _, o, _ in edges}
        can_reach = set()
        if final is not None:
            preds = {}
            for src, _o, dst in edges:
                preds.setdefault(dst, []).append(src)
            stack = [final]
            can_reach.add(final)
            while stack:
                for p in preds.get(stack.pop(), ()):
                    if p not in can_reach:
                        can_reach.add(p)
                        stack.append(p)
        stuck = {m for m in nodes if m not in can_reach}
        return dead, self.shortest_witness(nodes, edges, stuck), len(nodes)

    def shortest_witness(self, nodes, edges, targets):
        if not targets:
            return None
        adjacency = {}
        for src, o, dst in edges:
            adjacency.setdefault(src, []).append((o, dst))
        parent = {}
        seen = {nodes[0]}
        queue = [nodes[0]]
        qpos = 0
        while qpos < len(queue):
            m = queue[qpos]
            qpos += 1
            if m in targets:
                path = []
                while m in parent:
                    m, o = parent[m]
                    path.append(o)
                return list(reversed(path))
            for o, dst in adjacency.get(m, ()):
                if dst not in seen:
                    seen.add(dst)
                    parent[dst] = (m, o)
                    queue.append(dst)
        return None


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def atoms_on_edges(graph):
    """The mask of the atoms on some edge of the graph."""
    index = graph.kernel.atoms.index
    fired = 0
    for out in graph.succ:
        for (atom, _r), _j in out:
            fired |= 1 << index(atom)
    return fired


def assert_same_as_reference(neg):
    ref = Reference(neg)
    want_nodes, want_edges, want_final = ref.reachability()
    graph = reachability(neg)
    kernel = neg.marking_kernel
    assert graph.fired == atoms_on_edges(graph)
    assert list(graph.nodes) == want_nodes
    assert list(graph.edges) == want_edges
    assert len(graph.nodes) == len(want_nodes)
    assert len(graph.edges) == len(want_edges)
    assert graph.initial == want_nodes[0]
    assert graph.final == want_final
    assert graph.node_index == {m: i for i, m in enumerate(want_nodes)}

    for m, code in zip(want_nodes, graph.codes):
        assert enabled(neg, m) == ref.enabled(m)
        mask = kernel.enabled(code)
        assert mask == sum(1 << neg.atom_index(a) for a in ref.enabled(m))
        outs = ref.successors(m)
        assert [(o, kernel.decode(m2)) for o, m2 in kernel.successors(code, mask)] == outs
        assert successors(neg, m) == outs
        for o, m2 in outs:
            assert step(neg, m, o) == m2
    for m in want_nodes[:3]:
        for o in neg.outcomes():
            want = ref.step(m, o)
            if want is None:
                with pytest.raises(NotEnabled):
                    step(neg, m, o)
            else:
                assert step(neg, m, o) == want

    rev_nodes, rev_edges, _ = ref.reachability(reverse_ties=True)
    with reversed_ties():  # on a copy: `neg` keeps the graph explored above
        rev = reachability(neg.copy())
    assert list(rev.nodes) == rev_nodes
    assert list(rev.edges) == rev_edges
    assert set(rev.nodes) == set(want_nodes)
    assert set(rev.edges) == set(want_edges)
    assert rev.fired == atoms_on_edges(rev) == graph.fired

    dead, witness, count = ref.check_soundness()
    verdict = check_soundness(neg)
    assert verdict.dead_atoms == dead
    assert verdict.stuck_witness == witness
    assert verdict.state_count == count
    assert verdict.sound == (not dead and witness is None)

    for cap in (1, 2, 3):
        try:
            ref.reachability(cap=cap)
        except RefBudget as want:
            with pytest.raises(BudgetExceeded) as got:
                reachability(neg, cap=cap)
            partial = got.value.partial
            assert list(partial.nodes) == want.nodes
            assert list(partial.edges) == want.edges
            assert partial.final is None
            assert partial.fired == atoms_on_edges(partial)
            with reversed_ties(), pytest.raises(BudgetExceeded) as got:
                reachability(neg, cap=cap)
            assert got.value.partial.fired == atoms_on_edges(got.value.partial)
        else:
            assert len(reachability(neg, cap=cap).nodes) <= cap


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", fixture_names())
def test_fixture_explores_as_the_reference(name):
    assert_same_as_reference(load_fixture(name))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_expfam_explores_as_the_reference(k):
    assert_same_as_reference(expfam(k))


@pytest.mark.parametrize(
    "shape,seed", [(i, seed) for i in range(len(BENCH_SHAPES)) for seed in range(2)]
)
def test_benchmark_shape_explores_as_the_reference(shape, seed):
    agents, steps, max_atoms, acyclic = BENCH_SHAPES[shape]
    assert_same_as_reference(
        generate_sound(seed, steps, agents, acyclic, max_atoms=max_atoms)
    )


@pytest.mark.parametrize("seed", range(60))
def test_random_deterministic_explores_as_the_reference(seed):
    neg = random_deterministic(seed, n_agents=2 + seed % 2, n_inner=3 + seed % 3)
    assert neg is not None, seed
    assert_same_as_reference(neg)


def test_budget_below_one_keeps_an_empty_graph():
    neg = load_fixture("running_multi")
    with pytest.raises(BudgetExceeded) as err:
        reachability(neg, cap=0)
    partial = err.value.partial
    assert list(partial.nodes) == [] and list(partial.edges) == []
    assert partial.initial == Reference(neg).initial()
    assert partial.final is None


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_encode_then_decode_gives_the_marking_back(data):
    neg = load_fixture(data.draw(st.sampled_from(fixture_names())))
    atoms = sorted(neg.atoms)
    ready = {
        agent: data.draw(st.sets(st.sampled_from(atoms)), label=agent)
        for agent in neg.agents
    }
    marking = make_marking(neg, ready)
    kernel = neg.marking_kernel
    code = kernel.encode(marking)
    assert kernel.decode(code) == marking
    assert kernel.encode(kernel.decode(code)) == code


# the sweep in reverse BFS order leaves some nodes of these stuck, because
# they reach the final marking only through an edge back to a lower node
CYCLIC_SOUND = ("fdm_cyclic", "lemma3_counterexample", "multifragment", "pingpong",
                "regen", "running_multi")


def test_the_walk_back_clears_what_the_sweep_leaves(monkeypatch):
    left = {}
    real = negsum.semantics._clear_back

    def clear_back(succ, stuck):
        left[name] = stuck.count(1)
        real(succ, stuck)
        assert 1 not in stuck  # these are sound: every node reaches nf

    monkeypatch.setattr(negsum.semantics, "_clear_back", clear_back)
    for name in CYCLIC_SOUND:
        neg = load_fixture(name)
        dead, witness, count = Reference(neg).check_soundness()
        verdict = check_soundness(neg)
        assert verdict.sound and not dead and witness is None
        assert verdict.state_count == count
    assert set(left) == set(CYCLIC_SOUND) and all(left.values()), left

