"""The brute-force oracle against the one it replaced.

`state_elim._denotation` holds a node's relation as one int of n blocks
of n bits and moves it along an edge by mask and shift. The oracle as it
was before that change is kept below, verbatim, as `reference_denotation`:
it pushed a relation along an edge one (reached assignment, successor)
pair at a time. On every input here both must return equal relations,
with equal party tuples, per final result.

`brute_force_summary` no longer builds labeled edges: it walks the
reachability graph's own successor lists, keyed by outcome. On every
diagram here it must return what the reference returns on the graph's
edges labeled with one object per outcome, as `Rel`s equal to it (so over
equal party tuples).

The inputs cover the fixtures, `expfam`, generated diagrams and their
unsound mutants (some with an unreachable final marking), seeded
relations with empty rows over one to three states per agent, spaces
whose agents are listed in another order than the diagram's, relations
whose parties are listed out of the space's order, both labelings of the
reachability edges (`conftest.labeled_edges`), and every intermediate
graph of `reduce_labeled_rg`.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Optional

import pytest

from negsum import (
    Atomic,
    Rel,
    brute_force_summary,
    expfam,
    fixture_names,
    generate_sound,
    graph_denotation,
    labeled_rg,
    load_fixture,
    mutate_unsound,
    reachability,
)
from negsum.state_elim import LEdge, _denotation, _edge_table, reduce_labeled_rg
from negsum.transformers import Kernel, Rows, StateSpace, bits

from conftest import interp_for, labeled_edges, synthetic_interp


def reference_denotation(
    edges: list[LEdge], x0: int, xf: Optional[int], interp, space: StateSpace
) -> dict[str, Rel]:
    k = Kernel(space)
    memo: dict = {}
    labels = {e.expr: k.eval(e.expr, interp, memo) for e in edges}
    every = k.merged(*(r.parties for r in labels.values()))
    n = k.size(every)
    moves = {}  # label -> (successors of each assignment, party set)
    for expr, r in labels.items():
        moves[expr] = (k.spread(r, every), frozenset(r.parties))
    out_edges: dict[int, list] = {}
    for e in edges:
        out_edges.setdefault(e.src, []).append((e.dst, *moves[e.expr]))

    reach = {x0: [1 << s for s in range(n)]}  # node -> state -> initial states
    parties = {x0: frozenset()}
    delta = {x0: dict(enumerate(reach[x0]))}
    work = deque([x0])
    queued = {x0}
    while work:
        u = work.popleft()
        queued.discard(u)
        new = delta.pop(u, None)
        for v, succ, pe in out_edges.get(u, ()):
            grown = parties[u] | pe
            if v not in reach:
                reach[v], parties[v], changed = [0] * n, grown, True
            else:
                changed = not grown <= parties[v]
                parties[v] |= grown
            if new:
                col = reach[v]
                for s, initial in new.items():
                    for t in succ[s]:
                        add = initial & ~col[t]
                        if add:
                            col[t] |= add
                            dv = delta.setdefault(v, {})
                            dv[t] = dv.get(t, 0) | add
                            changed = True
            if changed and v not in queued:
                work.append(v)
                queued.add(v)

    cols: dict[str, list[int]] = {}
    result_parties: dict[str, frozenset] = {}
    for e in edges:
        if e.dst != xf or e.final_result is None or e.src not in reach:
            continue
        succ, pe = moves[e.expr]
        acc = cols.setdefault(e.final_result, [0] * n)
        result_parties[e.final_result] = (
            result_parties.get(e.final_result, frozenset()) | parties[e.src] | pe
        )
        for s, initial in enumerate(reach[e.src]):
            for t in succ[s]:
                acc[t] |= initial
    out: dict[str, Rel] = {}
    for r, col in cols.items():
        rows = [0] * n
        for t, initial in enumerate(col):
            for i in bits(initial):
                rows[i] |= 1 << t
        out[r] = k.rel(k.restrict(Rows(every, rows), k.merged(result_parties[r])))
    return out


def assert_like_reference(neg, space, interp, shared=True):
    """`_denotation` of the labeled edges and `brute_force_summary` of
    `neg` against the reference: the first on the labeling `shared` picks,
    the second on the shared one, which labels the edges as the oracle
    reads them, one label per outcome."""
    graph = reachability(neg)
    edges, x0, xf = labeled_edges(neg, graph, shared)
    want = reference_denotation(edges, x0, xf, interp, space)
    assert _denotation(*_edge_table(edges), x0, xf, interp, space) == want
    if not shared:
        want = reference_denotation(*labeled_edges(neg, graph, shared=True), interp, space)
    assert brute_force_summary(neg, interp, space) == want
    return want


def seeded_relations(neg, seed, shuffle_parties=False):
    """A space of one to three states per agent, listed in a shuffled
    agent order, and for each outcome a relation whose entries have zero
    to two exits each, so some rows are empty. With `shuffle_parties`,
    each relation lists its parties in a shuffled order."""
    rng = random.Random(f"denotation:{seed}")
    agents = list(neg.agents)
    rng.shuffle(agents)
    space = {a: tuple(f"s{i}" for i in range(rng.randint(1, 3))) for a in agents}
    interp = {}
    for atom, result in sorted(neg.outcomes()):
        parties = list(neg.parties(atom))
        if shuffle_parties:
            rng.shuffle(parties)
        local = list(itertools.product(*(space[a] for a in parties)))
        pairs = frozenset(
            (q, q2) for q in local for q2 in rng.sample(local, min(len(local), rng.randint(0, 2)))
        )
        interp[(atom, result)] = Rel(tuple(parties), pairs)
    return space, interp


def test_seeded_relations_have_empty_rows_and_shuffled_orders():
    neg = expfam(3)
    space, interp = seeded_relations(neg, 0, shuffle_parties=True)
    assert list(space) != list(neg.agents)
    assert {len(states) for states in space.values()} >= {1, 2}
    assert any(
        not any(p[0] == q for p in rel.pairs)
        for rel in interp.values()
        for q in itertools.product(*(space[a] for a in rel.parties))
    )
    assert any(list(rel.parties) != [a for a in space if a in rel.parties]
               for rel in interp.values())


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("name", fixture_names())
def test_fixtures_match_the_reference(name, shared):
    neg = load_fixture(name)
    space, interp = interp_for(neg)
    assert_like_reference(neg, space, interp, shared)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expfam_matches_the_reference(k):
    neg = expfam(k)
    space, interp = synthetic_interp(neg, k)
    assert set(assert_like_reference(neg, space, interp)) == {"f"}


@pytest.mark.parametrize("seed", range(12))
def test_seeded_relations_match_the_reference(seed):
    neg = expfam(1 + seed % 3) if seed % 2 else load_fixture(fixture_names()[seed])
    space, interp = seeded_relations(neg, seed, shuffle_parties=seed % 4 < 2)
    assert_like_reference(neg, space, interp, shared=seed % 3 == 0)


@pytest.mark.parametrize("seed", range(16))
def test_generated_diagrams_and_mutants_match_the_reference(seed):
    base = generate_sound(seed, steps=3 + seed % 6, num_agents=2 + seed % 3,
                          acyclic=seed % 2 == 0)
    mutant = mutate_unsound(base, random.Random(seed))
    for neg in (base, mutant) if mutant is not None else (base,):
        space, interp = synthetic_interp(neg, seed)
        assert_like_reference(neg, space, interp)
        space, interp = seeded_relations(neg, seed, shuffle_parties=True)
        assert_like_reference(neg, space, interp, shared=False)


# node 0 is the initial marking and node 3 the final one; the space lists
# q before p, and PQ lists its parties the other way round
SPACE = {"q": ("0", "1"), "p": ("0", "1", "2")}
INTERP = {
    ("P", "a"): Rel(("p",), frozenset({(("0",), ("0",)), (("1",), ("1",)), (("2",), ("2",))})),
    ("Q", "a"): Rel(("q",), frozenset({(("0",), ("0",)), (("1",), ("1",))})),
    ("F", "a"): Rel(("p",), frozenset({(("0",), ("1",)), (("1",), ("1",)), (("2",), ("0",))})),
    ("PQ", "a"): Rel(("p", "q"), frozenset({(("0", "0"), ("1", "1")), (("2", "1"), ("2", "0"))})),
}


def edge(src, atom, dst, final_result=None):
    return LEdge(src, Atomic((atom, "a")), dst, final_result)


def test_a_result_keeps_the_parties_of_its_paths_and_no_others():
    # node 1 is reached first over P alone and passes that on to node 5;
    # the path over node 2 then adds Q's party q but no pair to node 1,
    # and node 5, so result f, must still gain q; result g's only path
    # names p alone, so g is F itself
    edges = [edge(0, "P", 1), edge(0, "Q", 2), edge(2, "Q", 1), edge(1, "P", 5),
             edge(5, "F", 3, "f"), edge(0, "F", 3, "g")]
    got = _denotation(*_edge_table(edges), 0, 3, INTERP, SPACE)
    assert got == reference_denotation(edges, 0, 3, INTERP, SPACE)
    assert got["f"].parties == ("q", "p")
    assert got["g"] == INTERP[("F", "a")]


def test_a_self_loop_over_parties_out_of_space_order_matches_the_reference():
    edges = [edge(0, "Q", 1), edge(1, "PQ", 1), edge(1, "F", 2), edge(2, "PQ", 1),
             edge(2, "P", 3, "f"), edge(1, "Q", 4)]
    got = _denotation(*_edge_table(edges), 0, 3, INTERP, SPACE)
    assert got == reference_denotation(edges, 0, 3, INTERP, SPACE)
    assert got["f"].parties == ("q", "p")


def test_mutants_with_an_unreachable_final_marking_match_the_reference():
    unreachable = 0
    for seed in range(40):
        base = generate_sound(seed, steps=3 + seed % 5, num_agents=2 + seed % 2)
        mutant = mutate_unsound(base, random.Random(seed))
        if mutant is None or reachability(mutant).final_index is not None:
            continue
        unreachable += 1
        space, interp = synthetic_interp(mutant, seed)
        assert assert_like_reference(mutant, space, interp) == {}
    assert unreachable >= 3, unreachable


@pytest.mark.parametrize("name", ["fdm_acyclic", "fdm_cyclic", "ladder",
                                  "running_multi", "regen", "iter_demo"])
def test_every_elimination_step_matches_the_reference(name):
    neg = load_fixture(name)
    for space, interp in (interp_for(neg), seeded_relations(neg, 7, shuffle_parties=True)):
        steps = []

        def check(g, kind, site):
            steps.append(kind)
            got = graph_denotation(g, interp, space)
            assert got == reference_denotation(g.edges, g.x0, g.xf, interp, space), (
                kind, site)

        reduce_labeled_rg(labeled_rg(neg, reachability(neg)), on_step=check)
        assert steps
