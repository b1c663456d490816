from __future__ import annotations

import itertools
import math
import random
from contextlib import contextmanager

import networkx as nx
import pytest

from negsum import (
    AtomSpec,
    Concat,
    Marking,
    Rel,
    Star,
    Union,
    fixture_names,
    load_fixture,
    reducible_outcomes,
    validate,
)
from negsum.semantics import DEFAULT_CAP, MarkingKernel, walk
from negsum.state_elim import LEdge, _labeled_edges
from negsum.transformers import TransformerExpr


@contextmanager
def reversed_ties():
    """Within it, `MarkingKernel.successors` lists each marking's outcomes
    in reverse order, so a walk over markings breaks its ties the other
    way."""
    real = MarkingKernel.successors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            MarkingKernel,
            "successors",
            lambda self, m, enabled: real(self, m, enabled)[::-1],
        )
        yield


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in fixture_names()}


def negotiation_graph(neg) -> nx.MultiDiGraph:
    """The graph of the negotiation: atoms as vertices, one edge per arc,
    labeled with (agent, result)."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(neg.atoms)
    for atom, agent, result, target in neg.arcs():
        g.add_edge(atom, target, agent=agent, result=result)
    return g


def single_atom_negotiation(results=("r",)):
    agents = ("p",)
    return validate(
        agents,
        [AtomSpec("n0", agents, tuple(results))],
        "n0",
        "n0",
        {("n0", "p", r): set() for r in results},
    )


def nodes(e: TransformerExpr) -> list[TransformerExpr]:
    """Every node object of the DAG under `e`, once each."""
    seen: dict[int, TransformerExpr] = {}
    stack = [e]
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            if isinstance(e, Star):
                stack.append(e.inner)
            elif isinstance(e, (Concat, Union)):
                stack.extend(e.parts)
    return list(seen.values())


def synthetic_space(neg, size=2):
    names = tuple(str(i) for i in range(size))
    return {a: names for a in neg.agents}


def synthetic_interp(neg, seed=0, size=2):
    """Random left-total relations for every outcome, over a tiny state
    space; lets the equivalence machinery run on fixtures that do not ship
    concrete transformers."""
    space = synthetic_space(neg, size)
    interp = {}
    for atom, result in neg.outcomes():
        rng = random.Random(f"{seed}:{atom}:{result}")
        parties = neg.parties(atom)
        pairs = set()
        domain = list(itertools.product(*(space[p] for p in parties)))
        codomain = list(domain)
        for q in domain:
            for q2 in rng.sample(codomain, k=rng.randint(1, 2)):
                pairs.add((q, q2))
        interp[(atom, result)] = Rel(tuple(parties), frozenset(pairs))
    return space, interp


def labeled_edges(neg, graph, shared=False):
    """The reachability edges as `state_elim._labeled_edges` labels them,
    each with a label object of its own; with `shared`, the same edges
    with one label object per outcome, shared by all of its edges."""
    edges, x0, xf = _labeled_edges(neg, graph)
    if shared:
        label = {o: neg.transformer(o) for o in neg.outcomes()}
        fired = (o for out in graph.succ for o, _ in out)
        edges = [LEdge(e.src, label[o], e.dst, e.final_result) for e, o in zip(edges, fired)]
    return edges, x0, xf


def interp_for(neg, seed=0):
    """The fixture's own relations when it has them, synthetic ones else."""
    if neg.states is not None and neg.rels:
        return neg.states, dict(neg.rels)
    return synthetic_interp(neg, seed)


def reducible_outcomes_k(neg, k: int) -> set:
    """The outcomes of R(N) whose atom has `k` parties."""
    return {o for o in reducible_outcomes(neg) if len(neg.parties(o[0])) == k}


def make_marking(neg, ready: dict[str, set[str]]) -> Marking:
    """The marking in which each agent is ready for the atoms `ready`
    gives it (none if it gives none), in atom-index order."""
    return Marking(
        tuple(
            tuple(sorted(ready.get(a, ()), key=neg.atom_index)) for a in neg.agents
        )
    )


def initial_marking(neg) -> Marking:
    return Marking(tuple((neg.initial,) for _ in neg.agents))


def final_marking(neg) -> Marking:
    return Marking(tuple(() for _ in neg.agents))


def outcome_index(neg, outcome, cap: int = DEFAULT_CAP):
    """Length of a longest maximal sequence launched by the outcome from
    the marking that holds exactly its parties, minus one; infinity when a
    reachable cycle pumps the sequences arbitrarily long.

    A longest-path pass in topological order (Kahn's, taking a node once
    every edge into it is taken) over the whole `walk` from the marking
    after the outcome. A node on or behind a cycle is never taken. The
    launch node starts the order only if no edge enters it: else it lies
    on a cycle, and so does every node the walk reached.
    """
    kernel = neg.marking_kernel
    succ = walk(kernel, kernel.fire(kernel.start(outcome[0]), outcome), kernel.field, cap).succ
    into = [0] * len(succ)
    for out in succ:
        for _o, j in out:
            into[j] += 1
    longest = [0] * len(succ)
    order = [] if into[0] else [0]
    for i in order:  # grows while walked
        for _o, j in succ[i]:
            longest[j] = max(longest[j], longest[i] + 1)
            into[j] -= 1
            if not into[j]:
                order.append(j)
    return max(longest) if len(order) == len(succ) else math.inf


def index(neg, cap: int = DEFAULT_CAP):
    """Sum of the indices of all non-final outcomes; the termination
    measure that merge and d-shortcut strictly decrease on acyclic
    diagrams."""
    total = 0
    for o in neg.outcomes():
        if o[0] == neg.final:
            continue
        value = outcome_index(neg, o, cap)
        if math.isinf(value):
            return math.inf
        total += value
    return total


def all_rule_applications(neg):
    """Every applicable rule instance on the diagram, as
    (kind, site, thunk) triples in a deterministic order."""
    from negsum import (
        apply_iteration,
        apply_merge,
        apply_shortcut,
        apply_useless_arc,
        iteration_applicable,
        is_useless_arc,
        shortcut_guard,
    )

    out = []
    for n, spec in neg.atoms.items():
        if n == neg.final:
            continue
        for i, r1 in enumerate(spec.results):
            for r2 in spec.results[i + 1 :]:
                if all(
                    neg.targets(n, p, r1) == neg.targets(n, p, r2)
                    for p in spec.parties
                ):
                    out.append(
                        (
                            "merge",
                            ((n, r1), (n, r2)),
                            lambda n=n, r1=r1, r2=r2: apply_merge(
                                neg, (n, r1), (n, r2)
                            ),
                        )
                    )
    for o in neg.outcomes():
        if iteration_applicable(neg, o):
            out.append(("iteration", (o,), lambda o=o: apply_iteration(neg, o)))
    for arc in neg.arcs():
        if is_useless_arc(neg, arc):
            out.append(
                ("useless_arc", (arc,), lambda arc=arc: apply_useless_arc(neg, arc))
            )
    for o in neg.outcomes():
        for n2 in neg.atoms:
            if n2 != o[0] and shortcut_guard(neg, o, n2).holds:
                out.append(
                    (
                        "shortcut",
                        (o, n2),
                        lambda o=o, n2=n2: apply_shortcut(neg, o, n2),
                    )
                )
    return out
