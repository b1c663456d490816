"""Token semantics: enabledness, small steps, reachability graphs, and the
state-space soundness check.

The reachability graph is the ground truth the reduction machinery is
tested against. Exploration is breadth-first with outcomes ordered by
(atom index, result index), which makes node and edge order, and every
witness, reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import BudgetExceeded, NotEnabled
from .model import Negotiation, Outcome

# The one exploration budget: every walk over markings stores at most this
# many distinct markings unless its caller passes another cap.
DEFAULT_CAP = 1_000_000


@dataclass(frozen=True)
class Marking:
    """Per-agent sets of atoms, canonicalized: `ready[i]` is the sorted
    tuple of atom ids agent `agents[i]` is ready to engage in."""

    ready: tuple[tuple[str, ...], ...]

    def agent_set(self, neg: Negotiation, agent: str) -> tuple[str, ...]:
        return self.ready[neg.agent_index(agent)]

    def __str__(self):
        return "|".join(",".join(s) if s else "-" for s in self.ready)


def make_marking(neg: Negotiation, ready: dict[str, set[str]]) -> Marking:
    return Marking(
        tuple(
            tuple(sorted(ready.get(a, ()), key=neg.atom_index)) for a in neg.agents
        )
    )


def start_marking(neg: Negotiation, atom: str) -> Marking:
    """Exactly the atom's parties, each ready for the atom alone."""
    return make_marking(neg, {p: {atom} for p in neg.parties(atom)})


def initial_marking(neg: Negotiation) -> Marking:
    return Marking(tuple((neg.initial,) for _ in neg.agents))


def final_marking(neg: Negotiation) -> Marking:
    return Marking(tuple(() for _ in neg.agents))


def enabled(neg: Negotiation, marking: Marking) -> list[str]:
    """Atoms enabled at the marking: every party is ready to engage in
    them. Returned in atom declaration order."""
    ready = marking.ready
    moves = neg.moves
    found = {
        aid
        for atoms in ready
        for aid in atoms
        if all(aid in ready[i] for i in moves[aid][0])
    }
    return sorted(found, key=neg.atom_index)


def successors(neg: Negotiation, marking: Marking) -> list[tuple[Outcome, Marking]]:
    """Every fireable outcome with the marking it leads to, ordered by
    (atom index, result index); this order fixes all exploration
    tie-breaking. Parties move to their transition targets, all other
    agents keep their sets (the frame property)."""
    ready = marking.ready
    out = []
    for aid in enabled(neg, marking):
        parties, per_result = neg.moves[aid]
        for r, targets in zip(neg.atoms[aid].results, per_result):
            new_ready = list(ready)
            for i, t in zip(parties, targets):
                new_ready[i] = t
            out.append(((aid, r), Marking(tuple(new_ready))))
    return out


def step(neg: Negotiation, marking: Marking, outcome: Outcome) -> Marking:
    """Fire one outcome, as `successors` does; raises NotEnabled unless
    every party of the outcome's atom is ready for it."""
    atom, result = outcome
    parties, per_result = neg.moves[atom]
    if not all(atom in marking.ready[i] for i in parties):
        raise NotEnabled(outcome, marking)
    new_ready = list(marking.ready)
    for i, t in zip(parties, per_result[neg.result_index(atom, result)]):
        new_ready[i] = t
    return Marking(tuple(new_ready))


@dataclass
class ReachabilityGraph:
    nodes: list[Marking]
    edges: list[tuple[Marking, Outcome, Marking]]
    initial: Marking
    final: Optional[Marking]  # present iff the all-empty marking is reachable
    node_index: dict[Marking, int] = field(default_factory=dict)

    def __post_init__(self):
        if not self.node_index:
            self.node_index = {m: i for i, m in enumerate(self.nodes)}


def reachability(
    neg: Negotiation, cap: int = DEFAULT_CAP, _reverse_ties: bool = False
) -> ReachabilityGraph:
    """Breadth-first closure of `successors` from the initial marking.

    Stores at most `cap` markings and raises BudgetExceeded (with the
    partial graph attached) on one more, rather than silently truncating:
    blowing up is a result, not a nuisance.
    `_reverse_ties` flips the outcome order within each node; it exists so
    tests can confirm the explored graph does not depend on tie-breaking.
    """
    x0 = initial_marking(neg)
    if cap < 1:
        raise BudgetExceeded(cap, ReachabilityGraph([], [], x0, None))
    nodes = [x0]
    index = {x0: 0}
    edges: list[tuple[Marking, Outcome, Marking]] = []
    queue = [x0]
    qpos = 0
    while qpos < len(queue):
        m = queue[qpos]
        qpos += 1
        outs = successors(neg, m)
        if _reverse_ties:
            outs.reverse()
        for o, m2 in outs:
            if m2 not in index:
                if len(nodes) >= cap:
                    partial = ReachabilityGraph(nodes, edges, x0, None, index)
                    raise BudgetExceeded(cap, partial)
                index[m2] = len(nodes)
                nodes.append(m2)
                queue.append(m2)
            edges.append((m, o, m2))
    xf = final_marking(neg)
    return ReachabilityGraph(nodes, edges, x0, xf if xf in index else None, index)


def classify_marking(neg: Negotiation, marking: Marking) -> str:
    """'final' | 'deadlock' | 'live' (the caller vouches reachability)."""
    if marking == final_marking(neg):
        return "final"
    if not enabled(neg, marking):
        return "deadlock"
    return "live"


@dataclass
class SoundnessVerdict:
    sound: bool
    dead_atoms: frozenset[str]
    stuck_witness: Optional[list[Outcome]]
    state_count: int

    def __bool__(self):
        return self.sound


def shortest_witness(graph: ReachabilityGraph, targets: set[Marking]) -> Optional[list[Outcome]]:
    """Lexicographically least shortest occurrence sequence from the
    initial marking to any marking in `targets`.

    Because exploration ordered outcomes by (atom index, result index) and
    edges are replayed in that order here, plain BFS with first-discovery
    parents yields the lex-least shortest path.
    """
    if not targets:
        return None
    parent: dict[Marking, tuple[Marking, Outcome]] = {}
    seen = {graph.initial}
    queue = [graph.initial]
    qpos = 0
    adjacency: dict[Marking, list[tuple[Outcome, Marking]]] = {}
    for src, o, dst in graph.edges:
        adjacency.setdefault(src, []).append((o, dst))
    while qpos < len(queue):
        m = queue[qpos]
        qpos += 1
        if m in targets:
            path = []
            cur = m
            while cur in parent:
                cur, o = parent[cur]
                path.append(o)
            return list(reversed(path))
        for o, dst in adjacency.get(m, ()):
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (m, o)
                queue.append(dst)
    return None


def check_soundness(neg: Negotiation, cap: int = DEFAULT_CAP) -> SoundnessVerdict:
    """Decide soundness on the reachability graph.

    (a) every atom occurs on some edge; (b) the final marking is reachable
    from every node (checked by one reverse reachability pass). The stuck
    witness is the shortest path to a node from which the final marking is
    unreachable.
    """
    graph = reachability(neg, cap)
    fired = {o[0] for _, o, _ in graph.edges}
    dead = frozenset(neg.atoms) - fired

    xf = final_marking(neg)
    can_reach: set[Marking] = set()
    if graph.final is not None:
        preds: dict[Marking, list[Marking]] = {}
        for src, _o, dst in graph.edges:
            preds.setdefault(dst, []).append(src)
        stack = [xf]
        can_reach.add(xf)
        while stack:
            m = stack.pop()
            for p in preds.get(m, ()):
                if p not in can_reach:
                    can_reach.add(p)
                    stack.append(p)
    stuck = {m for m in graph.nodes if m not in can_reach}
    witness = shortest_witness(graph, stuck)
    return SoundnessVerdict(
        sound=not dead and witness is None,
        dead_atoms=dead,
        stuck_witness=witness,
        state_count=len(graph.nodes),
    )
