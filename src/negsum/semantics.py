"""Token semantics: enabledness, small steps, reachability graphs, and the
state-space soundness check.

The reachability graph is the ground truth the reduction machinery is
tested against. Exploration is breadth-first with outcomes ordered by
(atom index, result index), which makes node and edge order, and every
witness, reproducible.

Markings are walked on a diagram compiled once into integer tables
(`MarkingKernel`, built on first use as `Negotiation.marking_kernel`).
A marking is one int: agent i's ready set occupies bits [i·K, (i+1)·K),
one bit per atom in atom-index order, K being the number of atoms; a set
of atoms is a K-bit mask. The `Marking` dataclass is what the public API
shows; it is decoded from the int only where a caller asks for it.

One breadth-first walk (`walk`) explores every state space, from any
marking, over a mask of allowed atoms, under one budget: `reachability`
walks from the initial marking over every atom, the targets of maximal
sequences (`structure`) and the outcome index (`strategies`) from a
launch marking. Only `structure.execute_path`'s guided search, which
stops at its first hit, walks on its own. The walk keeps each node's
enabled atoms as a mask: after an outcome of atom a fires, only the
atoms sharing a party with a can change, and only those the outcome
sends a party to can become enabled. The soundness check and the oracle
take the atoms that fire from the masks' union.

The reachability graph is derived data of its diagram, like the marking
kernel: a complete search keeps its graph on the diagram, and every later
search with a cap it fits in returns that graph. So the soundness check,
state elimination, the brute-force oracle and the loop search read one
exploration of a diagram.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import BudgetExceeded, NotEnabled
from .model import KEPT_GRAPH, Negotiation, Outcome
from .transformers import bits

# The one exploration budget: a walk stores at most this many distinct
# markings unless its caller passes another cap.
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


def initial_marking(neg: Negotiation) -> Marking:
    return Marking(tuple((neg.initial,) for _ in neg.agents))


def final_marking(neg: Negotiation) -> Marking:
    return Marking(tuple(() for _ in neg.agents))


class MarkingKernel:
    """A diagram compiled for walks over int-encoded markings.

    Atom a (by atom index) has a `need` mask, its own bit in every party's
    field, and a `keep` mask that clears the parties' fields; each of its
    results has a `put` mask, the parties' targets. The atom is enabled at
    m iff `m & need == need`, and firing a result gives `(m & keep) | put`.
    The final marking is 0. `touch[a]` masks the atoms sharing a party with
    a, and `moves[o]` is (a, put, sent), `sent` masking o's target atoms.
    """

    def __init__(self, neg: Negotiation):
        k = len(neg.atoms)
        self.atoms: tuple[str, ...] = tuple(neg.atoms)
        self.field = field = (1 << k) - 1
        self.shifts = tuple(i * k for i in range(len(neg.agents)))
        shift_of = dict(zip(neg.agents, self.shifts))
        self._index = index = {atom: a for a, atom in enumerate(self.atoms)}
        everything = (1 << (k * len(neg.agents))) - 1
        ones = sum(1 << sh for sh in self.shifts)  # bit 0 of every field
        atoms_of = dict.fromkeys(neg.agents, 0)  # agent -> its atoms
        for a, spec in enumerate(neg.atoms.values()):
            for p in spec.parties:
                atoms_of[p] |= 1 << a
        self.need: list[int] = []
        self.keep: list[int] = []
        self.touch: list[int] = []
        # per atom, per result in declaration order: (outcome, put mask)
        self.fires: list[tuple[tuple[Outcome, int], ...]] = []
        self.moves: dict[Outcome, tuple[int, int, int]] = {}
        mask_of: dict[frozenset[str], int] = {}  # target set -> its atoms
        for a, spec in enumerate(neg.atoms.values()):
            parties = touch = 0
            for p in spec.parties:
                parties |= field << shift_of[p]
                touch |= atoms_of[p]
            self.need.append(parties & ones << a)
            self.keep.append(everything ^ parties)
            self.touch.append(touch)
            fires = []
            for r in spec.results:
                put = sent = 0
                for p in spec.parties:
                    targets = neg.transition[(spec.id, p, r)]
                    t = mask_of.get(targets)
                    if t is None:
                        t = 0
                        for atom in targets:
                            t |= 1 << index[atom]
                        mask_of[targets] = t
                    put |= t << shift_of[p]
                    sent |= t
                fires.append(((spec.id, r), put))
                self.moves[(spec.id, r)] = (a, put, sent)
            self.fires.append(tuple(fires))
        self.initial = self.start(neg.initial)
        self._names: dict[int, tuple[str, ...]] = {}  # field -> its atom ids

    def start(self, atom: str) -> int:
        """Exactly the atom's parties, each ready for the atom alone."""
        return self.need[self._index[atom]]

    def encode(self, marking: Marking) -> int:
        """The int of a `Marking` of this diagram."""
        index = self._index
        return sum(
            1 << (sh + index[a])
            for sh, ready in zip(self.shifts, marking.ready)
            for a in ready
        )

    def decode(self, m: int) -> Marking:
        """The `Marking` of an int; each agent's ready tuple is built once
        per distinct field value and then shared."""
        field, names = self.field, self._names
        ready = []
        for sh in self.shifts:
            f = (m >> sh) & field
            ids = names.get(f)
            if ids is None:
                ids = names[f] = tuple(self.atoms[a] for a in bits(f))
            ready.append(ids)
        return Marking(tuple(ready))

    def enabled(self, m: int) -> int:
        """The mask of the atoms enabled at m, of the candidates some agent
        is ready for: the set bits of the union of the agent fields."""
        u = 0
        for sh in self.shifts:
            u |= m >> sh
        return self.enabled_among(m, u & self.field)

    def enabled_among(self, m: int, atoms: int) -> int:
        """The atoms of the mask `atoms` that are enabled at m."""
        need, out = self.need, 0
        while atoms:
            low = atoms & -atoms
            atoms ^= low
            n = need[low.bit_length() - 1]
            if m & n == n:
                out |= low
        return out

    def successors(self, m: int, enabled: int) -> list[tuple[Outcome, int]]:
        """The outcomes of the atoms of the mask `enabled`, each with the
        marking it leads to from m, ordered by (atom index, result index).
        The mask is `self.enabled(m)`, or a part of it."""
        keep, fires = self.keep, self.fires
        out = []
        while enabled:
            low = enabled & -enabled
            enabled ^= low
            a = low.bit_length() - 1
            base = m & keep[a]
            for o, put in fires[a]:
                out.append((o, base | put))
        return out

    def fire(self, m: int, outcome: Outcome) -> int:
        """The marking after the outcome; NotEnabled unless the diagram has
        it and every party of its atom is ready for it."""
        move = self.moves.get(tuple(outcome))
        if move is None or m & self.need[move[0]] != self.need[move[0]]:
            raise NotEnabled(outcome, self.decode(m))
        return (m & self.keep[move[0]]) | move[1]


def enabled(neg: Negotiation, marking: Marking) -> list[str]:
    """Atoms enabled at the marking: every party is ready to engage in
    them. Returned in atom declaration order."""
    kernel = neg.marking_kernel
    return [kernel.atoms[a] for a in bits(kernel.enabled(kernel.encode(marking)))]


def successors(neg: Negotiation, marking: Marking) -> list[tuple[Outcome, Marking]]:
    """Every fireable outcome with the marking it leads to, ordered by
    (atom index, result index); this order fixes all exploration
    tie-breaking. Parties move to their transition targets, all other
    agents keep their sets (the frame property)."""
    kernel = neg.marking_kernel
    m = kernel.encode(marking)
    return [(o, kernel.decode(m2)) for o, m2 in kernel.successors(m, kernel.enabled(m))]


def step(neg: Negotiation, marking: Marking, outcome: Outcome) -> Marking:
    """Fire one outcome, as `successors` does; raises NotEnabled unless
    every party of the outcome's atom is ready for it."""
    kernel = neg.marking_kernel
    return kernel.decode(kernel.fire(kernel.encode(marking), outcome))


@dataclass
class ReachabilityGraph:
    """The explored graph, int-indexed: node i is the marking `codes[i]`
    (node 0 is `start`, the marking the walk started from, in BFS order),
    and `succ[i]` lists its edges as (outcome, j) in exploration order.
    `nodes`, `node_index` and `edges` show the same graph with `Marking`s,
    decoded on first use."""

    kernel: MarkingKernel
    start: int
    codes: list[int]
    succ: list[tuple[tuple[Outcome, int], ...]]
    final_index: Optional[int]  # the all-empty marking's node, if reached
    fired: int  # the mask of the atoms on some edge

    @property
    def initial(self) -> Marking:
        """The walk's start, also when the graph is empty (`cap` < 1)."""
        return self.kernel.decode(self.start)

    @property
    def final(self) -> Optional[Marking]:
        if self.final_index is None:
            return None
        return self.kernel.decode(self.codes[self.final_index])

    @cached_property
    def nodes(self) -> list[Marking]:
        return list(map(self.kernel.decode, self.codes))

    @cached_property
    def node_index(self) -> dict[Marking, int]:
        return {m: i for i, m in enumerate(self.nodes)}

    @cached_property
    def edges(self) -> list[tuple[Marking, Outcome, Marking]]:
        nodes = self.nodes
        return [(nodes[i], o, nodes[j]) for i, out in enumerate(self.succ) for o, j in out]


def walk(kernel: MarkingKernel, start: int, allowed: int, cap: int) -> ReachabilityGraph:
    """Breadth-first closure of the successor function from the marking
    `start`, firing only the atoms of the mask `allowed` and taking each
    node's outcomes in `MarkingKernel.successors` order.

    Stores at most `cap` markings and raises BudgetExceeded (with the
    partial graph attached) on one more, rather than silently truncating:
    blowing up is a result, not a nuisance.
    """
    codes: list[int] = []
    succ: list[tuple[tuple[Outcome, int], ...]] = []
    if cap < 1:
        raise BudgetExceeded(cap, ReachabilityGraph(kernel, start, codes, succ, None, 0))
    codes.append(start)
    index = {start: 0}
    masks = [kernel.enabled(start) & allowed]  # per node, its enabled atoms
    fired = 0
    successors, moves = kernel.successors, kernel.moves
    touch, enabled_among = kernel.touch, kernel.enabled_among
    for m, e in zip(codes, masks):  # both grow while walked: the BFS queue
        out: list[tuple[Outcome, int]] = []
        for o, m2 in successors(m, e):
            j = index.get(m2)
            if j is None:
                if len(codes) >= cap:
                    fired |= sum({1 << moves[o2][0] for o2, _j in out})
                    succ.append(tuple(out))
                    succ.extend(() for _ in range(len(codes) - len(succ)))
                    partial = ReachabilityGraph(kernel, start, codes, succ, None, fired)
                    raise BudgetExceeded(cap, partial)
                j = index[m2] = len(codes)
                codes.append(m2)
                a, _put, sent = moves[o]
                masks.append(e & ~touch[a] | enabled_among(m2, sent & allowed))
            out.append((o, j))
        fired |= e
        # tuples, not lists: the collector stops tracking a tuple of ints
        # and untracked tuples, so its full passes skip the edges
        succ.append(tuple(out))
    return ReachabilityGraph(kernel, start, codes, succ, index.get(0), fired)


def reachability(neg: Negotiation, cap: int = DEFAULT_CAP) -> ReachabilityGraph:
    """The `walk` from the initial marking over every atom.

    A complete graph is kept on `neg` (under `model.KEPT_GRAPH`) until
    its tables change (`model.rewrite`), and a later call whose `cap` it
    fits in returns it. A smaller cap searches afresh, so it raises
    BudgetExceeded with the same partial graph as on a fresh copy. A
    failed search keeps nothing.
    """
    kept = neg.__dict__.get(KEPT_GRAPH)
    if kept is not None and cap >= len(kept.codes):
        return kept
    kernel = neg.marking_kernel
    graph = walk(kernel, kernel.initial, kernel.field, cap)
    neg.__dict__[KEPT_GRAPH] = graph
    return graph


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


def shortest_witness(
    graph: ReachabilityGraph, targets: Sequence[int]
) -> Optional[list[Outcome]]:
    """Lexicographically least shortest occurrence sequence from the
    initial marking to any node i with `targets[i]` true.

    `reachability` numbers the nodes in breadth-first order, taking each
    node's outcomes by (atom index, result index). So the least-index
    target is the nearest, and each node's first in-edge in (source,
    edge) order is the edge that discovered it, the last step of the
    lex-least shortest path to it: one pass over the edges of the nodes
    before the target finds them all.
    """
    target = next((i for i, hit in enumerate(targets) if hit), None)
    if target is None:
        return None
    parent: list[Optional[tuple[int, Outcome]]] = [None] * (target + 1)
    for i, out in enumerate(graph.succ[:target]):
        for o, j in out:
            if j <= target and parent[j] is None:
                parent[j] = (i, o)
    path = []
    while target:
        target, o = parent[target]
        path.append(o)
    return path[::-1]


def check_soundness(neg: Negotiation, cap: int = DEFAULT_CAP) -> SoundnessVerdict:
    """Decide soundness on the reachability graph.

    (a) every atom occurs on some edge (the graph's `fired` mask); (b) the
    final marking is reachable from every node: a sweep in reverse BFS
    order clears each node with a cleared successor, then `_clear_back`
    any node left stuck. The stuck witness is the shortest path to a node
    from which the final marking is unreachable, on the kept graph.
    """
    graph = reachability(neg, cap)
    kernel, succ, n = graph.kernel, graph.succ, len(graph.codes)
    dead = frozenset(kernel.atoms[a] for a in bits(kernel.field & ~graph.fired))
    stuck = bytearray(b"\x01") * n  # cleared for every node that reaches nf
    if graph.final_index is not None:
        stuck[graph.final_index] = 0
        for i in range(n - 1, -1, -1):
            if stuck[i]:
                for _o, j in succ[i]:
                    if not stuck[j]:
                        stuck[i] = 0
                        break
        if 1 in stuck:
            _clear_back(succ, stuck)
    witness = shortest_witness(graph, stuck) if 1 in stuck else None
    return SoundnessVerdict(
        sound=not dead and witness is None,
        dead_atoms=dead,
        stuck_witness=witness,
        state_count=n,
    )


def _clear_back(succ: list[tuple[tuple[Outcome, int], ...]], stuck: bytearray) -> None:
    """Clear each stuck node with a path to a cleared one, walking back."""
    preds: dict[int, list[int]] = {}
    for i, s in enumerate(stuck):
        if s:
            for _o, j in succ[i]:
                preds.setdefault(j, []).append(i)
    stack = [j for j in preds if not stuck[j]]
    while stack:
        for p in preds.get(stack.pop(), ()):
            if stuck[p]:
                stuck[p] = 0
                stack.append(p)
