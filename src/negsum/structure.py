"""Structural diagnostics: targets of maximal sequences launched by an
atom, fragments and segments, loops and their synchronizers, dominating
atoms of syntactic cycles, and guided path execution.

On sound deterministic diagrams all maximal sequences launched from an
atom hit the same target marking; a conflicting pair of sequences is
returned as unsoundness evidence otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Optional

from .errors import BudgetExceeded
from .model import AtomSpec, Negotiation, Outcome, validate
from .semantics import DEFAULT_CAP, Marking, reachability, step, walk
from .transformers import IDENTITY, bits


@dataclass
class TargetReport:
    """Result of exploring the maximal sequences launched by an atom (or by
    one outcome, in strict mode): the common target, or two sequences with
    different targets as unsoundness evidence."""

    atom: str
    target: Optional[Marking]
    conflict: Optional[tuple[list[Outcome], list[Outcome]]] = None
    explored_atoms: frozenset[str] = frozenset()

    @property
    def unique(self) -> bool:
        return self.target is not None and self.conflict is None


def _explore_targets(
    neg: Negotiation, atom: str, first: Optional[Outcome], cap: int
) -> TargetReport:
    """Walk all sequences from the atom's start marking or, given its
    outcome `first`, from the marking after it. After `first` only atoms
    with strictly fewer parties than the launch atom may fire."""
    kernel = neg.marking_kernel
    start, a = kernel.start(atom), kernel.atoms.index(atom)
    if first is None:
        graph = walk(kernel, start, kernel.field, cap)
    else:
        # strictly fewer parties: a keep mask that clears a strict subset
        # of the fields the launch atom's clears
        own = kernel.keep[a]
        strict = sum(1 << b for b, k in enumerate(kernel.keep) if k | own == k and k != own)
        graph = walk(kernel, kernel.fire(start, first), strict, cap)
    explored = frozenset(kernel.atoms[b] for b in bits(graph.fired | 1 << a))
    succ, codes = graph.succ, graph.codes
    dead = [i for i, out in enumerate(succ) if not out]
    if not dead:
        # every branch loops forever: no maximal sequence exists
        return TargetReport(atom, None, explored_atoms=explored)
    if len(dead) == 1:
        return TargetReport(atom, kernel.decode(codes[dead[0]]), explored_atoms=explored)
    roots = [([o], j) for o, j in succ[0]] if first is None else [([first], 0)]
    paths = _first_paths(succ, roots)
    dead = sorted((i for i in paths if not succ[i]), key=lambda i: str(kernel.decode(codes[i])))
    return TargetReport(
        atom, None, conflict=(paths[dead[0]], paths[dead[1]]), explored_atoms=explored
    )


def _first_paths(
    succ: list[tuple[tuple[Outcome, int], ...]], roots: list[tuple[list[Outcome], int]]
) -> dict[int, list[Outcome]]:
    """Per node, in order of visit, the path by which a depth-first search
    over `succ` in outcome order first reaches it. The search starts from
    the `roots`, (path, node) pairs, with nothing seen: a launch node not
    among them is seen only when a path returns to it."""
    paths: dict[int, list[Outcome]] = {}
    stack = roots[::-1]
    while stack:
        path, j = stack.pop()
        if j not in paths:
            paths[j] = path
            stack.extend((path + [o], k) for o, k in reversed(succ[j]))
    return paths


def target_of_atom(neg: Negotiation, atom: str, cap: int = DEFAULT_CAP) -> TargetReport:
    return _explore_targets(neg, atom, None, cap)


def target_of_outcome(
    neg: Negotiation, outcome: Outcome, cap: int = DEFAULT_CAP
) -> TargetReport:
    return _explore_targets(neg, outcome[0], outcome, cap)


# ---------------------------------------------------------------------------
# Fragments and segments
# ---------------------------------------------------------------------------

@dataclass
class Fragment:
    """A sub-negotiation with a fresh exit atom standing in for the launch
    atom's target marking. When targets are not unique the negotiation is
    absent and the report explains why."""

    atom: str
    negotiation: Optional[Negotiation]
    exit_atom: Optional[str]
    report: TargetReport

    @property
    def is_atomic(self) -> bool:
        """Only the launch atom and the exit remain, and the launch atom
        has a single result."""
        return (
            self.negotiation is not None
            and len(self.negotiation.atoms) == 2
            and len(self.negotiation.results(self.atom)) == 1
        )


def exit_name(atom: str) -> str:
    return f"n̂:{atom}"


def _build_fragment(neg: Negotiation, atom: str, report: TargetReport, hat: str) -> Fragment:
    """The fragment of the atoms the report explored, with exit atom
    `hat`."""
    if not report.unique:
        return Fragment(atom, None, None, report)
    target = report.target
    agents = neg.parties(atom)
    hat_result = "r̂"

    atoms = [neg.atoms[a] for a in neg.atoms if a in report.explored_atoms]
    atoms.append(AtomSpec(hat, agents, (hat_result,)))
    transition: dict = {}
    transformers: dict = {}
    for spec in atoms:
        if spec.id == hat:
            for p in agents:
                transition[(hat, p, hat_result)] = set()
            transformers[(hat, hat_result)] = IDENTITY
            continue
        for p in spec.parties:
            for r in spec.results:
                want = target.agent_set(neg, p)
                now = neg.targets(spec.id, p, r)
                if tuple(sorted(now, key=neg.atom_index)) == want:
                    transition[(spec.id, p, r)] = {hat}
                else:
                    transition[(spec.id, p, r)] = set(now)
                transformers[(spec.id, r)] = neg.transformer((spec.id, r))
    built = validate(
        agents,
        atoms,
        atom,
        hat,
        transition,
        transformers=transformers,
        rels=dict(neg.rels),
        states=neg.states,
    )
    return Fragment(atom, built, hat, report)


def fragment(neg: Negotiation, atom: str, cap: int = DEFAULT_CAP) -> Fragment:
    """The sub-negotiation generated by everything the atom's parties can
    do on their own, with transitions into the target marking redirected
    to a fresh exit atom."""
    return _build_fragment(neg, atom, target_of_atom(neg, atom, cap), exit_name(atom))


def segment(neg: Negotiation, outcome: Outcome, cap: int = DEFAULT_CAP) -> Fragment:
    """Like `fragment`, but launched by a single outcome and closed under
    atoms with strictly fewer parties; the launch atom keeps only the
    launching result."""
    report = target_of_outcome(neg, outcome, cap)
    atom, result = outcome
    view = neg.copy()
    view.atoms[atom] = AtomSpec(atom, neg.parties(atom), (result,))
    return _build_fragment(view, atom, report, exit_name(atom))


def k_fragment(neg: Negotiation, k: int, cap: int = DEFAULT_CAP) -> list[Fragment]:
    """Fragments of all atoms with exactly k parties, with exit atoms
    shared between fragments whose launch atoms have the same parties."""
    out = []
    shared_exits: dict[frozenset[str], str] = {}
    for atom, spec in neg.atoms.items():
        if len(spec.parties) != k:
            continue
        report = target_of_atom(neg, atom, cap)
        hat = exit_name(atom)
        if report.unique:
            hat = shared_exits.setdefault(frozenset(spec.parties), hat)
        out.append(_build_fragment(neg, atom, report, hat))
    return out


# ---------------------------------------------------------------------------
# Loops, synchronizers, dominating atoms
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    outcomes: list[Outcome]
    marking: Marking
    atoms: frozenset[str] = field(init=False)
    agents: frozenset[str] = field(init=False)

    def __post_init__(self):
        self.atoms = frozenset(o[0] for o in self.outcomes)
        self.agents = frozenset()

    def bind(self, neg: Negotiation) -> "Loop":
        self.agents = frozenset(
            p for o in self.outcomes for p in neg.parties(o[0])
        )
        return self

    def replay(self, neg: Negotiation) -> bool:
        m = self.marking
        for o in self.outcomes:
            m = step(neg, m, o)
        return m == self.marking


CYCLE_LIMIT = 10_000  # the most cycles `find_loops` and `syntactic_cycles` list


def _components(succ: dict[int, Iterable[int]]) -> Iterator[set[int]]:
    """Strongly connected components of `succ` (node -> successors, in
    iteration order), by a non-recursive Tarjan search (SIAM J. Comput.,
    1972), in the order networkx finds them and built as sets by the same
    insertions, so that they iterate alike."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    found: set[int] = set()
    pending: list[int] = []
    neighbors = {v: iter(out) for v, out in succ.items()}
    for source in succ:
        if source in found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            preorder.setdefault(v, len(preorder) + 1)
            w = next((w for w in neighbors[v] if w not in preorder), None)
            if w is not None:
                queue.append(w)
                continue
            low = preorder[v]
            for w in succ[v]:
                if w not in found:
                    low = min(low, lowlink[w] if preorder[w] > preorder[v] else preorder[w])
            lowlink[v] = low
            queue.pop()
            if low < preorder[v]:
                pending.append(v)
                continue
            scc = {v}
            while pending and preorder[pending[-1]] > preorder[v]:
                scc.add(pending.pop())
            found.update(scc)
            yield scc


def _circuits(succ: dict[int, list[int]], start: int) -> Iterator[list[int]]:
    """Johnson's search (SIAM J. Comput., 1975) for the simple cycles
    through `start` in `succ`; each begins at `start`."""
    path = [start]
    blocked = {start}
    waiting: dict[int, set[int]] = {}  # Johnson's B: unblocked with the key
    stack = [iter(succ[start])]
    closed = [False]
    while stack:
        for w in stack[-1]:
            if w == start:
                yield path[:]
                closed[-1] = True
            elif w not in blocked:
                path.append(w)
                closed.append(False)
                stack.append(iter(succ[w]))
                blocked.add(w)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                unblock = {v}
                while unblock:
                    u = unblock.pop()
                    if u in blocked:
                        blocked.remove(u)
                        unblock.update(waiting.pop(u, ()))
            else:
                for w in succ[v]:
                    waiting.setdefault(w, set()).add(v)


def _simple_cycles(adj: dict[int, dict]) -> Iterator[list[int]]:
    """Simple cycles of the directed graph `adj` (node -> its distinct
    successors, in iteration order), in the order `networkx.simple_cycles`
    lists them: self-loops in node order first; then, with self-loops
    dropped, Johnson's search from one node of the last component found,
    after which that node is removed and the component split again."""
    yield from ([v] for v, out in adj.items() if v in out)
    succ: dict[int, dict[int, None]] = {}
    for v, out in adj.items():
        for w in out:
            if w != v:
                succ.setdefault(v, {})[w] = None
                succ.setdefault(w, {})
    components = [c for c in _components(succ) if len(c) > 1]
    while components:
        c = components.pop()
        start = next(iter(c))
        yield from _circuits({v: [w for w in succ[v] if w in c] for v in c}, start)
        del succ[start]
        for out in succ.values():
            out.pop(start, None)
        # networkx walks the rest of the component in the order of a copy
        # of it when that has fewer than half the graph's nodes
        copy = set(iter(c))
        nodes = copy if 2 * len(copy) < len(succ) else succ
        view = {v: [w for w in succ[v] if w in c] for v in nodes if v in c and v in succ}
        components.extend(c2 for c2 in _components(view) if len(c2) > 1)


def find_loops(neg: Negotiation, cap: int = DEFAULT_CAP) -> list[Loop]:
    """Simple cycles of the reachability graph, as replayable loops: the
    first `CYCLE_LIMIT`, in the order of `_simple_cycles` on the graph's
    nodes in order of first appearance on an edge."""
    graph = reachability(neg, cap)
    adj: dict[int, dict[int, list[Outcome]]] = {}
    for v, out in enumerate(graph.succ):
        for o, w in out:
            adj.setdefault(v, {}).setdefault(w, []).append(o)
            adj.setdefault(w, {})
    loops = []
    for cycle in islice(_simple_cycles(adj), CYCLE_LIMIT):
        # consecutive nodes of a cycle are joined by an edge of `adj`
        outcomes = [min(adj[v][w]) for v, w in zip(cycle, cycle[1:] + cycle[:1])]
        loops.append(Loop(outcomes, graph.kernel.decode(graph.codes[cycle[0]])).bind(neg))
    return loops


def find_minimal_loop(neg: Negotiation, cap: int = DEFAULT_CAP) -> Optional[Loop]:
    """A loop whose atom set is minimal under inclusion (simple cycles
    suffice: every loop's atom set contains a simple cycle's atom set)."""
    loops = find_loops(neg, cap)
    if not loops:
        return None
    minimal = []
    for loop in loops:
        if not any(
            other.atoms < loop.atoms for other in loops if other is not loop
        ):
            minimal.append(loop)
    return min(minimal, key=lambda l: (sorted(l.atoms), len(l.outcomes)))


def synchronizers(neg: Negotiation, loop: Loop) -> set[str]:
    """Atoms of the loop whose parties cover every atom in the loop."""
    return {
        n
        for n in loop.atoms
        if all(set(neg.parties(m)) <= set(neg.parties(n)) for m in loop.atoms)
    }


def dominating_atom(neg: Negotiation, cycle: list[str]) -> Optional[str]:
    """First atom of a syntactic cycle whose parties cover the whole
    cycle, or None."""
    for n in cycle:
        if all(set(neg.parties(m)) <= set(neg.parties(n)) for m in cycle):
            return n
    return None


def syntactic_cycles(neg: Negotiation) -> list[list[str]]:
    """The first `CYCLE_LIMIT` simple cycles of the negotiation graph
    (atoms as nodes, one edge per arc), in the order of `_simple_cycles`
    on atoms in index order."""
    names = list(neg.atoms)
    adj: dict[int, dict[int, None]] = {i: {} for i in range(len(names))}
    for atom, _agent, _result, target in neg.arcs():
        adj[neg.atom_index(atom)][neg.atom_index(target)] = None
    return [[names[i] for i in cycle] for cycle in islice(_simple_cycles(adj), CYCLE_LIMIT)]


# ---------------------------------------------------------------------------
# Path execution
# ---------------------------------------------------------------------------

def execute_path(
    neg: Negotiation, path: list[tuple[str, str, str]], cap: int = DEFAULT_CAP
) -> Optional[list[Outcome]]:
    """Find an occurrence sequence from the initial marking executing the
    given path of (atom, agent, result) triples: between path outcomes any
    atom may fire, a path atom only with its path results. Returns None if
    the guided search fails (it cannot on sound deterministic diagrams)."""
    if cap < 1:
        raise BudgetExceeded(cap)
    kernel = neg.marking_kernel
    path_atoms = {t[0] for t in path}
    allowed_outcomes = {(t[0], t[2]) for t in path}

    def fire_after_filler(m: int, outcome: Outcome):
        """Breadth-first over filler moves to the first marking where the
        outcome fires: the marking after it, and the moves to it."""
        seen = {m}
        queue = [(m, [])]
        qpos = 0
        while qpos < len(queue):
            cur, seq = queue[qpos]
            qpos += 1
            outs = kernel.successors(cur, kernel.enabled(cur))
            for o, nxt in outs:
                if o == outcome:
                    return nxt, seq + [o]
            for o, nxt in outs:
                # path atoms may only ever occur with their own path results
                if o[0] in path_atoms and o not in allowed_outcomes:
                    continue
                if nxt not in seen:
                    if len(seen) >= cap:
                        raise BudgetExceeded(cap)
                    seen.add(nxt)
                    queue.append((nxt, seq + [o]))
        return None

    m = kernel.initial
    run: list[Outcome] = []
    for atom, _agent, result in path:
        found = fire_after_filler(m, (atom, result))
        if found is None:
            return None
        m, seq = found
        run.extend(seq)
    return run
