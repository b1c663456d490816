"""Negotiation diagrams: data model, well-formedness validation, the
negotiation graph, and classification (deterministic / weakly
deterministic / acyclic).

A negotiation couples a set of agents with a set of multi-party atoms.
Validation enforces:

  (1) every agent participates in both the initial and the final atom;
  (2) a transition target set is empty exactly at the final atom;
  (3) every atom lies on a path from the initial to the final atom,
      checked as forward reachability from the initial atom plus backward
      reachability from the final atom on the negotiation graph.

Validated negotiations are immutable by convention: every reduction rule
produces a new value. That lets a diagram build its indexes lazily, once,
on first use: the arc indexes (`arcs_into`, `committed_by`), the
compiled marking tables (`marking_kernel`), the merge groups
(`merge_group`), the transformers by outcome (`named_transformers`) and
the classification (`classify`).

Rule outputs are built by `rewrite`, without re-validation: the rules map
negotiations to negotiations, so their outputs are valid by construction.
`rewrite` carries forward the arc indexes, the merge groups and the
transformers the input diagram has built, replacing only the entries of
the atoms the rule changed, so one application costs about the size of
its site. It carries neither the classification, since a rule can change
the class, nor the marking tables, since removing an atom shifts the bit
of every atom after it. The loader and the generator still go through
`validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import ValidationError
from .transformers import Atomic, Rel, StateSpace, TransformerExpr

if TYPE_CHECKING:
    import networkx as nx

    from .semantics import MarkingKernel

Outcome = tuple[str, str]  # (atom id, result name)
Arc = tuple[str, str, str, str]  # (atom, agent, result, target atom)


@dataclass(frozen=True)
class AtomSpec:
    """One atom: its parties and results, both in declaration order."""

    id: str
    parties: tuple[str, ...]
    results: tuple[str, ...]


@dataclass(frozen=True)
class Classification:
    deterministic: bool
    weakly_deterministic: bool
    acyclic: bool
    deterministic_agents: frozenset[str]


@dataclass
class Negotiation:
    """A validated negotiation diagram.

    `transition` maps every triple (atom, party, result) to a frozenset of
    target atom ids (the transition function, total on the triples of the
    diagram). `transformers` maps every outcome to a symbolic transformer
    expression; `rels` optionally carries concrete relations for outcomes,
    and `states` the finite per-agent state space they live in.
    """

    agents: tuple[str, ...]
    atoms: dict[str, AtomSpec]
    initial: str
    final: str
    transition: dict[tuple[str, str, str], frozenset[str]]
    transformers: dict[Outcome, TransformerExpr] = field(default_factory=dict)
    rels: dict[Outcome, Rel] = field(default_factory=dict)
    states: Optional[StateSpace] = None

    # -- basic accessors ---------------------------------------------------

    def parties(self, atom: str) -> tuple[str, ...]:
        return self.atoms[atom].parties

    def results(self, atom: str) -> tuple[str, ...]:
        return self.atoms[atom].results

    def targets(self, atom: str, agent: str, result: str) -> frozenset[str]:
        return self.transition[(atom, agent, result)]

    def outcomes(self) -> Iterator[Outcome]:
        for atom in self.atoms.values():
            for r in atom.results:
                yield (atom.id, r)

    def arcs(self) -> Iterator[Arc]:
        for (atom, agent, result), targets in self.transition.items():
            for t in sorted(targets, key=self.atom_index):
                yield (atom, agent, result, t)

    def atom_index(self, atom: str) -> int:
        return self._atom_order[atom]

    def agent_index(self, agent: str) -> int:
        return self._agent_order[agent]

    def result_index(self, atom: str, result: str) -> int:
        return self.atoms[atom].results.index(result)

    def transformer(self, outcome: Outcome) -> TransformerExpr:
        return self.transformers.get(outcome, Atomic(outcome))

    def is_atomic(self) -> bool:
        return len(self.atoms) == 1

    def num_outcomes(self) -> int:
        return sum(len(a.results) for a in self.atoms.values())

    def __post_init__(self):
        self._atom_order = {a: i for i, a in enumerate(self.atoms)}
        self._agent_order = {a: i for i, a in enumerate(self.agents)}

    # -- indexes, built on first use -----------------------------------------

    @cached_property
    def arcs_into(self) -> dict[tuple[str, str], tuple[Outcome, ...]]:
        """(target, agent) -> the outcomes with an arc of that agent into
        the target, in transition-table order."""
        index: dict[tuple[str, str], list[Outcome]] = {}
        for (atom, agent, result), targets in self.transition.items():
            for t in targets:
                index.setdefault((t, agent), []).append((atom, result))
        return {key: tuple(outs) for key, outs in index.items()}

    @cached_property
    def committed_by(self) -> dict[str, frozenset[Outcome]]:
        """target -> the outcomes that send some party only to the target."""
        index: dict[str, set[Outcome]] = {}
        for spec in self.atoms.values():
            for r in spec.results:
                for p in spec.parties:
                    targets = self.transition[(spec.id, p, r)]
                    if len(targets) == 1:
                        (t,) = targets
                        index.setdefault(t, set()).add((spec.id, r))
        return {t: frozenset(outs) for t, outs in index.items()}

    @cached_property
    def marking_kernel(self) -> MarkingKernel:
        """The diagram compiled into the integer tables every walk over
        markings runs on (`semantics.MarkingKernel`). A rule output starts
        without it: removing an atom shifts the bit of every later atom."""
        from .semantics import MarkingKernel  # semantics imports this module

        return MarkingKernel(self)

    @cached_property
    def merge_groups(self) -> dict[str, dict[str, tuple[str, ...]]]:
        """atom -> result -> the atom's results whose target set equals the
        result's for every party, in declaration order. Filled one atom at
        a time by `merge_group`."""
        return {}

    def merge_group(self, atom: str, result: str) -> tuple[str, ...]:
        """The results of `atom` that send every party where `result` does,
        `result` included, in declaration order: its merge partners."""
        groups = self.merge_groups.get(atom)
        if groups is None:
            spec = self.atoms[atom]
            by_targets: dict[tuple[frozenset[str], ...], list[str]] = {}
            for r in spec.results:
                key = tuple(self.transition[(atom, p, r)] for p in spec.parties)
                by_targets.setdefault(key, []).append(r)
            groups = {r: tuple(same) for same in by_targets.values() for r in same}
            self.merge_groups[atom] = groups
        return groups[result]

    @cached_property
    def classification(self) -> Classification:
        """What `classify` answers, computed on first use. A rule output
        starts without it: a rule can change the class."""
        return _classify(self)

    @cached_property
    def named_transformers(self) -> dict[Outcome, TransformerExpr]:
        """Every outcome's transformer, the default `Atomic` ones included.
        A rule output's `transformers` is this dict already."""
        return {o: self.transformer(o) for o in self.outcomes()}

    def drop_indexes(self) -> None:
        """Free the indexes; the next lookup rebuilds them. A reduction
        calls this on each diagram it moves past, so that a trace keeping
        every intermediate diagram does not keep their indexes too."""
        for name in (
            "arcs_into",
            "committed_by",
            "marking_kernel",
            "merge_groups",
            "named_transformers",
        ):
            self.__dict__.pop(name, None)

    def __repr__(self):
        return (
            f"Negotiation({len(self.agents)} agents, {len(self.atoms)} atoms, "
            f"initial={self.initial!r}, final={self.final!r})"
        )


def negotiation_graph(neg: Negotiation) -> nx.MultiDiGraph:
    """The graph of the negotiation: atoms as vertices, one edge per arc,
    labeled with (agent, result)."""
    # imported here: networkx takes most of the package's import time, and
    # only this graph, `find_loops` and `syntactic_cycles` need it
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(neg.atoms)
    for atom, agent, result, target in neg.arcs():
        g.add_edge(atom, target, agent=agent, result=result)
    return g


def validate(
    agents: Iterable[str],
    atoms: Iterable[AtomSpec],
    initial: str,
    final: str,
    transition: dict[tuple[str, str, str], Iterable[str]],
    transformers: Optional[dict[Outcome, TransformerExpr]] = None,
    rels: Optional[dict[Outcome, Rel]] = None,
    states: Optional[StateSpace] = None,
) -> Negotiation:
    """Check all well-formedness conditions and build a Negotiation.

    Collects every violation instead of failing fast, and raises a single
    ValidationError naming condition (1)/(2)/(3) and the offending element.
    """
    agents = tuple(agents)
    atom_map: dict[str, AtomSpec] = {}
    violations: list[str] = []

    if not agents:
        violations.append("agent set is empty")
    if len(set(agents)) != len(agents):
        violations.append("duplicate agent names")

    for spec in atoms:
        if spec.id in atom_map:
            violations.append(f"duplicate atom id {spec.id!r}")
            continue
        if not spec.parties:
            violations.append(f"atom {spec.id!r} has no parties")
        if not spec.results:
            violations.append(f"atom {spec.id!r} has no results")
        if len(set(spec.results)) != len(spec.results):
            violations.append(f"atom {spec.id!r} has duplicate result names")
        for p in spec.parties:
            if p not in agents:
                violations.append(f"atom {spec.id!r} party {p!r} is not an agent")
        atom_map[spec.id] = spec

    for name, aid in (("initial", initial), ("final", final)):
        if aid not in atom_map:
            violations.append(f"{name} atom {aid!r} does not exist")
    if violations:
        raise ValidationError(violations)

    # condition (1): everyone participates in the initial and final atoms
    for aid in {initial, final}:
        if set(atom_map[aid].parties) != set(agents):
            violations.append(
                f"InitialOrFinalNotAllAgents: condition (1) fails at {aid!r}: "
                f"parties {sorted(atom_map[aid].parties)} != agents {sorted(agents)}"
            )

    # transition totality, target existence, condition (2)
    norm: dict[tuple[str, str, str], frozenset[str]] = {}
    for spec in atom_map.values():
        for p in spec.parties:
            for r in spec.results:
                key = (spec.id, p, r)
                if key not in transition:
                    violations.append(f"transition not defined on triple {key}")
                    continue
                targets = frozenset(transition[key])
                norm[key] = targets
                for t in targets:
                    if t not in atom_map:
                        violations.append(
                            f"DanglingTarget: arc {(spec.id, p, r, t)} targets a "
                            f"missing atom"
                        )
                    elif p not in atom_map[t].parties:
                        violations.append(
                            f"DanglingTarget: arc {(spec.id, p, r, t)} targets an "
                            f"atom without a port for {p!r}"
                        )
                if spec.id == final and targets:
                    violations.append(
                        f"NonFinalEmptyTransition: condition (2) fails: final triple "
                        f"{key} has targets {sorted(targets)}"
                    )
                if spec.id != final and not targets:
                    violations.append(
                        f"NonFinalEmptyTransition: condition (2) fails: non-final "
                        f"triple {key} has no target"
                    )
    extra = set(transition) - set(norm)
    for key in sorted(extra):
        violations.append(f"transition defined outside the diagram's triples: {key}")

    # condition (3), on a best-effort graph so this reports alongside any
    # condition (1)/(2) findings
    violations += missing_paths(atom_map, initial, final, norm)

    # sanity of attached concrete data
    rels = dict(rels or {})
    if states is not None:
        for agent in agents:
            if agent not in states or not states[agent]:
                violations.append(f"state space missing agent {agent!r}")
    for (aid, r), rel in rels.items():
        if aid not in atom_map or r not in atom_map[aid].results:
            # Interpretation entries for outcomes consumed by earlier rule
            # applications stay usable for evaluating derived expressions.
            continue
        if tuple(rel.parties) != atom_map[aid].parties:
            violations.append(
                f"relation for {(aid, r)} is over {rel.parties}, expected "
                f"{atom_map[aid].parties}"
            )
        elif (
            states is not None
            and all(p in states for p in rel.parties)  # else reported above
            and not rel.is_left_total(states)
        ):
            violations.append(f"relation for {(aid, r)} is not left-total")

    if violations:
        raise ValidationError(violations)
    return Negotiation(
        agents=agents,
        atoms=atom_map,
        initial=initial,
        final=final,
        transition=norm,
        transformers=dict(transformers or {}),
        rels=rels,
        states=states,
    )


def missing_paths(
    atoms: Iterable[str],
    initial: str,
    final: str,
    transition: dict[tuple[str, str, str], frozenset[str]],
) -> list[str]:
    """Condition (3): one violation for each atom that is not both
    forward-reachable from the initial atom and backward-reachable from
    the final atom. Targets outside `atoms` are ignored."""
    succ: dict[str, set[str]] = {aid: set() for aid in atoms}
    pred: dict[str, set[str]] = {aid: set() for aid in atoms}
    for (aid, _agent, _r), targets in transition.items():
        for t in targets:
            if t in succ:
                succ[aid].add(t)
                pred[t].add(aid)
    fwd = _closure(succ, initial)
    bwd = _closure(pred, final)
    return [
        f"MissingPath: condition (3) fails at {aid!r}: not on a path from "
        f"{initial!r} to {final!r}"
        for aid in succ
        if aid not in fwd or aid not in bwd
    ]


def rewrite(
    neg: Negotiation,
    spec: AtomSpec,
    targets: dict[tuple[str, str], frozenset[str]],
    transformers: dict[str, TransformerExpr],
    removed: Optional[str] = None,
) -> Negotiation:
    """`neg` with one atom rewritten by a reduction rule, not re-validated.

    The atom `spec.id` takes the results of `spec`, in place. Its triples
    map to `targets` ((party, result) -> target set), and its results keep
    their transformers except those given in `transformers` (result ->
    expression). The atom `removed`, if given, is dropped; when it is the
    final atom, `spec.id` becomes final. The arc indexes, merge groups and
    transformers `neg` has built are carried forward, with the entries of
    these two atoms replaced; the output builds its other indexes afresh.
    """
    n = spec.id
    changed = (n,) if removed is None else (n, removed)
    atoms = dict(neg.atoms)
    transition = dict(neg.transition)
    named = dict(neg.named_transformers)
    old_triples: dict[tuple[str, str, str], frozenset[str]] = {}
    old_named = {}
    for a in changed:
        old = neg.atoms[a]
        for p in old.parties:
            for r in old.results:
                old_triples[(a, p, r)] = transition.pop((a, p, r))
        for r in old.results:
            old_named[(a, r)] = named.pop((a, r))
    atoms[n] = spec
    if removed is not None:
        del atoms[removed]
    new_triples = {}
    for p in spec.parties:
        for r in spec.results:
            new_triples[(n, p, r)] = transition[(n, p, r)] = targets[(p, r)]
    for r in spec.results:
        named[(n, r)] = transformers[r] if r in transformers else old_named[(n, r)]
    after = Negotiation(
        agents=neg.agents,
        atoms=atoms,
        initial=neg.initial,
        final=n if removed == neg.final else neg.final,
        transition=transition,
        transformers=named,
        rels=neg.rels,
        states=neg.states,
    )
    _carry_indexes(neg, after, changed, old_triples, new_triples)
    return after


def _carry_indexes(
    before: Negotiation,
    after: Negotiation,
    changed: tuple[str, ...],
    old_triples: dict[tuple[str, str, str], frozenset[str]],
    new_triples: dict[tuple[str, str, str], frozenset[str]],
) -> None:
    """Give `after` each carried index `before` has built, updated from the
    changed atoms' triples alone. `rewrite` appends the new triples to the
    transition table, so appending their outcomes to `arcs_into` keeps it
    in transition-table order, as a fresh build has it."""
    built, carried = before.__dict__, after.__dict__
    carried["named_transformers"] = after.transformers
    if "arcs_into" in built:
        into = dict(built["arcs_into"])
        for key in {(t, p) for (_a, p, _r), ts in old_triples.items() for t in ts}:
            kept = tuple(o for o in into[key] if o[0] not in changed)
            if kept:
                into[key] = kept
            else:
                del into[key]
        for (a, p, r), ts in new_triples.items():
            for t in ts:
                into[(t, p)] = into.get((t, p), ()) + ((a, r),)
        carried["arcs_into"] = into
    if "committed_by" in built:
        committed = dict(built["committed_by"])
        dropped: dict[str, set[Outcome]] = {}
        added: dict[str, set[Outcome]] = {}
        for triples, delta in ((old_triples, dropped), (new_triples, added)):
            for (a, _p, r), ts in triples.items():
                if len(ts) == 1:
                    (t,) = ts
                    delta.setdefault(t, set()).add((a, r))
        for t in dropped.keys() | added.keys():
            outs = committed.get(t, frozenset()) - dropped.get(t, set())
            outs |= added.get(t, set())
            if outs:
                committed[t] = outs
            else:
                committed.pop(t, None)
        carried["committed_by"] = committed
    if "merge_groups" in built:
        groups = dict(built["merge_groups"])
        for a in changed:
            groups.pop(a, None)
        carried["merge_groups"] = groups


@dataclass
class Edit:
    """An editable copy of a diagram: its atoms in declaration order, its
    transition table with mutable target sets, its transformers, and its
    initial and final atoms. `done` re-validates the edited parts into a
    new diagram carrying the original's relations and state space, and
    drops the transformers of outcomes that no longer exist."""

    base: Negotiation
    atoms: list[AtomSpec]
    transition: dict[tuple[str, str, str], set[str]]
    transformers: dict[Outcome, TransformerExpr]
    initial: str
    final: str

    def set_results(self, atom: str, results: tuple[str, ...]) -> None:
        self.atoms = [
            AtomSpec(a.id, a.parties, results) if a.id == atom else a
            for a in self.atoms
        ]

    def done(self) -> Negotiation:
        current = {(a.id, r) for a in self.atoms for r in a.results}
        kept = {o: e for o, e in self.transformers.items() if o in current}
        return validate(
            self.base.agents,
            self.atoms,
            self.initial,
            self.final,
            self.transition,
            transformers=kept,
            rels=dict(self.base.rels),
            states=self.base.states,
        )


def edit(neg: Negotiation) -> Edit:
    """Start editing a copy of the diagram, with its transformers."""
    return Edit(
        neg,
        list(neg.atoms.values()),
        {k: set(v) for k, v in neg.transition.items()},
        dict(neg.transformers),
        neg.initial,
        neg.final,
    )


def _closure(adjacency: dict[str, set[str]], start: str) -> set[str]:
    """Atoms reachable from `start` (itself included) along `adjacency`."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def is_acyclic(neg: Negotiation) -> bool:
    """No cycle in the negotiation graph (a self-loop is a cycle), by
    Kahn's algorithm on the transition table."""
    indegree = dict.fromkeys(neg.atoms, 0)
    succ: dict[str, list[str]] = {a: [] for a in neg.atoms}
    for (atom, _agent, _r), targets in neg.transition.items():
        for t in targets:
            succ[atom].append(t)
            indegree[t] += 1
    ready = [a for a, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        atom = ready.pop()
        removed += 1
        for t in succ[atom]:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return removed == len(indegree)


def classify(neg: Negotiation) -> Classification:
    """Determinism, weak determinism, and acyclicity of a valid negotiation,
    computed once per diagram."""
    return neg.classification


def _classify(neg: Negotiation) -> Classification:
    det_agents = set(neg.agents)
    for (atom, agent, _r), targets in neg.transition.items():
        if atom != neg.final and len(targets) != 1 and agent in det_agents:
            det_agents.discard(agent)

    deterministic = det_agents == set(neg.agents)

    weakly = True
    for (atom, _agent, _r), targets in neg.transition.items():
        if atom == neg.final:
            continue
        if not any(
            b in det_agents and all(b in neg.parties(t) for t in targets)
            for b in neg.agents
        ):
            weakly = False
            break

    acyclic = is_acyclic(neg)
    return Classification(
        deterministic=deterministic,
        weakly_deterministic=weakly,
        acyclic=acyclic,
        deterministic_agents=frozenset(det_agents),
    )
