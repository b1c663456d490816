"""Negotiation diagrams: data model, well-formedness validation, and
classification (deterministic / weakly deterministic / acyclic).

A negotiation couples a set of agents with a set of multi-party atoms.
Validation checks that names are distinct and that every atom id and
result name is one word of the expression grammar, and enforces:

  (1) every agent participates in both the initial and the final atom;
  (2) a transition target set is empty exactly at the final atom;
  (3) every atom lies on a path from the initial to the final atom,
      checked as forward reachability from the initial atom plus backward
      reachability from the final atom on the negotiation graph.

A `Negotiation` is a plain value: its tables, plus what it derives from
them on first use: the marking kernel (`marking_kernel`), the
classification (`classify`), the reachability graph, which
`semantics.reachability` keeps on the diagram once a search completes,
and the indexes the rule guards read (`arcs_into`, `arrivals`,
`commitments`, `sending`). Loaded and generated diagrams are never
changed. `copy` starts without any derived value. `rewrite` is the one
place that keeps a rewritten diagram current (`_keep_current`): it drops
the marking kernel, the classification and the graph, and brings every
index built so far up to date from the change alone, so a rewritten
diagram never answers from its old tables.

Rule outputs are made by `rewrite`, without re-validation: the rules map
negotiations to negotiations, so their outputs are valid by construction.
A reduction copies its input once and rewrites that private copy in
place. The site of a rule application is the set of outcomes it removes
and adds, and `rewrite` writes only those, so one application costs about
the size of its site. It returns them as a `Change`; `redo` makes a
recorded change again on an equal diagram, which is how a reduction trace
rebuilds the diagrams it passed through, replaying forward from its
input. The loader and the generator still go through `validate`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from .errors import ValidationError
from .transformers import Atomic, Rel, StateSpace, TransformerExpr

if TYPE_CHECKING:
    from .semantics import MarkingKernel

Outcome = tuple[str, str]  # (atom id, result name)
Arc = tuple[str, str, str, str]  # (atom, agent, result, target atom)

# the instance-dict key under which `semantics.reachability` keeps a
# diagram's complete reachability graph
KEPT_GRAPH = "_reachability"


@dataclass(frozen=True)
class AtomSpec:
    """One atom: its parties and results, both in declaration order."""

    id: str
    parties: tuple[str, ...]
    results: tuple[str, ...]


Targets = tuple[frozenset[str], ...]  # an outcome's target sets, one per party


class Change(NamedTuple):
    """What one rule application changed in a diagram (`rewrite`): enough
    to make it again on an equal diagram (`arguments`) and to bring the
    diagram's indexes up to date (`rewrite` does, by `_keep_current`)."""

    # the rewritten atom as it became, the results it dropped, and the atom
    # removed with them (None if none)
    spec: AtomSpec
    dropped: tuple[str, ...]
    removed_atom: Optional[str]
    # the outcomes it took out, those of a removed atom included, and the
    # outcomes it put in, each with its target sets; an outcome whose
    # triples change (a useless arc) is in both
    removed: dict[Outcome, Targets]
    added: dict[Outcome, Targets]
    # result -> the new transformer of an added result, or of a kept result
    # whose transformer changed (iteration)
    transformers: dict[str, TransformerExpr]
    # atom -> the arcs into it put in minus those taken out, and the
    # outcomes committing to it put in minus those taken out (an atom that
    # lost and gained as many is left out)
    arrivals: dict[str, int]
    commitments: dict[str, int]
    # the rewritten atom as it was, then the removed atom; the final atom
    # before it
    old_specs: tuple[AtomSpec, ...]
    final: str

    def arguments(self) -> tuple:
        """The arguments of `rewrite` (after the diagram) that make this
        change."""
        added = {r: targets for (_n, r), targets in self.added.items()}
        return self.spec, self.dropped, added, self.transformers, self.removed_atom


class Sends(NamedTuple):
    """Where one outcome sends the parties of its atom."""

    # the atoms other than its own that it sends some party to, in
    # declaration order
    others: tuple[str, ...]
    # atom -> how many parties it sends to that atom
    arcs: dict[str, int]
    # atom -> how many parties it sends to that atom and nowhere else
    alone: dict[str, int]


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

    def copy(self) -> Negotiation:
        """A diagram equal to this one, with tables of its own."""
        return Negotiation(
            agents=self.agents,
            atoms=dict(self.atoms),
            initial=self.initial,
            final=self.final,
            transition=dict(self.transition),
            transformers=dict(self.transformers),
            rels=self.rels,
            states=self.states,
        )

    # -- derived values, computed on first use ------------------------------

    @cached_property
    def marking_kernel(self) -> MarkingKernel:
        """The diagram compiled into the integer tables every walk over
        markings runs on (`semantics.MarkingKernel`)."""
        from .semantics import MarkingKernel  # semantics imports this module

        return MarkingKernel(self)

    @cached_property
    def classification(self) -> Classification:
        """What `classify` answers, computed on first use."""
        return _classify(self)

    # The indexes the rule guards read instead of scanning the transition
    # table. `rewrite` brings those built so far up to date.

    @cached_property
    def arcs_into(self) -> dict[tuple[str, str], set[Outcome]]:
        """(target, agent) -> the outcomes with an arc of that agent into
        the target."""
        index: dict[tuple[str, str], set[Outcome]] = {}
        for (atom, agent, result), targets in self.transition.items():
            _link(index, (atom, result), agent, targets)
        return index

    @cached_property
    def arrivals(self) -> dict[str, int]:
        """target -> the number of arcs into it."""
        index: dict[str, int] = {}
        for targets in self.transition.values():
            for t in targets:
                index[t] = index.get(t, 0) + 1
        return index

    @cached_property
    def commitments(self) -> dict[str, int]:
        """target -> the number of outcomes that send some party only to
        the target (that commit to it)."""
        index: dict[str, int] = {}
        for spec in self.atoms.values():
            for r in spec.results:
                targets = [self.transition[(spec.id, p, r)] for p in spec.parties]
                for t in commit_targets(targets):
                    index[t] = index.get(t, 0) + 1
        return index

    @cached_property
    def sending(self) -> dict[Outcome, Sends]:
        """outcome -> where it sends its parties. Filled one outcome at a
        time by `sends`."""
        return {}

    def sends(self, outcome: Outcome) -> Sends:
        """Where the outcome sends its parties (`Sends`)."""
        found = self.sending.get(outcome)
        if found is None:
            n, r = outcome
            alone: dict[str, int] = {}
            arcs = alone  # the same counts while each party goes to one atom
            for p in self.atoms[n].parties:
                ts = self.transition[(n, p, r)]
                if len(ts) == 1:
                    (t,) = ts
                    alone[t] = alone.get(t, 0) + 1
                    if arcs is not alone:
                        arcs[t] = arcs.get(t, 0) + 1
                elif ts:
                    if arcs is alone:
                        arcs = alone.copy()
                    for t in ts:
                        arcs[t] = arcs.get(t, 0) + 1
            others = sorted(arcs.keys() - {n}, key=self._atom_order.__getitem__)
            found = Sends(tuple(others), arcs, alone)
            self.sending[outcome] = found
        return found

    def __repr__(self):
        return (
            f"Negotiation({len(self.agents)} agents, {len(self.atoms)} atoms, "
            f"initial={self.initial!r}, final={self.final!r})"
        )


# Whether a name is one word of the expression grammar
# (`transformers.parse_expr`): not empty, with no whitespace and none of
# its signs. Every atom id and result name must be one, or a summary
# prints text that does not parse back.
_is_word = re.compile(r"[^\s()*·.∪]+").fullmatch
_NOT_A_WORD = "cannot be written in an expression: it is empty or holds whitespace or one of ()*·.∪"


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
        if len(set(spec.parties)) != len(spec.parties):
            violations.append(f"atom {spec.id!r} lists a party twice")
        if not _is_word(spec.id):
            violations.append(f"atom id {spec.id!r} {_NOT_A_WORD}")
        for r in spec.results:
            if not _is_word(r):
                violations.append(f"atom {spec.id!r} result name {r!r} {_NOT_A_WORD}")
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
            if agent not in states:
                violations.append(f"state space missing agent {agent!r}")
            elif not states[agent]:
                violations.append(f"state space lists no state for agent {agent!r}")
            elif len(set(states[agent])) != len(states[agent]):
                violations.append(f"state space lists a state of agent {agent!r} twice")
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
    for aid, r in transformers or {}:
        if aid not in atom_map or r not in atom_map[aid].results:
            violations.append(f"transformer for {(aid, r)}: the outcome does not exist")

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
    dropped: tuple[str, ...],
    added: dict[str, Targets],
    transformers: dict[str, TransformerExpr],
    removed: Optional[str] = None,
) -> Change:
    """Rewrite `neg` in place by one rule application, without
    re-validation, and return what changed (`Change`).

    The atom `spec.id` takes the results of `spec`: it loses the results
    in `dropped`, with their triples and transformers, and gains those
    that `added` maps to their target sets (one per party of `spec`, in
    order). A result both dropped and added stays, with new triples.
    `transformers` (result -> expression) gives every added result its
    transformer, and any kept result a new one. The atom `removed`, if
    given, is dropped with its outcomes; when it is the final atom,
    `spec.id` becomes final. `neg.transformers` must hold the transformer
    of every outcome.

    Only these outcomes are written. The new triples go at the end of the
    transition table. A removed atom keeps its rank (`atom_index`), so the
    atoms left keep their order. What `neg` derived from its old tables is
    dropped or brought up to date from the change (`_keep_current`)."""
    n = spec.id
    atoms, transition, named = neg.atoms, neg.transition, neg.transformers
    old_specs = (atoms[n],) if removed is None else (atoms[n], atoms[removed])
    old: dict[Outcome, Targets] = {}
    for a, results in ((n, dropped), (removed, atoms[removed].results if removed else ())):
        parties = atoms[a].parties if results else ()
        for r in results:
            old[(a, r)] = tuple([transition.pop((a, p, r)) for p in parties])
            del named[(a, r)]
    atoms[n] = spec
    if removed is not None:
        del atoms[removed]
    new: dict[Outcome, Targets] = {}
    for r, targets in added.items():
        for p, ts in zip(spec.parties, targets):
            transition[(n, p, r)] = ts
        new[(n, r)] = targets
    for r, expr in transformers.items():
        named[(n, r)] = expr
    final = neg.final
    if removed == final:
        neg.final = n
    arrivals, commitments = _count_change(old, new)
    change = Change(
        spec, dropped, removed, old, new, transformers, arrivals, commitments,
        old_specs, final,
    )
    _keep_current(neg, change)
    return change


def redo(neg: Negotiation, change: Change) -> Change:
    """Make a recorded change again, through `rewrite`, on a diagram equal
    to the one it was made on."""
    return rewrite(neg, *change.arguments())


def _keep_current(neg: Negotiation, change: Change) -> None:
    """Bring the values `neg` derived from its tables before `change` up
    to date: drop its marking kernel, its classification and its kept
    reachability graph, and update each index built so far from the
    change alone: the outcomes taken out leave it and those put in join
    it."""
    built = neg.__dict__
    for name in ("marking_kernel", "classification", KEPT_GRAPH):
        built.pop(name, None)
    spec, old, new = change.spec, change.removed, change.added
    n = spec.id
    into = built.get("arcs_into")
    if into is not None:
        for o, targets in old.items():
            its = change.old_specs[0] if o[0] == n else change.old_specs[1]
            for p, ts in zip(its.parties, targets):
                for t in ts:
                    outs = into[(t, p)]
                    outs.discard(o)
                    if not outs:
                        del into[(t, p)]
        for o, targets in new.items():
            for p, ts in zip(spec.parties, targets):
                _link(into, o, p, ts)
    for name, delta in (("arrivals", change.arrivals), ("commitments", change.commitments)):
        counts = built.get(name)
        if counts is not None:
            for t, d in delta.items():
                counts[t] = counts.get(t, 0) + d
                if not counts[t]:
                    del counts[t]
    sending = built.get("sending")
    if sending is not None:
        for o in old:
            sending.pop(o, None)


def _link(into: dict, o: Outcome, p: str, targets: frozenset[str]) -> None:
    """Put the arcs of party `p` from `o` into `targets` in `into`."""
    for t in targets:
        into.setdefault((t, p), set()).add(o)


def _count_change(
    old: dict[Outcome, Targets], new: dict[Outcome, Targets]
) -> tuple[dict[str, int], dict[str, int]]:
    """Per atom, the arcs into it and the outcomes committing to it that an
    application putting in `new` adds, minus those it takes out with
    `old`; atoms where the two balance are left out."""
    arrivals: dict[str, int] = {}
    commitments: dict[str, int] = {}
    for side, outcomes in ((-1, old), (1, new)):
        for targets in outcomes.values():
            for ts in targets:
                for t in ts:
                    arrivals[t] = arrivals.get(t, 0) + side
            for t in commit_targets(targets):
                commitments[t] = commitments.get(t, 0) + side
    return (
        {t: d for t, d in arrivals.items() if d},
        {t: d for t, d in commitments.items() if d},
    )


def commit_targets(targets: Iterable[frozenset[str]]) -> set[str]:
    """The atoms an outcome with these target sets commits to: those it
    sends some party to and nowhere else."""
    return {t for ts in targets if len(ts) == 1 for t in ts}


@dataclass
class Edit:
    """An editable copy of a diagram: its atoms by id in declaration order,
    its transition table with mutable target sets, its transformers, and its
    initial and final atoms. `done` re-validates the edited parts into a
    new diagram carrying the original's relations and state space, and
    drops the transformers of outcomes that no longer exist."""

    base: Negotiation
    atoms: dict[str, AtomSpec]
    transition: dict[tuple[str, str, str], set[str]]
    transformers: dict[Outcome, TransformerExpr]
    initial: str
    final: str

    def set_results(self, atom: str, results: tuple[str, ...]) -> None:
        self.atoms[atom] = AtomSpec(atom, self.atoms[atom].parties, results)

    def done(self) -> Negotiation:
        current = {(a.id, r) for a in self.atoms.values() for r in a.results}
        kept = {o: e for o, e in self.transformers.items() if o in current}
        return validate(
            self.base.agents,
            self.atoms.values(),
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
        dict(neg.atoms),
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
    for (atom, agent, _r), targets in neg.transition.items():
        if atom == neg.final:
            continue
        # every target has the agent itself as a party, so a deterministic
        # agent settles the triple without trying the others
        if agent not in det_agents and not any(
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
