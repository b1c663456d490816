"""A reduction's working diagram: the private copy of its input that it
rewrites in place, with the indexes the rule guards read and the log of
its changes.

`working_copy` copies a diagram into an `Indexed`, which builds each index
on first use and, when `Indexed.rewrite` changes it (through
`model.rewrite`), brings every index it has built up to date from the
change alone. A plain `Negotiation` has no index: a guard asked about one
reads it through a view (`indexed`) that shares its tables, builds only
what the guard reads, and is dropped with it. The changes go into the
working diagram's `Log`, which rebuilds the diagram after any number of
them by replaying them forward from the diagram copied.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from typing import NamedTuple, Optional

from . import model
from .model import (
    AtomSpec,
    Change,
    Negotiation,
    Outcome,
    Targets,
    commit_targets,
    redo,
)
from .transformers import TransformerExpr


class Log:
    """The changes made to one working diagram since it was copied from
    `initial`, in order. `diagram(i)` rebuilds the diagram after the first
    `i` of them on a replay copy of its own, which it moves forward by
    `model.redo`; asked for a diagram before the replay copy's, it starts
    again from `initial`. So visiting the diagrams in order costs one
    replay of the log. The replay copy stays with the log between calls:
    once any diagram has been rebuilt, the log holds one diagram besides
    its changes, the last one rebuilt."""

    def __init__(self, initial: Negotiation):
        self.initial = initial
        self.changes: list[Change] = []
        self._replay: Optional[Negotiation] = None  # the diagram after `_at` changes
        self._at = 0

    def diagram(self, i: int) -> Negotiation:
        """The diagram after the first `i` changes: `initial` itself for 0,
        else a new diagram with tables of its own; `IndexError` unless `i`
        is in 0..len(changes)."""
        if not 0 <= i <= len(self.changes):
            raise IndexError(f"no diagram after {i} changes: 0..{len(self.changes)}")
        if i == 0:
            return self.initial
        replay = self._replay
        if replay is None or i < self._at:
            replay = self._replay = self.initial.copy()
            _name_transformers(replay)
            self._at = 0
        while self._at < i:
            redo(replay, self.changes[self._at])
            self._at += 1
        return replay.copy()


class Sends(NamedTuple):
    """Where one outcome sends the parties of its atom."""

    # the atoms other than its own that it sends some party to, in
    # declaration order
    others: tuple[str, ...]
    # atom -> how many parties it sends to that atom
    arcs: dict[str, int]
    # atom -> how many parties it sends to that atom and nowhere else
    alone: dict[str, int]


class MergeGroups(NamedTuple):
    """One atom's results grouped by what they do: `keys` maps each result
    to its target sets, and `members` maps target sets to the results
    with exactly those, in declaration order."""

    keys: dict[str, Targets]
    members: dict[Targets, tuple[str, ...]]


class Indexed(Negotiation):
    """A diagram with the indexes the guards read, each built on first use:
    the outcomes feeding each port (`arcs_into`), the number of arcs into
    each atom (`arrivals`), the number of outcomes committing to each atom
    (`commitments`), the merge groups (`merge_group`) and where each
    outcome sends its parties (`sends`), from which `d_candidates` picks
    the targets a d-shortcut may take.

    A reduction's working diagram is one (`working_copy`): `rewrite`
    changes it in place, brings every index it has built up to date from
    the change alone, and the change goes into its `log`. A view of a plain
    diagram (`indexed`) shares that diagram's tables; it is read, never
    rewritten."""

    # whether `transformers` holds every outcome's (the first rewrite makes
    # it so, as a rule output's always does)
    named = False
    # the changes made since the copy (None for a view)
    log: Optional[Log] = None

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
    def merge_groups(self) -> dict[str, MergeGroups]:
        """atom -> its results grouped by target sets. Filled one atom at a
        time by `atom_groups`."""
        return {}

    def merge_group(self, atom: str, result: str) -> tuple[str, ...]:
        """The results of `atom` that send every party where `result` does,
        `result` included, in declaration order: its merge partners."""
        keys, members = self.atom_groups(atom)
        return members[keys[result]]

    def atom_groups(self, atom: str) -> MergeGroups:
        """The results of `atom` grouped by target sets."""
        groups = self.merge_groups.get(atom)
        if groups is None:
            spec = self.atoms[atom]
            keys = {
                r: tuple([self.transition[(atom, p, r)] for p in spec.parties])
                for r in spec.results
            }
            members: dict[Targets, list[str]] = {}
            for r, key in keys.items():
                members.setdefault(key, []).append(r)
            groups = MergeGroups(keys, {key: tuple(rs) for key, rs in members.items()})
            self.merge_groups[atom] = groups
        return groups

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

    def enables(self, outcome: Outcome, n2: str) -> bool:
        """`unconditionally_enables`: every party of n2 is sent to n2
        alone."""
        return self.sends(outcome).alone.get(n2, 0) == len(self.atoms[n2].parties)

    def exclusive(self, outcome: Outcome, n2: str) -> bool:
        """`exclusive_access`: the outcome sends each party of n2 to n2, and
        no other arc enters it."""
        parties = len(self.atoms[n2].parties)
        return self.sends(outcome).arcs.get(n2, 0) == parties == self.arrivals.get(n2, 0)

    def another_commits(self, outcome: Outcome, n2: str) -> bool:
        """`another_commits`: some other outcome commits to n2."""
        itself = n2 in self.sends(outcome).alone
        return self.commitments.get(n2, 0) > itself

    def d_candidates(self, outcome: Outcome) -> list[str]:
        """The shortcut candidates of the outcome (`Sends.others`) that a
        d-shortcut may target: the final atom, and the atoms with at most
        one result, in declaration order. Filtered afresh on every call,
        so it follows the atoms' results as they change."""
        atoms, final = self.atoms, self.final
        return [
            t for t in self.sends(outcome).others
            if t == final or len(atoms[t].results) <= 1
        ]

    def rewrite(
        self,
        spec: AtomSpec,
        dropped: tuple[str, ...],
        added: dict[str, Targets],
        transformers: dict[str, TransformerExpr],
        removed: Optional[str] = None,
    ) -> Change:
        """`model.rewrite` of this diagram (which see for the arguments),
        with every index it has built brought up to date from the change,
        which goes into the log."""
        changes = self.log.changes  # a view has no log: it is never rewritten
        if not self.named:
            _name_transformers(self)
            self.named = True
        change = model.rewrite(self, spec, dropped, added, transformers, removed)
        self._update(change)
        changes.append(change)
        return change

    def _update(self, change: Change) -> None:
        """Update each index built so far from `change` alone: the outcomes
        taken out leave it and those put in join it."""
        built = self.__dict__
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
        groups = built.get("merge_groups")
        if groups is not None:
            groups.pop(change.removed_atom, None)
            if n in groups:
                keys, members = groups[n]
                for (a, r), key in old.items():
                    if a == n:
                        del keys[r]
                        rest = tuple([m for m in members[key] if m != r])
                        if rest:
                            members[key] = rest
                        else:
                            del members[key]
                position = spec.results.index
                for (_a, r), key in new.items():
                    keys[r] = key
                    group = members.get(key, ())
                    i = bisect(group, position(r), key=position)
                    members[key] = group[:i] + (r,) + group[i:]
        sending = built.get("sending")
        if sending is not None:
            for o in old:
                sending.pop(o, None)


def _link(into: dict, o: Outcome, p: str, targets: frozenset[str]) -> None:
    """Put the arcs of party `p` from `o` into `targets` in `into`."""
    for t in targets:
        into.setdefault((t, p), set()).add(o)


def _name_transformers(neg: Negotiation) -> None:
    """Give every outcome its transformer in `neg.transformers`, in outcome
    order (a rule output holds them all)."""
    neg.transformers = {o: neg.transformer(o) for o in neg.outcomes()}


def working_copy(neg: Negotiation) -> Indexed:
    """A private copy of `neg` for a reduction to rewrite in place, with an
    empty log; `neg` is not changed."""
    work = _as_indexed(neg.copy())
    work.log = Log(neg)
    return work


def indexed(neg: Negotiation) -> Indexed:
    """`neg` with the indexes the guards read: itself if it has them, else
    a view that shares its tables and builds only what is read of it."""
    return neg if isinstance(neg, Indexed) else _as_indexed(neg)


def _as_indexed(neg: Negotiation) -> Indexed:
    """An `Indexed` holding `neg`'s tables and what it has computed."""
    view = Indexed.__new__(Indexed)
    view.__dict__.update(neg.__dict__)
    return view
