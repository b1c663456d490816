"""The four syntactic reduction rules on negotiation diagrams (merge,
iteration, useless arc, shortcut), their guards, and reducible-outcome
enumeration.

A rule rewrites a reduction's working diagram in place
(`working.rewrite`, through `model.rewrite`): a private copy of the
reduction's input (`working.working_copy`). The public `apply_*`
functions copy their input and rewrite the copy, so the input keeps its
value; the strategies copy their input once and rewrite that copy at
every step (`merge_step`, `iteration_step`, `useless_arc_step`,
`guarded_shortcut_step`, `shortcut_step`). Rule outputs are valid by
construction and are not re-validated, except for the path condition
that is the useless-arc guard. The site of an application is the set of
outcomes it removes and adds: a rule writes only those, and
`model.rewrite` brings the indexes the diagram has built up to date from
them alone, in the one pass that writes them.

Each application is recorded as its `model.Change` in the log of the
diagram it rewrote (`working.Log`). `RuleApplication.before` and `.after`
rebuild the diagrams on either side by replaying that log from its first
diagram, so a trace holds the changes, not the diagrams.

Guards read the diagram's indexes (`Negotiation.arcs_into`, `arrivals`,
`commitments`, `sends`), which every diagram builds on first use,
instead of scanning the transition table: the shortcut guard, `uniform`,
`uniform_target` and `iteration_applicable` read the outcome's party
counts per target atom (`sends`); the merge guard reads the results of
the outcome's own atom (`merge_partner`). Shortcut targets are sought
only among the outcome's transition targets. The engine checks the
shortcut guard by `shortcut_check`, which reads a `sends` its caller
fetched once and answers a constant (holds, bullet) pair;
`shortcut_guard` wraps that pair in a `GuardReport`. A reduction keeps
R(N) in a `Reducible`, which after each application re-evaluates only
the outcomes whose guards can have changed (`dirty_outcomes`), starting
from the targets of the removed and added outcomes, and keeps R(N) in
one outcome order (`OrderedOutcomes`), so an application costs about the
size of its site, not of the diagram.

Fresh result naming: a merge of r1 and r2 produces "r1+r2", a shortcut of
r with a target result r' produces "r>r'" (with a numeric suffix on
collision). When a shortcut consumes the final atom, the fresh results
keep the final results' own names, so equivalence of summaries can be
checked by final-result name.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import GuardFailed, ValidationError
from .model import (
    AtomSpec,
    Change,
    Negotiation,
    Outcome,
    Sends,
    Targets,
    classify,
    is_acyclic,
    missing_paths,
)
from .transformers import TransformerExpr, concat_expr, star_expr, union_expr
from .working import Log, rewrite, working_copy


@dataclass
class RuleApplication:
    kind: str  # merge | iteration | useless_arc | shortcut | d_shortcut
    site: tuple  # outcomes / arcs consumed
    # what the rule changed: the outcomes it removed and added, and the
    # arcs into and the commitments to each atom it reaches
    change: Change
    # the log the change is recorded in, and its place there
    log: Log
    index: int
    stage: Optional[int] = None  # set by staged strategies
    line: Optional[str] = None  # which strategy branch selected this step

    @property
    def produced(self) -> dict:
        """The fresh results (the outcomes added that were not also
        removed) and the removed atoms, read off `change`."""
        change = self.change
        return {
            "fresh_results": [o for o in change.added if o not in change.removed],
            "removed_atoms": list(self.changed[1:]),
        }

    @property
    def changed(self) -> tuple[str, ...]:
        """The atoms the rule changed: the site atom, then the removed atom
        if any; when the final atom moves, these are the new and the old
        one."""
        n, removed = self.change.spec.id, self.change.removed_atom
        return (n,) if removed is None else (n, removed)

    @property
    def before(self) -> Negotiation:
        """The diagram the rule rewrote, rebuilt from the log."""
        return self.log.diagram(self.index)

    @property
    def after(self) -> Negotiation:
        """The diagram the rule made, rebuilt from the log."""
        return self.log.diagram(self.index + 1)

    def __repr__(self):
        return f"RuleApplication({self.kind}, site={self.site})"


@dataclass
class GuardReport:
    site: tuple
    guard: str
    holds: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Guards
# ---------------------------------------------------------------------------

def unconditionally_enables(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """After `outcome`, the atom `n2` is enabled and stays enabled until it
    occurs: all of n2's parties are parties of the outcome's atom and are
    sent exactly to n2 (`Negotiation.sends`)."""
    return neg.sends(outcome).alone.get(n2, 0) == len(neg.atoms[n2].parties)


def exclusive_access(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """`outcome` owns every arc into n2: it sends each party of n2 to n2,
    and no other arc enters n2 (`Negotiation.arrivals`)."""
    parties = len(neg.atoms[n2].parties)
    return neg.sends(outcome).arcs.get(n2, 0) == parties == neg.arrivals.get(n2, 0)


def commits_to(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """`outcome` sends some party to n2 and nowhere else
    (`Negotiation.sends`)."""
    return n2 in neg.sends(outcome).alone


def another_commits(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """Some outcome other than `outcome` commits to n2
    (`Negotiation.commitments`)."""
    return neg.commitments.get(n2, 0) > commits_to(neg, outcome, n2)


def uniform(neg: Negotiation, outcome: Outcome) -> bool:
    """All parties move to the same target set (final outcomes included)."""
    parties = len(neg.atoms[outcome[0]].parties)
    return all(c == parties for c in neg.sends(outcome).arcs.values())


def uniform_target(neg: Negotiation, outcome: Outcome) -> Optional[str]:
    """The unique atom a uniform non-final outcome moves everyone to."""
    alone = neg.sends(outcome).alone
    if len(alone) != 1:
        return None
    ((t, count),) = alone.items()
    return t if count == len(neg.atoms[outcome[0]].parties) else None


# the shortcut guard's verdicts, (whether it holds, the bullet that decides)
_SAME_ATOM = (False, "target equals the source atom")
_NOT_ENABLED = (False, "does not unconditionally enable")
_EXCLUSIVE = (True, "exclusive access")
_ANOTHER_COMMITS = (True, "another outcome commits")
_NEITHER = (False, "no exclusive access and no other outcome commits to the target")
_FINAL_SHARED = (False, "final target without exclusive access")
_FINAL_NOT_SOLE = (False, "final target but the outcome is not the atom's only result")
_FINAL = (True, "final target, exclusive, sole result")


def shortcut_check(neg: Negotiation, outcome: Outcome, n2: str, sends: Sends) -> tuple[bool, str]:
    """The shortcut rule's guard, as one of the constant verdicts above, so
    a check allocates nothing; `sends` is `neg.sends(outcome)`. Past the
    first bullet the outcome sends every party of n2 to n2 alone, so it has
    exclusive access when no other arc enters n2, and commits to n2
    itself."""
    n = outcome[0]
    if n2 == n:
        return _SAME_ATOM
    parties = len(neg.atoms[n2].parties)
    if sends.alone.get(n2, 0) != parties:  # `unconditionally_enables`
        return _NOT_ENABLED
    excl = neg.arrivals.get(n2, 0) == parties  # `exclusive_access`
    if n2 != neg.final:
        if excl:
            return _EXCLUSIVE
        return _ANOTHER_COMMITS if neg.commitments.get(n2, 0) > 1 else _NEITHER
    if not excl:
        return _FINAL_SHARED
    return _FINAL if len(neg.atoms[n].results) == 1 else _FINAL_NOT_SOLE


def shortcut_guard(neg: Negotiation, outcome: Outcome, n2: str) -> GuardReport:
    """The shortcut rule's guard, with the failing bullet named."""
    holds, detail = shortcut_check(neg, outcome, n2, neg.sends(outcome))
    return GuardReport((outcome, n2), "shortcut", holds, detail)


# ---------------------------------------------------------------------------
# Rule applications
# ---------------------------------------------------------------------------

def _fresh_name(existing, base: str) -> str:
    if base not in existing:
        return base
    i = 2
    while f"{base}_{i}" in existing:
        i += 1
    return f"{base}_{i}"


def _replace(results: tuple[str, ...], r: str, new: tuple[str, ...] = ()) -> tuple:
    """`results` with `r` replaced by `new`, in its place."""
    i = results.index(r)
    return results[:i] + new + results[i + 1 :]


def _known(neg: Negotiation, outcome: Outcome, *atoms: str) -> AtomSpec:
    """The atom of `outcome`; `GuardFailed` names its atom or result, or an
    atom of `atoms`, if `neg` has no such one."""
    n, r = outcome
    for a in (n, *atoms):
        if a not in neg.atoms:
            raise GuardFailed(f"unknown atom {a!r}")
    spec = neg.atoms[n]
    if r not in spec.results:
        raise GuardFailed(f"unknown result {r!r} on atom {n!r}")
    return spec


def _rewritten(
    neg: Negotiation,
    kind: str,
    site: tuple,
    spec: AtomSpec,
    dropped: tuple[str, ...],
    added: dict[str, Targets],
    transformers: dict[str, TransformerExpr],
    removed: Optional[str] = None,
) -> RuleApplication:
    """The application that rewrites the working diagram `neg` in place by
    `working.rewrite` (which see for the arguments), which logs it."""
    change = rewrite(neg, spec, dropped, added, transformers, removed)
    return RuleApplication(
        kind=kind,
        site=site,
        change=change,
        log=neg.log,
        index=len(neg.log.changes) - 1,
    )


def apply_merge(neg: Negotiation, o1: Outcome, o2: Outcome) -> RuleApplication:
    """Merge two results of one atom, on a copy of `neg` (`merge_step`)."""
    return merge_step(working_copy(neg), o1, o2)


def merge_step(neg: Negotiation, o1: Outcome, o2: Outcome) -> RuleApplication:
    """Merge two results of one atom of the working diagram `neg`, in
    place; `GuardFailed` if they do not send every party alike."""
    n1, r1 = o1
    n2, r2 = o2
    if n1 != n2:
        raise GuardFailed("merge needs two results of the same atom")
    if n1 == neg.final:
        raise GuardFailed("merge may not be applied to the final atom")
    if r1 == r2:
        raise GuardFailed("merge needs two distinct results")
    spec = _known(neg, o1)
    _known(neg, o2)
    targets = tuple(neg.targets(n1, p, r1) for p in spec.parties)
    if targets != tuple(neg.targets(n1, p, r2) for p in spec.parties):
        raise GuardFailed("the two results have different transition functions")

    fresh = _fresh_name(set(spec.results), f"{r1}+{r2}")
    return _rewritten(
        neg,
        "merge",
        (o1, o2),
        AtomSpec(n1, spec.parties, _replace(_replace(spec.results, r2), r1, (fresh,))),
        (r1, r2),
        {fresh: targets},
        {fresh: union_expr(neg.transformer(o1), neg.transformer(o2))},
    )


def apply_iteration(neg: Negotiation, outcome: Outcome) -> RuleApplication:
    """Fold a self-loop outcome into the other results of its atom, on a
    copy of `neg` (`iteration_step`)."""
    return iteration_step(working_copy(neg), outcome)


def iteration_step(neg: Negotiation, outcome: Outcome) -> RuleApplication:
    """The iteration rule on the working diagram `neg`, in place."""
    n, r = outcome
    spec = _known(neg, outcome)
    if not iteration_applicable(neg, outcome):
        raise GuardFailed("the outcome is not a self-loop for every party")

    star = star_expr(neg.transformer(outcome))
    new_results = _replace(spec.results, r)
    return _rewritten(
        neg,
        "iteration",
        (outcome,),
        AtomSpec(n, spec.parties, new_results),
        (r,),
        {},
        {r2: concat_expr(star, neg.transformer((n, r2))) for r2 in new_results},
    )


def _useless_witness(neg: Negotiation, arc) -> Optional[tuple[str, str]]:
    """A (q, n1) pair making (n,p,r,n2) useless: q != p is sent only to n1,
    which is also a target of (n,p,r) distinct from n2. The witness must be
    a party of n2, so that n2 genuinely cannot occur before n1 consumes the
    hyperarc token."""
    n, p, r, n2 = arc
    for n1 in neg.targets(n, p, r):
        if n1 == n2:
            continue
        for q in neg.parties(n):
            if (
                q != p
                and q in neg.parties(n2)
                and neg.targets(n, q, r) == frozenset([n1])
            ):
                return (q, n1)
    return None


def is_useless_arc(neg: Negotiation, arc, acyclic: Optional[bool] = None) -> bool:
    """Full guard of the useless-arc rule: the witness pattern, plus the
    requirement that the removal leaves a negotiation. Under acyclicity
    the removal check reduces to the arc not being the only arc into the
    target."""
    n, p, r, n2 = arc
    if (n, p, r) not in neg.transition or n2 not in neg.targets(n, p, r):
        return False
    if _useless_witness(neg, arc) is None:
        return False
    if acyclic is None:
        acyclic = is_acyclic(neg)
    if acyclic:
        return neg.arrivals[n2] > 1  # some other arc enters n2
    return not _stranded_without(neg, arc)


def _stranded_without(neg: Negotiation, arc) -> list[str]:
    """Condition (3) on the diagram without the arc: one violation per
    atom then on no path from the initial to the final atom. That check is
    the useless-arc guard on cyclic diagrams."""
    n, p, r, n2 = arc
    transition = neg.transition.copy()
    transition[(n, p, r)] = transition[(n, p, r)] - {n2}
    return missing_paths(neg.atoms, neg.initial, neg.final, transition)


def apply_useless_arc(neg: Negotiation, arc) -> RuleApplication:
    """Remove a useless arc, on a copy of `neg` (`useless_arc_step`)."""
    return useless_arc_step(working_copy(neg), arc)


def useless_arc_step(neg: Negotiation, arc) -> RuleApplication:
    """The useless-arc rule on the working diagram `neg`, in place."""
    n, p, r, n2 = arc
    if (n, p, r) not in neg.transition or n2 not in neg.targets(n, p, r):
        raise GuardFailed(f"no such arc: {arc}")
    if _useless_witness(neg, arc) is None:
        raise GuardFailed(f"arc {arc} does not match the useless-arc pattern")
    stranded = _stranded_without(neg, arc)
    if stranded:
        raise GuardFailed(
            f"WouldBreakPathCondition: removing {arc} leaves an invalid diagram: "
            f"{ValidationError(stranded)}"
        )
    spec = neg.atoms[n]
    targets = tuple(
        neg.targets(n, q, r) - {n2} if q == p else neg.targets(n, q, r)
        for q in spec.parties
    )
    return _rewritten(
        neg,
        "useless_arc",
        (arc,),
        spec,
        (r,),
        {r: targets},
        {r: neg.transformer((n, r))},
    )


def apply_shortcut(neg: Negotiation, outcome: Outcome, n2: str) -> RuleApplication:
    """Shortcut `outcome` with the atom `n2`, on a copy of `neg`
    (`guarded_shortcut_step`)."""
    return guarded_shortcut_step(working_copy(neg), outcome, n2, "shortcut")


def guarded_shortcut_step(
    neg: Negotiation, outcome: Outcome, n2: str, kind: str
) -> RuleApplication:
    """The shortcut rule of `kind` ("shortcut" or "d_shortcut") on the
    working diagram `neg`, in place, after its guard; `GuardFailed` names
    the failing bullet."""
    _known(neg, outcome, n2)
    report = shortcut_guard(neg, outcome, n2)
    if not report.holds:
        raise GuardFailed(f"shortcut guard failed at {report.site}: {report.detail}")
    if kind == "d_shortcut" and n2 != neg.final and len(neg.results(n2)) > 1:
        # multi-result targets blow up the result count mid-reduction; the
        # terminal collapse into the final atom cannot cascade, so it stays
        # d-eligible whatever the number of final results
        raise GuardFailed(
            f"d-shortcut requires the target to have at most one result; "
            f"{n2!r} has {len(neg.results(n2))}"
        )
    return shortcut_step(neg, outcome, n2, kind)


def shortcut_step(neg: Negotiation, outcome: Outcome, n2: str, kind: str) -> RuleApplication:
    """The shortcut of the working diagram `neg`, in place, whose guard the
    caller has established (`guarded_shortcut_step` checks it first; the
    strategies check it while they select the step). `kind` is "shortcut"
    or "d_shortcut"."""
    n, r = outcome
    excl = exclusive_access(neg, outcome, n2)
    removing_final = n2 == neg.final  # guard already forces exclusivity here
    # the initial atom keeps its entry role: it still fires at the start,
    # so exclusivity never makes it dead and it must stay
    removable = excl and n2 != neg.initial

    spec = neg.atoms[n]
    existing = set(spec.results) - {r}
    fresh_map: dict[str, str] = {}
    for r2 in neg.results(n2):
        base = r2 if removing_final else f"{r}>{r2}"
        fresh = _fresh_name(existing, base)
        existing.add(fresh)
        fresh_map[r2] = fresh

    inner = set(neg.parties(n2))
    transition = neg.transition
    added = {
        fresh: tuple([
            transition[(n2, p, r2) if p in inner else (n, p, r)] for p in spec.parties
        ])
        for r2, fresh in fresh_map.items()
    }
    transformers = {
        fresh: concat_expr(neg.transformer(outcome), neg.transformer((n2, r2)))
        for r2, fresh in fresh_map.items()
    }
    return _rewritten(
        neg,
        kind,
        (outcome, n2),
        AtomSpec(n, spec.parties, _replace(spec.results, r, tuple(fresh_map.values()))),
        (r,),
        added,
        transformers,
        removed=n2 if removable else None,
    )


def apply_d_shortcut(neg: Negotiation, outcome: Outcome, n2: str) -> RuleApplication:
    return guarded_shortcut_step(working_copy(neg), outcome, n2, "d_shortcut")


# ---------------------------------------------------------------------------
# Reducible outcomes
# ---------------------------------------------------------------------------

def merge_partner(neg: Negotiation, outcome: Outcome) -> Optional[str]:
    """The first other result of the outcome's atom, in declaration order,
    that sends every party where the outcome does: the one it merges with.
    A result is compared in full only if it sends the first party there."""
    n, r = outcome
    if n == neg.final:
        return None
    spec, transition = neg.atoms[n], neg.transition
    parties = spec.parties
    first = parties[0]
    there = transition[(n, first, r)]
    for r2 in spec.results:
        if (
            r2 != r
            and transition[(n, first, r2)] == there
            and [transition[(n, p, r2)] for p in parties]
            == [transition[(n, p, r)] for p in parties]
        ):
            return r2
    return None


def iteration_applicable(neg: Negotiation, outcome: Outcome) -> bool:
    """The outcome sends every party back to its own atom alone."""
    n = outcome[0]
    return neg.sends(outcome).alone.get(n, 0) == len(neg.atoms[n].parties)


def shortcut_candidates(neg: Negotiation, outcome: Outcome) -> tuple[str, ...]:
    """The atoms the shortcut guard can hold for, in declaration order.

    The guard needs the outcome to send every party of the target to the
    target alone, so the target is a transition target of the outcome,
    other than its own atom."""
    return neg.sends(outcome).others


def d_shortcut_candidates(neg: Negotiation, outcome: Outcome) -> list[str]:
    """The atoms the d-shortcut guard can hold for, in declaration order:
    the shortcut candidates that are the final atom or have at most one
    result. Filtered afresh on every call, so it follows the atoms'
    results as they change."""
    atoms, final = neg.atoms, neg.final
    return [
        t for t in neg.sends(outcome).others
        if t == final or len(atoms[t].results) <= 1
    ]


def useless_arcs_at(neg: Negotiation, outcome: Outcome, acyclic: Optional[bool] = None):
    n, r = outcome
    arcs = []
    for p in neg.parties(n):
        for n2 in sorted(neg.targets(n, p, r), key=neg.atom_index):
            arc = (n, p, r, n2)
            if is_useless_arc(neg, arc, acyclic=acyclic):
                arcs.append(arc)
    return arcs


def _reducible_unmerged(neg: Negotiation, outcome: Outcome, acyclic: bool, forks: bool) -> bool:
    """Whether iteration, shortcut or useless arc puts the outcome in R(N);
    `acyclic` is whether the diagram is, which the useless-arc guard reads,
    and `forks` whether it has a fork, without which that guard never
    holds: its witness is a second target."""
    n, r = outcome
    sends = neg.sends(outcome)
    return (
        sends.alone.get(n, 0) == len(neg.atoms[n].parties)  # `iteration_applicable`
        or any(shortcut_check(neg, outcome, n2, sends)[0] for n2 in sends.others)
        or forks and any(
            is_useless_arc(neg, (n, p, r, n2), acyclic=acyclic)
            for p in neg.parties(n)
            for n2 in neg.targets(n, p, r)
        )
    )


def reducible_outcomes(neg: Negotiation) -> set[Outcome]:
    """R(N), evaluated on every outcome (`Reducible`), on any diagram."""
    return set(Reducible(neg, is_acyclic(neg)).outcomes)


def _arrivals(neg: Negotiation, t: str, arcs: int = 0, commits: int = 0) -> tuple:
    """What the guards of an outcome with an arc into `t` read of the other
    arcs into `t`: whether they are one per party of `t` (exclusive access,
    for an outcome that sends every party of `t` there), whether two or
    more enter `t` (the useless-arc guard on acyclic diagrams), and whether
    two or more outcomes commit to `t` (another outcome commits, asked of
    an outcome that sends every party of `t` there alone, so commits to it
    itself). `arcs` and `commits` are added to the numbers of arcs into
    `t` and of outcomes committing to it, to read them as they were before
    an application."""
    count = neg.arrivals.get(t, 0) + arcs
    committed = neg.commitments.get(t, 0) + commits
    return count == len(neg.parties(t)), count > 1, committed > 1


def dirty_outcomes(neg: Negotiation, change: Change) -> set[Outcome]:
    """The outcomes of `neg`, just rewritten by `change`, whose membership
    in R(N) the change can have altered: the added outcomes; the kept
    results of the site atom that share target sets with a removed or
    added result, or that become or stop being its only result; and, at
    each atom that a removed or added outcome targets, the outcomes with
    an arc into it whose guards read something of its incoming arcs that
    changed (`_arrivals`), or all of them if it is the new final atom.

    Every other outcome keeps its own transitions, its merge partners,
    whether it is its atom's only result, and what the guards read of the
    arcs into its targets, which is all `Reducible` reads of it, except for
    the useless-arc guard on a cyclic diagram with a fork.
    `_arrivals` is compared only at an atom that gains or loses arcs, or
    outcomes committing to it (`Change` leaves out the atoms where they
    balance). What the diagram was before comes from the change: the site
    atom's old results and the old final atom."""
    n = change.spec.id
    dirty = set(change.added)
    if n != neg.final:
        shared = {targets for (a, _r), targets in change.removed.items() if a == n}
        shared.update(change.added.values())
        parties, transition = change.spec.parties, neg.transition
        for m in change.spec.results:
            o = (n, m)
            if o not in dirty and tuple([transition[(n, p, m)] for p in parties]) in shared:
                dirty.add(o)
    now = neg.results(n)
    for results in (change.old_specs[0].results, now):
        if len(results) == 1 and results[0] in now:
            dirty.add((n, results[0]))
    moved = neg.final if neg.final != change.final else None
    arcs, commits = change.arrivals, change.commitments
    for t in arcs.keys() | commits.keys():
        if t == moved or t not in neg.atoms:
            continue
        one_each, *rest = _arrivals(neg, t)
        then_one_each, *then_rest = _arrivals(neg, t, -arcs.get(t, 0), -commits.get(t, 0))
        if rest != then_rest:  # matters to outcomes with an arc into any port
            for q in neg.parties(t):
                dirty.update(neg.arcs_into.get((t, q), ()))
        elif one_each != then_one_each:
            # matters to an outcome sending every party of t there, which
            # has an arc into each of its ports
            dirty.update(neg.arcs_into.get((t, neg.parties(t)[0]), ()))
    if moved is not None:
        for q in neg.parties(moved):
            dirty.update(neg.arcs_into.get((moved, q), ()))
    return dirty


class OrderedOutcomes:
    """A set of outcomes of a reduction's working diagram that also keeps
    them in outcome order (by atom, then by result, each in declaration
    order), also bucketed by the party count of their atom. It changes
    only through `add` and `discard`, which keep both orders.

    Rules only remove atoms, and put the results they add where the
    results they remove were, so outcome order never moves a member: an
    added member finds its place among its atom's members by bisection.
    Atoms keep their rank (`atom_index`) while the diagram is rewritten,
    removed ones included. `neg` is the working diagram; an outcome is
    added while its atom is in it, and may be discarded after its atom is
    gone, so each member atom's party count is kept here."""

    def __init__(self, neg: Negotiation):
        self.neg = neg
        self.rank = neg.atom_index
        self._set: set[Outcome] = set()
        self._members: dict[str, list[str]] = {}  # atom -> results, in order
        self._order: list[str] = []  # the atoms, in order
        self._atoms: dict[int, list[str]] = {}  # party count -> atoms, in order
        self._parties: dict[str, int] = {}  # atom -> its party count

    def __contains__(self, outcome: Outcome) -> bool:
        return outcome in self._set

    def __len__(self) -> int:
        return len(self._set)

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self._set)

    def __eq__(self, other) -> bool:
        if isinstance(other, OrderedOutcomes):
            other = other._set
        return self._set == other

    def add(self, outcome: Outcome) -> None:
        if outcome in self._set:
            return
        self._set.add(outcome)
        a, r = outcome
        members = self._members.get(a)
        if members is None:
            self._members[a] = [r]
            k = self._parties[a] = len(self.neg.parties(a))
            insort(self._order, a, key=self.rank)
            insort(self._atoms.setdefault(k, []), a, key=self.rank)
        else:
            insort(members, r, key=self.neg.results(a).index)

    def discard(self, outcome: Outcome) -> None:
        if outcome not in self._set:
            return
        self._set.discard(outcome)
        a, r = outcome
        members = self._members[a]
        members.remove(r)
        if not members:
            del self._members[a]
            k = self._parties.pop(a)
            rank, bucket = self.rank(a), self._atoms[k]
            del self._order[bisect_left(self._order, rank, key=self.rank)]
            del bucket[bisect_left(bucket, rank, key=self.rank)]
            if not bucket:
                del self._atoms[k]

    def in_order(self, parties: Optional[int] = None) -> Iterator[Outcome]:
        """The members in outcome order; only those whose atom has
        `parties` parties, if given."""
        atoms = self._order if parties is None else self._atoms.get(parties, ())
        for a in atoms:
            for r in self._members[a]:
                yield a, r

    def has(self, parties: int) -> bool:
        """Whether some member's atom has `parties` parties."""
        return parties in self._atoms

    def lowest(self) -> Optional[int]:
        """The fewest parties of a member's atom; None when empty."""
        return min(self._atoms, default=None)


class Reducible:
    """R(N) of a reduction's working diagram `neg`, kept up to date across
    its rule applications: every outcome is evaluated once on the input,
    then only `dirty_outcomes` after each application. `outcomes` holds
    R(N) and `mergeable` the outcomes with a merge partner, which are in
    R(N) too, each in outcome order (`OrderedOutcomes`). Whether an
    outcome has a merge partner depends on its atom alone, so the dirty
    outcomes cover `mergeable` as well.

    `acyclic` is whether the input is, as classified. On a cyclic diagram
    the useless-arc guard checks the path condition on the whole diagram,
    so any application can change it at any outcome with a fork (a party
    sent to two or more atoms). So R(N) is kept up to date only on an
    input that is acyclic or has no fork, which stays so: rules never make
    an acyclic diagram cyclic (`preserves_class`), and a diagram without
    forks never gets one, because every target set a rule creates is
    copied or cut from an existing one. So on an input without forks
    (`forks` false) the useless-arc guard, whose witness is a second
    target, is never evaluated. The strategies keep R(N) on
    acyclic and on deterministic diagrams, which have no fork: the classes
    the rules are complete for. On a cyclic input with a fork, `advance`
    raises `ValueError`.
    """

    def __init__(self, neg: Negotiation, acyclic: bool):
        self.neg = neg
        self.acyclic = acyclic
        self.forks = any(len(ts) > 1 for ts in neg.transition.values())
        self.outcomes = OrderedOutcomes(neg)
        self.mergeable = OrderedOutcomes(neg)
        for o in neg.outcomes():  # in outcome order, so each add appends
            self._evaluate(o)
        self.evaluated = neg.num_outcomes()  # outcomes whose reducibility was computed

    def _evaluate(self, o: Outcome) -> None:
        neg = self.neg
        mergeable = merge_partner(neg, o) is not None
        reducible = mergeable or _reducible_unmerged(neg, o, self.acyclic, self.forks)
        (self.outcomes.add if reducible else self.outcomes.discard)(o)
        (self.mergeable.add if mergeable else self.mergeable.discard)(o)

    def advance(self, app: RuleApplication) -> None:
        """Follow `app`, which has just rewritten the working diagram."""
        if self.forks and not self.acyclic:
            raise ValueError("R(N) is not kept up to date on a cyclic diagram with a fork")
        change = app.change
        for o in change.removed:
            self.outcomes.discard(o)
            self.mergeable.discard(o)
        dirty = dirty_outcomes(self.neg, change)
        for o in dirty:
            self._evaluate(o)
        self.evaluated += len(dirty)


def preserves_class(app: RuleApplication) -> bool:
    """Rules preserve (weak) determinism and acyclicity."""
    before, after = classify(app.before), classify(app.after)
    if before.deterministic and not after.deterministic:
        return False
    if before.weakly_deterministic and not after.weakly_deterministic:
        return False
    if before.acyclic and not after.acyclic:
        return False
    return True
