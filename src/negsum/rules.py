"""The four syntactic reduction rules on negotiation diagrams (merge,
iteration, useless arc, shortcut), their guards, and reducible-outcome
enumeration.

Every application returns a fresh Negotiation built by `model.rewrite`;
inputs are never mutated, so traces can hold on to all intermediate
diagrams. Rule outputs are valid by construction and are not
re-validated, except for the path condition that is the useless-arc
guard. Each output carries its input's indexes forward, with only the
changed atoms' entries replaced, and records those atoms in
`RuleApplication.changed`.

Guards read the diagram's indexes (`Negotiation.arcs_into`,
`Negotiation.committed_by`, `Negotiation.merge_group`) instead of
scanning the transition table, and shortcut targets are sought only
among the outcome's transition targets. A reduction keeps R(N) in a
`Reducible`, which after each application re-evaluates only the outcomes
whose guards can have changed (`dirty_outcomes`), so an application
costs about the size of its site, not of the diagram.

Fresh result naming: a merge of r1 and r2 produces "r1+r2", a shortcut of
r with a target result r' produces "r>r'" (with a numeric suffix on
collision). When a shortcut consumes the final atom, the fresh results
keep the final results' own names, so equivalence of summaries can be
checked by final-result name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import GuardFailed, ValidationError
from .model import (
    AtomSpec,
    Negotiation,
    Outcome,
    classify,
    is_acyclic,
    missing_paths,
    rewrite,
)
from .transformers import concat_expr, star_expr, union_expr


@dataclass
class RuleApplication:
    kind: str  # merge | iteration | useless_arc | shortcut | d_shortcut
    site: tuple  # outcomes / arcs consumed
    produced: dict  # fresh results, removed atoms/results
    before: Negotiation
    after: Negotiation
    # the atoms the rule changed: the site atom, then the removed atom if
    # any; when the final atom moves, these are the new and the old one
    changed: tuple[str, ...]
    stage: Optional[int] = None  # set by staged strategies
    line: Optional[str] = None  # which strategy branch selected this step

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
    sent exactly to n2."""
    n, r = outcome
    parties_n2 = neg.parties(n2)
    if not set(parties_n2) <= set(neg.parties(n)):
        return False
    return all(neg.targets(n, p, r) == frozenset([n2]) for p in parties_n2)


def exclusive_access(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """`outcome` owns every arc into n2: each party port of n2 is fed by
    this outcome and by no other."""
    only = (outcome,)
    return all(neg.arcs_into.get((n2, p)) == only for p in neg.parties(n2))


def commits_to(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    n, r = outcome
    return any(
        neg.targets(n, p, r) == frozenset([n2]) for p in neg.parties(n)
    )


def another_commits(neg: Negotiation, outcome: Outcome, n2: str) -> bool:
    """Some outcome other than `outcome` commits to n2."""
    return bool(neg.committed_by.get(n2, frozenset()) - {outcome})


def uniform(neg: Negotiation, outcome: Outcome) -> bool:
    """All parties move to the same target set (final outcomes included)."""
    n, r = outcome
    targets = [neg.targets(n, p, r) for p in neg.parties(n)]
    return all(t == targets[0] for t in targets)


def uniform_target(neg: Negotiation, outcome: Outcome) -> Optional[str]:
    """The unique atom a uniform non-final outcome moves everyone to."""
    n, r = outcome
    targets = {neg.targets(n, p, r) for p in neg.parties(n)}
    if len(targets) != 1:
        return None
    only = next(iter(targets))
    if len(only) != 1:
        return None
    return next(iter(only))


def shortcut_guard(neg: Negotiation, outcome: Outcome, n2: str) -> GuardReport:
    """The shortcut rule's guard, with the failing bullet named."""
    n, r = outcome
    site = (outcome, n2)
    if n2 == n:
        return GuardReport(site, "shortcut", False, "target equals the source atom")
    if not unconditionally_enables(neg, outcome, n2):
        return GuardReport(site, "shortcut", False, "does not unconditionally enable")
    excl = exclusive_access(neg, outcome, n2)
    if n2 != neg.final:
        if excl:
            return GuardReport(site, "shortcut", True, "exclusive access")
        if another_commits(neg, outcome, n2):
            return GuardReport(site, "shortcut", True, "another outcome commits")
        return GuardReport(
            site, "shortcut", False,
            "no exclusive access and no other outcome commits to the target",
        )
    if not excl:
        return GuardReport(
            site, "shortcut", False, "final target without exclusive access"
        )
    if len(neg.results(n)) != 1:
        return GuardReport(
            site, "shortcut", False,
            "final target but the outcome is not the atom's only result",
        )
    return GuardReport(site, "shortcut", True, "final target, exclusive, sole result")


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


def apply_merge(neg: Negotiation, o1: Outcome, o2: Outcome) -> RuleApplication:
    n1, r1 = o1
    n2, r2 = o2
    if n1 != n2:
        raise GuardFailed("merge needs two results of the same atom")
    if n1 == neg.final:
        raise GuardFailed("merge may not be applied to the final atom")
    if r1 == r2:
        raise GuardFailed("merge needs two distinct results")
    spec = neg.atoms[n1]
    if r1 not in spec.results or r2 not in spec.results:
        raise GuardFailed(f"unknown result on atom {n1!r}")
    if any(
        neg.targets(n1, p, r1) != neg.targets(n1, p, r2) for p in spec.parties
    ):
        raise GuardFailed("the two results have different transition functions")

    fresh = _fresh_name(set(spec.results), f"{r1}+{r2}")
    renamed = {r: fresh if r == r1 else r for r in spec.results if r != r2}
    targets = {
        (p, new): neg.targets(n1, p, r) for r, new in renamed.items() for p in spec.parties
    }
    after = rewrite(
        neg,
        AtomSpec(n1, spec.parties, tuple(renamed.values())),
        targets,
        {fresh: union_expr(neg.transformer(o1), neg.transformer(o2))},
    )
    return RuleApplication(
        kind="merge",
        site=(o1, o2),
        produced={"fresh_results": [(n1, fresh)], "removed_atoms": []},
        before=neg,
        after=after,
        changed=(n1,),
    )


def apply_iteration(neg: Negotiation, outcome: Outcome) -> RuleApplication:
    n, r = outcome
    spec = neg.atoms[n]
    if r not in spec.results:
        raise GuardFailed(f"unknown result on atom {n!r}")
    if any(neg.targets(n, p, r) != frozenset([n]) for p in spec.parties):
        raise GuardFailed("the outcome is not a self-loop for every party")

    star = star_expr(neg.transformer(outcome))
    new_results = tuple(x for x in spec.results if x != r)
    after = rewrite(
        neg,
        AtomSpec(n, spec.parties, new_results),
        {(p, r2): neg.targets(n, p, r2) for r2 in new_results for p in spec.parties},
        {r2: concat_expr(star, neg.transformer((n, r2))) for r2 in new_results},
    )
    return RuleApplication(
        kind="iteration",
        site=(outcome,),
        produced={"fresh_results": [], "removed_atoms": []},
        before=neg,
        after=after,
        changed=(n,),
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
        # some other arc enters n2
        into = (len(neg.arcs_into.get((n2, q), ())) for q in neg.parties(n2))
        return sum(into) > 1
    try:
        _remove_arc(neg, arc)
    except ValidationError:
        return False
    return True


def _remove_arc(neg: Negotiation, arc) -> Negotiation:
    """The diagram without the arc. Raises ValidationError when some atom
    is then on no path from the initial to the final atom (condition
    (3)): that check is the useless-arc guard on cyclic diagrams."""
    n, p, r, n2 = arc
    spec = neg.atoms[n]
    targets = {(q, x): neg.targets(n, q, x) for x in spec.results for q in spec.parties}
    targets[(p, r)] = targets[(p, r)] - {n2}
    after = rewrite(neg, spec, targets, {})
    stranded = missing_paths(after.atoms, after.initial, after.final, after.transition)
    if stranded:
        raise ValidationError(stranded)
    return after


def apply_useless_arc(neg: Negotiation, arc) -> RuleApplication:
    n, p, r, n2 = arc
    if (n, p, r) not in neg.transition or n2 not in neg.targets(n, p, r):
        raise GuardFailed(f"no such arc: {arc}")
    if _useless_witness(neg, arc) is None:
        raise GuardFailed(f"arc {arc} does not match the useless-arc pattern")
    try:
        after = _remove_arc(neg, arc)
    except ValidationError as e:
        raise GuardFailed(
            f"WouldBreakPathCondition: removing {arc} leaves an invalid diagram: {e}"
        ) from None
    return RuleApplication(
        kind="useless_arc",
        site=(arc,),
        produced={"fresh_results": [], "removed_atoms": []},
        before=neg,
        after=after,
        changed=(n,),
    )


def apply_shortcut(
    neg: Negotiation, outcome: Outcome, n2: str, d_restricted: bool = False
) -> RuleApplication:
    n, r = outcome
    report = shortcut_guard(neg, outcome, n2)
    if not report.holds:
        raise GuardFailed(f"shortcut guard failed at {report.site}: {report.detail}")
    if d_restricted and n2 != neg.final and len(neg.results(n2)) > 1:
        # multi-result targets blow up the result count mid-reduction; the
        # terminal collapse into the final atom cannot cascade, so it stays
        # d-eligible whatever the number of final results
        raise GuardFailed(
            f"d-shortcut requires the target to have at most one result; "
            f"{n2!r} has {len(neg.results(n2))}"
        )
    excl = exclusive_access(neg, outcome, n2)
    removing_final = n2 == neg.final  # guard already forces exclusivity here
    # the initial atom keeps its entry role: it still fires at the start,
    # so exclusivity never makes it dead and it must stay
    removable = excl and n2 != neg.initial

    spec = neg.atoms[n]
    existing = set(spec.results)
    fresh_map: dict[str, str] = {}
    for r2 in neg.results(n2):
        base = r2 if removing_final else f"{r}>{r2}"
        fresh = _fresh_name(existing, base)
        existing.add(fresh)
        fresh_map[r2] = fresh

    pos = spec.results.index(r)
    results = spec.results[:pos] + tuple(fresh_map.values()) + spec.results[pos + 1 :]
    kept = [x for x in spec.results if x != r]
    targets = {(p, x): neg.targets(n, p, x) for x in kept for p in spec.parties}
    transformers = {}
    inner = set(neg.parties(n2))
    for r2, fresh in fresh_map.items():
        for p in spec.parties:
            source = (n2, p, r2) if p in inner else (n, p, r)
            targets[(p, fresh)] = neg.targets(*source)
        transformers[fresh] = concat_expr(
            neg.transformer(outcome), neg.transformer((n2, r2))
        )

    removed = [n2] if removable else []
    after = rewrite(
        neg,
        AtomSpec(n, spec.parties, results),
        targets,
        transformers,
        removed=n2 if removable else None,
    )
    return RuleApplication(
        kind="d_shortcut" if d_restricted else "shortcut",
        site=(outcome, n2),
        produced={
            "fresh_results": [(n, f) for f in fresh_map.values()],
            "removed_atoms": removed,
        },
        before=neg,
        after=after,
        changed=(n, *removed),
    )


def apply_d_shortcut(neg: Negotiation, outcome: Outcome, n2: str) -> RuleApplication:
    return apply_shortcut(neg, outcome, n2, d_restricted=True)


# ---------------------------------------------------------------------------
# Reducible outcomes
# ---------------------------------------------------------------------------

def merge_partner(neg: Negotiation, outcome: Outcome) -> Optional[str]:
    """The first result (declaration order) mergeable with the outcome."""
    n, r = outcome
    if n == neg.final:
        return None
    group = neg.merge_group(n, r)
    if len(group) == 1:
        return None
    return group[1] if group[0] == r else group[0]


def iteration_applicable(neg: Negotiation, outcome: Outcome) -> bool:
    n, r = outcome
    return all(neg.targets(n, p, r) == frozenset([n]) for p in neg.parties(n))


def shortcut_candidates(neg: Negotiation, outcome: Outcome) -> list[str]:
    """The atoms the shortcut guard can hold for, in declaration order.

    The guard needs the outcome to send every party of the target to the
    target alone, so the target is a transition target of the outcome."""
    n, r = outcome
    found = set()
    for p in neg.parties(n):
        found |= neg.targets(n, p, r)
    found.discard(n)
    return sorted(found, key=neg.atom_index)


def shortcut_targets(neg: Negotiation, outcome: Outcome) -> list[str]:
    """Atoms the outcome may be shortcut with, in declaration order."""
    return [
        n2
        for n2 in shortcut_candidates(neg, outcome)
        if shortcut_guard(neg, outcome, n2).holds
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


def is_reducible(neg: Negotiation, outcome: Outcome, acyclic: bool) -> bool:
    """Whether the outcome is in R(N): it admits the iteration or shortcut
    rule, has a merge partner, or has a useless arc. `acyclic` is whether
    the diagram is, which the useless-arc guard reads."""
    n, r = outcome
    return (
        iteration_applicable(neg, outcome)
        or merge_partner(neg, outcome) is not None
        or any(
            shortcut_guard(neg, outcome, n2).holds
            for n2 in shortcut_candidates(neg, outcome)
        )
        or any(
            is_useless_arc(neg, (n, p, r, n2), acyclic=acyclic)
            for p in neg.parties(n)
            for n2 in neg.targets(n, p, r)
        )
    )


def reducible_outcomes(neg: Negotiation) -> set[Outcome]:
    """R(N), evaluated on every outcome."""
    acyclic = is_acyclic(neg)
    return {o for o in neg.outcomes() if is_reducible(neg, o, acyclic)}


def _arrivals(neg: Negotiation, t: str) -> tuple:
    """What the guards of an outcome with an arc into `t` read of the
    other arcs into `t`: the outcome that owns every arc into it, if any
    (exclusive access); the outcomes that commit to it, when there are
    fewer than two (another outcome commits); and whether two or more
    arcs enter it (the useless-arc guard on acyclic diagrams)."""
    into = [neg.arcs_into.get((t, q), ()) for q in neg.parties(t)]
    first = into[0]
    owner = first[0] if len(first) == 1 and all(x == first for x in into) else None
    committed = neg.committed_by.get(t, frozenset())
    return owner, committed if len(committed) < 2 else None, sum(map(len, into)) > 1


def dirty_outcomes(app: RuleApplication) -> set[Outcome]:
    """The outcomes of `app.after` whose membership in R(N) the application
    can have changed: those of the changed atoms, and every outcome with an
    arc into an atom that a changed atom targets before or after the rule,
    if what the guards read of that atom's incoming arcs (`_arrivals`)
    changed, or if it is the new final atom.

    Every other outcome keeps its own transitions and results, and what
    the guards read of the arcs into its targets, which is all
    `is_reducible` reads of it, except for the useless-arc guard on a
    cyclic diagram (see `Reducible`). It reads `before`'s arc indexes,
    so a reduction calls it before it frees them."""
    before, after = app.before, app.after
    dirty: set[Outcome] = set()
    hit: set[str] = set()
    for a in app.changed:
        for neg in (before, after):
            if a in neg.atoms:
                for r in neg.results(a):
                    for p in neg.parties(a):
                        hit |= neg.targets(a, p, r)
        if a in after.atoms:
            dirty.update((a, r) for r in after.results(a))
    moved = {after.final} - {before.final}
    for t in hit | moved:
        if t not in after.atoms:
            continue
        if t in moved or _arrivals(before, t) != _arrivals(after, t):
            for q in after.parties(t):
                dirty.update(after.arcs_into.get((t, q), ()))
    return dirty


class Reducible:
    """R(N) of the current diagram of a reduction, kept up to date across
    its rule applications: computed in full on the input, then re-evaluated
    on `dirty_outcomes` after each application.

    On a cyclic diagram the useless-arc guard checks the path condition on
    the whole diagram, so any application can change it. That guard holds
    only at an outcome with a fork (a party sent to two or more atoms), so
    while the diagram is cyclic every such outcome is re-evaluated too.
    Acyclicity is read by that guard alone, so `acyclic` is recomputed
    only while the diagram is cyclic and has a fork. Rules never make an
    acyclic diagram cyclic (`preserves_class`), and a diagram without
    forks never gets one, because every target set a rule creates is
    copied or cut from an existing one.
    """

    def __init__(self, neg: Negotiation):
        self.neg = neg
        self.outcomes = reducible_outcomes(neg)
        self.acyclic = is_acyclic(neg)
        self.forks = {
            (a, r) for (a, _p, r), ts in neg.transition.items() if len(ts) > 1
        }
        self.evaluated = neg.num_outcomes()  # outcomes whose reducibility was computed

    def advance(self, app: RuleApplication) -> None:
        """Move to `app.after`, which must follow the current diagram."""
        before, after = app.before, app.after
        for a in app.changed:
            for r in before.results(a):
                self.outcomes.discard((a, r))
                self.forks.discard((a, r))
        dirty = dirty_outcomes(app)
        for a in app.changed:
            if a in after.atoms:
                for r in after.results(a):
                    if any(len(after.targets(a, p, r)) > 1 for p in after.parties(a)):
                        self.forks.add((a, r))
        if not self.acyclic and self.forks:
            self.acyclic = is_acyclic(after)
            dirty |= self.forks
        for o in dirty:
            if is_reducible(after, o, self.acyclic):
                self.outcomes.add(o)
            else:
                self.outcomes.discard(o)
        self.evaluated += len(dirty)
        self.neg = after


def reducible_outcomes_k(neg: Negotiation, k: int) -> set[Outcome]:
    return {o for o in reducible_outcomes(neg) if len(neg.parties(o[0])) == k}


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
