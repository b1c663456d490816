"""The four syntactic reduction rules on negotiation diagrams (merge,
iteration, useless arc, shortcut), their guards, and reducible-outcome
enumeration.

Every application returns a fresh, re-validated Negotiation; inputs are
never mutated, so traces can hold on to all intermediate diagrams.

Guards read the diagram's arc indexes (`Negotiation.arcs_into`,
`Negotiation.committed_by`) instead of scanning the transition table, and
shortcut targets are sought only among the outcome's transition targets,
so evaluating R(N) costs about the number of arcs.

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
from .model import Negotiation, Outcome, classify, edit, is_acyclic
from .transformers import concat_expr, star_expr, union_expr


@dataclass
class RuleApplication:
    kind: str  # merge | iteration | useless_arc | shortcut | d_shortcut
    site: tuple  # outcomes / arcs consumed
    produced: dict  # fresh results, removed atoms/results
    before: Negotiation
    after: Negotiation
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

    e = edit(neg)
    fresh = _fresh_name(set(spec.results), f"{r1}+{r2}")
    e.set_results(n1, tuple(fresh if r == r1 else r for r in spec.results if r != r2))
    for p in spec.parties:
        e.transition[(n1, p, fresh)] = e.transition.pop((n1, p, r1))
        del e.transition[(n1, p, r2)]
    e.transformers[(n1, fresh)] = union_expr(neg.transformer(o1), neg.transformer(o2))
    after = e.done()
    return RuleApplication(
        kind="merge",
        site=(o1, o2),
        produced={"fresh_results": [(n1, fresh)], "removed_atoms": []},
        before=neg,
        after=after,
    )


def apply_iteration(neg: Negotiation, outcome: Outcome) -> RuleApplication:
    n, r = outcome
    spec = neg.atoms[n]
    if r not in spec.results:
        raise GuardFailed(f"unknown result on atom {n!r}")
    if any(neg.targets(n, p, r) != frozenset([n]) for p in spec.parties):
        raise GuardFailed("the outcome is not a self-loop for every party")

    e = edit(neg)
    star = star_expr(neg.transformer(outcome))
    new_results = tuple(x for x in spec.results if x != r)
    e.set_results(n, new_results)
    for p in spec.parties:
        del e.transition[(n, p, r)]
    for r2 in new_results:
        e.transformers[(n, r2)] = concat_expr(star, neg.transformer((n, r2)))
    after = e.done()
    return RuleApplication(
        kind="iteration",
        site=(outcome,),
        produced={"fresh_results": [], "removed_atoms": []},
        before=neg,
        after=after,
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
    n, p, r, n2 = arc
    e = edit(neg)
    e.transition[(n, p, r)].discard(n2)
    return e.done()


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

    e = edit(neg)
    spec = neg.atoms[n]
    existing = set(spec.results)
    fresh_map: dict[str, str] = {}
    for r2 in neg.results(n2):
        base = r2 if removing_final else f"{r}>{r2}"
        fresh = _fresh_name(existing, base)
        existing.add(fresh)
        fresh_map[r2] = fresh

    pos = spec.results.index(r)
    e.set_results(
        n,
        spec.results[:pos]
        + tuple(fresh_map[r2] for r2 in neg.results(n2))
        + spec.results[pos + 1 :],
    )
    inner = set(neg.parties(n2))
    for r2, fresh in fresh_map.items():
        for p in spec.parties:
            if p in inner:
                e.transition[(n, p, fresh)] = set(neg.targets(n2, p, r2))
            else:
                e.transition[(n, p, fresh)] = set(neg.targets(n, p, r))
        e.transformers[(n, fresh)] = concat_expr(
            neg.transformer(outcome), neg.transformer((n2, r2))
        )
    for p in spec.parties:
        del e.transition[(n, p, r)]

    removed = []
    if removable:
        removed.append(n2)
        e.atoms = [a for a in e.atoms if a.id != n2]
        for p in neg.parties(n2):
            for r2 in neg.results(n2):
                e.transition.pop((n2, p, r2), None)
        if removing_final:
            e.final = n
    after = e.done()
    return RuleApplication(
        kind="d_shortcut" if d_restricted else "shortcut",
        site=(outcome, n2),
        produced={
            "fresh_results": [(n, f) for f in fresh_map.values()],
            "removed_atoms": removed,
        },
        before=neg,
        after=after,
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
    for r2 in neg.results(n):
        if r2 == r:
            continue
        if all(
            neg.targets(n, p, r) == neg.targets(n, p, r2) for p in neg.parties(n)
        ):
            return r2
    return None


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


def reducible_outcomes(neg: Negotiation) -> set[Outcome]:
    """R(N): outcomes admitting the iteration or shortcut rule, having a
    merge partner, or participating in a useless arc."""
    acyclic = is_acyclic(neg)
    out = set()
    for o in neg.outcomes():
        if (
            iteration_applicable(neg, o)
            or merge_partner(neg, o) is not None
            or shortcut_targets(neg, o)
            or useless_arcs_at(neg, o, acyclic=acyclic)
        ):
            out.add(o)
    return out


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
