"""Reduction strategies.

* `run_acyclic`: merge-then-d-shortcut loop for acyclic diagrams; at most
  K*L applications (K atoms, L outcomes), complete for the deterministic
  sound case.
* `run_one_agent`: for deterministic one-agent diagrams and replications;
  priority merge > iteration > shortcut at the minimal backward outcome >
  d-shortcut; at most 2K^3 + K^2 + L applications.
* `run_general`: staged strategy for arbitrary deterministic diagrams,
  working outcomes with k parties for k = 1..|agents| and counting rule
  applications against the 2K^3 + K^2 + K*L + L budget measured on the
  input; exceeding it, running out of applicable rules, or ending
  non-atomic all mean "unsound".
* `run_acyclic_wd`: an arbitrary-maximal reduction over shortcut, merge
  and useless-arc, complete for acyclic weakly deterministic diagrams (no
  polynomial bound claimed).
* `run_exponential_demo`: drives the branch-diamond family two ways — the
  eager all-shortcuts-at-the-initial-atom order that piles up 2^(k-1)
  results on the initial atom, and the alternating order that finishes
  within 5k+1 applications.

The atom order used for backward outcomes defaults to declaration order;
all remaining ties break lexicographically by (atom index, result index),
so traces are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    BudgetExceeded,
    NotAcyclic,
    NotDeterministic,
    NotOneAgentOrReplication,
)
from .model import Negotiation, Outcome, classify
from .rules import (
    RuleApplication,
    apply_d_shortcut,
    apply_iteration,
    apply_merge,
    apply_shortcut,
    apply_useless_arc,
    iteration_applicable,
    merge_partner,
    reducible_outcomes,
    shortcut_candidates,
    shortcut_guard,
    uniform,
    uniform_target,
    useless_arcs_at,
)
from .semantics import DEFAULT_CAP, Marking, start_marking, step, successors
from .transformers import TransformerExpr


@dataclass
class OutcomeOrder:
    """A total order on atoms, extended to uniform outcomes: compare the
    targets first, then the source atoms."""

    atoms: tuple[str, ...]

    def __post_init__(self):
        self._index = {a: i for i, a in enumerate(self.atoms)}

    def atom_key(self, atom: str) -> int:
        return self._index[atom]

    def outcome_key(self, neg: Negotiation, outcome: Outcome, target: str):
        n, r = outcome
        return (self._index[target], self._index[n], neg.result_index(n, r))

    def is_backward(self, neg: Negotiation, source: str, target: str) -> bool:
        return target != neg.final and self._index[target] < self._index[source]


def declaration_order(neg: Negotiation) -> OutcomeOrder:
    return OutcomeOrder(tuple(neg.atoms))


@dataclass
class ReductionTrace:
    initial: Negotiation
    applications: list[RuleApplication] = field(default_factory=list)
    verdict: str = "summarized"  # summarized | unsound | unknown
    reason: Optional[str] = None  # guard-exhausted | counter-exceeded | residual-non-atomic
    final: Optional[Negotiation] = None
    summary: Optional[dict[str, TransformerExpr]] = None
    stage_snapshots: dict[int, Negotiation] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def record(self, app: RuleApplication) -> Negotiation:
        app.before.drop_indexes()
        self.applications.append(app)
        self.counters["total"] = self.counters.get("total", 0) + 1
        self.counters[app.kind] = self.counters.get(app.kind, 0) + 1
        return app.after

    @property
    def total(self) -> int:
        return self.counters.get("total", 0)

    def finish(self, neg: Negotiation) -> "ReductionTrace":
        self.final = neg
        if self.verdict == "summarized":
            if neg.is_atomic():
                self.summary = {
                    r: neg.transformer((neg.final, r)) for r in neg.results(neg.final)
                }
            else:
                self.verdict = "unsound"
                if self.reason is None:
                    self.reason = "residual-non-atomic"
        return self

    def trace_lines(self) -> list[str]:
        lines = []
        for app in self.applications:
            site = app.site[0]
            if isinstance(site, tuple) and len(site) == 4:  # an arc
                atom, _agent, result = site[0], site[1], site[2]
            else:
                atom, result = site
            stage = app.stage if app.stage is not None else 1
            lines.append(
                f"k={stage} rule={app.kind} site={atom}.{result} "
                f"total={len(lines) + 1}"
            )
        return lines


# ---------------------------------------------------------------------------
# The index measure
# ---------------------------------------------------------------------------

def outcome_index(neg: Negotiation, outcome: Outcome, cap: int = DEFAULT_CAP):
    """Length of a longest maximal sequence launched by the outcome from
    the marking that holds exactly its parties, minus one; infinity when a
    reachable cycle pumps the sequences arbitrarily long.

    A depth-first search with an explicit stack of (marking, successors
    left, longest so far) frames: a successor on the stack closes a cycle.
    """
    start = step(neg, start_marking(neg, outcome[0]), outcome)
    if cap < 1:
        raise BudgetExceeded(cap)
    longest: dict[Marking, int] = {}
    on_stack = {start}
    stack = [[start, iter(successors(neg, start)), 0]]
    while stack:
        frame = stack[-1]
        for _o, m in frame[1]:
            if m in on_stack:
                return math.inf
            if m in longest:
                frame[2] = max(frame[2], 1 + longest[m])
                continue
            if len(longest) + len(stack) >= cap:
                raise BudgetExceeded(cap)
            on_stack.add(m)
            stack.append([m, iter(successors(neg, m)), 0])
            break
        else:
            stack.pop()
            on_stack.discard(frame[0])
            longest[frame[0]] = frame[2]
            if stack:
                stack[-1][2] = max(stack[-1][2], 1 + frame[2])
    return longest[start]


def index(neg: Negotiation, cap: int = DEFAULT_CAP):
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


# ---------------------------------------------------------------------------
# Deterministic selection helpers
# ---------------------------------------------------------------------------

def _first_merge(neg: Negotiation, outcomes=None) -> Optional[tuple[Outcome, Outcome]]:
    pool = set(outcomes) if outcomes is not None else None
    for n, spec in neg.atoms.items():
        if n == neg.final:
            continue
        for i, r1 in enumerate(spec.results):
            if pool is not None and (n, r1) not in pool:
                continue
            partner = merge_partner(neg, (n, r1))
            if partner is not None and spec.results.index(partner) > i:
                return ((n, r1), (n, partner))
            if partner is not None and spec.results.index(partner) < i:
                return ((n, partner), (n, r1))
    return None


def _first_iteration(neg: Negotiation, outcomes=None) -> Optional[Outcome]:
    pool = set(outcomes) if outcomes is not None else None
    for o in neg.outcomes():
        if pool is not None and o not in pool:
            continue
        if iteration_applicable(neg, o):
            return o
    return None


def _first_d_shortcut(
    neg: Negotiation, outcomes=None, require_non_uniform: bool = False
) -> Optional[tuple[Outcome, str]]:
    pool = set(outcomes) if outcomes is not None else None
    for o in neg.outcomes():
        if pool is not None and o not in pool:
            continue
        if require_non_uniform and uniform(neg, o):
            continue
        for n2 in shortcut_candidates(neg, o):
            if len(neg.results(n2)) > 1 and n2 != neg.final:
                continue
            if shortcut_guard(neg, o, n2).holds:
                return (o, n2)
    return None


def _minimal_backward_shortcut(
    neg: Negotiation, order: OutcomeOrder, outcomes=None
) -> Optional[tuple[Outcome, str]]:
    pool = set(outcomes) if outcomes is not None else None
    best = None
    best_key = None
    for o in neg.outcomes():
        if pool is not None and o not in pool:
            continue
        target = uniform_target(neg, o)
        if target is None or not order.is_backward(neg, o[0], target):
            continue
        if not shortcut_guard(neg, o, target).holds:
            continue
        key = order.outcome_key(neg, o, target)
        if best_key is None or key < best_key:
            best, best_key = (o, target), key
    return best


# ---------------------------------------------------------------------------
# Algorithm for acyclic negotiations
# ---------------------------------------------------------------------------

def run_acyclic(neg: Negotiation) -> ReductionTrace:
    """Merge when possible, else d-shortcut, else answer unsound. On
    acyclic input this terminates within K*L applications; on sound
    deterministic acyclic input it reaches an atomic diagram."""
    if not classify(neg).acyclic:
        raise NotAcyclic("run_acyclic requires an acyclic negotiation")
    bound = len(neg.atoms) * neg.num_outcomes()
    trace = ReductionTrace(initial=neg)
    current = neg
    while reducible_outcomes(current):
        if trace.total >= bound:
            raise AssertionError(
                "merge/d-shortcut sequence exceeded the K*L bound on an "
                "acyclic diagram"
            )
        pair = _first_merge(current)
        if pair is not None:
            app = apply_merge(current, *pair)
            app.line = "merge"
        else:
            hit = _first_d_shortcut(current)
            if hit is None:
                trace.verdict = "unsound"
                trace.reason = "guard-exhausted"
                return trace.finish(current)
            app = apply_d_shortcut(current, *hit)
            app.line = "d_shortcut"
        current = trace.record(app)
    return trace.finish(current)


# ---------------------------------------------------------------------------
# Algorithm for one-agent negotiations and replications
# ---------------------------------------------------------------------------

def is_replication(neg: Negotiation) -> bool:
    """All atoms share the same parties and every outcome is uniform (and
    deterministic, so uniform outcomes have a single target)."""
    parties = {spec.parties for spec in neg.atoms.values()}
    if len(parties) != 1:
        return False
    if not classify(neg).deterministic:
        return False
    return all(uniform(neg, o) for o in neg.outcomes())


def run_one_agent(
    neg: Negotiation, order: Optional[OutcomeOrder] = None
) -> ReductionTrace:
    """Merge > iteration > shortcut at the minimal backward outcome >
    d-shortcut. Sound by construction for its input class, so the verdict
    is always "summarized"; the application count stays within
    2K^3 + K^2 + L."""
    if not (len(neg.agents) == 1 or is_replication(neg)):
        raise NotOneAgentOrReplication(
            "run_one_agent requires a single agent or a replication"
        )
    if not classify(neg).deterministic:
        raise NotOneAgentOrReplication("run_one_agent requires determinism")
    if order is None:
        order = declaration_order(neg)
    k, l = len(neg.atoms), neg.num_outcomes()
    bound = 2 * k**3 + k**2 + l
    trace = ReductionTrace(initial=neg)
    current = neg
    last_backward_key = None
    while reducible_outcomes(current):
        if trace.total >= bound:
            raise AssertionError(
                "one-agent reduction exceeded the 2K^3+K^2+L bound"
            )
        pair = _first_merge(current)
        if pair is not None:
            app = apply_merge(current, *pair)
            app.line = "merge"
        else:
            site = _first_iteration(current)
            if site is not None:
                app = apply_iteration(current, site)
                app.line = "iteration"
            else:
                hit = _minimal_backward_shortcut(current, order)
                if hit is not None:
                    o, target = hit
                    key = order.outcome_key(current, o, target)[:2]
                    if last_backward_key is not None and key <= last_backward_key:
                        raise AssertionError(
                            "backward shortcuts must strictly increase in the "
                            "outcome order"
                        )
                    last_backward_key = key
                    app = apply_shortcut(current, o, target)
                    app.line = "backward_shortcut"
                else:
                    hit = _first_d_shortcut(current)
                    if hit is None:
                        trace.verdict = "unsound"
                        trace.reason = "guard-exhausted"
                        return trace.finish(current)
                    app = apply_d_shortcut(current, *hit)
                    app.line = "d_shortcut"
        current = trace.record(app)
    return trace.finish(current)


# ---------------------------------------------------------------------------
# Algorithm for arbitrary deterministic negotiations
# ---------------------------------------------------------------------------

def run_general(neg: Negotiation, check_invariants: bool = True) -> ReductionTrace:
    """Staged reduction with an application counter.

    Stage k only touches reducible outcomes whose atom has k parties, with
    priority merge > iteration > d-shortcut at a non-uniform outcome >
    shortcut at the minimal backward uniform outcome > d-shortcut. The
    counter is capped at 2K^3 + K^2 + K*L + L (K, L of the input); a sound
    input summarizes within the cap, so hitting it, exhausting the guards,
    or finishing non-atomic each yield the verdict "unsound".
    """
    if not classify(neg).deterministic:
        raise NotDeterministic("run_general requires a deterministic negotiation")
    order = declaration_order(neg)
    k_atoms, l_outcomes = len(neg.atoms), neg.num_outcomes()
    cap = 2 * k_atoms**3 + k_atoms**2 + k_atoms * l_outcomes + l_outcomes
    trace = ReductionTrace(initial=neg)
    current = neg
    # R(N) is computed once per diagram; each stage's pool and the
    # invariant check (no outcome of a lower stage is reducible) read it
    reducible = reducible_outcomes(current)
    for stage in range(1, len(neg.agents) + 1):
        while True:
            pool = {o for o in reducible if len(current.parties(o[0])) == stage}
            if not pool:
                break
            if trace.total >= cap:
                trace.verdict = "unsound"
                trace.reason = "counter-exceeded"
                return trace.finish(current)
            pair = _first_merge(current, pool)
            if pair is not None:
                app = apply_merge(current, *pair)
                app.line = "merge"
            else:
                site = _first_iteration(current, pool)
                if site is not None:
                    app = apply_iteration(current, site)
                    app.line = "iteration"
                else:
                    hit = _first_d_shortcut(current, pool, require_non_uniform=True)
                    if hit is not None:
                        app = apply_d_shortcut(current, *hit)
                        app.line = "d_shortcut_non_uniform"
                    else:
                        hit = _minimal_backward_shortcut(current, order, pool)
                        if hit is not None:
                            app = apply_shortcut(current, *hit)
                            app.line = "backward_shortcut"
                        else:
                            hit = _first_d_shortcut(current, pool)
                            if hit is None:
                                trace.verdict = "unsound"
                                trace.reason = "guard-exhausted"
                                return trace.finish(current)
                            app = apply_d_shortcut(current, *hit)
                            app.line = "d_shortcut"
            app.stage = stage
            current = trace.record(app)
            reducible = reducible_outcomes(current)
            if check_invariants:
                lower = {len(current.parties(o[0])) for o in reducible}
                for j in range(1, stage):
                    if j in lower:
                        raise AssertionError(
                            f"stage {stage} created a {j}-reducible outcome"
                        )
        trace.stage_snapshots[stage] = current
    if not current.is_atomic():
        trace.verdict = "unsound"
        trace.reason = "residual-non-atomic"
    return trace.finish(current)


# ---------------------------------------------------------------------------
# Maximal rules-only reduction for acyclic weakly deterministic diagrams
# ---------------------------------------------------------------------------

def run_acyclic_wd(neg: Negotiation, budget: int = 10_000) -> ReductionTrace:
    """Arbitrary maximal sequence over merge, useless-arc and (full)
    shortcut. Complete for acyclic weakly deterministic inputs: irreducible
    and non-atomic means unsound there. On inputs outside that class a
    non-atomic residue proves nothing, so the verdict is "unknown"."""
    cls = classify(neg)
    if not cls.acyclic:
        raise NotAcyclic("run_acyclic_wd requires an acyclic negotiation")
    trace = ReductionTrace(initial=neg)
    current = neg
    while True:
        if trace.total >= budget:
            trace.verdict = "unknown"
            trace.reason = "budget-exhausted"
            return trace.finish(current)
        pair = _first_merge(current)
        if pair is not None:
            app = apply_merge(current, *pair)
            app.line = "merge"
            current = trace.record(app)
            continue
        arc = None
        for o in current.outcomes():
            hits = useless_arcs_at(current, o, acyclic=True)
            if hits:
                arc = hits[0]
                break
        if arc is not None:
            app = apply_useless_arc(current, arc)
            app.line = "useless_arc"
            current = trace.record(app)
            continue
        hit = None
        for o in current.outcomes():
            for n2 in shortcut_candidates(current, o):
                if shortcut_guard(current, o, n2).holds:
                    hit = (o, n2)
                    break
            if hit:
                break
        if hit is not None:
            app = apply_shortcut(current, *hit)
            app.line = "shortcut"
            current = trace.record(app)
            continue
        break
    if not current.is_atomic() and not cls.weakly_deterministic:
        trace.verdict = "unknown"
        trace.reason = "irreducible-outside-completeness-class"
    return trace.finish(current)


# ---------------------------------------------------------------------------
# The exponential family demo
# ---------------------------------------------------------------------------

def _expfam_shape(neg: Negotiation) -> int:
    """Recover the branch count of a family instance, checking the shape."""
    k = len(neg.agents)
    expected = 2 + 4 * k
    if len(neg.atoms) != expected or neg.initial != "n0" or neg.final != "nf":
        raise ValueError("not an exponential-family instance")
    for i in range(1, k + 1):
        for aid in (f"b{i}", f"b{i}a", f"b{i}b", f"b{i}j"):
            if aid not in neg.atoms:
                raise ValueError(f"not an exponential-family instance: missing {aid}")
    return k


def run_exponential_demo(neg: Negotiation, strategy: str) -> ReductionTrace:
    """Reduce a branch-diamond family instance.

    strategy="initial": shortcut the branch atoms 1..k-1 into the initial
    atom before touching anything else, doubling its result set each time
    (peak exactly 2^(k-1) results), then drain the diamonds, merge, and
    finish. strategy="alternating": handle one branch at a time (shortcut,
    shortcut, shortcut, merge, shortcut), finishing in exactly 5k+1
    applications.
    """
    k = _expfam_shape(neg)
    if strategy not in ("initial", "alternating"):
        raise ValueError(f"unknown strategy {strategy!r}")
    trace = ReductionTrace(initial=neg)
    trace.counters["peak_initial_results"] = len(neg.results(neg.initial))
    current = neg

    def do(app: RuleApplication):
        nonlocal current
        app.line = strategy
        current = trace.record(app)
        peak = trace.counters["peak_initial_results"]
        trace.counters["peak_initial_results"] = max(
            peak, len(current.results(current.initial))
        )

    def results_towards(atom: str) -> list[str]:
        agent = current.parties(atom)[0]
        return [
            r
            for r in current.results("n0")
            if current.targets("n0", agent, r) == frozenset([atom])
        ]

    def drain_branch(i: int):
        # diamond arms, then the join, one shortcut per pointing result
        for arm in (f"b{i}a", f"b{i}b"):
            for r in results_towards(arm):
                do(apply_shortcut(current, ("n0", r), arm))
        for r in results_towards(f"b{i}j"):
            do(apply_shortcut(current, ("n0", r), f"b{i}j"))

    def merge_all():
        while True:
            pair = _first_merge(current)
            if pair is None:
                break
            do(apply_merge(current, *pair))

    def alternating_branch(i: int):
        root = f"b{i}"
        for r in results_towards(root):
            do(apply_shortcut(current, ("n0", r), root))
        for arm in (f"b{i}a", f"b{i}b"):
            for r in results_towards(arm):
                do(apply_shortcut(current, ("n0", r), arm))
        merge_all()
        for r in results_towards(f"b{i}j"):
            do(apply_shortcut(current, ("n0", r), f"b{i}j"))

    if strategy == "initial":
        for i in range(1, k):
            for r in results_towards(f"b{i}"):
                do(apply_shortcut(current, ("n0", r), f"b{i}"))
        for i in range(1, k):
            drain_branch(i)
        merge_all()
        alternating_branch(k)
    else:
        for i in range(1, k + 1):
            alternating_branch(i)
    (final_result,) = current.results("n0")
    do(apply_shortcut(current, ("n0", final_result), "nf"))
    return trace.finish(current)


# ---------------------------------------------------------------------------
# Dispatch used by the CLI
# ---------------------------------------------------------------------------

def run_auto(neg: Negotiation) -> ReductionTrace:
    """Pick a strategy from the classification."""
    cls = classify(neg)
    if cls.deterministic and (len(neg.agents) == 1 or is_replication(neg)):
        return run_one_agent(neg)
    if cls.deterministic and cls.acyclic:
        return run_acyclic(neg)
    if cls.deterministic:
        return run_general(neg)
    if cls.acyclic:
        return run_acyclic_wd(neg)
    raise NotDeterministic(
        "no reduction strategy covers cyclic non-deterministic negotiations"
    )
