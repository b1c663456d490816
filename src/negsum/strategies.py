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

Every strategy copies its input once (`working.working_copy`) and rewrites
that private copy in place at each step, so the input keeps its value and
whatever it has computed, such as its marking kernel. Each of the first
four is a tuple of `(line, select)` steps in priority order, run by one
driver, `_reduce`. `select(neg, outcomes)` looks at the candidate outcomes
in outcome order, applies a rule to the working diagram `neg` and returns
the `RuleApplication`, or returns None; the first step that applies a rule
wins and its `line` is recorded on the application. The candidates are
R(N) in `run_acyclic` and `run_one_agent`, R(N) cut to the current stage
in `run_general` (both a `Pool`), and every outcome in `run_acyclic_wd`
(`EveryOutcome`); a merge step reads only the mergeable candidates. A
shortcut step evaluates a candidate's guard once: where it holds, the
step rewrites by `rules.shortcut_step`, which does not check it again. A
d-shortcut step looks only at the targets with at most one result and the
final atom, among those the outcome sends a party to
(`rules.d_shortcut_candidates`). Beyond steps and candidates, the
strategies differ only in what they do at their bound. R(N) is computed
in full on the input only: the trace keeps it up to date
(`rules.Reducible`) as it records each application, re-evaluating the
outcomes at the application's site (the outcomes the rule removed and
added, and those whose guards read them), and counts the outcomes it
evaluated in `counters["outcomes_evaluated"]`. R(N) is kept in outcome
order, bucketed by the party count of each outcome's atom, so no step
sorts it or scans it for a stage.

A trace keeps each application's change, not the diagrams: the
applications' `.before` and `.after`, and `stage_snapshots`, rebuild them
from `trace.initial` by replaying the changes forward (`working.Log`).

The strategies that keep R(N) run on acyclic or deterministic diagrams,
the two classes the rules are complete for, so never on a cyclic one with
a fork, where `rules.Reducible` does not follow the applications.

Backward outcomes are ordered by the atoms' ranks, which are the input's
declaration order (`Negotiation.atom_index`); all remaining ties break
lexicographically by (atom index, result index), so traces are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import NotAcyclic, NotDeterministic, NotOneAgentOrReplication
from .model import Negotiation, Outcome, classify
from .rules import (
    Reducible,
    RuleApplication,
    d_shortcut_candidates,
    guarded_shortcut_step,
    iteration_applicable,
    iteration_step,
    merge_partner,
    merge_step,
    shortcut_candidates,
    shortcut_guard,
    shortcut_step,
    uniform,
    uniform_target,
    useless_arc_step,
    useless_arcs_at,
)
from .semantics import DEFAULT_CAP, walk
from .transformers import TransformerExpr
from .working import Log, working_copy


@dataclass
class ReductionTrace:
    initial: Negotiation
    applications: list[RuleApplication] = field(default_factory=list)
    verdict: str = "summarized"  # summarized | unsound | unknown
    reason: Optional[str] = None  # guard-exhausted | counter-exceeded | residual-non-atomic
    final: Optional[Negotiation] = None
    summary: Optional[dict[str, TransformerExpr]] = None
    # stage -> the number of applications when it ended
    stage_ends: dict[int, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    # R(N) of the working diagram, for the strategies that read it
    reducible: Optional[Reducible] = None
    # the private copy of `initial` that the strategy rewrites, until
    # `finish`, and the log of its changes
    work: Optional[Negotiation] = field(init=False, default=None, repr=False)
    log: Log = field(init=False, repr=False)

    def __post_init__(self):
        self.work = working_copy(self.initial)
        self.log = self.work.log

    def track_reducible(self) -> Reducible:
        """Compute R(N) of the input, and keep it up to date from here on."""
        self.reducible = Reducible(self.work, classify(self.initial).acyclic)
        self.counters["outcomes_evaluated"] = self.reducible.evaluated
        return self.reducible

    def record(self, app: RuleApplication) -> None:
        self.applications.append(app)
        self.counters["total"] = self.counters.get("total", 0) + 1
        self.counters[app.kind] = self.counters.get(app.kind, 0) + 1
        if self.reducible is not None:
            self.reducible.advance(app)
            self.counters["outcomes_evaluated"] = self.reducible.evaluated

    @property
    def total(self) -> int:
        return self.counters.get("total", 0)

    def diagram(self, applications: int) -> Negotiation:
        """The diagram after the first `applications` applications,
        rebuilt from the log (`trace.initial` itself for 0). The log keeps
        the last diagram it rebuilt (`working.Log`)."""
        return self.log.diagram(applications)

    @property
    def stage_snapshots(self) -> dict[int, Negotiation]:
        """stage -> the diagram when it ended, rebuilt from the log."""
        return {stage: self.diagram(ends) for stage, ends in self.stage_ends.items()}

    def finish(self) -> "ReductionTrace":
        """Settle the verdict and the summary on the working diagram, keep
        it as `final`, and let go of what only the reduction needed."""
        neg = self.work
        self.final = neg.copy()
        self.work = self.reducible = None
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

    A longest-path pass in topological order (Kahn's, taking a node once
    every edge into it is taken) over the whole `walk` from the marking
    after the outcome. A node on or behind a cycle is never taken. The
    launch node starts the order only if no edge enters it: else it lies
    on a cycle, and so does every node the walk reached.
    """
    kernel = neg.marking_kernel
    succ = walk(kernel, kernel.fire(kernel.start(outcome[0]), outcome), kernel.field, cap).succ
    into = [0] * len(succ)
    for out in succ:
        for _o, j in out:
            into[j] += 1
    longest = [0] * len(succ)
    order = [] if into[0] else [0]
    for i in order:  # grows while walked
        for _o, j in succ[i]:
            longest[j] = max(longest[j], longest[i] + 1)
            into[j] -= 1
            if not into[j]:
                order.append(j)
    return max(longest) if len(order) == len(succ) else math.inf


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
# Priority steps and the one driver
# ---------------------------------------------------------------------------

class Pool:
    """The candidates of a step in `run_acyclic`, `run_one_agent` and
    `run_general`: R(N), or the part of it whose atoms have `parties`
    parties, read in outcome order from the `Reducible` that keeps it."""

    def __init__(self, reducible: Reducible, parties: Optional[int] = None):
        self.reducible, self.parties = reducible, parties

    def __iter__(self) -> Iterator[Outcome]:
        return self.reducible.outcomes.in_order(self.parties)

    def __bool__(self) -> bool:
        if self.parties is None:
            return bool(self.reducible.outcomes)
        return self.reducible.outcomes.has(self.parties)

    def mergeable(self) -> Iterator[Outcome]:
        """The candidates with a merge partner, in outcome order."""
        return self.reducible.mergeable.in_order(self.parties)


class EveryOutcome:
    """The candidates of a step in `run_acyclic_wd`: every outcome, in
    outcome order, until the diagram is atomic."""

    def __init__(self, neg: Negotiation):
        self.neg = neg

    def __iter__(self) -> Iterator[Outcome]:
        return self.neg.outcomes()

    def __bool__(self) -> bool:
        return not self.neg.is_atomic()

    def mergeable(self) -> Iterator[Outcome]:
        return (o for o in self.neg.outcomes() if merge_partner(self.neg, o) is not None)


Candidates = Union[Pool, EveryOutcome]
# select(neg, the candidates) -> the applied rule or None
Select = Callable[[Negotiation, Candidates], Optional[RuleApplication]]
Step = tuple[str, Select]  # (line recorded on the application, select)


def _merge(neg: Negotiation, outcomes: Candidates):
    """Merge the first mergeable candidate with its first partner. No
    result it can merge with comes before it, so its partner comes after
    it (`merge_partner`)."""
    for n, r in outcomes.mergeable():
        return merge_step(neg, (n, r), (n, merge_partner(neg, (n, r))))
    return None


def _iteration(neg: Negotiation, outcomes: Iterable[Outcome]):
    for o in outcomes:
        if iteration_applicable(neg, o):
            return iteration_step(neg, o)
    return None


def _shortcut(neg: Negotiation, outcomes: Iterable[Outcome], d_restricted=False):
    """The first guarded shortcut; a d-shortcut looks only at targets with
    at most one result and at the final atom."""
    candidates = d_shortcut_candidates if d_restricted else shortcut_candidates
    kind = "d_shortcut" if d_restricted else "shortcut"
    for o in outcomes:
        for n2 in candidates(neg, o):
            if shortcut_guard(neg, o, n2).holds:
                return shortcut_step(neg, o, n2, kind)
    return None


def _d_shortcut(neg: Negotiation, outcomes: Iterable[Outcome]):
    return _shortcut(neg, outcomes, d_restricted=True)


def _d_shortcut_non_uniform(neg: Negotiation, outcomes: Iterable[Outcome]):
    return _d_shortcut(neg, (o for o in outcomes if not uniform(neg, o)))


def _useless_arc(neg: Negotiation, outcomes: Iterable[Outcome]):
    for o in outcomes:
        hits = useless_arcs_at(neg, o, acyclic=True)
        if hits:
            return useless_arc_step(neg, hits[0])
    return None


def _backward_shortcut(increasing: bool = False) -> Select:
    """Shortcut at the minimal backward uniform outcome: a uniform outcome
    whose target is not the final atom and ranks before its own atom,
    keyed by (rank of the target, rank of the atom, result index). With
    `increasing`, assert that the (target, atom) ranks of successive
    selections strictly increase: `run_one_agent`'s termination argument."""
    last = None

    def select(neg: Negotiation, outcomes: Iterable[Outcome]):
        nonlocal last
        rank = neg._atom_order
        hits = [
            ((rank[target], rank[o[0]], neg.result_index(*o)), o, target)
            for o in outcomes
            if (target := uniform_target(neg, o)) is not None
            and target != neg.final
            and rank[target] < rank[o[0]]
            and shortcut_guard(neg, o, target).holds
        ]
        if not hits:
            return None
        key, o, target = min(hits)
        if increasing:
            if last is not None and key[:2] <= last:
                raise AssertionError(
                    "backward shortcuts must strictly increase in the outcome order"
                )
            last = key[:2]
        return shortcut_step(neg, o, target, "shortcut")

    return select


def _reduce(
    trace: ReductionTrace,
    steps: Sequence[Step],
    outcomes: Candidates,
    bound: int,
    stage: Optional[int] = None,
) -> Optional[str]:
    """While the live candidates `outcomes` are non-empty, apply the first
    step in priority order whose select applies a rule to the working
    diagram, record it and, with `stage`, run the stage check. Returns why
    the loop stopped: None (no candidates left), "bound" (`trace.total`
    reached `bound` first) or "guard-exhausted" (no step applies)."""
    current = trace.work
    while outcomes:
        if trace.total >= bound:
            return "bound"
        for line, select in steps:
            app = select(current, outcomes)
            if app is not None:
                break
        else:
            return "guard-exhausted"
        app.line, app.stage = line, stage
        trace.record(app)
        if stage is not None:
            lowest = trace.reducible.outcomes.lowest()
            if lowest is not None and lowest < stage:
                raise AssertionError(f"stage {stage} created a {lowest}-reducible outcome")
    return None


def _run_bounded(neg: Negotiation, steps: Sequence[Step], bound: int, overflow: str):
    """Reduce R(N) until it is empty; no applicable step means "unsound",
    and passing the bound breaks the strategy's own theorem."""
    trace = ReductionTrace(initial=neg)
    reducible = trace.track_reducible()
    stop = _reduce(trace, steps, Pool(reducible), bound)
    if stop == "bound":
        raise AssertionError(overflow)
    if stop is not None:
        trace.verdict, trace.reason = "unsound", stop
    return trace.finish()


# ---------------------------------------------------------------------------
# Algorithm for acyclic negotiations
# ---------------------------------------------------------------------------

def run_acyclic(neg: Negotiation) -> ReductionTrace:
    """Merge when possible, else d-shortcut, else answer unsound. On
    acyclic input this terminates within K*L applications; on sound
    deterministic acyclic input it reaches an atomic diagram."""
    if not classify(neg).acyclic:
        raise NotAcyclic("run_acyclic requires an acyclic negotiation")
    return _run_bounded(
        neg,
        (("merge", _merge), ("d_shortcut", _d_shortcut)),
        len(neg.atoms) * neg.num_outcomes(),
        "merge/d-shortcut sequence exceeded the K*L bound on an acyclic diagram",
    )


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


def run_one_agent(neg: Negotiation) -> ReductionTrace:
    """Merge > iteration > shortcut at the minimal backward outcome >
    d-shortcut. Sound by construction for its input class, so the verdict
    is always "summarized"; the application count stays within
    2K^3 + K^2 + L."""
    if not (len(neg.agents) == 1 or is_replication(neg)):
        raise NotOneAgentOrReplication("run_one_agent requires a single agent or a replication")
    if not classify(neg).deterministic:
        raise NotOneAgentOrReplication("run_one_agent requires determinism")
    steps = (
        ("merge", _merge),
        ("iteration", _iteration),
        ("backward_shortcut", _backward_shortcut(increasing=True)),
        ("d_shortcut", _d_shortcut),
    )
    k, l = len(neg.atoms), neg.num_outcomes()
    bound = 2 * k**3 + k**2 + l
    return _run_bounded(neg, steps, bound, "one-agent reduction exceeded the 2K^3+K^2+L bound")


# ---------------------------------------------------------------------------
# Algorithm for arbitrary deterministic negotiations
# ---------------------------------------------------------------------------

def run_general(neg: Negotiation) -> ReductionTrace:
    """Staged reduction with an application counter.

    Stage k only touches reducible outcomes whose atom has k parties, with
    priority merge > iteration > d-shortcut at a non-uniform outcome >
    shortcut at the minimal backward uniform outcome > d-shortcut. The
    counter is capped at 2K^3 + K^2 + K*L + L (K, L of the input); a sound
    input summarizes within the cap, so hitting it, exhausting the guards,
    or finishing non-atomic each yield the verdict "unsound". After every
    application, the stage check asserts that no outcome of a lower stage
    has become reducible.
    """
    if not classify(neg).deterministic:
        raise NotDeterministic("run_general requires a deterministic negotiation")
    k_atoms, l_outcomes = len(neg.atoms), neg.num_outcomes()
    cap = 2 * k_atoms**3 + k_atoms**2 + k_atoms * l_outcomes + l_outcomes
    steps = (
        ("merge", _merge),
        ("iteration", _iteration),
        ("d_shortcut_non_uniform", _d_shortcut_non_uniform),
        ("backward_shortcut", _backward_shortcut()),
        ("d_shortcut", _d_shortcut),
    )
    trace = ReductionTrace(initial=neg)
    # the stage pools and the stage check read the R(N) the trace keeps
    reducible = trace.track_reducible()
    for stage in range(1, len(neg.agents) + 1):
        stop = _reduce(trace, steps, Pool(reducible, stage), cap, stage)
        if stop is not None:
            trace.verdict = "unsound"
            trace.reason = "counter-exceeded" if stop == "bound" else stop
            return trace.finish()
        trace.stage_ends[stage] = trace.total
    return trace.finish()


# ---------------------------------------------------------------------------
# Maximal rules-only reduction for acyclic weakly deterministic diagrams
# ---------------------------------------------------------------------------

WD_BUDGET = 10_000  # the most applications `run_acyclic_wd` makes


def run_acyclic_wd(neg: Negotiation) -> ReductionTrace:
    """Arbitrary maximal sequence over merge, useless-arc and (full)
    shortcut. Complete for acyclic weakly deterministic inputs: irreducible
    and non-atomic means unsound there. On inputs outside that class a
    non-atomic residue proves nothing, so the verdict is "unknown", and so
    it is ("budget-exhausted") when `WD_BUDGET` applications leave it
    non-atomic, even if the residue is irreducible by then: telling that
    apart would take a scan of every guard."""
    cls = classify(neg)
    if not cls.acyclic:
        raise NotAcyclic("run_acyclic_wd requires an acyclic negotiation")
    steps = (("merge", _merge), ("useless_arc", _useless_arc), ("shortcut", _shortcut))
    trace = ReductionTrace(initial=neg)
    stop = _reduce(trace, steps, EveryOutcome(trace.work), WD_BUDGET)
    if stop == "bound":
        trace.verdict, trace.reason = "unknown", "budget-exhausted"
    elif not trace.work.is_atomic() and not cls.weakly_deterministic:
        trace.verdict = "unknown"
        trace.reason = "irreducible-outside-completeness-class"
    return trace.finish()


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
    current = trace.work

    def do(app: RuleApplication):
        app.line = strategy
        trace.record(app)
        peak = max(trace.counters["peak_initial_results"], len(current.results(current.initial)))
        trace.counters["peak_initial_results"] = peak

    def shortcut_into(*atoms: str):
        # per atom in turn, one shortcut per result of n0 pointing at it
        for atom in atoms:
            agent, only = current.parties(atom)[0], frozenset([atom])
            towards = [r for r in current.results("n0") if current.targets("n0", agent, r) == only]
            for r in towards:
                do(guarded_shortcut_step(current, ("n0", r), atom, "shortcut"))

    def merge_all():
        # merge the first mergeable outcome in outcome order with its first
        # partner, until none is left
        while (app := _merge(current, EveryOutcome(current))) is not None:
            do(app)

    def alternating_branch(i: int):
        shortcut_into(f"b{i}", f"b{i}a", f"b{i}b")
        merge_all()
        shortcut_into(f"b{i}j")

    if strategy == "initial":
        shortcut_into(*(f"b{i}" for i in range(1, k)))
        for i in range(1, k):
            # diamond arms, then the join
            shortcut_into(f"b{i}a", f"b{i}b", f"b{i}j")
        merge_all()
        alternating_branch(k)
    else:
        for i in range(1, k + 1):
            alternating_branch(i)
    (final_result,) = current.results("n0")
    do(guarded_shortcut_step(current, ("n0", final_result), "nf", "shortcut"))
    return trace.finish()


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
