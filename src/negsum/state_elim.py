"""Summarization by state elimination on the labeled reachability graph.

Each reachability edge starts out labeled with the atomic transformer of
its outcome. Three reduction rules (merge parallel edges, remove a
self-loop by starring it onto the outgoing edges, bypass a node with
shortcut edges) are applied in phases until only the initial and final
markings remain; the surviving edge labels are the summary expressions.

Edges into the final marking carry their final result as a tag, so the
output maps each final result to one expression even when the final atom
has several results. On diagrams where some marking cannot reach the
final marking the graph does not reduce completely; the residual graph is
returned instead of a summary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import GuardFailed
from .model import Negotiation
from .semantics import DEFAULT_CAP, Marking, ReachabilityGraph, reachability
from .transformers import (
    Kernel,
    Rel,
    Rows,
    StateSpace,
    TransformerExpr,
    bits,
    concat_expr,
    star_expr,
    union_expr,
)


@dataclass
class LEdge:
    src: int
    expr: TransformerExpr
    dst: int
    final_result: Optional[str] = None


@dataclass
class LabeledRG:
    markings: list[Marking]
    alive: set[int]
    edges: list[LEdge]
    x0: int
    xf: Optional[int]

    def in_edges(self, v: int) -> list[LEdge]:
        return [e for e in self.edges if e.dst == v and e.src != v]

    def out_edges(self, v: int) -> list[LEdge]:
        return [e for e in self.edges if e.src == v and e.dst != v]

    def self_loops(self, v: int) -> list[LEdge]:
        return [e for e in self.edges if e.src == v and e.dst == v]

    def node_key(self, v: int) -> str:
        return str(self.markings[v])


def labeled_rg(neg: Negotiation, graph: ReachabilityGraph) -> LabeledRG:
    xf = graph.node_index.get(graph.final) if graph.final is not None else None
    edges = []
    for src, (aid, r), dst in graph.edges:
        edges.append(
            LEdge(
                graph.node_index[src],
                neg.transformer((aid, r)),
                graph.node_index[dst],
                final_result=r if aid == neg.final else None,
            )
        )
    return LabeledRG(
        markings=list(graph.nodes),
        alive=set(range(len(graph.nodes))),
        edges=edges,
        x0=graph.node_index[graph.initial],
        xf=xf,
    )


# ---------------------------------------------------------------------------
# The three elimination rules
# ---------------------------------------------------------------------------

def elim_parallel(g: LabeledRG, v1: int, v2: int) -> None:
    """Replace all parallel v1 -> v2 edges by one edge labeled with their
    union. Edges into the final marking keep their final-result tags and
    are never merged."""
    if v2 == g.xf:
        raise GuardFailed("parallel edges into the final marking are kept apart")
    parallel = [e for e in g.edges if e.src == v1 and e.dst == v2]
    if len(parallel) < 2:
        raise GuardFailed(f"fewer than two edges from {v1} to {v2}")
    merged = LEdge(v1, union_expr(*(e.expr for e in parallel)), v2)
    g.edges = [e for e in g.edges if not (e.src == v1 and e.dst == v2)]
    g.edges.append(merged)


def elim_selfloop(g: LabeledRG, v: int) -> None:
    """Prefix every proper out-edge of v with the starred self-loop, then
    drop the self-loop."""
    loops = g.self_loops(v)
    if not loops:
        raise GuardFailed(f"no self-loop at node {v}")
    if len(loops) > 1:
        raise GuardFailed(
            f"{len(loops)} parallel self-loops at node {v}; merge them first"
        )
    star = star_expr(loops[0].expr)
    for e in g.edges:
        if e.src == v and e.dst != v:
            e.expr = concat_expr(star, e.expr)
    g.edges.remove(loops[0])


def elim_node(g: LabeledRG, v: int) -> None:
    """Bypass v: one shortcut edge per (in-edge, out-edge) pair, then
    remove v entirely. Requires v to be an interior node with no self-loop
    and at least one successor."""
    if v == g.x0 or v == g.xf:
        raise GuardFailed("cannot eliminate the initial or final marking")
    if v not in g.alive:
        raise GuardFailed(f"node {v} was already removed")
    if g.self_loops(v):
        raise GuardFailed(f"node {v} still has a self-loop")
    outs = g.out_edges(v)
    if not outs:
        raise GuardFailed(f"node {v} has no successor")
    ins = g.in_edges(v)
    new_edges = [
        LEdge(ei.src, concat_expr(ei.expr, eo.expr), eo.dst, eo.final_result)
        for ei in ins
        for eo in outs
    ]
    g.edges = [e for e in g.edges if e.src != v and e.dst != v] + new_edges
    g.alive.discard(v)


# ---------------------------------------------------------------------------
# The phase strategy
# ---------------------------------------------------------------------------

def _parallel_sites(g: LabeledRG):
    seen: dict[tuple[int, int], int] = {}
    for e in g.edges:
        if e.dst == g.xf:
            continue
        seen[(e.src, e.dst)] = seen.get((e.src, e.dst), 0) + 1
    return sorted(k for k, count in seen.items() if count > 1)


@dataclass
class SummaryResult:
    summary: Optional[dict[str, TransformerExpr]]
    residual: Optional[LabeledRG] = None

    @property
    def fully_reduced(self) -> bool:
        return self.summary is not None


def reduce_labeled_rg(g: LabeledRG, on_step=None) -> SummaryResult:
    def done(kind, site):
        if on_step is not None:
            on_step(g, kind, site)

    while True:
        while True:
            sites = _parallel_sites(g)
            if not sites:
                break
            for v1, v2 in sites:
                elim_parallel(g, v1, v2)
                done("parallel", (v1, v2))
        for v in sorted(g.alive):
            if g.self_loops(v):
                elim_selfloop(g, v)
                done("selfloop", v)
        if _parallel_sites(g):
            continue  # a starred rewrite may have created new parallels

        interior = [v for v in g.alive if v not in (g.x0, g.xf)]
        if not interior:
            break
        candidates = [v for v in interior if g.out_edges(v)]
        if not candidates:
            break  # dead-end nodes: the graph cannot reduce further
        v = min(
            candidates,
            key=lambda v: (len(g.in_edges(v)) * len(g.out_edges(v)), g.node_key(v)),
        )
        elim_node(g, v)
        done("node", v)

    leftover = g.alive - {g.x0} - ({g.xf} if g.xf is not None else set())
    if leftover or g.xf is None:
        return SummaryResult(summary=None, residual=g)
    summary: dict[str, TransformerExpr] = {}
    for e in g.edges:
        assert e.src == g.x0 and e.dst == g.xf and e.final_result is not None
        if e.final_result in summary:
            summary[e.final_result] = union_expr(summary[e.final_result], e.expr)
        else:
            summary[e.final_result] = e.expr
    return SummaryResult(summary=summary)


def summarize_by_states(neg: Negotiation, cap: int = DEFAULT_CAP) -> SummaryResult:
    """Build the labeled reachability graph and reduce it. Returns the
    mapping final result -> transformer expression, or the residual graph
    when the diagram cannot reach its final marking from everywhere."""
    graph = reachability(neg, cap)
    return reduce_labeled_rg(labeled_rg(neg, graph))


# ---------------------------------------------------------------------------
# Denotation oracle
# ---------------------------------------------------------------------------

def graph_denotation(
    g: LabeledRG, interp, space: StateSpace
) -> dict[str, Rel]:
    """Per final result, the union of path relations from the initial to
    the final marking. Independent of the elimination rules; used as their
    oracle (and, on the unreduced graph, as the brute-force union over all
    large steps).

    Semi-naive Kleene iteration: a worklist carries, per node, only what
    the last visit added to its relation, and pushes that along the node's
    out-edges. Each distinct edge label is evaluated once per call. A
    node's relation is held over all agents of the edge labels as one
    bitset of initial assignments per current assignment, so a push costs
    one OR per successor of a newly reached assignment. Each result keeps
    the parties of the edges on its paths, as the pairwise iteration this
    replaced did.
    """
    k = Kernel(space)
    memo: dict = {}
    labels = {e.expr: k.eval(e.expr, interp, memo) for e in g.edges}
    every = k.merged(*(r.parties for r in labels.values()))
    n = k.size(every)
    moves = {}  # label -> (successors of each assignment, party set)
    for expr, r in labels.items():
        moves[expr] = ([bits(row) for row in k.expand(r, every).rows], frozenset(r.parties))
    out_edges: dict[int, list] = {}
    for e in g.edges:
        out_edges.setdefault(e.src, []).append((e.dst, *moves[e.expr]))

    reach = {g.x0: [1 << s for s in range(n)]}  # node -> state -> initial states
    parties = {g.x0: frozenset()}
    delta = {g.x0: dict(enumerate(reach[g.x0]))}
    work = deque([g.x0])
    queued = {g.x0}
    while work:
        u = work.popleft()
        queued.discard(u)
        new = delta.pop(u, None)
        for v, succ, pe in out_edges.get(u, ()):
            grown = parties[u] | pe
            if v not in reach:
                reach[v], parties[v], changed = [0] * n, grown, True
            else:
                changed = not grown <= parties[v]
                parties[v] |= grown
            if new:
                col = reach[v]
                for s, initial in new.items():
                    for t in succ[s]:
                        add = initial & ~col[t]
                        if add:
                            col[t] |= add
                            dv = delta.setdefault(v, {})
                            dv[t] = dv.get(t, 0) | add
                            changed = True
            if changed and v not in queued:
                work.append(v)
                queued.add(v)

    cols: dict[str, list[int]] = {}
    result_parties: dict[str, frozenset] = {}
    for e in g.edges:
        if e.dst != g.xf or e.final_result is None or e.src not in reach:
            continue
        succ, pe = moves[e.expr]
        acc = cols.setdefault(e.final_result, [0] * n)
        result_parties[e.final_result] = (
            result_parties.get(e.final_result, frozenset()) | parties[e.src] | pe
        )
        for s, initial in enumerate(reach[e.src]):
            for t in succ[s]:
                acc[t] |= initial
    out: dict[str, Rel] = {}
    for r, col in cols.items():
        rows = [0] * n
        for t, initial in enumerate(col):
            for i in bits(initial):
                rows[i] |= 1 << t
        out[r] = k.rel(k.restrict(Rows(every, rows), k.merged(result_parties[r])))
    return out


def brute_force_summary(
    neg: Negotiation, interp, space: StateSpace, cap: int = DEFAULT_CAP
) -> dict[str, Rel]:
    """Union of the transformers of all large steps, per final result,
    straight off the reachability graph."""
    graph = reachability(neg, cap)
    return graph_denotation(labeled_rg(neg, graph), interp, space)
