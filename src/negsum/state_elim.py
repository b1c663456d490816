"""Summarization by state elimination on the labeled reachability graph.

Each reachability edge starts out labeled with the atomic transformer of
its outcome. Three reduction rules (merge parallel edges, remove a
self-loop by starring it onto the outgoing edges, bypass a node with
shortcut edges) are applied in phases until only the initial and final
markings remain; the surviving edge labels are the summary expressions
(Brzozowski & McCluskey's state elimination).

Edges into the final marking carry their final result as a tag, so the
output maps each final result to one expression even when the final atom
has several results: the union, taken once, of the labels of its edges.
On diagrams where some marking cannot reach the final marking the graph
does not reduce completely; the residual graph is returned instead of a
summary.

The graph indexes its edges per node (proper out-edges, proper in-edges,
self-loops), each in edge-creation order, counts the edges of each
(source, target) pair, and keeps the set of pairs that gained a parallel
edge. A phase merges those dirty pairs in sorted order, removes
self-loops in node order, and then bypasses the interior node of least
fill (in-degree times out-degree, ties broken by the marking's text, then
the node number), taken from a heap with lazy deletion. So one step
costs about the degree of its site, not the size of the edge list.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Optional

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


_NONE: dict = {}  # the edges of a node that has none; never written to


class LabeledRG:
    """A labeled reachability graph under elimination.

    Every edge gets an id from a counter when it is added, so id order is
    creation order, the order in which `edges` lists the live edges.
    `_out`, `_in` and `_loops` map a node to its proper out-edges, proper
    in-edges and self-loops, each as {id: edge}; `_pairs` counts the edges
    of each (source, target) pair. A node or pair with no edge is absent.
    `dirty` holds every pair with two or more edges not into the final
    marking, and possibly pairs that have fewer by now."""

    def __init__(
        self,
        markings: list[Marking],
        alive: set[int],
        edges: Iterable[LEdge],
        x0: int,
        xf: Optional[int],
    ):
        self.markings = markings
        self.alive = alive
        self.x0 = x0
        self.xf = xf
        self.dirty: set[tuple[int, int]] = set()
        self._live: dict[int, LEdge] = {}
        self._out: dict[int, dict[int, LEdge]] = {}
        self._in: dict[int, dict[int, LEdge]] = {}
        self._loops: dict[int, dict[int, LEdge]] = {}
        self._pairs: dict[tuple[int, int], int] = {}
        self._next_id = 0
        for e in edges:
            self.add(e)

    @property
    def edges(self) -> list[LEdge]:
        return list(self._live.values())

    def in_edges(self, v: int) -> list[LEdge]:
        return list(self._in.get(v, _NONE).values())

    def out_edges(self, v: int) -> list[LEdge]:
        return list(self._out.get(v, _NONE).values())

    def self_loops(self, v: int) -> list[LEdge]:
        return list(self._loops.get(v, _NONE).values())

    def fill(self, v: int) -> int:
        """The number of shortcut edges that eliminating v adds."""
        return len(self._in.get(v, _NONE)) * len(self._out.get(v, _NONE))

    def node_key(self, v: int) -> str:
        return str(self.markings[v])

    def add(self, e: LEdge) -> None:
        eid = self._next_id
        self._next_id = eid + 1
        self._live[eid] = e
        for index, v in self._places(e):
            at = index.get(v)
            if at is None:
                index[v] = {eid: e}
            else:
                at[eid] = e
        pair = (e.src, e.dst)
        count = self._pairs[pair] = self._pairs.get(pair, 0) + 1
        if count > 1 and e.dst != self.xf:
            self.dirty.add(pair)

    def _remove(self, eids: Iterable[int]) -> None:
        for eid in list(eids):
            e = self._live.pop(eid)
            for index, v in self._places(e):
                at = index[v]
                del at[eid]
                if not at:
                    del index[v]
            pair = (e.src, e.dst)
            count = self._pairs.pop(pair) - 1
            if count:
                self._pairs[pair] = count

    def _places(self, e: LEdge) -> tuple:
        """The (index, node) places that list e."""
        if e.src == e.dst:
            return ((self._loops, e.src),)
        return (self._out, e.src), (self._in, e.dst)


def labeled_rg(neg: Negotiation, graph: ReachabilityGraph) -> LabeledRG:
    n = len(graph.codes)
    return LabeledRG(list(graph.nodes), set(range(n)), *_labeled_edges(neg, graph))


def _labeled_edges(
    neg: Negotiation, graph: ReachabilityGraph
) -> tuple[list[LEdge], int, Optional[int]]:
    """The reachability edges labeled with their outcomes' transformers,
    the initial marking's index (node 0) and the final marking's (None
    when it is not reachable). Each edge gets a label object of its own:
    state elimination builds its summaries from these objects, and the
    size of a summary's shared structure counts them."""
    final = neg.final
    edges = [
        LEdge(i, neg.transformer(o), j, final_result=o[1] if o[0] == final else None)
        for i, out in enumerate(graph.succ)
        for o, j in out
    ]
    return edges, 0, graph.final_index


# ---------------------------------------------------------------------------
# The three elimination rules
# ---------------------------------------------------------------------------

def elim_parallel(g: LabeledRG, v1: int, v2: int) -> None:
    """Replace all parallel v1 -> v2 edges by one edge labeled with their
    union. Edges into the final marking keep their final-result tags and
    are never merged."""
    if v2 == g.xf:
        raise GuardFailed("parallel edges into the final marking are kept apart")
    if g._pairs.get((v1, v2), 0) < 2:
        raise GuardFailed(f"fewer than two edges from {v1} to {v2}")
    at = g._loops[v1] if v1 == v2 else g._out[v1]
    parallel = {eid: e for eid, e in at.items() if e.dst == v2}
    merged = LEdge(v1, union_expr(*(e.expr for e in parallel.values())), v2)
    g._remove(parallel)
    g.add(merged)


def elim_selfloop(g: LabeledRG, v: int) -> None:
    """Prefix every proper out-edge of v with the starred self-loop, then
    drop the self-loop."""
    loops = g._loops.get(v, _NONE)
    if not loops:
        raise GuardFailed(f"no self-loop at node {v}")
    if len(loops) > 1:
        raise GuardFailed(
            f"{len(loops)} parallel self-loops at node {v}; merge them first"
        )
    (loop,) = loops.values()
    star = star_expr(loop.expr)
    for e in g._out.get(v, _NONE).values():
        e.expr = concat_expr(star, e.expr)
    g._remove(loops)


def elim_node(g: LabeledRG, v: int) -> None:
    """Bypass v: one shortcut edge per (in-edge, out-edge) pair, then
    remove v entirely. Requires v to be an interior node with no self-loop
    and at least one successor."""
    if v == g.x0 or v == g.xf:
        raise GuardFailed("cannot eliminate the initial or final marking")
    if v not in g.alive:
        raise GuardFailed(f"node {v} was already removed")
    if v in g._loops:
        raise GuardFailed(f"node {v} still has a self-loop")
    outs = g._out.get(v, _NONE)
    if not outs:
        raise GuardFailed(f"node {v} has no successor")
    ins = g._in.get(v, _NONE)
    new_edges = [
        LEdge(ei.src, concat_expr(ei.expr, eo.expr), eo.dst, eo.final_result)
        for ei in ins.values()
        for eo in outs.values()
    ]
    g._remove([*ins, *outs])
    for e in new_edges:
        g.add(e)
    g.alive.discard(v)


# ---------------------------------------------------------------------------
# The phase strategy
# ---------------------------------------------------------------------------

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

    # min-fill heap of (fill, marking text, node); an entry is stale once
    # its node is gone or its fill changed, and every node whose degrees
    # change is pushed again
    keys = {v: g.node_key(v) for v in g.alive}
    heap = [(g.fill(v), keys[v], v) for v in g.alive if v not in (g.x0, g.xf)]
    heapq.heapify(heap)

    def push(nodes):
        for u in nodes:
            if u in g.alive and u != g.x0 and u != g.xf:
                heapq.heappush(heap, (g.fill(u), keys[u], u))

    while True:
        sites = sorted(g.dirty)
        g.dirty.clear()
        for v1, v2 in sites:
            if g._pairs.get((v1, v2), 0) > 1:
                elim_parallel(g, v1, v2)
                done("parallel", (v1, v2))
                push((v1, v2))
        # starring a loop adds no edge, so it makes no new parallel pair
        for v in sorted(g._loops):
            elim_selfloop(g, v)
            done("selfloop", v)

        while heap:
            fill, _key, v = heapq.heappop(heap)
            if v in g.alive and fill == g.fill(v) and v in g._out:
                break
        else:
            break  # no interior node has a successor: the graph cannot reduce further
        neighbours = {e.src for e in g.in_edges(v)} | {e.dst for e in g.out_edges(v)}
        elim_node(g, v)
        done("node", v)
        push(neighbours)

    leftover = g.alive - {g.x0} - ({g.xf} if g.xf is not None else set())
    if leftover or g.xf is None:
        return SummaryResult(summary=None, residual=g)
    exprs: dict[str, list[TransformerExpr]] = {}
    for e in g.edges:
        assert e.src == g.x0 and e.dst == g.xf and e.final_result is not None
        exprs.setdefault(e.final_result, []).append(e.expr)
    # one n-ary union per result: folding copies the growing part set
    return SummaryResult(summary={r: union_expr(*es) for r, es in exprs.items()})


def summarize_by_states(neg: Negotiation, cap: int = DEFAULT_CAP) -> SummaryResult:
    """Build the labeled reachability graph and reduce it. Returns the
    mapping final result -> transformer expression, or the residual graph
    when the diagram cannot reach its final marking from everywhere. The
    labels are put on the graph `reachability` keeps on `neg`."""
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

    The graph's edges are read into the form `_denotation` walks
    (`_edge_table`): per node its out-edges, each naming one label object
    and final result, so each distinct label object is evaluated once per
    call.
    """
    return _denotation(*_edge_table(g.edges), g.x0, g.xf, interp, space)


def _edge_table(edges: Iterable[LEdge]) -> tuple[dict, dict]:
    """`edges` as `_denotation` reads them: per source node, its
    out-edges as (label key, target) pairs, and per label key, the label
    and its final result. A key names one label object and final
    result."""
    succ: dict[int, list] = defaultdict(list)
    labels: dict = {}
    for e in edges:
        key = (id(e.expr), e.final_result)
        labels[key] = (e.expr, e.final_result)
        succ[e.src].append((key, e.dst))
    return succ, labels


def _moves(k: Kernel, r: Rows, every: tuple[str, ...], n: int) -> list:
    """The label `r` as (mask, shift) pairs on relations over `every` in
    block form. The global state (a, x), for a local entry a of `r` and
    an assignment x of the other agents, moves to (b, x) for each exit b
    of a: one pair per distance from an entry to an exit, its mask the
    blocks of the entries at that distance."""
    positions, offsets = k._lift(r.parties, every)
    full = (1 << n) - 1
    blocks = 0  # the blocks of (first entry, x) for every x
    for off in offsets:
        blocks |= full << off * n
    masks: dict[int, int] = {}
    for a, row in enumerate(r.rows):
        if row:
            mask = blocks << positions[a] * n
            for b in bits(row):
                d = positions[b] - positions[a]
                masks[d] = masks.get(d, 0) | mask
    return [(mask, d * n) for d, mask in masks.items()]


def _push(x: int, moves: list) -> int:
    """The relation `x` in block form moved by a label's `_moves`."""
    out = 0
    for mask, shift in moves:
        y = x & mask
        if y:
            out |= y << shift if shift >= 0 else y >> -shift
    return out


def _denotation(
    succ, labels: dict, x0: int, xf: Optional[int], interp, space: StateSpace
) -> dict[str, Rel]:
    """Per final result, the union of the relations of the paths from
    `x0` into `xf` that end in an edge carrying that result. `succ[u]`
    lists node u's out-edges as (label key, target) pairs, for every node
    reachable from `x0`; `labels` maps every key named there to its label
    expression and final result (None on an edge that carries none).

    Semi-naive Kleene iteration: a worklist carries, per node, only what
    the last visit added to its relation, and pushes that along the node's
    out-edges. Each label key is evaluated once per call. A node's
    relation over the n assignments of all the labels' agents is one int
    of n blocks of n bits: block t holds the initial assignments that
    reach assignment t. A push moves it whole, by AND and shift
    (`_moves`). Each result is restricted to the parties of the edges on
    its paths, kept per node as an agent bitmask.

    The results are filled in while the worklist runs: each push along an
    edge into `xf` carrying a result is OR-ed into that result's column,
    and the edge's parties into its parties. A push distributes over
    union, and a node is visited again whenever its parties grow, so
    this gives what pushing each node's final relation and parties along
    those edges once more would give."""
    k = Kernel(space)
    memo: dict = {}
    evaluated = {key: k.eval(expr, interp, memo) for key, (expr, _) in labels.items()}
    every = k.merged(*(r.parties for r in evaluated.values()))
    n = k.size(every)
    agent_bit = {a: 1 << i for i, a in enumerate(every)}
    moves = {  # label key -> (its moves, its agent bitmask, its final result)
        key: (
            _moves(k, r, every, n),
            sum(agent_bit[a] for a in r.parties),
            labels[key][1],
        )
        for key, r in evaluated.items()
    }

    start = sum(1 << s * (n + 1) for s in range(n))  # block s holds s
    reach = {x0: start}  # node -> its relation in block form
    parties = {x0: 0}  # node -> agent bitmask over `every`
    delta = {x0: start}
    work = deque([x0])
    queued = {x0}
    cols: dict[str, int] = {}  # result -> its relation in block form
    result_parties: dict[str, int] = {}
    while work:
        u = work.popleft()
        queued.discard(u)
        new = delta.pop(u, 0)
        for key, v in succ[u]:
            move, pe, r = moves[key]
            grown = parties[u] | pe
            if v not in reach:
                reach[v], parties[v], changed = 0, grown, True
            else:
                changed = grown & ~parties[v] != 0
                parties[v] |= grown
            pushed = _push(new, move) if new else 0
            if r is not None and v == xf:
                cols[r] = cols.get(r, 0) | pushed
                result_parties[r] = result_parties.get(r, 0) | grown
            if pushed:
                add = pushed & ~reach[v]
                if add:
                    reach[v] |= add
                    delta[v] = delta.get(v, 0) | add
                    changed = True
            if changed and v not in queued:
                work.append(v)
                queued.add(v)

    out: dict[str, Rel] = {}
    full = (1 << n) - 1
    for r, col in cols.items():
        rows = [0] * n
        for t in range(n):
            for i in bits(col >> t * n & full):
                rows[i] |= 1 << t
        kept = tuple(a for a in every if result_parties[r] & agent_bit[a])
        out[r] = k.rel(k.restrict(Rows(every, rows), kept))
    return out


def brute_force_summary(
    neg: Negotiation, interp, space: StateSpace, cap: int = DEFAULT_CAP
) -> dict[str, Rel]:
    """Union of the transformers of all large steps, per final result,
    straight off the reachability graph `reachability` keeps on `neg`:
    `_denotation` walks the graph's own successor lists, keyed by outcome,
    with one label per outcome of an atom in the graph's `fired` mask, in
    outcome order, so each outcome that fires is evaluated and turned into
    moves once, and no labeled edge is built. The relations returned keep
    their kernel rows, so comparing a summary with them (`rels_equal`)
    neither converts them nor builds their pairs."""
    graph = reachability(neg, cap)
    final, fired, index = neg.final, graph.fired, neg.atom_index
    labels = {
        o: (neg.transformer(o), o[1] if o[0] == final else None)
        for o in neg.outcomes()
        if fired >> index(o[0]) & 1
    }
    return _denotation(graph.succ, labels, 0, graph.final_index, interp, space)
