from __future__ import annotations

import pytest

from negsum import (
    Atomic,
    AtomSpec,
    GuardFailed,
    brute_force_summary,
    concat_expr,
    elim_node,
    elim_parallel,
    elim_selfloop,
    eval_expr,
    expfam,
    format_expr,
    graph_denotation,
    labeled_rg,
    load_fixture,
    reachability,
    rels_equal,
    star_expr,
    summarize_by_states,
    union_expr,
    validate,
)
from negsum.fixtures import CLASSIFICATIONS, fixture_names
from negsum.state_elim import LEdge, LabeledRG, _labeled_edges, reduce_labeled_rg

from conftest import interp_for, labeled_edges, single_atom_negotiation


def small_graph(edges, x0=0, xf=None, n=None):
    n = n if n is not None else 1 + max(max(e[0], e[2]) for e in edges)
    return LabeledRG(
        markings=[None] * n,
        alive=set(range(n)),
        edges=[LEdge(s, expr, d, tag) for s, expr, d, *rest in edges
               for tag in [rest[0] if rest else None]],
        x0=x0,
        xf=xf,
    )


def atom(n, r):
    return Atomic((n, r))


def test_elim_parallel_merges_into_union():
    g = small_graph([(0, atom("n", "c"), 1), (0, atom("n", "d"), 1)], xf=2, n=3)
    elim_parallel(g, 0, 1)
    assert len(g.edges) == 1
    assert g.edges[0].expr == union_expr(atom("n", "c"), atom("n", "d"))


def test_elim_parallel_guard_failures():
    # the ladder's labeled graph starts without parallel non-final edges
    neg = load_fixture("ladder")
    g = labeled_rg(neg, reachability(neg))
    for v1 in g.alive:
        for v2 in g.alive:
            if v1 == v2:
                continue
            with pytest.raises(GuardFailed):
                elim_parallel(g, v1, v2)
    # and edges into the final marking are never merged
    g2 = small_graph(
        [(0, atom("nf", "a"), 1, "a"), (0, atom("nf", "b"), 1, "b")], xf=1
    )
    with pytest.raises(GuardFailed):
        elim_parallel(g2, 0, 1)


def test_elim_selfloop_prefixes_out_edges():
    g = small_graph(
        [
            (1, atom("n1", "b"), 1),
            (1, atom("n1", "c"), 2),
            (1, atom("n2", "d"), 3),
        ],
        xf=4,
        n=5,
    )
    elim_selfloop(g, 1)
    exprs = {(e.src, e.dst): e.expr for e in g.edges}
    star_b = star_expr(atom("n1", "b"))
    assert exprs[(1, 2)] == concat_expr(star_b, atom("n1", "c"))
    assert exprs[(1, 3)] == concat_expr(star_b, atom("n2", "d"))
    assert (1, 1) not in exprs


def test_elim_selfloop_without_successors_just_removes():
    g = small_graph([(1, atom("n", "b"), 1)], xf=2, n=3)
    elim_selfloop(g, 1)
    assert g.edges == []


def test_two_stacked_selfloops_need_parallel_first():
    neg = validate(
        ("p",),
        [
            AtomSpec("n0", ("p",), ("l1", "l2", "go")),
            AtomSpec("nf", ("p",), ("f",)),
        ],
        "n0",
        "nf",
        {
            ("n0", "p", "l1"): {"n0"},
            ("n0", "p", "l2"): {"n0"},
            ("n0", "p", "go"): {"nf"},
            ("nf", "p", "f"): set(),
        },
    )
    g = labeled_rg(neg, reachability(neg))
    v = next(v for v in g.alive if len(g.self_loops(v)) == 2)
    with pytest.raises(GuardFailed):
        elim_selfloop(g, v)
    # the strategy merges the loops first and still reduces fully
    result = summarize_by_states(neg)
    assert result.summary["f"] == concat_expr(
        star_expr(union_expr(atom("n0", "l1"), atom("n0", "l2"))),
        atom("n0", "go"),
        atom("nf", "f"),
    )


def test_elim_node_chain():
    g = small_graph([(0, atom("a", "1"), 1), (1, atom("b", "2"), 2)], xf=2)
    elim_node(g, 1)
    assert len(g.edges) == 1
    assert g.edges[0].expr == concat_expr(atom("a", "1"), atom("b", "2"))
    assert 1 not in g.alive


def test_elim_node_two_in_two_out():
    g = small_graph(
        [
            (0, atom("a", "1"), 2),
            (1, atom("a", "2"), 2),
            (2, atom("b", "1"), 3),
            (2, atom("b", "2"), 4),
        ],
        xf=4,
        n=5,
    )
    elim_node(g, 2)
    assert len(g.edges) == 4
    assert {(e.src, e.dst) for e in g.edges} == {(0, 3), (0, 4), (1, 3), (1, 4)}


def test_elim_node_guards():
    g = small_graph([(0, atom("a", "1"), 1), (1, atom("b", "2"), 2)], xf=2)
    with pytest.raises(GuardFailed):
        elim_node(g, 0)
    with pytest.raises(GuardFailed):
        elim_node(g, 2)
    dead_end = small_graph(
        [(0, atom("a", "1"), 1), (0, atom("a", "2"), 2), (2, atom("c", "1"), 3)],
        xf=3,
        n=4,
    )
    with pytest.raises(GuardFailed):
        elim_node(dead_end, 1)  # no successor


def test_ladder_expression():
    result = summarize_by_states(load_fixture("ladder"))
    assert result.fully_reduced
    b, c, d, e, f = (
        atom("n1", "b"),
        atom("n1", "c"),
        atom("n2", "d"),
        atom("n3", "e"),
        atom("nf", "f"),
    )
    expected = concat_expr(
        atom("n0", "a"),
        union_expr(
            concat_expr(star_expr(b), c, d),
            concat_expr(star_expr(b), d, star_expr(b), c),
        ),
        e,
        f,
    )
    assert result.summary == {"f": expected}


def test_single_atom_summary_is_atomic_refs():
    neg = single_atom_negotiation(("a", "b"))
    result = summarize_by_states(neg)
    assert result.summary == {"a": atom("n0", "a"), "b": atom("n0", "b")}


@pytest.mark.parametrize("name", ["fdm_acyclic", "fdm_cyclic", "ladder",
                                  "merge_demo", "iter_demo", "expfam(4)"])
def test_summary_eval_matches_brute_force(name):
    neg = expfam(4) if name == "expfam(4)" else load_fixture(name)
    space, interp = interp_for(neg)
    oracle = brute_force_summary(neg, interp, space)
    result = summarize_by_states(neg)
    assert result.fully_reduced
    assert set(result.summary) == set(oracle)
    for r, expr in result.summary.items():
        assert rels_equal(eval_expr(expr, interp, space), oracle[r], space)


@pytest.mark.parametrize("name", [*fixture_names(), *(f"expfam({k})" for k in range(1, 5))])
def test_summary_unions_each_result_once_as_the_fold_did(name):
    """Each result's summary is one n-ary union of the expressions on its
    edges into the final marking; folding them with a binary union, as
    the summary was once built, gives an equal expression with the same
    text."""
    neg = expfam(int(name[7])) if name.startswith("expfam") else load_fixture(name)
    g = labeled_rg(neg, reachability(neg))
    result = reduce_labeled_rg(g)
    if not result.fully_reduced:
        assert not CLASSIFICATIONS[name][3]
        return
    folded = {}
    for e in g.edges:
        r = e.final_result
        folded[r] = union_expr(folded[r], e.expr) if r in folded else e.expr
    assert result.summary == folded
    assert list(result.summary) == list(folded)
    for r, expr in folded.items():
        assert format_expr(result.summary[r]) == format_expr(expr)


def test_oracle_edges_share_one_label_per_outcome():
    """The shared labeling the oracle tests use lists the edges of
    `_labeled_edges` with one label object per outcome; elimination gives
    each edge its own, since its summary is built from them and the
    benchmark counts that summary's distinct objects."""
    neg = expfam(3)
    graph = reachability(neg)
    shared, _, _ = labeled_edges(neg, graph, shared=True)
    own, _, _ = _labeled_edges(neg, graph)
    assert [(e.src, e.expr, e.dst, e.final_result) for e in shared] == [
        (e.src, e.expr, e.dst, e.final_result) for e in own
    ]
    assert len({id(e.expr) for e in shared}) == neg.num_outcomes() == 17
    assert len({id(e.expr) for e in own}) == len(own)


@pytest.mark.parametrize("name", ["fdm_acyclic", "ladder", "fdm_cyclic"])
def test_each_rule_application_preserves_denotation(name):
    neg = load_fixture(name)
    space, interp = interp_for(neg)
    g = labeled_rg(neg, reachability(neg))
    baseline = graph_denotation(g, interp, space)

    def check(graph, kind, site):
        now = graph_denotation(graph, interp, space)
        assert set(now) == set(baseline), (kind, site)
        for r in baseline:
            assert rels_equal(now[r], baseline[r], space), (kind, site)

    result = reduce_labeled_rg(g, on_step=check)
    assert result.fully_reduced


def test_strategy_removes_one_node_per_phase():
    neg = load_fixture("running_multi")
    g = labeled_rg(neg, reachability(neg))
    node_eliminations = []

    def watch(graph, kind, site):
        if kind == "node":
            node_eliminations.append(site)

    total = len(g.alive)
    reduce_labeled_rg(g, on_step=watch)
    assert len(g.alive) == 2
    assert len(node_eliminations) == total - 2
    assert len(set(node_eliminations)) == len(node_eliminations)


def test_unsound_leaves_residual_nodes():
    result = summarize_by_states(load_fixture("fdm_unsound"))
    assert not result.fully_reduced
    assert len(result.residual.alive) > 2


def test_dead_atom_only_unsoundness_still_reduces():
    # an atom on a graph path that no token ever reaches: the reduction
    # still completes; flagging the dead atom is the soundness check's job
    agents = ("p", "q")
    neg = validate(
        agents,
        [
            AtomSpec("n0", agents, ("r",)),
            AtomSpec("a", agents, ("s",)),
            AtomSpec("b", agents, ("t",)),
            AtomSpec("nf", agents, ("f",)),
        ],
        "n0",
        "nf",
        {
            ("n0", "p", "r"): {"a", "b"},
            ("n0", "q", "r"): {"a"},
            ("a", "p", "s"): {"nf"},
            ("a", "q", "s"): {"nf"},
            ("b", "p", "t"): {"nf"},
            ("b", "q", "t"): {"nf"},
            ("nf", "p", "f"): set(),
            ("nf", "q", "f"): set(),
        },
    )
    from negsum import check_soundness

    verdict = check_soundness(neg)
    assert not verdict.sound and verdict.dead_atoms == {"b"}
    assert verdict.stuck_witness is None
    result = summarize_by_states(neg)
    assert result.fully_reduced


def test_shortcuts_create_parallels_that_merge():
    # reducing the ladder goes through a state with two parallel edges
    neg = load_fixture("ladder")
    g = labeled_rg(neg, reachability(neg))
    merged = []

    def watch(graph, kind, site):
        if kind == "parallel":
            merged.append(site)

    reduce_labeled_rg(g, on_step=watch)
    assert merged  # the two interleavings join between the same markings
