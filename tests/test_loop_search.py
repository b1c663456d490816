"""The simple-cycle search of `negsum.structure` against networkx, which
stays installed as a test-only reference.

`find_loops` must list the cycles of the reachability graph in the exact
order of `networkx.simple_cycles` on the multigraph the loops were once
read from (nodes in order of first appearance on an edge). For
`syntactic_cycles` the reference's order depends on the string hashes of
the atom ids, so only the set of cycles is compared, each rotated to start
at its smallest atom; its own order must not depend on the hash seed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import islice
from pathlib import Path

import networkx as nx
import pytest

import negsum
from negsum import find_loops, fixture_names, load_fixture, reachability, syntactic_cycles
from negsum.structure import CYCLE_LIMIT, _simple_cycles

from conftest import negotiation_graph
from test_rule_traces import build_cases

CAP = 5_000  # markings: every case fits, and no search runs long


def reference_loops(neg) -> list[tuple[list, object]]:
    """(outcomes, marking) of each loop, as `find_loops` read them from
    networkx."""
    graph = reachability(neg, CAP)
    g = nx.MultiDiGraph()
    edge_lookup: dict = {}
    for v, out in enumerate(graph.succ):
        for o, w in out:
            g.add_edge(v, w)
            edge_lookup.setdefault((v, w), []).append(o)
    return [
        ([min(edge_lookup[e]) for e in zip(cycle, cycle[1:] + cycle[:1])], graph.nodes[cycle[0]])
        for cycle in islice(nx.simple_cycles(g), CYCLE_LIMIT)
    ]


@pytest.mark.parametrize("case", list(build_cases()))
def test_find_loops_lists_networkx_cycles_in_order(case):
    neg = build_cases()[case]
    loops = [(loop.outcomes, loop.marking) for loop in find_loops(neg, CAP)]
    assert loops == reference_loops(neg)


def rotated(cycle: list[str]) -> tuple[str, ...]:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


@pytest.mark.parametrize("name", fixture_names())
def test_syntactic_cycles_are_networkx_cycles(name):
    neg = load_fixture(name)
    cycles = [rotated(c) for c in syntactic_cycles(neg)]
    assert len(cycles) == len(set(cycles))
    assert set(cycles) == {rotated(c) for c in nx.simple_cycles(negotiation_graph(neg))}


def test_syntactic_cycles_do_not_depend_on_the_hash_seed():
    src = str(Path(negsum.__file__).parents[1])
    code = (
        "from negsum import fixture_names, load_fixture, syntactic_cycles\n"
        "for n in fixture_names(): print(n, syntactic_cycles(load_fixture(n)))"
    )
    outs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        outs.add(subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout)
    assert len(outs) == 1


@pytest.mark.parametrize("seed", range(4))
def test_simple_cycles_match_networkx_on_random_graphs(seed):
    """Random digraphs with self-loops and parallel edges, on shuffled and
    sparse node ids, so that the components iterate as sets do."""
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randint(1, 30)
        labels = rng.sample(range(n if rng.random() < 0.7 else 1_000), n)
        adj: dict[int, dict[int, None]] = {}
        g = nx.MultiDiGraph()
        for _ in range(int(n * n * rng.choice([0.03, 0.06, 0.1])) + 1):
            v, w = rng.choice(labels), rng.choice(labels)
            adj.setdefault(v, {})[w] = None
            adj.setdefault(w, {})
            g.add_edge(v, w)
        assert list(islice(_simple_cycles(adj), 500)) == list(islice(nx.simple_cycles(g), 500))
