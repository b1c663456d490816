"""Golden digests of the search layer.

Pins what the marking walks produce on the cases of `test_rule_traces`
(every bundled fixture, the generated diagrams and their mutants):

  reach    reachability node and edge order, and the final marking
  check    the `check_soundness` verdict, dead atoms and witness
  targets  `target_of_atom` for every atom
  index    `outcome_index` for every outcome
  dot      the `reach --dot` output
  loops    `find_loops` (fixtures only)

An exception is recorded as text. The expected values are sha256 digests
kept in `search_traces.json`; a rewritten walk must reproduce them byte
for byte.

Re-record (only for an intended change of the search layer) with
`PYTHONPATH=src python tests/test_search_traces.py --record`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from negsum import (
    NegsumError,
    check_soundness,
    find_loops,
    outcome_index,
    reachability,
    target_of_atom,
)
from negsum.cli import main
from negsum.fileio import reachability_dot

from test_rule_traces import build_cases, digest

EXPECTED_PATH = Path(__file__).with_name("search_traces.json")


def _guarded(fn):
    try:
        return fn()
    except NegsumError as e:
        return f"raises {type(e).__name__}: {e}"


def _reach_text(neg) -> str:
    graph = reachability(neg)
    lines = [str(m) for m in graph.nodes]
    lines += [
        f"{graph.node_index[src]} {a}.{r} {graph.node_index[dst]}"
        for src, (a, r), dst in graph.edges
    ]
    lines.append(f"final={graph.final}")
    return "\n".join(lines)


def _check_text(neg) -> str:
    v = check_soundness(neg)
    return (
        f"sound={v.sound} states={v.state_count} dead={sorted(v.dead_atoms)} "
        f"witness={v.stuck_witness}"
    )


def _target_text(neg, atom) -> str:
    rep = target_of_atom(neg, atom)
    return (
        f"{atom}: target={rep.target} conflict={rep.conflict} "
        f"explored={sorted(rep.explored_atoms)}"
    )


def _dot_text(case, neg) -> str:
    """Fixtures go through the CLI on their bundled file; generated
    diagrams through the function the CLI prints."""
    if not case.startswith("fixture:"):
        return reachability_dot(reachability(neg))
    path = resources.files("negsum") / "fixtures" / f"{case.split(':', 1)[1]}.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reach", "--dot", str(path)])
    return f"exit={code}\n{out.getvalue()}"


def _loops_text(neg) -> str:
    return "\n".join(
        f"{loop.outcomes} at {loop.marking} agents={sorted(loop.agents)}"
        for loop in find_loops(neg)
    )


def search_texts(case, neg) -> dict[str, str]:
    texts = {
        "reach": _guarded(lambda: _reach_text(neg)),
        "check": _guarded(lambda: _check_text(neg)),
        "targets": "\n".join(
            _guarded(lambda: _target_text(neg, a)) for a in neg.atoms
        ),
        "index": "\n".join(
            f"{o}: {_guarded(lambda: outcome_index(neg, o))}" for o in neg.outcomes()
        ),
        "dot": _guarded(lambda: _dot_text(case, neg)),
    }
    if case.startswith("fixture:"):
        texts["loops"] = _guarded(lambda: _loops_text(neg))
    return texts


def search_digests(case, neg) -> dict[str, str]:
    return {kind: digest(text) for kind, text in search_texts(case, neg).items()}


def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def test_case_set_matches_the_recording():
    assert list(build_cases()) == list(expected())


@pytest.mark.parametrize("case", list(build_cases()))
def test_search_layer_is_unchanged(case):
    assert search_digests(case, build_cases()[case]) == expected()[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_search_traces.py --record")
    table = {case: search_digests(case, neg) for case, neg in build_cases().items()}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} cases to {EXPECTED_PATH}")
