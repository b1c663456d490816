"""Golden digests of the fragments and segments of every bundled fixture.

For each fixture, `fragment_digests.json` pins a sha256 of
`fileio.dumps` of every fragment that `k_fragment(neg, k)` builds, for
k = 1..number of agents, and of every `segment(neg, o)`. A fragment
without a unique target has no negotiation and is recorded as "absent";
an exception is recorded as its text. A rewritten fragment builder must
reproduce every digest.

Re-record (only for an intended change of the fragments) with
`PYTHONPATH=src python tests/test_fragment_digests.py --record`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from negsum import NegsumError, dumps, fixture_names, k_fragment, load_fixture, segment

from test_rule_traces import digest

EXPECTED_PATH = Path(__file__).with_name("fragment_digests.json")


def _fragment_digest(frag) -> str:
    if frag.negotiation is None:
        return "absent"
    return digest(dumps(frag.negotiation))


def _guarded(fn):
    try:
        return fn()
    except NegsumError as e:
        return f"raises {type(e).__name__}: {e}"


def fragment_digests(neg) -> dict[str, object]:
    table: dict[str, object] = {}
    for k in range(1, len(neg.agents) + 1):
        table[f"k={k}"] = _guarded(
            lambda: {f.atom: _fragment_digest(f) for f in k_fragment(neg, k)}
        )
    for n, r in neg.outcomes():
        table[f"segment {n}.{r}"] = _guarded(lambda: _fragment_digest(segment(neg, (n, r))))
    return table


def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def test_fixture_set_matches_the_recording():
    assert fixture_names() == list(expected())


@pytest.mark.parametrize("name", fixture_names())
def test_fragments_are_unchanged(name):
    assert fragment_digests(load_fixture(name)) == expected()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_fragment_digests.py --record")
    table = {name: fragment_digests(load_fixture(name)) for name in fixture_names()}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} fixtures to {EXPECTED_PATH}")
