"""Golden digests of the random instance generator.

`generator_digests.json` pins, for each shape in `SHAPES`, a sha256 of
`fileio.dumps` of `generate_sound(seed, steps, agents, acyclic,
max_atoms)`, and of `mutate_unsound` of that diagram with
`random.Random(seed)` ("none" when it finds no mutant). The shapes cover
every agent count from 1 to 5, cyclic and acyclic runs, the atom cap
reached and not, the perfbench `generated` shapes, and the two large
diagrams of the ROADMAP baseline. A rewritten generator must reproduce
every digest: the differential tests, the trace goldens and the
benchmark all draw their instances from it.

Re-record (only for an intended change of the generator) with
`PYTHONPATH=src python tests/test_generator_digests.py --record`.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from negsum import dumps, generate_sound, mutate_unsound

from test_rule_traces import digest

EXPECTED_PATH = Path(__file__).with_name("generator_digests.json")

# (seed, steps, agents, acyclic, max_atoms)
SHAPES = (
    [(s, 2 + s % 7, 1 + s % 5, bool(s % 2), 12) for s in range(60)]
    + [(s, 24, 3, False, 12) for s in range(3)]
    + [(s, 40, 3, True, 20) for s in range(3)]
    + [(s, 32, 4, False, 16) for s in range(3)]
    + [(s, 48, 4, True, 24) for s in range(3)]
    + [(s, 32, 5, False, 16) for s in range(3)]
    + [(s, 64, 3, True, 32) for s in range(3)]
    + [(3, 300, 5, False, 100), (2202800, 72, 3, False, 32)]
)


def _key(shape) -> str:
    seed, steps, agents, acyclic, max_atoms = shape
    return f"{seed}/{steps}/{agents}/{'acyclic' if acyclic else 'cyclic'}/{max_atoms}"


def generator_digests(shape) -> dict[str, str]:
    seed, steps, agents, acyclic, max_atoms = shape
    neg = generate_sound(seed, steps, agents, acyclic, max_atoms=max_atoms)
    mutant = mutate_unsound(neg, random.Random(seed))
    return {
        "sound": digest(dumps(neg)),
        "mutant": "none" if mutant is None else digest(dumps(mutant)),
    }


def expected():
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def test_shape_list_matches_the_recording():
    assert [_key(s) for s in SHAPES] == list(expected())


@pytest.mark.parametrize("shape", SHAPES, ids=_key)
def test_generator_output_is_unchanged(shape):
    assert generator_digests(shape) == expected()[_key(shape)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_generator_digests.py --record")
    table = {_key(s): generator_digests(s) for s in SHAPES}
    EXPECTED_PATH.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} shapes to {EXPECTED_PATH}")
