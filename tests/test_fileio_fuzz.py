"""Loader fuzzing: `fileio.loads` fails only with ParseError or
ValidationError, whatever JSON it is given, and `negsum validate` on a
mutated fixture file exits 0, 1 or 2 without an internal error.

The inputs are arbitrary JSON values, and the bundled fixtures with one
field (at any depth) replaced by an arbitrary JSON value, deleted, or
given an extra key.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from negsum import ParseError, ValidationError, fixture_names, load_fixture
from negsum.cli import main
from negsum.fileio import loads, to_dict

FIXTURE_DOCS = [to_dict(load_fixture(name)) for name in fixture_names()]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
    # names that occur in the fixtures, so replaced fields often still refer
    # to real agents, atoms and results
    | st.sampled_from(["n0", "n1", "nf", "F", "D", "M", "a", "r", "yes", "n0.a", "t1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def _paths(doc, prefix=()):
    """Every path to a value inside the document, the root excluded."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_fixtures(draw) -> str:
    doc = json.loads(json.dumps(draw(st.sampled_from(FIXTURE_DOCS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    action = draw(st.sampled_from(["replace", "delete", "extra"]))
    if action == "replace":
        parent[path[-1]] = draw(json_values)
    elif action == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=6))] = draw(json_values)
    else:
        parent.append(draw(json_values))
    return json.dumps(doc)


def loads_fails_cleanly(text: str) -> None:
    try:
        loads(text)
    except (ParseError, ValidationError):
        pass


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_loads_any_json_value(value):
    loads_fails_cleanly(json.dumps(value))


@settings(max_examples=500, deadline=None)
@given(mutated_fixtures())
def test_loads_mutated_fixture(text):
    loads_fails_cleanly(text)


@settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(mutated_fixtures())
def test_cli_validate_mutated_fixture_file(text):
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["validate", path])
    finally:
        os.unlink(path)
    assert code in (0, 1, 2)
    assert "internal error" not in err.getvalue(), err.getvalue()


def test_state_space_without_an_agent_of_a_relation_is_a_validation_error():
    """Found by the fuzzer: a `states` object that omits an agent used to
    crash the left-totality check of that agent's relations with a
    KeyError."""
    doc = to_dict(load_fixture("fdm_acyclic"))
    del doc["states"]["D"]
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    assert "state space missing agent 'D'" in err.value.violations
