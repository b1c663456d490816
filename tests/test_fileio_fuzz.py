"""Loader fuzzing: `fileio.loads` fails only with ParseError or
ValidationError, whatever JSON it is given, and `negsum validate` on a
mutated fixture file exits 0, 1 or 2 without an internal error.

The inputs are arbitrary JSON values, and the bundled fixtures with one
field (at any depth) replaced by an arbitrary JSON value, deleted, or
given an extra key.

The loader's checks build their messages only when they fail. The loader
as it was before that change is kept below, verbatim, as `reference_loads`:
on every input here the loader must return the same diagram, or raise the
same exception type with the same message.
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
from negsum.fixtures import fixture_text
from negsum.model import AtomSpec, Negotiation, Outcome, validate
from negsum.transformers import Rel, parse_expr

from test_io_cli import DEEP_TEXTS, MALFORMED_PROBES

# ---------------------------------------------------------------------------
# The reference loader (verbatim)
# ---------------------------------------------------------------------------

_TOP_KEYS = {"agents", "states", "atoms", "initial", "final", "transformers"}
_ATOM_KEYS = {"id", "parties", "results"}
_RESULT_KEYS = {"name", "next", "rel"}


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)} in {where}")


def _str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where} must be a string")
    return value


def _str_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(f"{where} must be a list of strings")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where} must be a list")
    return value


def _dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    return value


def reference_loads(text: str) -> Negotiation:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _require_keys(doc, _TOP_KEYS, "top level")
    for key in ("agents", "atoms", "initial", "final"):
        if key not in doc:
            raise ParseError(f"missing top-level key {key!r}")

    agents = _str_list(doc["agents"], "agents")
    initial = _str(doc["initial"], "initial")
    final = _str(doc["final"], "final")

    states = None
    if "states" in doc:
        states = {
            a: tuple(_str_list(qs, f"states[{a!r}]"))
            for a, qs in _dict(doc["states"], "states").items()
        }
        strangers = set(states) - set(agents)
        if strangers:
            raise ParseError(f"states lists non-agents {sorted(strangers)}")

    atoms: list[AtomSpec] = []
    transition: dict[tuple[str, str, str], list[str]] = {}
    rels: dict[Outcome, Rel] = {}
    for entry in _list(doc["atoms"], "atoms"):
        if not isinstance(entry, dict):
            raise ParseError("each atom must be an object")
        _require_keys(entry, _ATOM_KEYS, f"atom {entry.get('id')!r}")
        for key in _ATOM_KEYS:
            if key not in entry:
                raise ParseError(f"atom {entry.get('id')!r} missing key {key!r}")
        aid = _str(entry["id"], "atom id")
        parties = tuple(_str_list(entry["parties"], f"atom {aid!r} parties"))
        names = []
        for res in _list(entry["results"], f"atom {aid!r} results"):
            if not isinstance(res, dict):
                raise ParseError(f"atom {aid!r}: each result must be an object")
            _require_keys(res, _RESULT_KEYS, f"result of atom {aid!r}")
            if "name" not in res or "next" not in res:
                raise ParseError(f"atom {aid!r}: result missing 'name' or 'next'")
            rname = _str(res["name"], f"atom {aid!r}: result name")
            names.append(rname)
            nxt = _dict(res["next"], f"atom {aid!r} result {rname!r}: next")
            missing = set(parties) - set(nxt)
            extra = set(nxt) - set(parties)
            if missing:
                raise ParseError(
                    f"atom {aid!r} result {rname!r}: next omits parties {sorted(missing)}"
                )
            if extra:
                raise ParseError(
                    f"atom {aid!r} result {rname!r}: next lists non-parties {sorted(extra)}"
                )
            for p in parties:
                transition[(aid, p, rname)] = _str_list(
                    nxt[p], f"next[{p!r}] of {aid!r}.{rname!r}"
                )
            if "rel" in res:
                if states is None:
                    raise ParseError(
                        f"atom {aid!r} result {rname!r}: rel given without 'states'"
                    )
                pairs = set()
                for item in _list(res["rel"], f"atom {aid!r} result {rname!r}: rel"):
                    if not (isinstance(item, list) and len(item) == 2):
                        raise ParseError(
                            f"atom {aid!r} result {rname!r}: rel entries must be pairs"
                        )
                    entry_states = _str_list(item[0], "rel entry")
                    exit_states = _str_list(item[1], "rel exit")
                    if len(entry_states) != len(parties) or len(exit_states) != len(parties):
                        raise ParseError(
                            f"atom {aid!r} result {rname!r}: rel assignment length "
                            f"does not match the party count"
                        )
                    for p, q in zip(parties * 2, entry_states + exit_states):
                        if p in states and q not in states[p]:
                            raise ParseError(
                                f"atom {aid!r} result {rname!r}: rel state {q!r} "
                                f"is not a state of {p!r}"
                            )
                    pairs.add((tuple(entry_states), tuple(exit_states)))
                rels[(aid, rname)] = Rel(parties, frozenset(pairs))
        atoms.append(AtomSpec(aid, parties, tuple(names)))

    transformers = {}
    custom = doc.get("transformers")
    for key, text in _dict({} if custom is None else custom, "transformers").items():
        aid, _, rname = key.partition(".")
        if not rname:
            raise ParseError(f"transformers key {key!r} is not of the form atom.result")
        transformers[(aid, rname)] = parse_expr(_str(text, f"transformers[{key!r}]"))

    return validate(
        agents,
        atoms,
        initial,
        final,
        transition,
        transformers=transformers,
        rels=rels,
        states=states,
    )


def loaded(load, text: str):
    """The canonical document `load` reads from `text`, or the type and
    message of the loader error it raises. Any other exception propagates."""
    try:
        return to_dict(load(text))
    except (ParseError, ValidationError) as e:
        return type(e), str(e)


def loads_like_reference(text: str) -> None:
    assert loaded(loads, text) == loaded(reference_loads, text)


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

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


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_loads_any_json_value(value):
    loads_like_reference(json.dumps(value))


@settings(max_examples=500, deadline=None)
@given(mutated_fixtures())
def test_loads_mutated_fixture(text):
    loads_like_reference(text)


@pytest.mark.parametrize("name", fixture_names())
def test_loads_fixture_like_reference(name):
    loads_like_reference(fixture_text(name))


@pytest.mark.parametrize("probe", MALFORMED_PROBES)
def test_loads_malformed_probe_like_reference(probe):
    doc = json.loads(fixture_text("fdm_acyclic"))
    probe(doc)
    loads_like_reference(json.dumps(doc))


@pytest.mark.parametrize("make", DEEP_TEXTS)
def test_loads_deep_text_like_reference(make):
    loads_like_reference(make())


def _atom(doc):
    return doc["atoms"][0]


def _result(doc):
    return doc["atoms"][0]["results"][0]


# Edits of the fdm_acyclic fixture that reach the checks the probes above
# leave out, each failing in the first check it reaches.
EDGE_EDITS = [
    lambda d: _atom(d).pop("parties"),
    lambda d: [_atom(d).pop(k) for k in ("parties", "results")],
    lambda d: _atom(d).update(extra=1),
    lambda d: _atom(d).update(extra=1, id=[1, {"x": None}]),
    lambda d: _atom(d).update(parties=["F", 3]),
    lambda d: _atom(d).update(parties=["F", "F", "D", "M"]),
    lambda d: _atom(d).update(results=[5]),
    lambda d: _result(d).update(other=1),
    lambda d: _result(d).pop("next"),
    lambda d: _result(d).update(next=[]),
    lambda d: _result(d)["next"].pop("F"),
    lambda d: _result(d)["next"].update(X=["n1"]),
    lambda d: [_result(d)["next"].pop("F"), _result(d)["next"].update(X=["n1"])],
    lambda d: _result(d)["next"].update(D="n1"),
    lambda d: _result(d)["next"].update(D=["n1", None]),
    lambda d: _result(d).update(rel=[[["t1"], ["t1"]]]),
    lambda d: _result(d).update(rel=[[["t1", "t1", "t1"]]]),
    lambda d: _result(d).update(rel=[[["t1", "t1", 1], 5]]),
    lambda d: _result(d).update(rel=[[["t1", "t1", "t1"], "t1"]]),
    lambda d: _result(d)["rel"][0][0].__setitem__(2, "nowhere"),
    lambda d: _result(d)["rel"][0].__setitem__(1, ["nowhere", "t1", "gone"]),
    lambda d: [_result(d)["rel"][0][0].__setitem__(0, "x"), _result(d)["rel"].append(3)],
    lambda d: d["states"].pop("F"),
    lambda d: [d["states"].pop("F"), _result(d)["rel"][0][1].__setitem__(0, "any")],
    lambda d: d["states"].update(F="t1"),
    lambda d: d.pop("states"),
    lambda d: d.update(states=[]),
    lambda d: d.update(agents=["F", 1]),
    lambda d: d.update(final=None),
    lambda d: d.update(transformers={"n0": "x"}),
    lambda d: d.update(transformers={"n0.st": "n0.st·("}),
    lambda d: d.update(transformers={"n0.st": ["n0.st"]}),
    lambda d: d.update(extra=1, other=2),
    lambda d: [d.pop(k) for k in ("agents", "final")],
]


@pytest.mark.parametrize("edit", EDGE_EDITS)
def test_loads_edge_edit_like_reference(edit):
    doc = json.loads(fixture_text("fdm_acyclic"))
    edit(doc)
    loads_like_reference(json.dumps(doc))


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


def test_state_space_with_no_state_for_an_agent_is_a_validation_error():
    """An agent listed with an empty state list is not missing: it is
    told apart from an agent the `states` object omits."""
    doc = to_dict(load_fixture("fdm_acyclic"))
    doc["states"]["D"] = []
    for atom in doc["atoms"]:  # no relation may name a state of D
        for result in atom["results"]:
            del result["rel"]
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    assert "state space lists no state for agent 'D'" in err.value.violations
    assert not [v for v in err.value.violations if "missing agent" in v]
