"""The negotiation file format (strict JSON), canonical serialization, and
DOT export.

File layout::

    {
      "agents": ["F", "D", "M"],
      "states": {"F": ["t1", "t2"], ...},          # optional
      "atoms": [
        {"id": "n0", "parties": ["F", "D", "M"], "results": [
          {"name": "st",
           "next": {"F": ["n1"], "D": ["n1"], "M": ["n2", "nf"]},
           "rel": [[["t1","t1","t1"], ["t1","t1","t1"]], ...]}   # optional
        ]},
        ...
      ],
      "initial": "n0",
      "final": "nf",
      "transformers": {"n0.st": "<expr>"}           # optional, non-default only
    }

`next` must cover exactly the atom's parties. `rel` lists entry/exit state
assignments aligned with the party order and requires `states`. Unknown
keys are rejected.
"""

from __future__ import annotations

import json
from .errors import ParseError
from .model import AtomSpec, Negotiation, Outcome, validate
from .semantics import ReachabilityGraph
from .transformers import Atomic, Rel, format_expr, parse_expr

_TOP_KEYS = {"agents", "states", "atoms", "initial", "final", "transformers"}
_ATOM_KEYS = {"id", "parties", "results"}
_RESULT_KEYS = {"name", "next", "rel"}


# Every check below tests first and builds its message only when the test
# fails: `where` is a `str.format` template filled in with `args`, so a
# file that loads formats no text.

def _require_keys(obj: dict, allowed: set[str], where: str, *args):
    if not obj.keys() <= allowed:
        unknown = set(obj) - allowed
        raise ParseError(f"unknown keys {sorted(unknown)} in {where.format(*args)}")


def _str(value, where: str, *args) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where.format(*args)} must be a string")
    return value


def _str_list(value, where: str, *args) -> list[str]:
    if isinstance(value, list):
        for x in value:
            if not isinstance(x, str):
                break
        else:
            return value
    raise ParseError(f"{where.format(*args)} must be a list of strings")


def _list(value, where: str, *args) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where.format(*args)} must be a list")
    return value


def _dict(value, where: str, *args) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where.format(*args)} must be an object")
    return value


def _fits(assignment, party_states: list) -> bool:
    """Whether a `rel` assignment is a list of one state of each party:
    `party_states` holds each party's states as a set, or None when
    `states` does not list the party."""
    if not isinstance(assignment, list) or len(assignment) != len(party_states):
        return False
    for q, allowed in zip(assignment, party_states):
        if not isinstance(q, str) or (allowed is not None and q not in allowed):
            return False
    return True


def _bad_rel_pair(item: list, aid: str, rname: str, parties: tuple, party_states: list):
    """Raise the error of a `rel` pair that does not fit: the first failing
    check of the entry types, the exit types, the lengths, then the states."""
    entry_states = _str_list(item[0], "rel entry")
    exit_states = _str_list(item[1], "rel exit")
    if len(entry_states) != len(parties) or len(exit_states) != len(parties):
        raise ParseError(
            f"atom {aid!r} result {rname!r}: rel assignment length "
            f"does not match the party count"
        )
    for assignment in (entry_states, exit_states):
        for p, allowed, q in zip(parties, party_states, assignment):
            if allowed is not None and q not in allowed:
                raise ParseError(
                    f"atom {aid!r} result {rname!r}: rel state {q!r} "
                    f"is not a state of {p!r}"
                )


def loads(text: str) -> Negotiation:
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
            a: tuple(_str_list(qs, "states[{!r}]", a))
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
        if entry.keys() != _ATOM_KEYS:
            _require_keys(entry, _ATOM_KEYS, "atom {!r}", entry.get("id"))
            for key in _ATOM_KEYS:
                if key not in entry:
                    raise ParseError(f"atom {entry.get('id')!r} missing key {key!r}")
        aid = _str(entry["id"], "atom id")
        parties = tuple(_str_list(entry["parties"], "atom {!r} parties", aid))
        party_set = set(parties)
        # each party's states as a set, or None when `states` omits the
        # party; built at the atom's first `rel`
        party_states = None
        names = []
        for res in _list(entry["results"], "atom {!r} results", aid):
            if not isinstance(res, dict):
                raise ParseError(f"atom {aid!r}: each result must be an object")
            _require_keys(res, _RESULT_KEYS, "result of atom {!r}", aid)
            if "name" not in res or "next" not in res:
                raise ParseError(f"atom {aid!r}: result missing 'name' or 'next'")
            rname = _str(res["name"], "atom {!r}: result name", aid)
            names.append(rname)
            nxt = _dict(res["next"], "atom {!r} result {!r}: next", aid, rname)
            if nxt.keys() != party_set:
                missing = party_set - set(nxt)
                extra = set(nxt) - party_set
                if missing:
                    raise ParseError(
                        f"atom {aid!r} result {rname!r}: next omits parties {sorted(missing)}"
                    )
                raise ParseError(
                    f"atom {aid!r} result {rname!r}: next lists non-parties {sorted(extra)}"
                )
            for p in parties:
                transition[(aid, p, rname)] = _str_list(
                    nxt[p], "next[{!r}] of {!r}.{!r}", p, aid, rname
                )
            if "rel" in res:
                if states is None:
                    raise ParseError(
                        f"atom {aid!r} result {rname!r}: rel given without 'states'"
                    )
                if party_states is None:
                    party_states = [
                        frozenset(states[p]) if p in states else None for p in parties
                    ]
                pairs = set()
                for item in _list(res["rel"], "atom {!r} result {!r}: rel", aid, rname):
                    if not (isinstance(item, list) and len(item) == 2):
                        raise ParseError(
                            f"atom {aid!r} result {rname!r}: rel entries must be pairs"
                        )
                    entry_states, exit_states = item
                    if not (
                        _fits(entry_states, party_states) and _fits(exit_states, party_states)
                    ):
                        _bad_rel_pair(item, aid, rname, parties, party_states)
                    pairs.add((tuple(entry_states), tuple(exit_states)))
                rels[(aid, rname)] = Rel(parties, frozenset(pairs))
        atoms.append(AtomSpec(aid, parties, tuple(names)))

    transformers = {}
    custom = doc.get("transformers")
    for key, text in _dict({} if custom is None else custom, "transformers").items():
        aid, _, rname = key.partition(".")
        if not rname:
            raise ParseError(f"transformers key {key!r} is not of the form atom.result")
        transformers[(aid, rname)] = parse_expr(_str(text, "transformers[{!r}]", key))

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


def load(path) -> Negotiation:
    """`loads` of the file's text; `ParseError` if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8 text: {e}") from None
    return loads(text)


def to_dict(neg: Negotiation) -> dict:
    """Canonical document: declaration order everywhere, sorted rel pairs."""
    doc: dict = {"agents": list(neg.agents)}
    if neg.states is not None:
        doc["states"] = {a: list(neg.states[a]) for a in neg.agents}
    doc["atoms"] = []
    for spec in neg.atoms.values():
        results = []
        for r in spec.results:
            res: dict = {
                "name": r,
                "next": {
                    p: sorted(neg.targets(spec.id, p, r), key=neg.atom_index)
                    for p in spec.parties
                },
            }
            rel = neg.rels.get((spec.id, r))
            if rel is not None:
                res["rel"] = [
                    [list(entry), list(exit_)] for entry, exit_ in sorted(rel.pairs)
                ]
            results.append(res)
        doc["atoms"].append(
            {"id": spec.id, "parties": list(spec.parties), "results": results}
        )
    doc["initial"] = neg.initial
    doc["final"] = neg.final
    custom = {
        f"{aid}.{r}": format_expr(expr)
        for (aid, r), expr in sorted(neg.transformers.items())
        if expr != Atomic((aid, r))
    }
    if custom:
        doc["transformers"] = custom
    return doc


def dumps(neg: Negotiation) -> str:
    return json.dumps(to_dict(neg), indent=2, ensure_ascii=False) + "\n"


def dump(neg: Negotiation, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(neg))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _port(agent: str) -> str:
    return "p_" + "".join(c if c.isalnum() else "_" for c in agent)


def negotiation_dot(neg: Negotiation) -> str:
    """Atoms as record boxes with one port per party; proper hyperarcs go
    through an intermediate fork point."""
    lines = ["digraph negotiation {", "  rankdir=TB;"]
    for spec in neg.atoms.values():
        ports = "|".join(f"<{_port(p)}>{p}" for p in spec.parties)
        label = f"{{{spec.id}|{{{ports}}}}}"
        lines.append(f"  {_dot_quote(spec.id)} [shape=record, label={_dot_quote(label)}];")
    for spec in neg.atoms.values():
        for r in spec.results:
            for p in spec.parties:
                targets = sorted(neg.targets(spec.id, p, r), key=neg.atom_index)
                src = f"{_dot_quote(spec.id)}:{_port(p)}"
                if len(targets) == 1:
                    dst = f"{_dot_quote(targets[0])}:{_port(p)}"
                    lines.append(f"  {src} -> {dst} [label={_dot_quote(r)}];")
                elif len(targets) > 1:
                    fork = f"fork_{spec.id}_{p}_{r}"
                    lines.append(
                        f"  {_dot_quote(fork)} [shape=point, width=0.05];"
                    )
                    lines.append(
                        f"  {src} -> {_dot_quote(fork)} "
                        f"[label={_dot_quote(r)}, arrowhead=none];"
                    )
                    for t in targets:
                        lines.append(
                            f"  {_dot_quote(fork)} -> {_dot_quote(t)}:{_port(p)};"
                        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def reachability_dot(graph: ReachabilityGraph) -> str:
    lines = ["digraph reachability {", "  rankdir=TB;"]
    for i, m in enumerate(graph.nodes):
        shape = "doublecircle" if i == graph.final_index else "circle"
        lines.append(
            f"  {_dot_quote(f'x{i}')} [shape={shape}, label={_dot_quote(str(m))}];"
        )
    for i, out in enumerate(graph.succ):
        for (aid, r), j in out:
            lines.append(
                f"  {_dot_quote(f'x{i}')} -> {_dot_quote(f'x{j}')} "
                f"[label={_dot_quote(f'{aid}.{r}')}];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj) -> str:
    if isinstance(obj, Negotiation):
        return negotiation_dot(obj)
    if isinstance(obj, ReachabilityGraph):
        return reachability_dot(obj)
    raise TypeError(f"cannot export {type(obj).__name__} to DOT")
