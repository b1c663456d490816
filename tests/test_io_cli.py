from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import negsum

from negsum import (
    Atomic,
    ParseError,
    ValidationError,
    apply_merge,
    check_soundness,
    classify,
    export_dot,
    expfam,
    fixture_names,
    format_expr,
    generate_sound,
    load_fixture,
    mutate_unsound,
    parse_expr,
    reachability,
)
from negsum import cli, fileio
from negsum.cli import main
from negsum.fileio import dumps, loads
from negsum.fixtures import fixture_text

FIXTURE_DIR = Path(negsum.__file__).with_name("fixtures")

GOLDEN_FDM_DOT = """\
digraph negotiation {
  rankdir=TB;
  "n0" [shape=record, label="{n0|{<p_F>F|<p_D>D|<p_M>M}}"];
  "n1" [shape=record, label="{n1|{<p_F>F|<p_D>D}}"];
  "n2" [shape=record, label="{n2|{<p_D>D|<p_M>M}}"];
  "nf" [shape=record, label="{nf|{<p_F>F|<p_D>D|<p_M>M}}"];
  "n0":p_F -> "n1":p_F [label="st"];
  "n0":p_D -> "n1":p_D [label="st"];
  "fork_n0_M_st" [shape=point, width=0.05];
  "n0":p_M -> "fork_n0_M_st" [label="st", arrowhead=none];
  "fork_n0_M_st" -> "n2":p_M;
  "fork_n0_M_st" -> "nf":p_M;
  "n1":p_F -> "nf":p_F [label="yes"];
  "n1":p_D -> "nf":p_D [label="yes"];
  "n1":p_F -> "nf":p_F [label="no"];
  "n1":p_D -> "nf":p_D [label="no"];
  "n1":p_F -> "nf":p_F [label="am"];
  "n1":p_D -> "n2":p_D [label="am"];
  "n2":p_D -> "nf":p_D [label="yes"];
  "n2":p_M -> "nf":p_M [label="yes"];
  "n2":p_D -> "nf":p_D [label="no"];
  "n2":p_M -> "nf":p_M [label="no"];
}
"""


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------

def test_fixture_files_are_canonical():
    # parse . serialize is the identity on the shipped files
    for name in ("fdm_acyclic", "running_multi", "ladder"):
        text = fixture_text(name)
        assert dumps(loads(text)) == text


def test_parse_rejects_missing_party_in_next():
    doc = json.loads(fixture_text("fdm_acyclic"))
    del doc["atoms"][0]["results"][0]["next"]["M"]
    with pytest.raises(ParseError) as err:
        loads(json.dumps(doc))
    assert "omits parties" in str(err.value)


def test_parse_rejects_unknown_keys():
    doc = json.loads(fixture_text("atomic"))
    doc["comment"] = "nope"
    with pytest.raises(ParseError):
        loads(json.dumps(doc))
    doc = json.loads(fixture_text("atomic"))
    doc["atoms"][0]["color"] = "red"
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def test_parse_rejects_non_left_total_relation():
    doc = json.loads(fixture_text("fdm_acyclic"))
    for atom in doc["atoms"]:
        for res in atom["results"]:
            if atom["id"] == "n1" and res["name"] == "yes":
                res["rel"] = res["rel"][:-1]  # drop one entry row
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    assert any("left-total" in v for v in err.value.violations)


def test_validate_rejects_transformer_for_missing_outcome():
    doc = json.loads(fixture_text("atomic"))
    doc["transformers"] = {"zz.q": "n0.a"}
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    assert any("('zz', 'q')" in v for v in err.value.violations)


def test_parse_rejects_rel_without_states():
    doc = json.loads(fixture_text("fdm_acyclic"))
    del doc["states"]
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


def two_atom_doc(initial="n0", result="r", parties=("a", "b")):
    """n0 -> nf over agents a and b, with the initial atom's id, its one
    result's name and its party list given."""
    return {
        "agents": ["a", "b"],
        "initial": initial,
        "final": "nf",
        "atoms": [
            {"id": initial, "parties": list(parties),
             "results": [{"name": result, "next": {"a": ["nf"], "b": ["nf"]}}]},
            {"id": "nf", "parties": ["a", "b"],
             "results": [{"name": "f", "next": {"a": [], "b": []}}]},
        ],
    }


def test_reduce_keeps_a_final_name_the_site_result_has(tmp_path, capsys):
    """Shortcutting n0's result f into the final atom, whose one result is
    also f, prints the summary under f, the final result's own name."""
    doc = {
        "agents": ["a"],
        "initial": "n0",
        "final": "nf",
        "atoms": [
            {"id": "n0", "parties": ["a"], "results": [{"name": "f", "next": {"a": ["nf"]}}]},
            {"id": "nf", "parties": ["a"], "results": [{"name": "f", "next": {"a": []}}]},
        ],
    }
    path = tmp_path / "same_name.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["reduce", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "f: n0.f·nf.f"


def assert_cli_rejects(tmp_path, capsys, doc, *argvs):
    """Each command exits 2 on the diagram, with one `error:` line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in argvs:
        assert main([*argv, str(path)]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: "), argv
        assert len(captured.err.splitlines()) == 1, argv


def test_an_atom_listing_a_party_twice_is_rejected(tmp_path, capsys):
    """A party listed twice would count twice in the atom's enabling
    mask, which no marking then meets."""
    doc = two_atom_doc(parties=("a", "a", "b"))
    with pytest.raises(ValidationError) as err:
        loads(json.dumps(doc))
    assert err.value.violations == ["atom 'n0' lists a party twice"]
    assert_cli_rejects(tmp_path, capsys, doc, ["check"], ["diag", "--fragments"])


UNSPELLABLE = ["", "n.0", "n 0", " n0", "n0\n", "n\u00a00", "(n0", "n0)", "n*", "n·0", "n∪0"]


@pytest.mark.parametrize("name", UNSPELLABLE)
def test_names_an_expression_cannot_spell_are_rejected(name, tmp_path, capsys):
    """An atom id or a result name the expression grammar cannot read as
    one word would print summaries that `parse_expr` rejects."""
    for doc, violation in (
        (two_atom_doc(initial=name), f"atom id {name!r} cannot be written"),
        (two_atom_doc(result=name), f"atom 'n0' result name {name!r} cannot be written"),
    ):
        with pytest.raises(ValidationError) as err:
            loads(json.dumps(doc))
        assert any(v.startswith(violation) for v in err.value.violations), err.value
        assert_cli_rejects(tmp_path, capsys, doc, ["summarize", "--method", "reduce"])


def test_spellable_names_print_summaries_that_parse_back():
    """The names the rule admits, signs the summaries print in fresh
    names included, survive a reduction's text and its diagrams' JSON."""
    for name in ("n0", "n-0", "n_0", "n+0", "n>0", "n:0", "n̂:0", "U", "id"):
        neg = loads(json.dumps(two_atom_doc(initial=name, result=name + "r")))
        trace = negsum.run_auto(neg)
        for r, e in trace.summary.items():
            assert parse_expr(format_expr(e)) == e, (name, r)
        assert loads(dumps(trace.diagram(1))) == trace.diagram(1), name


def _with_list_initial(doc):
    doc["initial"] = [doc["initial"]]


def _with_list_atom_id(doc):
    doc["atoms"][0]["id"] = [doc["atoms"][0]["id"]]


def _with_list_result_name(doc):
    res = doc["atoms"][0]["results"][0]
    res["name"] = [res["name"]]


def _with_transformers_list(doc):
    doc["transformers"] = ["x"]


def _with_non_string_transformer(doc):
    doc["transformers"] = {"n0.st": 5}


def _with_results_number(doc):
    doc["atoms"][0]["results"] = 5


def _with_rel_number(doc):
    doc["atoms"][0]["results"][0]["rel"] = 5


def _with_states_of_a_stranger(doc):
    doc["states"]["X"] = ["t1"]


def _with_rel_exit_outside_states(doc):
    doc["atoms"][0]["results"][0]["rel"][0][1][0] = "nowhere"


# malformed field -> a fragment of the ParseError message it must raise
MALFORMED_PROBES = {
    _with_list_initial: "must be a string",
    _with_list_atom_id: "must be a string",
    _with_list_result_name: "must be a string",
    _with_transformers_list: "transformers must be an object",
    _with_non_string_transformer: "must be a string",
    _with_results_number: "results must be a list",
    _with_rel_number: "rel must be a list",
    _with_states_of_a_stranger: "states lists non-agents ['X']",
    _with_rel_exit_outside_states: "rel state 'nowhere' is not a state of",
}


@pytest.mark.parametrize("probe", MALFORMED_PROBES)
def test_parse_rejects_non_string_names(probe):
    doc = json.loads(fixture_text("fdm_acyclic"))
    probe(doc)
    with pytest.raises(ParseError) as err:
        loads(json.dumps(doc))
    assert MALFORMED_PROBES[probe] in str(err.value)


@pytest.mark.parametrize("probe", MALFORMED_PROBES)
def test_cli_non_string_names_exit_2(tmp_path, capsys, probe):
    doc = json.loads(fixture_text("fdm_acyclic"))
    probe(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("validate", "check"):
        assert main([command, str(bad)]) == 2
        assert MALFORMED_PROBES[probe] in capsys.readouterr().err


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        loads("{not json")


# Texts nested deeper than Python's recursion limit. They are written out
# directly, because json.dumps would recurse on them too.
def _agents_nested_100000_deep():
    return '{"agents": ' + "[" * 100_000 + "]" * 100_000 + "}"


def _transformer_in_5000_parentheses():
    doc = json.loads(fixture_text("fdm_acyclic"))
    text = json.dumps(doc)[:-1]
    expr = "(" * 5000 + "n0.st" + ")" * 5000
    return text + ', "transformers": {"n0.st": "' + expr + '"}}'


DEEP_TEXTS = [_agents_nested_100000_deep, _transformer_in_5000_parentheses]


@pytest.mark.parametrize("make", DEEP_TEXTS)
def test_parse_rejects_deep_nesting(make):
    with pytest.raises(ParseError, match="nested too deeply"):
        loads(make())


@pytest.mark.parametrize("make", DEEP_TEXTS)
def test_cli_deep_nesting_exits_2(tmp_path, capsys, make):
    bad = tmp_path / "deep.json"
    bad.write_text(make(), encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nested too deeply" in err


def test_load_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    """A file that is not UTF-8 text (here UTF-16 with its byte-order
    mark) is a parse error, exit 2 with an `error:` line, not an internal
    error with a traceback."""
    bad = tmp_path / "utf16.json"
    bad.write_bytes(fixture_text("fdm_acyclic").encode("utf-16"))
    assert bad.read_bytes()[:2] == b"\xff\xfe"
    with pytest.raises(ParseError, match="not UTF-8 text"):
        fileio.load(bad)
    for command in ("validate", "check"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not UTF-8 text") and "Traceback" not in err


def test_composite_transformers_round_trip():
    neg = load_fixture("merge_demo")
    after = apply_merge(neg, ("n0", "a"), ("n0", "b")).after
    text = dumps(after)
    assert "transformers" in text
    again = loads(text)
    assert again.transformer(("n0", "a+b")) == after.transformer(("n0", "a+b"))


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def test_negotiation_dot_golden():
    assert export_dot(load_fixture("fdm_acyclic")) == GOLDEN_FDM_DOT


def test_single_atom_dot():
    text = export_dot(load_fixture("atomic"))
    assert text.count("shape=record") == 1
    assert "->" not in text


def test_reachability_dot_ladder():
    graph = reachability(load_fixture("ladder"))
    text = export_dot(graph)
    assert text.count("shape=circle") + text.count("shape=doublecircle") == 7
    assert text.count("->") == 9


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generate_zero_steps_is_atomic():
    neg = generate_sound(5, steps=0)
    assert neg.is_atomic()


def test_generate_rejects_negative_steps():
    with pytest.raises(ValueError, match="steps"):
        generate_sound(1, steps=-1)


@pytest.mark.parametrize("agents", [0, -2])
def test_generate_rejects_fewer_than_one_agent(agents):
    with pytest.raises(ValueError, match="num_agents"):
        generate_sound(1, steps=3, num_agents=agents)


def test_generate_is_deterministic_in_the_seed():
    assert dumps(generate_sound(9, 6)) == dumps(generate_sound(9, 6))


def test_generated_instances_are_sound_and_deterministic():
    for seed in range(12):
        neg = generate_sound(seed, steps=2 + seed % 6, num_agents=2 + seed % 3)
        cls = classify(neg)
        assert cls.deterministic
        assert check_soundness(neg).sound, seed


def test_generated_acyclic_mode():
    for seed in range(12):
        neg = generate_sound(seed, steps=2 + seed % 6, acyclic=True)
        assert classify(neg).acyclic, seed
        assert check_soundness(neg).sound, seed


def test_mutate_unsound_outputs():
    rng = random.Random(1)
    produced = 0
    for seed in range(12):
        base = generate_sound(seed, steps=4, num_agents=2, acyclic=True)
        mutant = mutate_unsound(base, rng)
        if mutant is None:
            continue
        produced += 1
        cls = classify(mutant)
        assert cls.deterministic and cls.acyclic
        assert not check_soundness(mutant).sound
    assert produced >= 6


def test_expfam_shape():
    neg = expfam(3)
    assert len(neg.agents) == 3
    assert len(neg.atoms) == 2 + 4 * 3
    cls = classify(neg)
    assert cls.deterministic and cls.acyclic
    assert check_soundness(neg).sound


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def fdm_file(tmp_path):
    path = tmp_path / "fdm_acyclic.json"
    path.write_text(fixture_text("fdm_acyclic"), encoding="utf-8")
    return str(path)


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name), encoding="utf-8")
    return str(path)


def test_cli_validate(fdm_file, capsys):
    assert main(["validate", fdm_file]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_classify(fdm_file, capsys):
    assert main(["classify", fdm_file]) == 0
    out = capsys.readouterr().out
    assert "deterministic: False" in out
    assert "weakly_deterministic: True" in out
    assert "acyclic: True" in out


def test_cli_check_sound_and_unsound(tmp_path, capsys):
    sound = write_fixture(tmp_path, "fdm_cyclic")
    assert main(["check", sound]) == 0
    capsys.readouterr()
    unsound = write_fixture(tmp_path, "fdm_unsound")
    assert main(["check", unsound]) == 1
    out = capsys.readouterr().out
    assert "witness: (n0,st) (n1,yes)" in out


@pytest.mark.parametrize("name", fixture_names())
def test_cli_reach(tmp_path, capsys, name):
    """`reach` prints the counts of the int graph; they are the lengths of
    the decoded views."""
    path = write_fixture(tmp_path, name)
    assert main(["reach", path]) == 0
    graph = reachability(load_fixture(name))
    assert capsys.readouterr().out == (
        f"nodes: {len(graph.nodes)}\n"
        f"edges: {len(graph.edges)}\n"
        f"final reachable: {graph.final is not None}\n"
    )
    if name == "ladder":
        assert (len(graph.nodes), len(graph.edges)) == (7, 9)
    assert main(["reach", path, "--dot"]) == 0
    assert "digraph reachability" in capsys.readouterr().out


def test_cli_reach_budget(tmp_path, capsys):
    ladder = write_fixture(tmp_path, "ladder")
    assert main(["reach", ladder, "--cap", "2"]) == 2
    assert "budget" in capsys.readouterr().err
    # a cap below 1 is a usage error, also exit 2, before any exploration
    with pytest.raises(SystemExit) as exc:
        main(["reach", ladder, "--cap", "0"])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_summarize_states(tmp_path, capsys):
    ladder = write_fixture(tmp_path, "ladder")
    assert main(["summarize", ladder, "--method", "states"]) == 0
    out = capsys.readouterr().out
    assert "f: n0.a·(n1.b*·n1.c·n2.d ∪ n1.b*·n2.d·n1.b*·n1.c)·n3.e·nf.f" in out


def test_atom_named_id_round_trips(tmp_path, capsys):
    """An atom may be named `id`: its outcomes print as `id.r` and read
    back as the atom, in a summary and in a `transformers` section."""
    doc = {
        "agents": ["p"],
        "atoms": [
            {"id": "id", "parties": ["p"], "results": [{"name": "go", "next": {"p": ["nf"]}}]},
            {"id": "nf", "parties": ["p"], "results": [{"name": "f", "next": {"p": []}}]},
        ],
        "initial": "id",
        "final": "nf",
    }
    path = tmp_path / "id.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["summarize", str(path), "--method", "states"]) == 0
    out = capsys.readouterr().out
    assert out == "f: id.go·nf.f\n"
    assert format_expr(parse_expr(out[3:-1])) == "id.go·nf.f"
    doc["transformers"] = {"id.go": "id.go"}
    neg = loads(json.dumps(doc))
    assert neg.transformer(("id", "go")) == Atomic(("id", "go"))


def test_cli_summarize_reduce(tmp_path, capsys):
    running = write_fixture(tmp_path, "running_multi")
    assert main(["summarize", running, "--method", "reduce"]) == 0
    out = capsys.readouterr().out
    assert "applications:" in out


def test_cli_summarize_unsound(tmp_path, capsys):
    unsound = write_fixture(tmp_path, "fdm_unsound")
    assert main(["summarize", unsound, "--method", "states"]) == 1
    assert main(["summarize", unsound, "--method", "reduce"]) == 1


def test_cli_reduce_trace(tmp_path, capsys):
    running = write_fixture(tmp_path, "running_multi")
    out_file = tmp_path / "trace.log"
    assert main(["reduce", running, "--trace", str(out_file)]) == 0
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines
    assert lines[0].startswith("k=1 rule=")
    assert all("site=" in line and "total=" in line for line in lines)


def test_cli_diag(tmp_path, capsys):
    running = write_fixture(tmp_path, "running_multi")
    assert main(["diag", running, "--fragments", "--loops"]) == 0
    out = capsys.readouterr().out
    assert "fragment n1:" in out
    assert "synchronizers=" in out


def test_cli_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.json"
    assert main(["gen", "--seed", "3", "--steps", "5", "--acyclic",
                 "-o", str(out_file)]) == 0
    neg = loads(out_file.read_text(encoding="utf-8"))
    assert classify(neg).acyclic
    assert check_soundness(neg).sound


def test_cli_demo(capsys):
    assert main(["demo", "expfam", "--k", "4", "--strategy", "initial"]) == 0
    out = capsys.readouterr().out
    assert "peak results at the initial atom: 8" in out
    assert main(["demo", "expfam", "--k", "4", "--strategy", "alternating"]) == 0
    out = capsys.readouterr().out
    assert "applications: 21" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["demo", "expfam", "--k", "0"],
        ["demo", "expfam", "--k", "-3"],
        ["gen", "--seed", "1", "--steps", "-1"],
        ["gen", "--seed", "1", "--steps", "3", "--agents", "0"],
        ["gen", "--seed", "1", "--steps", "3", "--agents", "-2"],
        ["check", str(FIXTURE_DIR / "atomic.json"), "--cap", "-3"],
        ["check", str(FIXTURE_DIR / "atomic.json"), "--cap", "0"],
        ["reach", str(FIXTURE_DIR / "atomic.json"), "--cap", "0"],
        ["summarize", str(FIXTURE_DIR / "atomic.json"), "--cap", "-1"],
    ],
)
def test_cli_rejects_out_of_range_counts(capsys, argv):
    """Out-of-range counts are usage errors (exit 2), not a traceback with
    exit 1, the "unsound" code, and not a silently shrunk diagram."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

def test_cli_builds_its_parser_once(fdm_file, capsys, monkeypatch):
    main(["validate", fdm_file])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    commands = [["validate"], ["classify"], ["check"], ["reach", "--dot"], ["diag", "--loops"]]
    for i in range(20):
        command, *options = commands[i % len(commands)]
        assert main([command, fdm_file, *options]) == 0
    assert len(built) <= 1


def test_cli_reach_after_reach_dot(tmp_path, capsys):
    ladder = write_fixture(tmp_path, "ladder")
    assert main(["reach", ladder, "--dot"]) == 0
    assert "digraph reachability" in capsys.readouterr().out
    assert main(["reach", ladder]) == 0
    out = capsys.readouterr().out
    assert out.startswith("nodes: 7\n") and "digraph" not in out


def test_cli_summarize_after_reduce_method_uses_states(tmp_path, capsys):
    ladder = write_fixture(tmp_path, "ladder")
    assert main(["summarize", ladder, "--method", "states"]) == 0
    states = capsys.readouterr().out
    assert main(["summarize", ladder, "--method", "reduce"]) == 0
    assert "applications:" in capsys.readouterr().out
    assert main(["summarize", ladder]) == 0
    assert capsys.readouterr().out == states


def test_cli_valid_call_after_usage_error(fdm_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "expfam", "--k", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["validate", fdm_file]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("valid: ") and captured.err == ""


def _help_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--help"], ["summarize", "--help"]])
def test_cli_help_matches_a_fresh_parser(fdm_file, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    main(["summarize", fdm_file, "--method", "reduce"])
    capsys.readouterr()
    shared = _help_text(main, argv, capsys)
    fresh = _help_text(cli.build_parser.__wrapped__().parse_args, argv, capsys)
    assert shared == fresh
    assert shared.startswith("usage: negsum")


def test_cli_missing_file(capsys):
    assert main(["check", "/nonexistent/never.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [AssertionError("bound passed"), KeyError("x"), RecursionError()])
def test_cli_internal_error_exits_2(fdm_file, capsys, monkeypatch, error):
    """An unexpected exception is a defect, not a verdict: an
    `internal error:` line, the traceback, and exit 2, never 1, the
    "unsound" code."""

    def broken(neg):
        raise error

    monkeypatch.setattr(cli, "run_auto", broken)
    assert main(["reduce", fdm_file]) == 2
    captured = capsys.readouterr()
    first, rest = captured.err.split("\n", 1)
    assert first == f"internal error: {type(error).__name__}: {error}"
    assert rest.startswith("Traceback") and "in broken" in rest
    assert captured.out == ""


def test_cli_import_leaves_networkx_out(tmp_path):
    """No negsum code path imports networkx, which is a test-only
    reference: not the CLI, not the loop diagnostics, not the syntactic
    cycles."""
    src = str(Path(negsum.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    running = write_fixture(tmp_path, "running_multi")
    code = (
        "import contextlib, io, sys\n"
        "from negsum import cli, load_fixture, syntactic_cycles\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['diag', '--fragments', '--loops', {running!r}])\n"
        "cycles = syntactic_cycles(load_fixture('fdm_cyclic'))\n"
        "print(code, bool(cycles), sorted(m for m in sys.modules if 'networkx' in m))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == "0 True []\n"


def test_cli_summarize_reduce_within_bound(tmp_path, capsys):
    running = write_fixture(tmp_path, "running_multi")
    neg = load_fixture("running_multi")
    k, l = len(neg.atoms), neg.num_outcomes()
    assert main(["summarize", running, "--method", "reduce"]) == 0
    out = capsys.readouterr().out
    applications = int(out.split("applications: ")[1].split()[0])
    assert applications <= 2 * k**3 + k**2 + k * l + l


def test_cli_output_stable_across_runs(tmp_path, capsys):
    running = write_fixture(tmp_path, "running_multi")
    runs = []
    for _ in range(2):
        code = main(["summarize", running, "--method", "reduce"])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    checks = []
    unsound = write_fixture(tmp_path, "fdm_unsound")
    for _ in range(2):
        code = main(["check", unsound])
        checks.append((code, capsys.readouterr().out))
    assert checks[0] == checks[1] and checks[0][0] == 1
