"""Smoke tests of the measuring scripts: each script under `scripts/` is
loaded by path and its measuring function runs once on its smallest
input, so a change to the API they call cannot leave them broken unseen.
Besides the whole record of `scaling.py`, its state-space half
(`markings_rate`), its rules half (`rule_rate`), its relation-evaluation
half (`eval_rate`) and its CLI half (`cli_latency`) have a case each.
`build_fixtures.py` builds the fixture corpus without writing it, and
every built fixture must equal its bundled file."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
from functools import partial

import pytest

from negsum import dumps, expfam, fixture_text, rules, strategies

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scaling(m):
    # the smallest points, one call each: each call collects garbage
    # first, which in the test process costs more than the call
    m.REPEATS, m.MIN_APPLICATIONS, m.ROUNDS = 1, 0, 1
    m.STATE_KS = m.ORACLE_KS = m.ELIMINATION_KS = m.RULE_KS = m.DEMO_KS = m.RATIO_KS = (1, 2)
    m.SWEEP_KS = (3, 6)
    # one fixture, command and input: the `cli_latency` and `eval_rate`
    # cases run the rest of those sections
    m.FIXTURE_NAMES, m.COMMANDS = ["atomic"], m.COMMANDS[:1]
    m.EVAL_INPUTS = [("expfam(1)", partial(expfam, 1))]
    guards = {(module, name): getattr(module, name)
              for module in (rules, strategies) for name in m.GUARDS if hasattr(module, name)}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        m.main()
    record = json.loads(out.getvalue())
    assert all(getattr(module, name) is f for (module, name), f in guards.items())
    assert set(record) == {"rev", "edited", "python", "machine", "cpus", "cli", "evaluation",
                           "expfam", "rules", "demo", "ratio", "sweep", "slopes"}
    assert record["cli"]["fixtures"] == 1 and record["cli"]["peak_rss_mb"] > 0
    assert list(record["cli"]["median_s"]) == [
        "load", *(name for name, _ in m.COMMANDS), "all commands"]
    assert list(record["evaluation"]) == ["expfam(1)"]
    evaluation = record["evaluation"]["expfam(1)"]
    assert set(evaluation) == {"states", "rules", "conversions", "crosscheck_s", "markings",
                               "n", "oracle_s"}
    for engine in ("states", "rules"):
        assert set(evaluation[engine]) == {"compositions", "spreads", "eval_s", "read_back"}
        assert set(evaluation[engine]["read_back"]) == {"parse_s", "eval_s", "format_s"}
    assert record["python"] == platform.python_version()
    assert [row["k"] for row in record["expfam"]] == [1, 2]
    assert record["expfam"][0]["markings"] == 7 and record["expfam"][0]["K"] == 6
    for row in record["expfam"]:
        assert set(row) == {"k", "K", "L", "markings", "edges", "reachability_s",
                            "markings_per_s", "graph_mb", "check_s", "oracle_s",
                            "oracle_peak_mb", "elimination_s"}
        assert min(v for v in row.values() if v is not None) > 0
    columns = {"K", "L", "applications", "guard_calls_per_application", "peak_initial_results",
               "rules_s", "ms_per_application", "trace_kb_per_application"}
    bounded = columns | {"strategy", "bound", "applications_per_bound"}
    assert list(record["rules"]) == ["run_auto", "run_general"]
    assert list(record["demo"]) == ["initial", "alternating"]
    assert list(record["sweep"]) == ["acyclic", "cyclic"]
    for rows in record["demo"].values():
        assert [row["k"] for row in rows] == [1, 2]
        assert all(set(row) == columns | {"k"} for row in rows)
    for rows in [*record["rules"].values(), *record["sweep"].values()]:
        assert len(rows) == 2
        for row in rows:
            assert bounded <= set(row)
            assert 0 < row["applications"] <= row["bound"], row
    for family in ("rules", "demo", "sweep"):
        for rows in record[family].values():
            assert all(row["guard_calls_per_application"] > 0 for row in rows)
    assert {row["strategy"] for row in record["rules"]["run_auto"]} == {"run_acyclic"}
    assert {row["strategy"] for row in record["sweep"]["cyclic"]} == {"run_general"}
    assert record["ratio"]["ms_per_application_ratio"] > 0
    assert record["slopes"]["expfam markings"] > 0
    assert all(isinstance(v, float) for v in record["slopes"].values())


def markings_rate(m):
    m.REPEATS = 1
    one, two = m.state_row(1), m.state_row(2)
    assert (one["markings"], one["K"], one["L"]) == (7, 6, expfam(1).num_outcomes())
    assert one["edges"] > 0
    assert one["reachability_s"] >= 0 and one["check_s"] >= 0
    assert 0 < one["graph_mb"] < two["graph_mb"]
    assert two["markings"] > one["markings"]
    assert one["oracle_s"] >= 0 and one["oracle_peak_mb"] > 0 and one["elimination_s"] >= 0


def rule_rate(m):
    # the fewest calls: each call collects garbage first, which in the
    # test process costs more than the reduction
    m.REPEATS, m.MIN_APPLICATIONS, m.ROUNDS = 1, 0, 1
    for name, strategy in (("run_auto", "run_acyclic"), ("run_general", "run_general")):
        row = m.rules_row(partial(expfam, 2), name)
        assert row["strategy"] == strategy
        assert 0 < row["applications"] <= row["bound"]
        assert row["peak_initial_results"] >= 1 and row["trace_kb_per_application"] > 0
        assert row["ms_per_application"] >= 0
    for demo in ("initial", "alternating"):
        row = m.rules_row(partial(expfam, 2), demo)
        assert "bound" not in row and row["applications"] > 0
    m.RATIO_KS = (1, 2)
    assert m.interleaved_ratio()["ms_per_application_ratio"] > 0


def cli_latency(m):
    m.run_cli(["validate", str(m.FIXTURES / "atomic.json")])
    assert m.peak_rss_mb() > 0
    m.REPEATS, m.FIXTURE_NAMES = 1, ["atomic"]
    section = m.cli_latency()
    assert section["fixtures"] == 1 and section["peak_rss_mb"] > 0
    assert len(section["median_s"]) == 11 and min(section["median_s"].values()) >= 0


def eval_rate(m):
    m.REPEATS = 1
    row = m.evaluation_row(expfam(1))
    assert list(row)[:2] == ["states", "rules"]
    rows = [row[engine] for engine in ("states", "rules")]
    assert all(0 < r["spreads"] <= r["compositions"] and r["eval_s"] >= 0 for r in rows)
    assert all(min(r["read_back"].values()) >= 0 for r in rows)
    assert row["conversions"] == expfam(1).num_outcomes() and row["crosscheck_s"] >= 0
    assert (row["markings"], row["n"]) == (7, 2) and row["oracle_s"] >= 0


def build_fixtures(m):
    for name, builder in m.BUILDERS.items():
        assert dumps(builder()) == fixture_text(name), name


def ab(m):
    # HEAD against the working tree, which is HEAD plus any edits: only the
    # printed form is checked
    if subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("needs a git checkout")
    m.ROUNDS = 2
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = pathlib.Path(tmp, "ab.json")
        assert m.main(["HEAD", "fixtures", "--json", str(path)]) == 0
        record = json.loads(path.read_text())
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("HEAD (negsum_rev) against the working tree, 2 rounds")
    assert lines[1].split() == ["workload", "job", "median", "q1", "q3",
                                "tree", "won", "REV", "won"]
    rows = [line.split() for line in lines[2:-2]]
    assert [row[:2] for row in rows] == [
        ["fixtures", job] for job in ("check", "rules", "states", "crosscheck", "diag", "pass")
    ]
    for row in rows:
        median, q1, q3 = map(float, row[2:5])
        tree_won, rev_won = map(int, row[5:])
        assert 0 < q1 <= median <= q3 and tree_won + rev_won <= 2
    assert re.fullmatch(r"fixtures +answers (equal|DIFFER)", lines[-2])
    counts = re.fullmatch(
        r"lines +src/negsum/\*\.py: REV (\d+), tree (\d+) \(([+-]\d+)\)", lines[-1]
    )
    assert counts, lines[-1]
    rev_lines, tree_lines, delta = map(int, counts.groups())
    assert rev_lines > 0 and tree_lines > 0 and delta == tree_lines - rev_lines
    assert not [name for name in sys.modules if name.startswith(("negsum_rev", "negsum_tree"))]
    # the JSON record holds the printed table and what it was measured on
    head = subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                          capture_output=True, text=True).stdout.strip()
    assert record["rev"] == {"name": "HEAD", "commit": head}
    assert record["tree"]["commit"] == head and isinstance(record["tree"]["edited"], bool)
    assert record["python"] == platform.python_version() and record["rounds"] == 2
    assert record["lines"] == {"rev": rev_lines, "tree": tree_lines}
    (fixtures,) = record["workloads"].values()
    assert fixtures["answers_equal"] == lines[-2].endswith("equal")
    assert [
        [job, *(f"{r[q]:.3f}" for q in ("median", "q1", "q3")), str(r["tree_won"]), str(r["rev_won"])]
        for job, r in fixtures["jobs"].items()
    ] == [row[1:] for row in rows]
    # the demo job runs on expfam(1..5), and only there
    texts, jobs = m.workload("expfam")
    assert [texts[i] for i in jobs["demo"]] == [dumps(expfam(k)) for k in range(1, 6)]
    # the diag job runs on the fixtures only
    assert not jobs["diag"]
    none = dict.fromkeys(m.JOBS, ())
    texts = [dumps(expfam(k)) for k in (1, 2)]
    seconds, answers = m.run_side(m.negsum, texts, {**none, "demo": range(2)}, True)
    assert seconds["demo"] > 0
    assert [verdict for *_, verdict in answers] == ["summarized"] * 4


SMOKE = {
    f.__name__: f
    for f in (scaling, markings_rate, rule_rate, cli_latency, eval_rate, build_fixtures, ab)
}
SCRIPT = {  # the script a case loads
    "markings_rate": "scaling", "rule_rate": "scaling", "eval_rate": "scaling",
    "cli_latency": "scaling",
}


def test_every_script_has_a_smoke_test():
    names = {p.stem for p in SCRIPTS.glob("*.py")}
    assert names == {SCRIPT.get(case, case) for case in SMOKE}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_script_measures_its_smallest_input(name):
    SMOKE[name](load(SCRIPT.get(name, name)))
