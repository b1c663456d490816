"""Smoke tests of the measuring scripts: each script under `scripts/` is
loaded by path and its measuring function runs once on its smallest
input, so a change to the API they call cannot leave them broken unseen.
`scaling.py` times the working tree against a git revision, here HEAD: its
whole record has two cases, one for its rows (`scaling`) and one for its
pass section, header and clean-up (`ab`), and its state-space half
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
import subprocess
import sys

import pytest

from negsum import dumps, expfam, fixture_text

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
COLUMN = {"tree", "rev", "ratio", "q1", "q3", "tree_won", "rev_won"}


def load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def head() -> str:
    """The commit HEAD names; the case is skipped outside a git checkout."""
    run = subprocess.run(["git", "-C", str(SCRIPTS), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    if run.returncode:
        pytest.skip("needs a git checkout")
    return run.stdout.strip()


def smallest(m):
    # the smallest points, one pair each; one fixture, command and input:
    # the `cli_latency` and `eval_rate` cases run the rest of those sections
    m.REPEATS, m.MIN_APPLICATIONS, m.ROUNDS, m.PASS_ROUNDS = 1, 0, 1, 2
    m.STATE_KS = m.ORACLE_KS = m.ELIMINATION_KS = m.RULE_KS = m.DEMO_KS = m.RATIO_KS = (1, 2)
    m.SWEEP_KS = (3, 6)
    m.FIXTURE_NAMES, m.COMMANDS = ["atomic"], m.COMMANDS[:1]
    m.EVAL_INPUTS = [("expfam(1)", lambda ns: ns.expfam(1))]


def run(m) -> dict:
    """The record `main(["HEAD"])` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert m.main(["HEAD"]) == 0
    return json.loads(out.getvalue())


def is_column(value) -> bool:
    return (set(value) == COLUMN and min(value["tree"], value["rev"]) >= 0
            and value["q1"] <= value["ratio"] <= value["q3"])


def scaling(m):
    head()
    smallest(m)
    m.PASS_WORKLOADS = ()  # the `ab` case runs the pass
    record = run(m)
    assert set(record) == {"rev", "tree", "python", "machine", "cpus", "pass_rounds",
                           "answers_equal", "cli", "evaluation", "expfam", "rules", "demo",
                           "ratio", "sweep", "pass", "slopes"}
    assert record["answers_equal"] == dict.fromkeys(
        ("cli", "evaluation", "expfam", "rules", "demo", "ratio", "sweep", "pass"), True)
    assert record["cli"]["fixtures"] == 1 and record["cli"]["peak_rss_mb"] > 0
    assert list(record["cli"]["median_s"]) == [
        "load", *(name for name, _ in m.COMMANDS), "all commands"]
    assert all(map(is_column, record["cli"]["median_s"].values()))
    assert list(record["evaluation"]) == ["expfam(1)"]
    evaluation = record["evaluation"]["expfam(1)"]
    assert set(evaluation) == {"states", "rules", "conversions", "crosscheck_s", "markings",
                               "n", "oracle_s"}
    assert is_column(evaluation["crosscheck_s"]) and is_column(evaluation["oracle_s"])
    for engine in ("states", "rules"):
        assert set(evaluation[engine]) == {"compositions", "spreads", "eval_s", "read_back"}
        assert set(evaluation[engine]["read_back"]) == {"parse_s", "eval_s", "format_s"}
        assert all(map(is_column, [evaluation[engine]["eval_s"],
                                   *evaluation[engine]["read_back"].values()]))
    assert record["python"] == platform.python_version()
    assert [row["k"] for row in record["expfam"]] == [1, 2]
    assert record["expfam"][0]["markings"] == 7 and record["expfam"][0]["K"] == 6
    times = ("reachability_s", "check_s", "oracle_s", "elimination_s")
    for row in record["expfam"]:
        assert set(row) == {"k", "K", "L", "markings", "edges", "reachability_s",
                            "markings_per_s", "graph_mb", "check_s", "oracle_s",
                            "oracle_peak_mb", "elimination_s"}
        assert all(is_column(row[c]) and row[c]["tree"] > 0 for c in times)
        assert min(v for c, v in row.items() if c not in times) > 0
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
            assert all(is_column(row["rules_s"]) for row in rows)
    assert {row["strategy"] for row in record["rules"]["run_auto"]} == {"run_acyclic"}
    assert {row["strategy"] for row in record["sweep"]["cyclic"]} == {"run_general"}
    ratio = record["ratio"]["ms_per_application_ratio"]
    assert is_column(ratio) and ratio["tree"] > 0
    assert record["pass"] == {}
    assert record["slopes"]["expfam markings"] > 0
    assert all(isinstance(v, float) for v in record["slopes"].values())


def markings_rate(m):
    head()
    m.REPEATS = 1
    with m.loaded("HEAD"):
        one, two = m.state_row(1), m.state_row(2)
    assert (one["markings"], one["K"], one["L"]) == (7, 6, expfam(1).num_outcomes())
    assert one["edges"] > 0 and two["markings"] > one["markings"]
    assert all(one[c]["tree"] >= 0 and one[c]["rev"] >= 0
               for c in ("reachability_s", "check_s", "oracle_s", "elimination_s"))
    assert 0 < one["graph_mb"] < two["graph_mb"] and one["oracle_peak_mb"] > 0


def rule_rate(m):
    # the fewest calls
    head()
    m.REPEATS, m.MIN_APPLICATIONS, m.ROUNDS = 1, 0, 1
    diagram = dumps(expfam(2))
    with m.loaded("HEAD"):
        for name, strategy in (("run_auto", "run_acyclic"), ("run_general", "run_general")):
            row = m.rules_row(diagram, name)
            assert row["strategy"] == strategy
            assert 0 < row["applications"] <= row["bound"]
            assert row["peak_initial_results"] >= 1 and row["trace_kb_per_application"] > 0
            assert row["ms_per_application"] >= 0 and row["rules_s"]["rev"] >= 0
        for demo in ("initial", "alternating"):
            row = m.rules_row(diagram, demo)
            assert "bound" not in row and row["applications"] > 0
        m.RATIO_KS = (1, 2)
        ratio = m.interleaved_ratio()["ms_per_application_ratio"]
    assert ratio["tree"] > 0 and ratio["rev"] > 0 and ratio["ratio"] > 0


def cli_latency(m):
    head()
    m.REPEATS, m.FIXTURE_NAMES = 1, ["atomic"]
    with m.loaded("HEAD"):
        code, out = m.run_cli(m.SIDES["tree"], ["validate", str(m.FIXTURES / "atomic.json")])
        section = m.cli_latency()
    assert code == 0 and out
    assert section["fixtures"] == 1 and section["peak_rss_mb"] > 0
    assert len(section["median_s"]) == 11
    assert all(is_column(c) for c in section["median_s"].values())


def eval_rate(m):
    head()
    m.REPEATS = 1
    with m.loaded("HEAD"):
        row = m.evaluation_row(dumps(expfam(1)))
    assert list(row)[:2] == ["states", "rules"]
    rows = [row[engine] for engine in ("states", "rules")]
    assert all(0 < r["spreads"] <= r["compositions"] and r["eval_s"]["tree"] >= 0 for r in rows)
    assert all(is_column(c) for r in rows for c in r["read_back"].values())
    assert row["conversions"] == expfam(1).num_outcomes() and row["crosscheck_s"]["rev"] >= 0
    assert (row["markings"], row["n"]) == (7, 2) and row["oracle_s"]["tree"] >= 0


def build_fixtures(m):
    for name, builder in m.BUILDERS.items():
        assert dumps(builder()) == fixture_text(name), name


def ab(m):
    # HEAD against the working tree, which is HEAD plus any edits
    commit = head()
    smallest(m)
    m.PASS_WORKLOADS = ("fixtures",)
    guards = []  # per loaded package, its `GUARDS` functions as loaded
    import_package = m.import_package

    def spy(name, package):
        ns = import_package(name, package)
        guards.append({(module, g): getattr(module, g) for module in (ns.rules, ns.strategies)
                       for g in m.GUARDS if hasattr(module, g)})
        return ns

    m.import_package = spy
    record = run(m)
    assert len(guards) == 2 and all(guards)
    assert all(getattr(module, g) is f for loaded in guards for (module, g), f in loaded.items())
    assert not [name for name in sys.modules if name.startswith(("negsum_rev", "negsum_tree"))]
    assert record["rev"] == {"name": "HEAD", "commit": commit}
    assert record["tree"]["commit"] == commit and isinstance(record["tree"]["edited"], bool)
    assert record["pass_rounds"] == 2
    assert record["answers_equal"]["pass"] is True
    (fixtures,) = record["pass"].values()
    assert list(fixtures) == ["check", "rules", "states", "crosscheck", "diag", "pass"]
    for row in fixtures.values():
        assert is_column(row) and row["tree_won"] + row["rev_won"] <= 2
    # the demo job runs on expfam(1..5), and only there; the diag job on
    # the fixtures only
    with m.loaded("HEAD"):
        texts, jobs = m.workload("expfam")
        none = dict.fromkeys(m.JOBS, ())
        steps = list(m.run_side(m.SIDES["tree"], texts[:2], {**none, "demo": range(2)}))
    assert [texts[i] for i in jobs["demo"]] == [dumps(expfam(k)) for k in range(1, 6)]
    assert not jobs["diag"]
    assert [job for job, _, _ in steps] == ["demo"] * 4 and all(s > 0 for _, s, _ in steps)
    assert [verdict for _, _, (*_, verdict) in steps] == ["summarized"] * 4


SMOKE = {
    f.__name__: f
    for f in (scaling, markings_rate, rule_rate, cli_latency, eval_rate, build_fixtures, ab)
}
SCRIPT = {  # the script a case loads
    "markings_rate": "scaling", "rule_rate": "scaling", "eval_rate": "scaling",
    "cli_latency": "scaling", "ab": "scaling",
}


def test_every_script_has_a_smoke_test():
    names = {p.stem for p in SCRIPTS.glob("*.py")}
    assert names == {SCRIPT.get(case, case) for case in SMOKE}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_script_measures_its_smallest_input(name):
    SMOKE[name](load(SCRIPT.get(name, name)))
