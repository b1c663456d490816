"""Smoke tests of the measuring scripts: each script under `scripts/` is
loaded by path and its measuring function runs once on its smallest
input, so a change to the API they call cannot leave them broken unseen.
`build_fixtures.py` builds the fixture corpus without writing it, and
every built fixture must equal its bundled file."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib
import re
import subprocess
import sys

import pytest

from negsum import dumps, expfam, fixture_text, run_auto

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rule_rate(m):
    # one round of the fewest calls: each call collects garbage first,
    # which in the test process costs more than the reduction
    m.ROUNDS, m.MIN_APPLICATIONS = 1, 0
    total, peak, ms, kb = m.measure(2, run_auto)
    assert total > 0 and peak >= 1 and ms >= 0 and kb > 0
    assert m.interleaved_ratio(1, 2) > 0


def markings_rate(m):
    markings, edges, seconds = m.measure(1)
    assert markings > 0 and edges > 0 and seconds >= 0
    assert 0 < m.graph_mb(1) < m.graph_mb(2)


def cli_latency(m):
    m.run_cli(["validate", str(m.FIXTURES / "atomic.json")])
    assert m.peak_rss_mb() > 0


def eval_rate(m):
    rows = m.measure(expfam(1))
    assert [engine for engine, *_ in rows] == ["states", "rules"]
    assert all(
        0 < spreads <= compositions and ms >= 0 for _, compositions, spreads, ms in rows
    )
    rows = m.read_back(expfam(1))
    assert [engine for engine, *_ in rows] == ["states", "rules"]
    assert all(min(times) >= 0 for _, *times in rows)
    conversions, ms = m.crosscheck(expfam(1))
    assert conversions == expfam(1).num_outcomes() and ms >= 0
    markings, n, ms = m.oracle(expfam(1))
    assert (markings, n) == (7, 2) and ms >= 0
    assert [name for name, _ in m.ORACLE_ONLY] == ["expfam(4)", "expfam(5)"]


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
    with contextlib.redirect_stdout(out):
        assert m.main(["HEAD", "fixtures"]) == 0
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("HEAD (negsum_rev) against the working tree, 2 rounds")
    assert lines[1].split() == ["workload", "job", "median", "q1", "q3",
                                "tree", "won", "REV", "won"]
    rows = [line.split() for line in lines[2:-2]]
    assert [row[:2] for row in rows] == [
        ["fixtures", job] for job in ("check", "rules", "states", "crosscheck", "pass")
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
    assert not [name for name in sys.modules if name.startswith("negsum_rev")]
    # the demo job runs on expfam(1..5), and only there
    texts, jobs = m.workload("expfam")
    assert [texts[i] for i in jobs["demo"]] == [dumps(expfam(k)) for k in range(1, 6)]
    none = dict.fromkeys(m.JOBS, ())
    texts = [dumps(expfam(k)) for k in (1, 2)]
    seconds, answers = m.run_side(m.negsum, texts, {**none, "demo": range(2)}, True)
    assert seconds["demo"] > 0
    assert [verdict for *_, verdict in answers] == ["summarized"] * 4


SMOKE = {
    f.__name__: f
    for f in (rule_rate, markings_rate, cli_latency, eval_rate, build_fixtures, ab)
}


def test_every_script_has_a_smoke_test():
    names = {p.stem for p in SCRIPTS.glob("*.py")}
    assert names == set(SMOKE)


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_script_measures_its_smallest_input(name):
    SMOKE[name](load(name))
