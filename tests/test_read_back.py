"""The read-back path of printed summaries: each `negsum summarize`
output line is parsed with `parse_expr`, reprinted and evaluated. Parsing
shares equal subterms, so what is read back is a DAG with one object per
distinct subterm, and nodes keep their hashes, so walks over it pay for
the distinct subterms, not for the tree the text spells out."""

from __future__ import annotations

from pathlib import Path

import pytest

import negsum
from negsum import (
    Atomic,
    Concat,
    NotDeterministic,
    Star,
    Union,
    eval_expr,
    fixture_names,
    format_expr,
    load_fixture,
    parse_expr,
    rels_equal,
    run_auto,
    summarize_by_states,
)
from negsum.cli import main

from conftest import nodes, synthetic_interp

FIXTURE_DIR = Path(negsum.__file__).with_name("fixtures")


def printed_summary(name, method, capsys):
    """{result: its expression's text} as `summarize` prints it, or None
    when it prints no summary."""
    code = main(["summarize", str(FIXTURE_DIR / f"{name}.json"), "--method", method])
    out = capsys.readouterr().out
    if code != 0:
        return None
    lines = (line.partition(": ") for line in out.splitlines())
    return {result: text for result, _, text in lines if result != "applications"}


def api_summary(name, method):
    neg = load_fixture(name)
    if method == "states":
        outcome = summarize_by_states(neg)
        return neg, outcome.summary if outcome.fully_reduced else None
    try:
        trace = run_auto(neg)
    except NotDeterministic:  # the CLI exits 2
        return neg, None
    return neg, trace.summary if trace.verdict == "summarized" else None


@pytest.mark.parametrize("method", ["states", "reduce"])
@pytest.mark.parametrize("name", fixture_names())
def test_printed_summary_reads_back(name, method, capsys):
    """The parsed summary reprints byte-identically, and evaluates to the
    relation of the API's summary under seeded relations."""
    printed = printed_summary(name, method, capsys)
    neg, summary = api_summary(name, method)
    assert (printed is None) == (summary is None)
    if summary is None:
        return
    assert set(printed) == set(summary)
    space, interp = synthetic_interp(neg)
    for result, text in printed.items():
        back = parse_expr(text)
        assert format_expr(back) == text
        assert rels_equal(
            eval_expr(back, interp, space), eval_expr(summary[result], interp, space), space
        )


def test_running_multi_state_summary_reads_back_as_a_dag(capsys, monkeypatch):
    """The state summary of `running_multi` prints as a tree of tens of
    thousands of nodes; read back, it holds one object per distinct
    subterm, and hashing any of them again calls no part's hash."""
    (text,) = printed_summary("running_multi", "states", capsys).values()
    back = parse_expr(text)
    objects = nodes(back)
    assert len(objects) == len(set(objects))

    sizes: dict[int, int] = {}  # id -> node count of the unfolded subtree

    def tree_size(e):
        if id(e) not in sizes:
            parts = (e.inner,) if isinstance(e, Star) else getattr(e, "parts", ())
            sizes[id(e)] = 1 + sum(map(tree_size, parts))
        return sizes[id(e)]

    assert 20 * len(objects) < tree_size(back)

    assert {type(e) for e in objects} == {Atomic, Concat, Union, Star}
    hashes = [hash(e) for e in objects]
    own = {cls: cls.__hash__ for cls in (Atomic, Concat, Union, Star)}
    calls = []

    def counted(self):
        calls.append(self)
        return own[type(self)](self)

    for cls in own:
        monkeypatch.setattr(cls, "__hash__", counted)
    assert [own[type(e)](e) for e in objects] == hashes
    assert calls == []
