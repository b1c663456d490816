"""Every value a diagram derives from its tables stays current when
`model.rewrite` changes them: it is dropped, or brought up to date.

For each `cached_property` of `Negotiation`, and for the reachability
graph kept under `model.KEPT_GRAPH`, a working copy of each sampled
golden-trace case builds every derived value, then makes each
application of `run_auto` again through `working.rewrite`. After each
application the value must be absent or equal to a fresh build on the
diagram the application made; then the copy builds everything again. A
derived value added later is checked without a change here.
"""

from __future__ import annotations

from functools import cached_property

import pytest

from negsum import NegsumError, reachability, run_auto, working
from negsum.model import KEPT_GRAPH, Negotiation
from negsum.semantics import MarkingKernel, ReachabilityGraph

from test_rule_traces import build_cases

CACHED = [name for name, v in vars(Negotiation).items() if isinstance(v, cached_property)]
# the index filled one entry at a time, by `sends`: a working copy holds
# the entries asked for since the last change
FILLED_ON_DEMAND = ("sending",)


def build_everything(neg: Negotiation) -> None:
    for name in CACHED:
        getattr(neg, name)
    for o in neg.outcomes():
        neg.sends(o)
    reachability(neg)


def plain(value):
    """`value` in a form `==` compares by content: a marking kernel by its
    tables, a reachability graph by its kernel, nodes and edges."""
    if isinstance(value, MarkingKernel):
        return {k: v for k, v in vars(value).items() if not k.startswith("_")}
    if isinstance(value, ReachabilityGraph):
        return plain(value.kernel), value.codes, value.succ, value.final_index
    return value


def test_the_derived_values_are_found():
    assert {"marking_kernel", "classification", "arcs_into", "arrivals",
            "commitments", *FILLED_ON_DEMAND} <= set(CACHED)


@pytest.mark.parametrize("name", [*CACHED, KEPT_GRAPH])
def test_rewrite_keeps_the_derived_value_current(name):
    for case, neg in list(build_cases().items())[::3]:
        try:
            trace = run_auto(neg)
        except NegsumError:  # no strategy covers the diagram
            continue
        work = working.working_copy(neg)
        build_everything(work)
        for app in trace.applications:
            working.rewrite(work, *app.change.arguments())
            carried = vars(work).get(name)
            if carried is not None:
                fresh = app.after
                build_everything(fresh)
                expected = plain(vars(fresh)[name])
                if name in FILLED_ON_DEMAND:
                    assert carried.keys() <= expected.keys(), (case, app)
                    expected = {k: expected[k] for k in carried}
                assert plain(carried) == expected, (case, app)
            build_everything(work)
