from __future__ import annotations

import math

import pytest

from negsum import (
    AtomSpec,
    GuardFailed,
    apply_d_shortcut,
    apply_iteration,
    apply_merge,
    apply_shortcut,
    apply_useless_arc,
    check_soundness,
    classify,
    commits_to,
    concat_expr,
    eval_expr,
    exclusive_access,
    fixture_names,
    index,
    load_fixture,
    reducible_outcomes,
    reducible_outcomes_k,
    rels_equal,
    shortcut_guard,
    star_expr,
    summarize_by_states,
    unconditionally_enables,
    uniform,
    union_expr,
    validate,
)
from negsum.rules import preserves_class
from negsum.transformers import Atomic

from conftest import all_rule_applications, interp_for, single_atom_negotiation

WITH_RELS = ["fdm_acyclic", "fdm_cyclic", "ladder", "merge_demo", "iter_demo"]


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_unconditionally_enables_shortcut_demo():
    neg = load_fixture("shortcut_demo")
    assert unconditionally_enables(neg, ("n0", "a"), "n1")
    # n2 has a participant that n1 lacks
    assert not unconditionally_enables(neg, ("n1", "c"), "n2")
    # final outcomes never unconditionally enable anything
    for n2 in neg.atoms:
        assert not unconditionally_enables(neg, ("nf", "f"), n2)


def test_shortcut_demo_commit_route():
    neg = load_fixture("shortcut_demo")
    assert unconditionally_enables(neg, ("n0", "b"), "n2")
    assert not exclusive_access(neg, ("n0", "b"), "n2")
    assert commits_to(neg, ("n0", "a"), "n2")
    assert shortcut_guard(neg, ("n0", "b"), "n2").holds


def test_shortcut_problem_guards():
    neg = load_fixture("shortcut_problem")
    # the single result of n2 unconditionally enables n3 ...
    assert unconditionally_enables(neg, ("n2", "c"), "n3")
    # ... but without exclusive access, and nothing else commits to n3
    assert not exclusive_access(neg, ("n2", "c"), "n3")
    assert not any(
        commits_to(neg, o, "n3") for o in neg.outcomes() if o != ("n2", "c")
    )
    assert not shortcut_guard(neg, ("n2", "c"), "n3").holds
    # n0 and n1 unconditionally enable nothing
    for o in (("n0", "a"), ("n1", "b")):
        assert not any(
            unconditionally_enables(neg, o, n2) for n2 in neg.atoms if n2 != o[0]
        )


def test_exclusive_access_single_predecessor_chain():
    neg = load_fixture("shortcut_demo")
    assert exclusive_access(neg, ("n0", "a"), "n1")


def test_uniform():
    neg = load_fixture("running_multi")
    assert not uniform(neg, ("n1", "a"))  # A to n2, B to n4
    assert uniform(neg, ("n1", "b"))
    assert uniform(neg, ("nf", "a"))  # final outcomes are uniform
    assert uniform(neg, ("n2", "a"))  # one party, trivially


# ---------------------------------------------------------------------------
# merge
# ---------------------------------------------------------------------------

def test_apply_merge_demo():
    neg = load_fixture("merge_demo")
    app = apply_merge(neg, ("n0", "a"), ("n0", "b"))
    after = app.after
    assert after.results("n0") == ("a+b",)
    assert after.transformer(("n0", "a+b")) == union_expr(
        Atomic(("n0", "a")), Atomic(("n0", "b"))
    )
    assert after.targets("n0", "C", "a+b") == frozenset({"alt1", "alt2"})


def test_merge_three_results_two_steps():
    agents = ("p",)
    neg = validate(
        agents,
        [AtomSpec("n0", agents, ("a", "b", "c")), AtomSpec("nf", agents, ("f",))],
        "n0",
        "nf",
        {
            ("n0", "p", "a"): {"nf"},
            ("n0", "p", "b"): {"nf"},
            ("n0", "p", "c"): {"nf"},
            ("nf", "p", "f"): set(),
        },
    )
    once = apply_merge(neg, ("n0", "a"), ("n0", "b")).after
    twice = apply_merge(once, ("n0", "a+b"), ("n0", "c")).after
    assert len(twice.results("n0")) == 1


def test_merge_yn_results():
    neg = load_fixture("fdm_wd_summary")
    after = apply_merge(neg, ("n2", "yes"), ("n2", "no")).after
    after = apply_merge(after, ("n3", "yes"), ("n3", "no")).after
    assert "yes+no" in after.results("n2")
    assert "yes+no" in after.results("n3")


def test_merge_guard_failures():
    neg = load_fixture("merge_demo")
    with pytest.raises(GuardFailed):
        apply_merge(neg, ("n0", "a"), ("n0", "a"))
    with pytest.raises(GuardFailed):
        apply_merge(neg, ("alt1", "r1"), ("alt2", "r2"))
    # final atom merges are forbidden even with equal (empty) transitions
    two_final = single_atom_negotiation(("a", "b"))
    with pytest.raises(GuardFailed):
        apply_merge(two_final, ("n0", "a"), ("n0", "b"))


UNKNOWN_SITES = [
    (apply_merge, (("zz", "yes"), ("zz", "no"))),
    (apply_merge, (("n1", "yes"), ("n1", "zz"))),
    (apply_iteration, (("zz", "yes"),)),
    (apply_iteration, (("n1", "zz"),)),
    *[
        (apply, site)
        for apply in (apply_shortcut, apply_d_shortcut)
        for site in ((("zz", "st"), "n1"), (("n0", "zz"), "n1"), (("n0", "st"), "zz"))
    ],
    *[
        (apply_useless_arc, (arc,))
        for arc in (
            ("zz", "M", "st", "n2"),
            ("n0", "zz", "st", "n2"),
            ("n0", "M", "zz", "n2"),
            ("n0", "M", "st", "zz"),
        )
    ],
]


@pytest.mark.parametrize("apply, site", UNKNOWN_SITES)
def test_an_unknown_site_fails_the_guard_naming_it(apply, site):
    """Every `apply_*` names an atom, result or arc its input lacks."""
    with pytest.raises(GuardFailed, match="zz"):
        apply(load_fixture("fdm_acyclic"), *site)


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def test_apply_iteration_demo():
    neg = load_fixture("iter_demo")
    app = apply_iteration(neg, ("n0", "loop"))
    after = app.after
    assert after.results("n0") == ("go",)
    assert after.transformer(("n0", "go")) == concat_expr(
        star_expr(Atomic(("n0", "loop"))), Atomic(("n0", "go"))
    )
    assert classify(after).acyclic


def test_iteration_on_two_atom_self_loop_fixture():
    agents = ("p",)
    neg = validate(
        agents,
        [AtomSpec("n0", agents, ("loop", "go")), AtomSpec("nf", agents, ("f",))],
        "n0",
        "nf",
        {
            ("n0", "p", "loop"): {"n0"},
            ("n0", "p", "go"): {"nf"},
            ("nf", "p", "f"): set(),
        },
    )
    after = apply_iteration(neg, ("n0", "loop")).after
    assert after.results("n0") == ("go",)
    assert classify(after).acyclic


def test_iteration_guard_failure():
    neg = load_fixture("iter_demo")
    with pytest.raises(GuardFailed):
        apply_iteration(neg, ("n0", "go"))


# ---------------------------------------------------------------------------
# useless arc
# ---------------------------------------------------------------------------

def test_apply_useless_arc_demo():
    neg = load_fixture("useless_demo")
    app = apply_useless_arc(neg, ("n0", "p", "r", "ndouble"))
    assert app.after.targets("n0", "p", "r") == frozenset({"nprime"})
    with pytest.raises(GuardFailed):
        apply_useless_arc(neg, ("n0", "p", "r", "nprime"))


def test_useless_arc_in_wd_walkthrough():
    # after merging and shortcutting away the private atom, two freshly
    # copied hyperarc branches become useless
    neg = load_fixture("fdm_wd_summary")
    neg = apply_merge(neg, ("n2", "yes"), ("n2", "no")).after
    neg = apply_merge(neg, ("n3", "yes"), ("n3", "no")).after
    neg = apply_shortcut(neg, ("n0", "st"), "n1").after
    af, am = "st>af", "st>am"
    assert neg.targets("n0", "F", af) == frozenset({"n2", "nf"})
    neg = apply_useless_arc(neg, ("n0", "F", af, "nf")).after
    neg = apply_useless_arc(neg, ("n0", "M", am, "nf")).after
    assert neg.targets("n0", "F", af) == frozenset({"n2"})
    assert neg.targets("n0", "M", am) == frozenset({"n3"})


def test_useless_arc_needs_hyperarcs():
    neg = load_fixture("fdm_cyclic")  # deterministic: no proper hyperarcs
    for arc in neg.arcs():
        with pytest.raises(GuardFailed):
            apply_useless_arc(neg, arc)


def test_useless_arc_would_break_path_condition():
    # make ndouble reachable only through the candidate arc: guard part 2
    agents = ("p", "q")
    neg = validate(
        agents,
        [
            AtomSpec("n0", agents, ("r",)),
            AtomSpec("nprime", agents, ("a",)),
            AtomSpec("ndouble", agents, ("a",)),
            AtomSpec("nf", agents, ("f",)),
        ],
        "n0",
        "nf",
        {
            ("n0", "p", "r"): {"nprime", "ndouble"},
            ("n0", "q", "r"): {"nprime", "ndouble"},
            ("nprime", "p", "a"): {"nf"},
            ("nprime", "q", "a"): {"nf"},
            ("ndouble", "p", "a"): {"nf"},
            ("ndouble", "q", "a"): {"nf"},
            ("nf", "p", "f"): set(),
            ("nf", "q", "f"): set(),
        },
    )
    # no witness here anyway (no singleton co-arc), so tweak: q commits
    t = {k: set(v) for k, v in neg.transition.items()}
    t[("n0", "q", "r")] = {"nprime"}
    neg = validate(agents, list(neg.atoms.values()), "n0", "nf", t)
    with pytest.raises(GuardFailed) as err:
        apply_useless_arc(neg, ("n0", "p", "r", "ndouble"))
    assert "WouldBreakPathCondition" in str(err.value)


# ---------------------------------------------------------------------------
# shortcut
# ---------------------------------------------------------------------------

def test_apply_shortcut_demo():
    neg = load_fixture("shortcut_demo")
    app = apply_shortcut(neg, ("n0", "a"), "n1")
    after = app.after
    assert "n1" not in after.atoms
    assert "a>c" in after.results("n0")
    # parties of n1 take over n1's transitions, the rest keep their own
    assert after.targets("n0", "B", "a>c") == frozenset({"n2"})
    assert after.targets("n0", "C", "a>c") == frozenset({"nf"})
    assert after.targets("n0", "A", "a>c") == frozenset({"n2"})
    assert after.transformer(("n0", "a>c")) == concat_expr(
        Atomic(("n0", "a")), Atomic(("n1", "c"))
    )


def test_shortcut_into_final_moves_the_final_atom():
    neg = load_fixture("shortcut_problem")
    app = apply_shortcut(neg, ("n3", "d"), "nf")
    after = app.after
    assert after.final == "n3"
    assert "nf" not in after.atoms
    # fresh results adopt the final results' names unchanged
    assert after.results("n3") == ("f",)
    assert after.targets("n3", "A", "f") == frozenset()


def test_shortcut_wd_walkthrough_removes_private_atom():
    neg = load_fixture("fdm_wd_summary")
    app = apply_shortcut(neg, ("n0", "st"), "n1")
    after = app.after
    assert "n1" not in after.atoms
    assert set(after.results("n0")) == {"st>af", "st>am"}
    assert after.targets("n0", "D", "st>af") == frozenset({"n2"})
    assert after.targets("n0", "D", "st>am") == frozenset({"n3"})
    assert after.targets("n0", "F", "st>af") == frozenset({"n2", "nf"})


def test_shortcut_guard_failure_names_the_bullet():
    neg = load_fixture("shortcut_problem")
    with pytest.raises(GuardFailed) as err:
        apply_shortcut(neg, ("n2", "c"), "n3")
    assert "commits" in str(err.value)
    with pytest.raises(GuardFailed) as err2:
        apply_shortcut(neg, ("n0", "a"), "n1")
    assert "unconditionally" in str(err2.value)


def test_d_shortcut_restriction():
    neg = load_fixture("dfs_example")
    # n1 has two results: the full shortcut applies, the d-shortcut refuses
    assert shortcut_guard(neg, ("n4", "f"), "n1").holds
    with pytest.raises(GuardFailed):
        apply_d_shortcut(neg, ("n4", "f"), "n1")
    chain = validate(
        ("p",),
        [
            AtomSpec("n0", ("p",), ("a",)),
            AtomSpec("mid", ("p",), ("b",)),
            AtomSpec("nf", ("p",), ("f",)),
        ],
        "n0",
        "nf",
        {
            ("n0", "p", "a"): {"mid"},
            ("mid", "p", "b"): {"nf"},
            ("nf", "p", "f"): set(),
        },
    )
    after = apply_d_shortcut(chain, ("n0", "a"), "mid").after
    assert "mid" not in after.atoms


def test_d_shortcut_never_applies_to_two_result_targets():
    neg = load_fixture("cyclic_two_outcomes")
    for o in neg.outcomes():
        for n2 in neg.atoms:
            if n2 == o[0]:
                continue
            with pytest.raises(GuardFailed):
                apply_d_shortcut(neg, o, n2)


# ---------------------------------------------------------------------------
# reducible outcomes
# ---------------------------------------------------------------------------

def test_reducible_outcomes_atomic_empty():
    assert reducible_outcomes(single_atom_negotiation()) == set()


def test_reducible_outcomes_dfs_contains_backward():
    neg = load_fixture("dfs_example")
    assert ("n4", "f") in reducible_outcomes(neg)


def test_reducible_outcomes_k_filters_by_party_count():
    neg = load_fixture("running_multi")
    r1 = reducible_outcomes_k(neg, 1)
    assert r1 == {("n6", "a"), ("n7", "b")}
    assert all(len(neg.parties(o[0])) == 1 for o in r1)


# ---------------------------------------------------------------------------
# properties across all fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", fixture_names())
def test_rule_applications_valid_and_class_preserving(name):
    neg = load_fixture(name)
    for kind, site, run in all_rule_applications(neg):
        app = run()  # validation runs inside; failure would raise
        assert preserves_class(app), (name, kind, site)


@pytest.mark.parametrize("name", WITH_RELS)
def test_rule_equivalence_on_concrete_fixtures(name):
    _assert_rule_equivalence(load_fixture(name))


@pytest.mark.parametrize(
    "name",
    [n for n in fixture_names() if n not in WITH_RELS],
)
def test_rule_equivalence_with_synthetic_relations(name):
    neg = load_fixture(name)
    _assert_rule_equivalence(neg, seed=7)


def _assert_rule_equivalence(neg, seed=0):
    space, interp = interp_for(neg, seed)
    sound_before = check_soundness(neg).sound
    before = summarize_by_states(neg)
    for kind, site, run in all_rule_applications(neg):
        after_neg = run().after
        assert check_soundness(after_neg).sound == sound_before, (kind, site)
        after = summarize_by_states(after_neg)
        assert after.fully_reduced == before.fully_reduced, (kind, site)
        if not before.fully_reduced:
            continue
        assert set(after.summary) == set(before.summary), (kind, site)
        for r in before.summary:
            lhs = eval_expr(before.summary[r], interp, space)
            rhs = eval_expr(after.summary[r], interp, space)
            assert rels_equal(lhs, rhs, space), (kind, site, r)


@pytest.mark.parametrize("name", ["fdm_acyclic", "fdm_wd_summary", "shortcut_demo"])
def test_index_measure_monotone_on_acyclic(name):
    # d-shortcuts strictly decrease the index; merges keep it from growing
    # and shed one outcome, so index + outcome count certifies termination
    # within K*L applications
    neg = load_fixture(name)
    base = index(neg)
    assert not math.isinf(base)
    measure = base + neg.num_outcomes()
    for kind, site, run in all_rule_applications(neg):
        after = run().after
        if kind == "merge":
            assert index(after) <= base, site
            assert index(after) + after.num_outcomes() < measure, site
        elif kind == "shortcut":
            o, n2 = site
            if len(neg.results(n2)) <= 1:
                assert index(after) < base, site


def test_index_values():
    assert index(single_atom_negotiation()) == 0
    # cyclic diagrams feeding an outcome make its index infinite; the
    # infinite sites are the outcomes whose launch marking reaches the
    # cycle with every party on board (sequences launched by (n1, tm)
    # stop immediately because the next atom needs the third agent)
    from negsum import outcome_index

    cyc = load_fixture("fdm_cyclic")
    assert math.isinf(outcome_index(cyc, ("n0", "yes")))
    assert math.isinf(outcome_index(cyc, ("n2", "r")))
    assert outcome_index(cyc, ("n1", "tm")) == 0
    assert math.isinf(index(cyc))
    # acyclic index stays within (K-1) per outcome, K*L overall
    for name in ("fdm_acyclic", "fdm_wd_summary", "shortcut_demo"):
        neg = load_fixture(name)
        value = index(neg)
        assert value <= len(neg.atoms) * neg.num_outcomes()


def test_shortcut_into_initial_atom_keeps_it():
    # a backward arc into the initial atom: the splice happens, but the
    # atom keeps its entry role instead of being removed
    neg = validate(
        ("p",),
        [
            AtomSpec("n0", ("p",), ("go", "quit")),
            AtomSpec("back", ("p",), ("again",)),
            AtomSpec("nf", ("p",), ("f",)),
        ],
        "n0",
        "nf",
        {
            ("n0", "p", "go"): {"back"},
            ("n0", "p", "quit"): {"nf"},
            ("back", "p", "again"): {"n0"},
            ("nf", "p", "f"): set(),
        },
    )
    assert check_soundness(neg).sound
    app = apply_shortcut(neg, ("back", "again"), "n0")
    after = app.after
    assert after.initial == "n0" and "n0" in after.atoms
    assert app.produced["removed_atoms"] == []
    assert check_soundness(after).sound
    # the spliced results reproduce the initial atom's choices
    assert set(after.results("back")) == {"again>go", "again>quit"}
    # denotationally nothing changed
    from negsum import summarize_by_states

    space, interp = interp_for(neg, seed=3)
    lhs = summarize_by_states(neg).summary
    rhs = summarize_by_states(after).summary
    for r in lhs:
        assert rels_equal(
            eval_expr(lhs[r], interp, space),
            eval_expr(rhs[r], interp, space),
            space,
        )


def test_useless_arc_revalidation_on_cyclic_diagram():
    # cyclic, so the simplified structural check does not apply and the
    # guard's second half really re-validates the removal
    agents = ("p", "q")
    base = {
        ("n0", "p", "r"): {"nprime", "ndouble"},
        ("n0", "q", "r"): {"nprime"},
        ("n0", "p", "s"): {"ndouble"},
        ("n0", "q", "s"): {"ndouble"},
        ("nprime", "p", "a"): {"n0"},
        ("nprime", "q", "a"): {"n0"},
        ("nprime", "p", "b"): {"nf"},
        ("nprime", "q", "b"): {"nf"},
        ("ndouble", "p", "a"): {"nf"},
        ("ndouble", "q", "a"): {"nf"},
        ("nf", "p", "f"): set(),
        ("nf", "q", "f"): set(),
    }
    atoms = [
        AtomSpec("n0", agents, ("r", "s")),
        AtomSpec("nprime", agents, ("a", "b")),
        AtomSpec("ndouble", agents, ("a",)),
        AtomSpec("nf", agents, ("f",)),
    ]
    neg = validate(agents, atoms, "n0", "nf", base)
    assert not classify(neg).acyclic
    app = apply_useless_arc(neg, ("n0", "p", "r", "ndouble"))
    assert app.after.targets("n0", "p", "r") == frozenset({"nprime"})

    # drop result s: the arc is then the only path keeping ndouble on a
    # route from the initial atom, so the removal is rejected
    t2 = {k: set(v) for k, v in base.items() if k[2] != "s"}
    atoms2 = [
        AtomSpec("n0", agents, ("r",)),
        AtomSpec("nprime", agents, ("a", "b")),
        AtomSpec("ndouble", agents, ("a",)),
        AtomSpec("nf", agents, ("f",)),
    ]
    neg2 = validate(agents, atoms2, "n0", "nf", t2)
    assert not classify(neg2).acyclic
    with pytest.raises(GuardFailed) as err:
        apply_useless_arc(neg2, ("n0", "p", "r", "ndouble"))
    assert "WouldBreakPathCondition" in str(err.value)
