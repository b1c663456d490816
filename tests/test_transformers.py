from __future__ import annotations

import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import negsum
from negsum import (
    Atomic,
    Concat,
    IDENTITY,
    ParseError,
    Rel,
    Star,
    StateSpaceMismatch,
    UnboundAtomic,
    Union,
    brute_force_summary,
    concat,
    concat_expr,
    eval_expr,
    expr_equal,
    format_expr,
    full_identity,
    globalize,
    identity_rel,
    parse_expr,
    rels_equal,
    star,
    star_expr,
    union,
    union_expr,
)
from negsum.transformers import (
    _RESERVED, Identity, Kernel, Rows, TransformerExpr, _tokenize, bits,
)

from conftest import nodes, single_atom_negotiation, synthetic_interp

SPACE = {"x": ("0", "1"), "y": ("0", "1"), "z": ("0", "1")}


def rel(parties, pairs):
    return Rel(tuple(parties), frozenset(pairs))


def brute_concat(a: Rel, b: Rel, space) -> Rel:
    """Definitional oracle: expand both relations to the full agent set
    and compose by enumerating all global tuples."""
    ga, gb = globalize(a, space), globalize(b, space)
    pairs = {
        (q, q2)
        for q, mid in ga.pairs
        for mid2, q2 in gb.pairs
        if mid == mid2
    }
    return Rel(ga.parties, frozenset(pairs))


def brute_star(a: Rel, space) -> Rel:
    ga = globalize(a, space)
    acc = globalize(identity_rel(), space)
    while True:
        nxt = Rel(acc.parties, acc.pairs | brute_concat(ga, acc, space).pairs)
        if nxt.pairs == acc.pairs:
            return acc
        acc = nxt


# ---------------------------------------------------------------------------
# Reference: the pair-set algebra the bitset kernel replaced, kept verbatim
# so that the kernel can be compared with it value for value (`parties`
# and `pairs`), not only denotationally.
# ---------------------------------------------------------------------------

def ref_expand(rel: Rel, space, parties) -> Rel:
    if rel.parties == parties:
        return rel
    missing = [a for a in parties if a not in rel.parties]
    if set(rel.parties) - set(parties):
        raise StateSpaceMismatch(f"cannot shrink {rel.parties} to {parties}")
    pos = {a: i for i, a in enumerate(rel.parties)}
    out = set()
    for entry, exit_ in rel.pairs:
        for extra in itertools.product(*(space[a] for a in missing)):
            extra_map = dict(zip(missing, extra))
            new_entry = tuple(
                entry[pos[a]] if a in pos else extra_map[a] for a in parties
            )
            new_exit = tuple(
                exit_[pos[a]] if a in pos else extra_map[a] for a in parties
            )
            out.add((new_entry, new_exit))
    return Rel(parties, frozenset(out))


def ref_merged_parties(space, a: Rel, b: Rel):
    combined = set(a.parties) | set(b.parties)
    missing = combined - set(space)
    if missing:
        raise StateSpaceMismatch(f"agents {sorted(missing)} not in the state space")
    return tuple(agent for agent in space if agent in combined)


def ref_concat(a: Rel, b: Rel, space) -> Rel:
    parties = ref_merged_parties(space, a, b)
    ea, eb = ref_expand(a, space, parties), ref_expand(b, space, parties)
    by_entry = {}
    for q, q2 in eb.pairs:
        by_entry.setdefault(q, set()).add(q2)
    pairs = {(q, q2) for q, mid in ea.pairs for q2 in by_entry.get(mid, ())}
    return Rel(parties, frozenset(pairs))


def ref_union(a: Rel, b: Rel, space) -> Rel:
    parties = ref_merged_parties(space, a, b)
    ea, eb = ref_expand(a, space, parties), ref_expand(b, space, parties)
    return Rel(parties, ea.pairs | eb.pairs)


def ref_star(a: Rel, space) -> Rel:
    parties = a.parties
    ident = full_identity(space, parties) if parties else identity_rel()
    size = 1
    for p in parties:
        size *= len(space[p])
    current = ident
    for _ in range(size * size + 1):
        merged = ref_union(ident, ref_concat(a, current, space), space)
        if merged.pairs == current.pairs:
            return current
        current = merged
    raise AssertionError("star fixpoint not reached within the lattice height bound")


def ref_eval(expr, interp, space) -> Rel:
    if isinstance(expr, Identity):
        return identity_rel()
    if isinstance(expr, Atomic):
        return interp[expr.tag]
    if isinstance(expr, Concat):
        out = identity_rel()
        for part in expr.parts:
            out = ref_concat(out, ref_eval(part, interp, space), space)
        return out
    if isinstance(expr, Union):
        rels = [ref_eval(p, interp, space) for p in expr.parts]
        out = rels[0]
        for r in rels[1:]:
            out = ref_union(out, r, space)
        return out
    return ref_star(ref_eval(expr.inner, interp, space), space)


# Spaces of one to three agents with one to three states each (agents with
# the same number of states share their state names), party tuples in any
# order, including the empty one, and arbitrary relations over them,
# including empty ones.

AGENTS = ("x", "y", "z")


@st.composite
def spaces(draw):
    agents = draw(st.lists(st.sampled_from(AGENTS), min_size=1, max_size=3, unique=True))
    return {a: tuple(str(i) for i in range(draw(st.integers(1, 3)))) for a in agents}


@st.composite
def relation_over_parties(draw, space, parties):
    domain = list(itertools.product(*(space[a] for a in parties)))
    n = len(domain)
    mask = draw(st.integers(0, (1 << n * n) - 1))  # bit i*n+j: pair (i, j)
    return Rel(
        parties,
        frozenset(
            (domain[i], domain[j]) for i in range(n) for j in range(n) if mask >> (i * n + j) & 1
        ),
    )


@st.composite
def relations_over(draw, space):
    parties = tuple(draw(st.permutations(list(space)))[: draw(st.integers(0, len(space)))])
    return draw(relation_over_parties(space, parties))


@st.composite
def space_and_relations(draw, count):
    space = draw(spaces())
    return space, [draw(relations_over(space)) for _ in range(count)]


def same(got: Rel, want: Rel):
    assert (got.parties, got.pairs) == (want.parties, want.pairs)


@settings(max_examples=100, deadline=None)
@given(space_and_relations(2))
def test_kernel_matches_the_pair_set_reference(case):
    space, (a, b) = case
    same(concat(a, b, space), ref_concat(a, b, space))
    same(union(a, b, space), ref_union(a, b, space))
    same(star(a, space), ref_star(a, space))
    same(globalize(a, space), ref_expand(a, space, tuple(space)))
    assert rels_equal(a, b, space) == (
        ref_expand(a, space, tuple(space)).pairs == ref_expand(b, space, tuple(space)).pairs
    )


@settings(max_examples=40, deadline=None)
@given(space_and_relations(1), st.data())
def test_kernel_expand_matches_the_reference(case, data):
    space, (a,) = case
    rest = [p for p in space if p not in a.parties]
    larger = data.draw(st.permutations(list(a.parties) + rest[: data.draw(st.integers(0, len(rest)))]))
    k = Kernel(space)
    same(k.rel(k.expand(k.rows(a), tuple(larger))), ref_expand(a, space, tuple(larger)))


@settings(max_examples=50, deadline=None)
@given(space_and_relations(3), st.data())
def test_eval_expr_matches_the_reference(case, data):
    space, rels = case
    leaves = [Atomic(("n", str(i))) for i in range(3)] + [IDENTITY]
    exprs = st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: concat_expr(*ps)),
            st.lists(inner, min_size=2, max_size=3).map(lambda ps: union_expr(*ps)),
            inner.map(star_expr),
        ),
        max_leaves=6,
    )
    expr = data.draw(exprs)
    interp = {("n", str(i)): r for i, r in enumerate(rels)}
    same(eval_expr(expr, interp, space), ref_eval(expr, interp, space))


def test_kernel_handles_the_empty_party_tuple():
    space = {"x": ("0", "1")}
    unit = identity_rel()
    empty = Rel((), frozenset())
    for a in (unit, empty):
        for b in (unit, empty, COPY_X, FLIP_Z):
            sp = SPACE if b.parties else space
            same(concat(a, b, sp), ref_concat(a, b, sp))
            same(concat(b, a, sp), ref_concat(b, a, sp))
            same(union(a, b, sp), ref_union(a, b, sp))
        same(star(a, space), ref_star(a, space))
        same(globalize(a, space), ref_expand(a, space, ("x",)))
    assert rels_equal(unit, full_identity(space, ("x",)), space)
    assert not rels_equal(empty, unit, space)


def test_star_keeps_a_non_space_order_only_where_the_reference_did():
    """The fixpoint iteration returned its first guess, the identity in the
    relation's own party order, when the closure was the identity and both
    orders listed the same assignments; otherwise the space order."""
    same_states = {"x": ("0", "1"), "y": ("0", "1")}
    mixed = {"x": ("0", "1"), "y": ("0", "1", "2")}
    for space in (same_states, mixed):
        for pairs in ([], [(("0", "0"), ("1", "0"))]):
            a = rel(("y", "x"), pairs)
            same(star(a, space), ref_star(a, space))
    assert star(rel(("y", "x"), []), same_states).parties == ("y", "x")
    assert star(rel(("y", "x"), []), mixed).parties == ("x", "y")


# a handful of interesting 1- and 2-party relations over bits
SWAP_XY = rel(("x", "y"), [(("0", "0"), ("0", "0")), (("0", "1"), ("1", "0")),
                           (("1", "0"), ("0", "1")), (("1", "1"), ("1", "1"))])
COPY_X = rel(("x", "y"), [((a, b), (a, a)) for a in "01" for b in "01"])
FLIP_Z = rel(("z",), [(("0",), ("1",)), (("1",), ("0",))])
CYCLE3 = Rel(
    ("w",),
    frozenset({(("a",), ("b",)), (("b",), ("c",)), (("c",), ("a",))}),
)


def random_rel(rng_bits, parties):
    domain = list(itertools.product(*(SPACE[p] for p in parties)))
    pairs = set()
    idx = 0
    for q in domain:
        any_pair = False
        for q2 in domain:
            if rng_bits[idx % len(rng_bits)]:
                pairs.add((q, q2))
                any_pair = True
            idx += 1
        if not any_pair:
            pairs.add((q, domain[0]))  # keep left-total
    return Rel(tuple(parties), frozenset(pairs))


rel_strategy = st.builds(
    random_rel,
    st.lists(st.booleans(), min_size=16, max_size=16),
    st.sampled_from([("x",), ("y",), ("x", "y")]),
)


def test_concat_identity_neutral():
    assert rels_equal(concat(identity_rel(), COPY_X, SPACE), COPY_X, SPACE)
    assert rels_equal(concat(COPY_X, identity_rel(), SPACE), COPY_X, SPACE)


def test_concat_matches_brute_force_composition():
    out = concat(COPY_X, FLIP_Z, SPACE)
    assert rels_equal(out, brute_concat(COPY_X, FLIP_Z, SPACE), SPACE)
    out2 = concat(SWAP_XY, COPY_X, SPACE)
    assert rels_equal(out2, brute_concat(SWAP_XY, COPY_X, SPACE), SPACE)


def test_concat_disjoint_parties_is_product():
    out = concat(COPY_X, FLIP_Z, SPACE)
    assert set(out.parties) == {"x", "y", "z"}
    # per-component behavior: (x,y) copies x, z flips
    for (e, x) in out.pairs:
        ex, ey, ez = e
        xx, xy, xz = x
        assert (xx, xy) == (ex, ex)
        assert xz != ez


def test_fdm_concat_example():
    # after proposing a time privately, the second round agrees on a time
    # between the proposals: F keeps its time, D and M end up equal
    from negsum import load_fixture

    neg = load_fixture("fdm_acyclic")
    space = neg.states
    am = neg.rels[("n1", "am")]
    yes2 = neg.rels[("n2", "yes")]
    out = concat(am, yes2, space)
    expected = brute_concat(am, yes2, space)
    assert rels_equal(out, expected, space)
    for (e, x) in globalize(out, space).pairs:
        f_in, d_in, m_in = e
        f_out, d_out, m_out = x
        assert f_out == f_in
        assert d_out == m_out


def test_union_setwise_and_idempotent():
    assert rels_equal(union(COPY_X, COPY_X, SPACE), COPY_X, SPACE)
    got = union(COPY_X, SWAP_XY, SPACE)
    assert got.pairs == COPY_X.pairs | SWAP_XY.pairs


def test_star_of_empty_relation_is_identity():
    empty = Rel(("x",), frozenset())
    assert rels_equal(star(empty, SPACE), full_identity(SPACE, ("x",)), SPACE)


def test_star_of_permutation_closes_the_cycle():
    space = {"w": ("a", "b", "c")}
    got = star(CYCLE3, space)
    # the cycle closure of a 3-cycle is every pair
    expected = {((p,), (q,)) for p in "abc" for q in "abc"}
    assert got.pairs == expected
    assert rels_equal(got, brute_star(CYCLE3, space), space)


@settings(max_examples=60, deadline=None)
@given(rel_strategy, rel_strategy, rel_strategy)
def test_relation_algebra_laws(a, b, c):
    # associativity of concat
    lhs = concat(concat(a, b, SPACE), c, SPACE)
    rhs = concat(a, concat(b, c, SPACE), SPACE)
    assert rels_equal(lhs, rhs, SPACE)
    # union associative, commutative (idempotence covered above)
    u1 = union(union(a, b, SPACE), c, SPACE)
    u2 = union(a, union(b, c, SPACE), SPACE)
    assert rels_equal(u1, u2, SPACE)
    assert rels_equal(union(a, b, SPACE), union(b, a, SPACE), SPACE)


@settings(max_examples=40, deadline=None)
@given(rel_strategy)
def test_star_unrolling_law(a):
    # star(a) = id ∪ a · star(a)
    s = star(a, SPACE)
    unrolled = union(
        full_identity(SPACE, a.parties), concat(a, s, SPACE), SPACE
    )
    assert rels_equal(s, unrolled, SPACE)
    assert rels_equal(s, brute_star(a, SPACE), SPACE)


@settings(max_examples=40, deadline=None)
@given(rel_strategy)
def test_frame_law_globalize_restrict(a):
    # expanding to the global space and restricting back changes nothing
    g = globalize(a, SPACE)
    pos = {p: i for i, p in enumerate(g.parties)}
    others = [p for p in g.parties if p not in a.parties]
    back = set()
    for e, x in g.pairs:
        assert all(e[pos[p]] == x[pos[p]] for p in others)
        back.add(
            (
                tuple(e[pos[p]] for p in a.parties),
                tuple(x[pos[p]] for p in a.parties),
            )
        )
    assert back == set(a.pairs)


# Relations that do not fit SPACE: an agent outside it, a state outside
# an agent's list (as entry, as exit, and on both sides), and assignments
# of the wrong length.
MISFITS = {
    "agent": rel(("nope",), [(("0",), ("0",))]),
    "state": rel(("x",), [(("9",), ("9",))]),
    "entry state": rel(("x", "y"), [(("0", "9"), ("0", "0"))]),
    "exit state": rel(("x",), [(("0",), ("2",))]),
    "long entry": rel(("x",), [(("0", "1"), ("0",))]),
    "short exit": rel(("x", "y"), [(("0", "1"), ("0",))]),
}

# every entry point of the kernel, fed one bad relation
ENTRY_POINTS = {
    "concat": lambda bad: concat(COPY_X, bad, SPACE),
    "concat left": lambda bad: concat(bad, COPY_X, SPACE),
    "union": lambda bad: union(COPY_X, bad, SPACE),
    "star": lambda bad: star(bad, SPACE),
    "globalize": lambda bad: globalize(bad, SPACE),
    "rels_equal": lambda bad: rels_equal(bad, COPY_X, SPACE),
    "eval_expr": lambda bad: eval_expr(Atomic(("n", "a")), {("n", "a"): bad}, SPACE),
    "eval_expr star": lambda bad: eval_expr(
        star_expr(Atomic(("n", "a"))), {("n", "a"): bad}, SPACE
    ),
    "expr_equal": lambda bad: expr_equal(
        Atomic(("n", "a")), Atomic(("n", "a")), [(SPACE, {("n", "a"): bad})]
    ),
    "brute_force_summary": lambda bad: brute_force_summary(
        single_atom_negotiation(), {("n0", "r"): bad}, SPACE
    ),
}


def test_state_space_mismatch():
    """Every entry point of the kernel rejects a relation that does not fit
    the state space, instead of dropping or carrying the bad pairs."""
    for where, call in ENTRY_POINTS.items():
        for what, bad in MISFITS.items():
            with pytest.raises(StateSpaceMismatch):
                call(bad)
                pytest.fail(f"{where} accepted a relation with a bad {what}")


TWICE = {"x": ("0", "1", "0"), "y": ("0", "1"), "z": ("0", "1")}  # x lists "0" twice


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_expr(Atomic(("n", "a")), {("n", "a"): COPY_X}, TWICE),
        lambda: concat(COPY_X, COPY_X, TWICE),
        lambda: union(COPY_X, COPY_X, TWICE),
        lambda: star(COPY_X, TWICE),
        lambda: globalize(FLIP_Z, TWICE),
        lambda: rels_equal(COPY_X, COPY_X, TWICE),
        lambda: brute_force_summary(
            single_atom_negotiation(),
            {("n0", "r"): rel(("p",), [(("0",), ("0",))])},
            {"p": ("0", "0")},
        ),
    ],
    ids=["eval_expr", "concat", "union", "star", "globalize", "rels_equal",
         "brute_force_summary"],
)
def test_a_space_listing_a_state_twice_is_rejected(call):
    """A state space passed in directly that lists one agent's state twice
    numbers two assignments alike: the kernel rejects it, naming the agent,
    instead of failing on an index or counting the state twice."""
    with pytest.raises(StateSpaceMismatch, match=r"lists a state twice for \['(x|p)'\]"):
        call()


@pytest.mark.parametrize(
    "operation, parties, target, message",
    [
        ("expand", ("a", "b"), ("a",), "cannot expand ('a', 'b') to ('a',)"),
        ("spread", ("a", "b"), ("b",), "cannot spread ('a', 'b') to ('b',)"),
        ("restrict", ("a", "b"), ("a", "c"), "cannot restrict ('a', 'b') to ('a', 'c')"),
    ],
    ids=["expand", "spread", "restrict"],
)
def test_party_mismatch_names_the_operation(operation, parties, target, message):
    """A relation that cannot be taken to a party tuple is reported with
    the operation and the tuples in the call's order: the relation's
    parties, then the ones asked for."""
    k = Kernel({"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")})
    r = k.rows(full_identity(k.space, parties))
    with pytest.raises(StateSpaceMismatch, match=f"^{re.escape(message)}$"):
        getattr(k, operation)(r, target)


# ---------------------------------------------------------------------------
# The spread form
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(space_and_relations(1), st.data())
def test_spread_lists_the_bits_of_each_expanded_row(case, data):
    """`spread` is `expand` with each row as the positions of its set
    bits: over the relation's own parties, and over larger tuples, in the
    order of the space and in any other."""
    space, (a,) = case
    k = Kernel(space)
    r = k.rows(a)
    extra = data.draw(st.lists(st.sampled_from(list(space)), unique=True))
    joint = k.merged(a.parties, extra)
    for parties in (a.parties, joint, tuple(data.draw(st.permutations(list(joint))))):
        assert k.spread(r, parties) == [bits(row) for row in k.expand(r, parties).rows]


def test_spread_of_the_empty_party_tuple():
    k = Kernel(SPACE)
    for a in (identity_rel(), Rel((), frozenset())):
        r = k.rows(a)
        for parties in ((), ("x",), ("x", "z"), tuple(SPACE)):
            assert k.spread(r, parties) == [bits(row) for row in k.expand(r, parties).rows]
    assert k.spread(k.rows(identity_rel()), ()) == [[0]]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

def test_concat_flattening():
    a, b, c = Atomic(("n", "a")), Atomic(("n", "b")), Atomic(("n", "c"))
    e = concat_expr(concat_expr(a, b), c)
    assert e == Concat((a, b, c))
    assert concat_expr(a, IDENTITY, b) == Concat((a, b))
    assert concat_expr() == IDENTITY
    assert concat_expr(a) == a


def test_union_flattening_dedup_commutative():
    a, b, c = Atomic(("n", "a")), Atomic(("n", "b")), Atomic(("n", "c"))
    assert union_expr(a, union_expr(b, c)) == union_expr(union_expr(a, b), c)
    assert union_expr(a, b) == union_expr(b, a)
    assert union_expr(a, a) == a
    assert union_expr(a, b, a) == Union(frozenset({a, b}))


def test_star_normalization():
    a = Atomic(("n", "a"))
    assert star_expr(IDENTITY) == IDENTITY
    assert star_expr(star_expr(a)) == Star(a)


def test_eval_atomic_and_identity():
    interp = {("n", "a"): COPY_X}
    assert eval_expr(Atomic(("n", "a")), interp, SPACE) is COPY_X
    assert rels_equal(
        eval_expr(star_expr(IDENTITY), interp, SPACE),
        globalize(identity_rel(), SPACE),
        SPACE,
    )


def test_eval_unbound():
    with pytest.raises(UnboundAtomic):
        eval_expr(Atomic(("n", "missing")), {}, SPACE)


@settings(max_examples=30, deadline=None)
@given(rel_strategy, rel_strategy)
def test_eval_homomorphic(a, b):
    interp = {("n", "a"): a, ("n", "b"): b}
    ea, eb = Atomic(("n", "a")), Atomic(("n", "b"))
    assert rels_equal(
        eval_expr(concat_expr(ea, eb), interp, SPACE),
        concat(a, b, SPACE),
        SPACE,
    )
    assert rels_equal(
        eval_expr(union_expr(ea, eb), interp, SPACE),
        union(a, b, SPACE),
        SPACE,
    )
    assert rels_equal(
        eval_expr(star_expr(ea), interp, SPACE), star(a, SPACE), SPACE
    )


def test_expr_equal_reflexive_and_commutative_union():
    a, b = Atomic(("n", "a")), Atomic(("n", "b"))
    spaces = [(SPACE, {("n", "a"): COPY_X, ("n", "b"): SWAP_XY})]
    assert expr_equal(a, a, spaces)
    assert expr_equal(union_expr(a, b), union_expr(b, a), spaces)


def test_expr_equal_detects_non_commuting_concat():
    spaces = [(SPACE, {("n", "a"): COPY_X, ("n", "b"): SWAP_XY})]
    a, b = Atomic(("n", "a")), Atomic(("n", "b"))
    assert not expr_equal(concat_expr(a, b), concat_expr(b, a), spaces)


def test_format_parse_roundtrip():
    a, b, c = Atomic(("n1", "x")), Atomic(("n2", "y")), Atomic(("n3", "z"))
    exprs = [
        a,
        concat_expr(a, b, c),
        union_expr(a, concat_expr(b, c)),
        concat_expr(star_expr(a), union_expr(b, c), a),
        star_expr(union_expr(a, b)),
        star_expr(concat_expr(a, b)),
    ]
    for e in exprs:
        assert parse_expr(format_expr(e)) == e


def test_parse_ascii_fallbacks():
    assert parse_expr("n.a U n.b") == union_expr(
        Atomic(("n", "a")), Atomic(("n", "b"))
    )
    assert parse_expr("n.a . n.b") == concat_expr(
        Atomic(("n", "a")), Atomic(("n", "b"))
    )
    assert parse_expr("n.a n.b") == concat_expr(
        Atomic(("n", "a")), Atomic(("n", "b"))
    )


def test_parse_fresh_result_names():
    e = parse_expr("n1.f>c·n0.a+b")
    assert e == concat_expr(Atomic(("n1", "f>c")), Atomic(("n0", "a+b")))


def test_parse_errors():
    cases = {
        "": "unexpected end of expression",
        "n.a ∪": "unexpected end of expression",
        "(n.a": "missing closing parenthesis",
        "(n.a m": "expected '.' after atom id 'm'",
        "n": "expected '.' after atom id 'n'",
        "n.": "missing result name after 'n'.",
        "n.*": "missing result name after 'n'.",
        "*": "unexpected token '*'",
        "n.a ∪ )": "unexpected token ')'",
        "n.a)": "trailing input at token ')'",
        "(" * 5000 + "n.a" + ")" * 5000: "expression nested too deeply",
    }
    for text, message in cases.items():
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_expr(text)


def tokenize_by_characters(text: str) -> list[str]:
    """The tokens of `text`, read one character at a time."""
    tokens, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()*·.∪":
            tokens.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and text[j] not in _RESERVED:
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


WHITESPACE = [chr(c) for c in range(0x3001) if chr(c).isspace()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(["(", ")", "*", "·", ".", "∪", "U", "id", "n", "a1", *WHITESPACE])))
def test_tokens_skip_whitespace_before_a_token_and_keep_it_inside_a_word(pieces):
    r"""Any whitespace is skipped before a token; inside a word only space,
    tab and newline end it (`a\rb` is one word, `\ra` is the word `a`)."""
    text = "".join(pieces)
    assert _tokenize(text) == tokenize_by_characters(text)


def test_parse_atom_named_id():
    """`id` is an atom id where `id.r` can only be an atom, and the
    identity elsewhere: the dots after it pair up one way only."""
    go, f = Atomic(("id", "go")), Atomic(("nf", "f"))
    assert parse_expr("id.go·nf.f") == concat_expr(go, f)
    assert parse_expr("id.go") == go
    assert parse_expr("(id.go)*") == parse_expr("id.go*") == star_expr(go)
    assert parse_expr("id ∪ id.go") == union_expr(IDENTITY, go)
    assert parse_expr("id.id") == Atomic(("id", "id"))
    assert parse_expr("id.go.nf.f") == concat_expr(go, f)
    assert parse_expr("id . nf.f") == parse_expr("id nf.f") == f
    assert parse_expr("id.nf.f*") == star_expr(f)
    assert parse_expr("id.go.nf") == Atomic(("go", "nf"))
    with pytest.raises(ParseError):
        parse_expr("id.go nf")  # neither reading gives `nf` a result


# ---------------------------------------------------------------------------
# Reading printed expressions back
# ---------------------------------------------------------------------------

# names that the grammar also reads as the identity ("id") and the ASCII
# union sign ("U"), and fresh result names
NAMES = st.sampled_from(["id", "U", "n", "n0", "a+b", "f>c"])


def _twice(e):
    """An expression that holds `e` twice."""
    return concat_expr(e, star_expr(union_expr(e, Atomic(("n", "a")))))


expressions = st.recursive(
    st.just(IDENTITY) | st.builds(lambda a, r: Atomic((a, r)), NAMES, NAMES),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=4).map(lambda ps: concat_expr(*ps)),
        st.lists(inner, min_size=2, max_size=4).map(lambda ps: union_expr(*ps)),
        inner.map(star_expr),
        inner.map(_twice),
    ),
    max_leaves=24,
)


def naive_atoms(e: TransformerExpr) -> set:
    """The atoms of `e` by the plain recursion over its tree."""
    if isinstance(e, Atomic):
        return {e.tag}
    if isinstance(e, Star):
        return naive_atoms(e.inner)
    if isinstance(e, (Concat, Union)):
        return set().union(*map(naive_atoms, e.parts))
    return set()


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_printed_expressions_read_back_shared(e):
    text = format_expr(e)
    back = parse_expr(text)
    assert back == e
    assert hash(back) == hash(e)
    assert format_expr(back) == text
    objects = nodes(back)
    assert len(objects) == len(set(objects))
    assert e.atoms() == back.atoms() == naive_atoms(e)


def test_atoms_of_the_k100_rule_summary():
    """The rule summary of a K = 100 diagram is a DAG whose unfolded tree
    has billions of nodes; `atoms` walks the DAG. Every outcome of the
    generated diagram takes part in its summary."""
    from negsum import generate_sound, run_auto

    neg = generate_sound(3, 300, 5, max_atoms=100)
    (expr,) = run_auto(neg).summary.values()
    assert expr.atoms() == set(neg.outcomes())


def test_pickled_expressions_hash_as_built_where_they_are_loaded():
    """String hashes differ from process to process, so the hash a node
    keeps does not travel in its pickle."""
    text = "(n.a·n.b)* ∪ n.c"
    dump = (
        "import pickle, sys; from negsum import parse_expr; "
        f"e = parse_expr({text!r}); hash(e); "
        "sys.stdout.buffer.write(pickle.dumps(e))"
    )
    src = str(Path(negsum.__file__).parents[1])
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", dump], capture_output=True, env=env, check=True)
    loaded, built = pickle.loads(out.stdout), parse_expr(text)
    assert loaded == built and hash(loaded) == hash(built)


# ---------------------------------------------------------------------------
# Shared suffix products in `Kernel.eval`
# ---------------------------------------------------------------------------

@st.composite
def shared_suffix_case(draw):
    """A space of two or three agents, an interpretation, and 2-4
    concatenations of 2-8 factors that end in one common tail. The factors
    come from a small pool of shared subterms: atoms over one, two and all
    agents, the identity, stars, and the star of an empty relation over
    the agents in reverse, which keeps that order when their state lists
    match. Some subterms are equal in value but not in structure: `twin`
    is bound to a relation with the pairs of `one`'s, but another object,
    `one ∪ twin` equals `one`, and `closed` is bound to the closure of
    `two`'s relation, so it equals `two*`. The tail is drawn from the
    factors over fewer agents, so the parties grow along the fold and one
    tail is met under several joint party tuples."""
    order = tuple(draw(st.permutations(AGENTS))[: draw(st.integers(2, 3))])
    space = {a: tuple(str(i) for i in range(draw(st.integers(1, 3)))) for a in order}
    interp = {("n", str(i)): draw(relation_over_parties(space, order[: i + 1])) for i in range(3)}
    interp[("n", "rev")] = Rel(order[::-1], frozenset())
    interp[("n", "twin")] = Rel(order[:1], frozenset(set(interp[("n", "0")].pairs)))
    interp[("n", "closed")] = ref_star(interp[("n", "1")], space)
    one, two, every, rev, twin, closed = (Atomic(tag) for tag in interp)
    small = [one, two, IDENTITY, star_expr(one), concat_expr(one, two),
             twin, union_expr(one, twin), star_expr(two), closed]
    pool = small + [every, star_expr(rev), star_expr(every), union_expr(one, every)]
    tail = draw(st.lists(st.sampled_from(small), min_size=1, max_size=4))
    heads = draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4),
                          min_size=2, max_size=4))
    return space, interp, [Concat(tuple(head + tail)) for head in heads]


def ref_equal(a: Rel, b: Rel, space) -> bool:
    every = tuple(space)
    return ref_expand(a, space, every).pairs == ref_expand(b, space, every).pairs


@settings(max_examples=50, deadline=None)
@given(shared_suffix_case())
def test_shared_suffixes_match_the_reference(case):
    space, interp, exprs = case
    one, twin, two, closed = (Atomic(("n", r)) for r in ("0", "twin", "1", "closed"))
    for ordered in (exprs, exprs[::-1]):  # a shared suffix first met in either
        k, memo = Kernel(space), {}
        for e in ordered:
            same(k.rel(k.eval(e, interp, memo)), ref_eval(e, interp, space))
        # equal values are one object
        values = [k.eval(e, interp, memo) for e in (one, twin, union_expr(one, twin))]
        assert values[0] is values[1] is values[2]
        assert k.eval(star_expr(two), interp, memo) is k.eval(closed, interp, memo)
        rows = [v for e, v in memo.items() if isinstance(e, TransformerExpr)]
        assert len({id(v) for v in rows}) == len({(v.parties, tuple(v.rows)) for v in rows})
    whole = union_expr(*exprs)
    same(eval_expr(whole, interp, space), ref_eval(whole, interp, space))


@settings(max_examples=40, deadline=None)
@given(shared_suffix_case(), st.data())
def test_shared_suffixes_do_not_outlive_their_memo(case, data):
    space, interp, exprs = case
    other = {tag: data.draw(relation_over_parties(space, r.parties)) for tag, r in interp.items()}
    a, b = exprs[0], exprs[1]
    pairs = [(space, interp), (space, other), (space, interp)]
    want = all(
        ref_equal(ref_eval(a, i, space), ref_eval(b, i, space), space) for _, i in pairs
    )
    assert expr_equal(a, b, pairs) == want
    # one kernel, a memo per interpretation, each dropped before the next
    # (so ids of its objects may be reused)
    k = Kernel(space)
    for i in (interp, other, interp):
        memo: dict = {}
        for e in exprs:
            same(k.rel(k.eval(e, i, memo)), ref_eval(e, i, space))
        del memo


def shape4_state_summary():
    """The state-elimination summary of a generated diagram whose labels
    share long tails (5 agents, K = 15, 40 markings), seeded left-total
    relations over two states per agent, and each concatenation in the
    summary with the set of agents its value is over."""
    from negsum import generate_sound, summarize_by_states

    neg = generate_sound(200800, 32, 5, False, max_atoms=16)
    (expr,) = summarize_by_states(neg).summary.values()
    space = {a: ("0", "1") for a in neg.agents}
    interp = {}
    for atom, result in neg.outcomes():
        rng = random.Random(f"1/{atom}/{result}")
        parties = neg.parties(atom)
        local = list(itertools.product("01", repeat=len(parties)))
        interp[(atom, result)] = Rel(
            parties,
            frozenset((q, q2) for q in local for q2 in rng.sample(local, rng.randint(1, 2))),
        )

    agents: dict = {}  # expression -> the set of agents its value is over

    def over(e):
        if e not in agents:
            if isinstance(e, Identity):
                agents[e] = frozenset()
            elif isinstance(e, Atomic):
                agents[e] = frozenset(interp[e.tag].parties)
            elif isinstance(e, Star):
                agents[e] = over(e.inner)
            else:
                agents[e] = frozenset().union(*map(over, e.parts))
        return agents[e]

    over(expr)
    concats = {e: parties for e, parties in agents.items() if isinstance(e, Concat)}
    return expr, space, interp, concats


def counted_eval(monkeypatch, k, expr, interp, memo):
    """`k.eval(expr, interp, memo)`'s number of compositions, and the
    (joint parties, id of the factor) of each spread it built."""
    import negsum.transformers as transformers

    calls = [0]
    compose, spread = transformers._compose, Kernel.spread
    spreads = []

    def counted(a, b):
        calls[0] += 1
        return compose(a, b)

    def counted_spread(self, r, parties):
        spreads.append((parties, id(r)))
        return spread(self, r, parties)

    monkeypatch.setattr(transformers, "_compose", counted)
    monkeypatch.setattr(Kernel, "spread", counted_spread)
    k.eval(expr, interp, memo)
    monkeypatch.setattr(transformers, "_compose", compose)
    monkeypatch.setattr(Kernel, "spread", spread)
    return calls[0], spreads


def distinct_suffixes(concats) -> set:
    """The distinct (agents, suffix of subterms) of the concatenations."""
    return {(over, c.parts[i:]) for c, over in concats.items() for i in range(len(c.parts) - 1)}


def test_state_summary_composes_each_shared_suffix_once(monkeypatch):
    """On the state-elimination summary of a generated diagram whose
    labels share long tails (5 agents, K = 15, 40 markings), `Kernel.eval`
    makes at most one composition per distinct (joint parties, suffix),
    where the plain fold makes one per factor boundary of every
    concatenation, and spreads each (joint parties, factor) at most once.
    Each concatenation's value equals that plain fold through
    `Kernel.concat`."""
    expr, space, interp, concats = shape4_state_summary()
    suffixes = distinct_suffixes(concats)
    plain = sum(len(c.parts) - 1 for c in concats)
    assert len(suffixes) < plain

    k, memo = Kernel(space), {}
    calls, spreads = counted_eval(monkeypatch, k, expr, interp, memo)
    assert calls <= len(suffixes)
    # the memo holds every factor, so no id above was reused
    assert 0 < len(spreads) == len(set(spreads)) < calls
    for c in concats:
        assert memo[c] == k.concat(*(memo[p] for p in c.parts)), c


def test_state_summary_composes_each_distinct_product_once(monkeypatch):
    """On the same summary, equal relations reached through different
    subterms are one value in `Kernel.eval`'s memo, so it makes at most
    one composition per distinct (joint parties, factor value, value of
    the product of the rest), computed here by a plain fold, and fewer
    than one per distinct (joint parties, suffix of subterms)."""
    expr, space, interp, concats = shape4_state_summary()
    fold, values = Kernel(space), {}

    def value(e):  # the plain fold, one per subterm
        if e not in values:
            if isinstance(e, Identity):
                values[e] = Rows((), [1])
            elif isinstance(e, Atomic):
                values[e] = fold.rows(interp[e.tag])
            elif isinstance(e, Star):
                values[e] = fold.star(value(e.inner))
            elif isinstance(e, Union):
                values[e] = fold.union(*map(value, e.parts))
            else:
                values[e] = fold.concat(*map(value, e.parts))
        return values[e]

    def key(r):
        return r.parties, tuple(r.rows)

    products = set()
    for c, over in concats.items():
        joint = fold.merged(over)
        for i in range(len(c.parts) - 1):
            rest = fold.expand(fold.concat(*map(value, c.parts[i + 1:])), joint)
            products.add((joint, key(value(c.parts[i])), key(rest)))

    calls, _ = counted_eval(monkeypatch, Kernel(space), expr, interp, {})
    assert calls <= len(products)
    assert calls < len(distinct_suffixes(concats))


# ---------------------------------------------------------------------------
# Rows kept on a `Rel`
# ---------------------------------------------------------------------------

def kept(r: Rel):
    """What `r` keeps: (state lists of its parties, its `Rows`), or None."""
    return r.__dict__.get("_rows")


@settings(max_examples=60, deadline=None)
@given(space_and_relations(2), st.data())
def test_a_rel_read_under_spaces_that_order_its_states_differently(case, data):
    """One pair of relations read alternately under a space and under the
    same space with each agent's states listed in another order: each
    read keeps rows for its own space, and every result is right."""
    space, (a, b) = case
    other = {agent: tuple(data.draw(st.permutations(list(states))))
             for agent, states in space.items()}
    interp = {("n", "a"): a, ("n", "b"): b}
    expr = concat_expr(Atomic(("n", "a")), star_expr(Atomic(("n", "b"))))
    for sp in (space, other, space, other):
        same(eval_expr(expr, interp, sp), ref_eval(expr, interp, sp))
        assert rels_equal(a, b, sp) == ref_equal(a, b, sp)
        for r in (a, b):
            assert kept(r)[0] == tuple(sp[p] for p in r.parties)


def test_a_rel_kept_for_one_order_is_converted_again_for_another():
    a = rel(("x",), [(("0",), ("1",))])
    flipped = {**SPACE, "x": ("1", "0")}
    k = Kernel(SPACE)
    assert k.rows(a).rows == [0b10, 0]
    assert Kernel(flipped).rows(a).rows == [0, 0b01]
    assert kept(a)[0] == (("1", "0"),)


@pytest.mark.parametrize("what", sorted(MISFITS))
def test_a_failed_conversion_keeps_nothing(what):
    """A relation that does not fit the space raises at every entry
    point and keeps nothing; one that keeps rows for a space it fits keeps
    them when a space it does not fit rejects it."""
    for where, call in ENTRY_POINTS.items():
        bad = Rel(MISFITS[what].parties, MISFITS[what].pairs)
        with pytest.raises(StateSpaceMismatch):
            call(bad)
        assert kept(bad) is None, where
    fits = {"nope": ("0", "1"), "x": ("0", "1", "2", "9"), "y": ("0", "1", "9")}
    bad = Rel(MISFITS[what].parties, MISFITS[what].pairs)
    if all(len(q) == len(bad.parties) for pair in bad.pairs for q in pair):
        rows = Kernel(fits).rows(bad)
        with pytest.raises(StateSpaceMismatch):
            rels_equal(bad, bad, SPACE)
        assert kept(bad)[1] is rows


def test_an_evaluated_rel_equals_and_hashes_like_one_built_from_its_pairs():
    interp = {("n", "a"): FLIP_Z, ("n", "b"): COPY_X}
    for expr in (concat_expr(Atomic(("n", "a")), Atomic(("n", "b"))),
                 star_expr(Atomic(("n", "a"))),
                 union_expr(Atomic(("n", "a")), Atomic(("n", "b")))):
        got = eval_expr(expr, interp, SPACE)
        assert kept(got) is not None
        plain = Rel(got.parties, frozenset(got.pairs))
        assert got == plain and plain == got
        assert hash(got) == hash(plain) and repr(got) == repr(plain)
        assert {plain: expr}[got] == expr


def test_pickle_leaves_the_kept_rows_out():
    got = eval_expr(star_expr(Atomic(("n", "a"))), {("n", "a"): FLIP_Z}, SPACE)
    rows = kept(got)[1]
    loaded = pickle.loads(pickle.dumps(got))
    assert loaded == got and hash(loaded) == hash(got)
    assert kept(loaded) is None
    assert Kernel(SPACE).rows(loaded) == rows


@settings(max_examples=60, deadline=None)
@given(space_and_relations(2), st.data())
def test_a_rel_built_by_the_kernel_reads_like_one_built_from_its_pairs(case, data):
    """A `Rel` that `Kernel.rel` returns builds its pairs only when they
    are read. Each read below starts from a fresh one, so each way of
    reading builds them: `pairs`, `==`, `hash`, `repr` and a pickle round
    trip all give what `Rel(parties, pairs)` gives. One read under
    another order of its states converts the pairs its rows stand for."""
    space, (a, b) = case
    other = {agent: tuple(data.draw(st.permutations(list(states))))
             for agent, states in space.items()}
    for want in (a, ref_concat(a, b, space), ref_star(b, space)):
        plain = Rel(want.parties, want.pairs)
        k = Kernel(space)

        def built():
            out = k.rel(k.rows(plain))
            assert "pairs" not in vars(out)
            return out

        assert built().pairs == plain.pairs
        assert built() == plain and plain == built()
        assert hash(built()) == hash(plain)
        assert repr(built()) == repr(plain)
        loaded = pickle.loads(pickle.dumps(built()))
        assert type(loaded) is Rel and kept(loaded) is None
        assert (loaded.parties, loaded.pairs) == (plain.parties, plain.pairs)
        assert built().is_left_total(space) == plain.is_left_total(space)
        assert Kernel(other).rows(built()) == Kernel(other).rows(plain)
        with pytest.raises(AttributeError):
            built().nope


def generated_cross_check_case():
    """Shape 4 of the benchmark's generated batch 1 (5 agents, K = 15, 40
    markings), its seeded relations and both engines' summaries."""
    from negsum import generate_sound, run_auto, summarize_by_states

    neg = generate_sound(200800, 32, 5, False, max_atoms=16)
    space, interp = synthetic_interp(neg, 1)
    summaries = (summarize_by_states(neg).summary, run_auto(neg).summary)
    return neg, space, interp, summaries


def test_evaluating_summaries_leaves_the_kept_rows_of_the_relations_unchanged():
    neg, space, interp, summaries = generated_cross_check_case()
    k = Kernel(space)
    before = {tag: (k.rows(r), list(k.rows(r).rows)) for tag, r in interp.items()}
    brute_force_summary(neg, interp, space)
    for summary in summaries:
        for expr in summary.values():
            eval_expr(expr, interp, space)
    for tag, r in interp.items():
        rows, copy = before[tag]
        assert kept(r)[1] is rows and rows.rows == copy, tag


def test_a_cross_check_converts_each_relation_at_most_once(monkeypatch):
    """The benchmark's cross-check: the oracle, then `eval_expr` and
    `rels_equal` for each result of both engines. Only the diagram's own
    relations are converted from pairs, each at most once; the relations
    the kernel made are compared without a conversion."""
    neg, space, interp, summaries = generated_cross_check_case()
    convert = Kernel._convert
    converted = []

    def counted(self, r):
        converted.append(r)
        return convert(self, r)

    monkeypatch.setattr(Kernel, "_convert", counted)
    oracle = brute_force_summary(neg, interp, space)
    for summary in summaries:
        assert set(summary) == set(oracle)
        for result, expr in summary.items():
            got = eval_expr(expr, interp, space)
            before = len(converted)
            assert rels_equal(got, oracle[result], space)
            assert len(converted) == before
    assert converted
    assert len({id(r) for r in converted}) == len(converted)
    own = {id(r) for r in interp.values()}
    assert all(id(r) in own for r in converted)
