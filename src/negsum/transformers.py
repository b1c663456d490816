"""Transformer algebra: symbolic expressions over per-outcome state
transformers, plus their concrete relational semantics over finite
per-agent state spaces.

Expressions are normalized on construction: concatenations are flattened,
unions are flattened/deduplicated (stored as frozensets, so equality is
modulo commutativity and idempotence), and star of the identity collapses
to the identity.

Equality is structural, and a summary is a DAG that shares subterms, so a
walk over it should cost one step per distinct subterm. `Concat` and
`Star` compute their hash on first use from their parts' hashes and keep
it; a `Union`'s frozenset keeps its own, and an `Atomic` is a leaf. So
hashing a node costs one step per part the first time and one step after
that, and the memos keyed on expressions (`Kernel.eval`) pay for the
distinct subterms, not the unfolded tree. `parse_expr` shares within one call:
each subterm it reads twice is one object, so a printed summary reads
back as a DAG, not as the tree its text spells out.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import StateSpaceMismatch, UnboundAtomic, ParseError

Tag = tuple[str, str]  # (atom id, result name)


# ---------------------------------------------------------------------------
# Symbolic expressions
# ---------------------------------------------------------------------------

class TransformerExpr:
    """Base class; instances are immutable and hashable."""

    __slots__ = ()

    def atoms(self) -> frozenset[Tag]:
        """The tags of the atoms in the expression. Each distinct node is
        visited once per call (by id: the whole DAG is alive for the
        call)."""
        seen: set[int] = set()
        tags: set[Tag] = set()
        stack: list[TransformerExpr] = [self]
        while stack:
            e = stack.pop()
            if id(e) in seen:
                continue
            seen.add(id(e))
            if isinstance(e, Atomic):
                tags.add(e.tag)
            elif isinstance(e, Star):
                stack.append(e.inner)
            elif isinstance(e, (Concat, Union)):
                stack.extend(e.parts)
        return frozenset(tags)

    def __repr__(self):
        return f"<expr {format_expr(self)}>"


@dataclass(frozen=True, repr=False)
class Identity(TransformerExpr):
    __slots__ = ()


@dataclass(frozen=True, repr=False)
class Atomic(TransformerExpr):
    tag: Tag


# `Concat` and `Star` keep their hash in the instance dict, where it shadows
# the class's `_hash = None`. The value is the dataclass's own,
# hash((field,)), so sets and dicts of expressions iterate as they would
# without the cache. It is left out of pickles (`__reduce__`): string hashes
# differ from process to process.

@dataclass(frozen=True, repr=False)
class Concat(TransformerExpr):
    parts: tuple[TransformerExpr, ...]
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.parts,))
        return h

    def __reduce__(self):
        return Concat, (self.parts,)


@dataclass(frozen=True, repr=False)
class Union(TransformerExpr):
    parts: frozenset[TransformerExpr]


@dataclass(frozen=True, repr=False)
class Star(TransformerExpr):
    inner: TransformerExpr
    _hash = None

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self.__dict__["_hash"] = hash((self.inner,))
        return h

    def __reduce__(self):
        return Star, (self.inner,)


IDENTITY = Identity()


def concat_expr(*parts: TransformerExpr) -> TransformerExpr:
    """Concatenation, flattened; the identity is the neutral element."""
    flat: list[TransformerExpr] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        elif isinstance(p, Identity):
            continue
        else:
            flat.append(p)
    if not flat:
        return IDENTITY
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union_expr(*parts: TransformerExpr) -> TransformerExpr:
    """Union, flattened and deduplicated."""
    flat: set[TransformerExpr] = set()
    for p in parts:
        if isinstance(p, Union):
            flat.update(p.parts)
        else:
            flat.add(p)
    if not flat:
        raise ValueError("empty union")
    if len(flat) == 1:
        return next(iter(flat))
    return Union(frozenset(flat))


def star_expr(inner: TransformerExpr) -> TransformerExpr:
    if isinstance(inner, Identity):
        return IDENTITY
    if isinstance(inner, Star):
        return inner
    return Star(inner)


# ---------------------------------------------------------------------------
# Printing and parsing
# ---------------------------------------------------------------------------
#
# Grammar (ASCII fallbacks "U" for the union sign and "." for the middle dot
# are accepted on input):
#
#   ATOM   := id "." result
#   EXPR   := term ("∪" term)*
#   term   := factor+            juxtaposition = concatenation, "·" optional
#   factor := ATOM | "id" | "(" EXPR ")" | factor "*"
#
# "id" is the identity, and also an atom id: `_ExprParser.atom_follows`
# tells the two apart.

def format_expr(e: TransformerExpr) -> str:
    """The expression as text, unfolded into a tree. A summary is a DAG
    that shares subterms, so each distinct node is printed once per call
    and its text reused (memoised on the node's id: the whole DAG is alive
    for the call). An expression read back by `parse_expr` is such a DAG
    too, so reprinting it costs one step per distinct subterm, and the
    text is the one it was read from."""
    memo: dict[int, str] = {}

    def fmt(e: TransformerExpr) -> str:
        text = memo.get(id(e))
        if text is None:
            text = memo[id(e)] = _format_node(e, fmt)
        return text

    return fmt(e)


def _format_node(e: TransformerExpr, fmt) -> str:
    """One node's text, its parts printed by `fmt`."""
    if isinstance(e, Identity):
        return "id"
    if isinstance(e, Atomic):
        return f"{e.tag[0]}.{e.tag[1]}"
    if isinstance(e, Star):
        body = fmt(e.inner)
        if not isinstance(e.inner, Atomic):
            body = f"({body})"
        return body + "*"
    if isinstance(e, Concat):
        out = []
        for p in e.parts:
            s = fmt(p)
            if isinstance(p, Union):
                s = f"({s})"
            out.append(s)
        return "·".join(out)
    if isinstance(e, Union):
        return " ∪ ".join(sorted(fmt(p) for p in e.parts))
    raise TypeError(f"not an expression: {e!r}")


_RESERVED = set("()*·. \t\n∪")

# A token is one of the signs "()*·.∪", or a word: a run of characters
# outside `_RESERVED`. Whitespace (`str.isspace`, which is what `\s`
# matches) is skipped before a token; inside a word only space, tab and
# newline end it, so a word may hold other whitespace ("a\rb" is one word).
# `re` compiles the pattern on the first parse and keeps it, so importing
# negsum does not pay for it.
_TOKEN = r"\s*([()*·.∪]|[^\s()*·.∪][^()*·. \t\n∪]*)"


def _tokenize(text: str) -> list[str]:
    return re.findall(_TOKEN, text)


class _ExprParser:
    """Recursive descent over a token list, read in place at `pos`. The
    parser appends None to the list, to mark its end."""

    def __init__(self, tokens: list):
        tokens.append(None)
        self.tokens = tokens
        self.pos = 0
        self.nodes: dict[TransformerExpr, TransformerExpr] = {}

    def share(self, e: TransformerExpr) -> TransformerExpr:
        """The node of this parse equal to `e`: the first one built. A
        node is built from shared parts, so hashing it and comparing it
        with the held one take one step per part."""
        return self.nodes.setdefault(e, e)

    def parse_expr(self) -> TransformerExpr:
        tokens = self.tokens
        terms = [self.parse_term()]
        while tokens[self.pos] in ("∪", "U"):
            self.pos += 1
            terms.append(self.parse_term())
        return self.share(union_expr(*terms))

    def parse_term(self) -> TransformerExpr:
        tokens = self.tokens
        factors = [self.parse_factor()]
        while True:
            tok = tokens[self.pos]
            if tok == "·" or tok == ".":
                self.pos += 1
            elif tok in (")", "∪", "U", None):
                break
            factors.append(self.parse_factor())
        return self.share(concat_expr(*factors))

    def parse_factor(self) -> TransformerExpr:
        tokens, pos = self.tokens, self.pos
        tok = tokens[pos]
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos = pos = pos + 1
        if tok == "(":
            e = self.parse_expr()
            pos = self.pos
            if tokens[pos] != ")":
                raise ParseError("missing closing parenthesis")
            pos += 1
        elif tok == "id" and not self.atom_follows():
            e = IDENTITY
        elif tok not in _RESERVED:
            if tokens[pos] != ".":
                raise ParseError(f"expected '.' after atom id {tok!r}")
            result = tokens[pos + 1]
            if result is None or result in _RESERVED:
                raise ParseError(f"missing result name after {tok!r}.")
            pos += 2
            e = self.share(Atomic((tok, result)))
        else:
            raise ParseError(f"unexpected token {tok!r}")
        while tokens[pos] == "*":
            pos += 1
            e = self.share(star_expr(e))
        self.pos = pos
        return e

    def atom_follows(self) -> bool:
        """Whether the `id` just taken is an atom id. After it come n
        names, each after a ".": `id.r1.r2…rn`. Read as the identity, the
        dots pair r1.r2, r3.r4, …; read as an atom, they pair id.r1,
        r2.r3, …. One reading leaves the last name without a result, so
        the parity picks the other: the atom when n is odd, the identity
        when n is even (`id . n.a` is the identity, then `n.a`). Where a
        name `id` could also stand alone (`id.id`), the parity still
        decides, and it reads what `format_expr` prints."""
        tokens, i = self.tokens, self.pos
        while tokens[i] == "." and tokens[i + 1] is not None and tokens[i + 1] not in _RESERVED:
            i += 2
        return (i - self.pos) // 2 % 2 == 1


def parse_expr(text: str) -> TransformerExpr:
    """The expression that `text` spells (see the grammar above), with
    `parse_expr(format_expr(e)) == e`. Within one call, subterms that are
    equal are one object: the text of a summary spells out its DAG as a
    tree, and the result is the DAG again, with one node per distinct
    subterm. So `eval_expr` and `format_expr` of it cost one step per
    distinct subterm, not per node of the tree. `id.r` reads as an atom
    of atom id `id` where the dots after it pair that way
    (`_ExprParser.atom_follows`). Raises `ParseError` on text outside the
    grammar."""
    parser = _ExprParser(_tokenize(text))
    try:
        expr = parser.parse_expr()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    if parser.tokens[parser.pos] is not None:
        raise ParseError(f"trailing input at token {parser.tokens[parser.pos]!r}")
    return expr


# ---------------------------------------------------------------------------
# Concrete relations
# ---------------------------------------------------------------------------

StateSpace = Mapping[str, tuple[str, ...]]  # agent -> nonempty state list

Assignment = tuple[str, ...]  # states aligned with a party tuple


@dataclass(frozen=True)
class Rel:
    """A relation over the local states of `parties` (ordered tuple).

    Semantically a P-transformer: agents outside `parties` are left
    unchanged when the relation is expanded to the global state space.

    A `Rel` keeps its kernel form once it has one (`Kernel.rows`,
    `Kernel.rel`): the `Rows` and the per-party state lists they were
    built for, in the instance dict, where they shadow the class's
    `_rows = None`. They are not a field, so `==`, `hash` and `repr` do
    not see them, and they are left out of pickles (`__reduce__`).

    A `Rel` that `Kernel.rel` builds starts with its rows alone: its
    `pairs` are built from them the first time they are read
    (`__getattr__`), then kept, so a result that is only compared in
    kernel form (`rels_equal`) never builds them. Everything that reads
    `pairs` (`==`, `hash`, `repr`, pickling) sees what `Rel(parties,
    pairs)` would hold.
    """

    parties: tuple[str, ...]
    pairs: frozenset[tuple[Assignment, Assignment]]
    _rows = None  # (state lists of the parties, Rows), once converted

    def __getattr__(self, name):
        # reached only for an attribute the instance dict lacks: the
        # `pairs` of a `Rel` the kernel built
        kept = self._rows
        if name != "pairs" or kept is None:
            raise AttributeError(name)
        states, r = kept
        assignments = list(itertools.product(*states))
        pairs = self.__dict__["pairs"] = frozenset(
            (assignments[i], assignments[j]) for i, row in enumerate(r.rows) for j in bits(row)
        )
        return pairs

    def __reduce__(self):
        return Rel, (self.parties, self.pairs)

    def is_left_total(self, space: StateSpace) -> bool:
        entries = {p[0] for p in self.pairs}
        domain = itertools.product(*(space[a] for a in self.parties))
        return all(tuple(q) in entries for q in domain)

    def __repr__(self):
        return f"Rel({list(self.parties)}, {len(self.pairs)} pairs)"


# ---------------------------------------------------------------------------
# The relation kernel
# ---------------------------------------------------------------------------
#
# Inside the kernel a relation over a party tuple P is a list of Python
# ints, one row per entry assignment. Assignments are numbered in mixed
# radix over P's own party order, the last party varying fastest (the
# order of itertools.product), and bit j of row i says that entry
# assignment i may end in exit assignment j. Rows stay local to P: a
# relation is expanded to a larger tuple only where an operation joins it
# with one over other parties. `Rel` stays the value type: the public
# functions take and return `Rel`s, and a `Rel` keeps the `Rows` it was
# converted to or built from (`Kernel.rows`, `Kernel.rel`) together with
# the state lists of its parties. So a relation is converted from pairs
# once per state space it is read under, not once per call, and a result
# handed from one call to the next (`eval_expr` to `rels_equal`) is not
# converted at all, nor are its pairs built unless read. Kept rows are
# shared by every later call that reads the `Rel`, so no kernel operation
# writes into a `Rows` list it is given: each one that changes rows builds
# a new list.
#
# The left factor of a composition is read in spread form: the relation
# expanded to the joint parties, as the list of the set-bit positions of
# each row (`Kernel.spread`), so the composition (`_compose`) only indexes
# and ORs. A spread is built from the factor's own rows, each walked once,
# and lives as long as its memo (`_shared_concat`: one `Kernel.eval` call)
# or its call (`Kernel.concat`).
#
# `Kernel.eval` shares suffix products by value. State elimination
# flattens each new edge label into one `Concat`, so labels built from the
# same out-edge end in the same factors, and equal relations are often
# reached through different subterms. Within one call, each subterm's
# `Rows` and each suffix product are interned in the call's memo under
# (parties, tuple of the rows) (`_interned`): the first `Rows` of a value
# stands for every equal one met later. The product of every suffix of a
# concatenation is kept there under (joint parties, id of the factor's
# interned `Rows`, id of the interned product of the rest of the suffix),
# so a (factor, product) pair met again by value, through whatever
# subterms, is composed once. Each factor's spread is kept there too,
# under (joint parties, id of the factor's `Rows`). The ids stay valid
# keys because the memo holds every object they name: each interned
# `Rows` is the value of its value's entry. Nothing leaves a memo, so no
# id named by one of its keys is reused while the memo lives, and a new
# memo starts with no values, no products and no spreads.


class Rows(NamedTuple):
    """A relation in kernel form: `rows[i]` is the bitset of the exit
    assignments of entry assignment `i` over `parties`."""

    parties: tuple[str, ...]
    rows: list[int]


def bits(row: int) -> list[int]:
    """The positions of the set bits of `row`, lowest first."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def _compose(spread: list[list[int]], rows: list[int]) -> list[int]:
    """Composition of two relations over the same parties, the first in
    spread form (`Kernel.spread`): row i of the result ORs the rows of
    `rows` at the positions `spread[i]` lists."""
    out = []
    for positions in spread:
        acc = 0
        for j in positions:
            acc |= rows[j]
        out.append(acc)
    return out


def _interned(r: Rows, memo: dict) -> Rows:
    """The `Rows` of `r`'s value that `memo` met first, kept there under
    (parties, tuple of the rows): `r` itself if no equal one was met."""
    return memo.setdefault((r.parties, tuple(r.rows)), r)


class Kernel:
    """The bitset relation algebra over one state space, with the index
    tables it builds on the way. Each public call makes its own, so its
    tables and memos do not outlive the call; what does is the `Rows`
    each `Rel` it converts or builds keeps (`rows`, `rel`)."""

    def __init__(self, space: StateSpace):
        self.space = space
        self._frames: dict = {}  # parties -> (assignments, assignment -> index)
        self._lifts: dict = {}  # (parties, larger parties) -> (positions, offsets)
        self._joints: dict = {}  # factors' party tuples -> their joint party tuple

    def _frame(self, parties: tuple[str, ...]):
        hit = self._frames.get(parties)
        if hit is None:
            missing = [a for a in parties if a not in self.space]
            if missing:
                raise StateSpaceMismatch(
                    f"agents {sorted(missing)} not in the state space"
                )
            assignments = list(itertools.product(*(self.space[a] for a in parties)))
            index = {q: i for i, q in enumerate(assignments)}
            if len(index) != len(assignments):
                twice = [a for a in parties if len(set(self.space[a])) != len(self.space[a])]
                raise StateSpaceMismatch(f"the state space lists a state twice for {twice}")
            hit = self._frames[parties] = (assignments, index)
        return hit

    def size(self, parties: tuple[str, ...]) -> int:
        """The number of assignments of `parties`."""
        return len(self._frame(parties)[0])

    def _states(self, parties: tuple[str, ...]) -> tuple:
        """The state lists of `parties` in the space: the numbering of
        their assignments, so the key under which a `Rel` keeps its
        rows."""
        space = self.space
        try:
            return tuple([space[a] for a in parties])
        except KeyError:
            self._frame(parties)  # raises StateSpaceMismatch
            raise

    def rows(self, rel: Rel) -> Rows:
        """`rel` in kernel form: the `Rows` it keeps, when they were built
        for the same state lists of its parties; otherwise converted from
        its pairs, and kept. A pair whose entry or exit is not an
        assignment of `rel.parties` over the space (a state outside an
        agent's list, or a tuple of the wrong length) raises
        `StateSpaceMismatch`, and nothing is kept. A `Rel` whose pairs
        are still to be built from the rows it keeps builds them in
        `_convert`, before those rows are replaced."""
        states = self._states(rel.parties)
        kept = rel._rows
        if kept is None or kept[0] != states:
            kept = rel.__dict__["_rows"] = (states, self._convert(rel))
        return kept[1]

    def _convert(self, rel: Rel) -> Rows:
        """`rel`'s pairs as rows over its parties."""
        index = self._frame(rel.parties)[1]
        rows = [0] * len(index)
        for pair in rel.pairs:
            try:
                rows[index[pair[0]]] |= 1 << index[pair[1]]
            except KeyError:
                raise StateSpaceMismatch(
                    f"{pair} is not a pair of assignments of {rel.parties} "
                    "in the state space"
                ) from None
        return Rows(rel.parties, rows)

    def rel(self, r: Rows) -> Rel:
        """`r` as a `Rel`, which keeps `r` and builds its pairs from it
        the first time they are read."""
        out = object.__new__(Rel)
        out.__dict__.update(parties=r.parties, _rows=(self._states(r.parties), r))
        return out

    def merged(self, *parties: Iterable[str]) -> tuple[str, ...]:
        """The joint party tuple, in the order of the space."""
        combined = set().union(*parties)
        agents = self.space.keys()  # a set view: no set is built per call
        if not agents >= combined:
            missing = combined - agents
            raise StateSpaceMismatch(f"agents {sorted(missing)} not in the state space")
        return tuple(agent for agent in agents if agent in combined)

    def _lift(self, small: tuple[str, ...], large: tuple[str, ...]):
        """Where each assignment of `small` sits among those of `large`
        when the other agents are in their first state, and the index
        offset of each state of those other agents. None where `large`
        does not name every agent of `small`: the caller says which
        operation failed."""
        key = (small, large)
        hit = self._lifts.get(key)
        if hit is None:
            if not set(small) <= set(large):
                return None
            self._frame(large)
            stride, step = {}, 1
            for agent in reversed(large):
                stride[agent] = step
                step *= len(self.space[agent])

            def offsets(agents):
                return [
                    sum(d * stride[a] for d, a in zip(digits, agents))
                    for digits in itertools.product(
                        *(range(len(self.space[a])) for a in agents)
                    )
                ]

            hit = self._lifts[key] = (
                offsets(small),
                offsets([a for a in large if a not in small]),
            )
        return hit

    def expand(self, r: Rows, parties: tuple[str, ...]) -> Rows:
        """`r` over the larger tuple `parties`: the agents `r` does not
        name keep their state (the P-transformer law). Each row is lifted
        once, then shifted by the offset of every state of those agents."""
        if r.parties == parties:
            return r
        lift = self._lift(r.parties, parties)
        if lift is None:
            raise StateSpaceMismatch(f"cannot expand {r.parties} to {parties}")
        positions, offsets = lift
        out = [0] * self.size(parties)
        for i, row in enumerate(r.rows):
            lifted = 0
            while row:
                low = row & -row
                lifted |= 1 << positions[low.bit_length() - 1]
                row ^= low
            base = positions[i]
            for off in offsets:
                out[base + off] = lifted << off
        return Rows(parties, out)

    def spread(self, r: Rows, parties: tuple[str, ...]) -> list[list[int]]:
        """`expand(r, parties)` in spread form: for each row, the
        positions of its set bits, lowest first, so a composition that
        reads it (`_compose`) does no bit arithmetic. Each of `r`'s own
        rows is walked once, its positions lifted (and sorted, since `r`
        may name its agents in another order than `parties`), then
        shifted by the offset of every state of the agents `r` does not
        name."""
        if r.parties == parties:
            out = []
            for row in r.rows:
                listed = []
                while row:
                    low = row & -row
                    listed.append(low.bit_length() - 1)
                    row ^= low
                out.append(listed)
            return out
        lift = self._lift(r.parties, parties)
        if lift is None:
            raise StateSpaceMismatch(f"cannot spread {r.parties} to {parties}")
        positions, offsets = lift
        out: list = [None] * self.size(parties)
        for i, row in enumerate(r.rows):
            lifted = sorted([positions[j] for j in bits(row)])
            base = positions[i]
            for off in offsets:
                out[base + off] = [p + off for p in lifted] if off else lifted
        return out

    def restrict(self, r: Rows, parties: tuple[str, ...]) -> Rows:
        """The relation over the smaller tuple `parties` whose expansion
        is `r`; `r` must leave every other agent unchanged."""
        lift = self._lift(parties, r.parties)
        if lift is None:
            raise StateSpaceMismatch(f"cannot restrict {r.parties} to {parties}")
        positions = lift[0]
        out = []
        for p in positions:
            row = r.rows[p]
            out.append(sum(1 << j for j, q in enumerate(positions) if row >> q & 1))
        return Rows(parties, out)

    def concat(self, *rs: Rows) -> Rows:
        """Relational composition of `rs` in order, over the joint
        parties. It folds from the right, so each step walks one factor,
        which is usually sparse, in spread form, and not the product so
        far, which fills up."""
        parties = self.merged(*(r.parties for r in rs))
        rows = None
        for r in reversed(rs):
            if rows is None:
                rows = self.expand(r, parties).rows
            else:
                rows = _compose(self.spread(r, parties), rows)
        return Rows(parties, [1] if rows is None else rows)

    def _shared_concat(self, rs: list[Rows], memo: dict) -> Rows:
        """`concat(*rs)` of factors interned in `memo` (`_interned`), with
        each suffix product interned too, and looked up in `memo` under
        (joint parties, id(factor), id(product of the rest)). The last
        factor's key names `id(None)`, which no product can have. Each
        factor's spread is kept in `memo` under (joint parties,
        id(factor)), so it is built once per memo. The joint parties of
        each tuple of factor parties are computed once per kernel."""
        factors = tuple([r.parties for r in rs])
        parties = self._joints.get(factors)
        if parties is None:
            parties = self._joints[factors] = self.merged(*factors)
        product = None
        for r in reversed(rs):
            key = (parties, id(r), id(product))
            hit = memo.get(key)
            if hit is None:
                if product is None:
                    hit = self.expand(r, parties)
                else:
                    spread = memo.get((parties, id(r)))
                    if spread is None:
                        spread = memo[(parties, id(r))] = self.spread(r, parties)
                    hit = Rows(parties, _compose(spread, product.rows))
                hit = memo[key] = _interned(hit, memo)
            product = hit
        return Rows(parties, [1]) if product is None else product

    def union(self, *rs: Rows) -> Rows:
        if len(rs) == 1:
            return rs[0]
        parties = self.merged(*(r.parties for r in rs))
        rows = list(self.expand(rs[0], parties).rows)
        for r in rs[1:]:
            for i, row in enumerate(self.expand(r, parties).rows):
                rows[i] |= row
        return Rows(parties, rows)

    def star(self, r: Rows) -> Rows:
        """Reflexive-transitive closure (Warshall), over the parties in
        the order of the space. A closure that is the identity keeps the
        relation's own party order when both orders list the same
        assignments, as the fixpoint iteration this replaced did."""
        parties = self.merged(r.parties)
        rows = list(self.expand(r, parties).rows)
        n = len(rows)
        for k in range(n):
            rk = rows[k]
            if rk:
                bit = 1 << k
                for i in range(n):
                    if rows[i] & bit:
                        rows[i] |= rk
        closure = [row | 1 << i for i, row in enumerate(rows)]
        if parties != r.parties and all(row == 1 << i for i, row in enumerate(closure)):
            if set(self._frame(parties)[0]) == set(self._frame(r.parties)[0]):
                return Rows(r.parties, closure)
        return Rows(parties, closure)

    def equal(self, a: Rows, b: Rows) -> bool:
        """Equality as global relations, decided over the joint parties
        (expansion to more agents is injective)."""
        parties = self.merged(a.parties, b.parties)
        return self.expand(a, parties).rows == self.expand(b, parties).rows

    def eval(self, expr: TransformerExpr, interp: Mapping[Tag, Rel], memo: dict) -> Rows:
        """Structural fold of the expression, memoized in `memo`:
        subexpressions repeat heavily in eliminator output. `memo` maps
        each expression evaluated to its `Rows`, interned by value
        (`_interned`), so equal relations reached through different
        subterms are one object. It holds the suffix products of its
        concatenations and their factors' spreads too (`_shared_concat`),
        so a concatenation costs one composition per (factor value,
        value of the product of the rest) not met before in the memo's
        lifetime. Nodes keep their hashes, so a lookup hashes in one step,
        and a node of a DAG met again as the same object (as every node
        of one read back by `parse_expr` is) is found by identity,
        without a structural comparison."""
        hit = memo.get(expr)
        if hit is not None:
            return hit
        if isinstance(expr, Identity):
            out = Rows((), [1])
        elif isinstance(expr, Atomic):
            try:
                out = self.rows(interp[expr.tag])
            except KeyError:
                raise UnboundAtomic(expr.tag) from None
        elif isinstance(expr, Concat):
            parts = [self.eval(p, interp, memo) for p in expr.parts]
            out = self._shared_concat(parts, memo)
        elif isinstance(expr, Union):
            out = self.union(*(self.eval(p, interp, memo) for p in expr.parts))
        elif isinstance(expr, Star):
            out = self.star(self.eval(expr.inner, interp, memo))
        else:
            raise TypeError(f"not an expression: {expr!r}")
        out = memo[expr] = _interned(out, memo)
        return out


def concat(a: Rel, b: Rel, space: StateSpace) -> Rel:
    """Relational composition over the joint party set."""
    k = Kernel(space)
    return k.rel(k.concat(k.rows(a), k.rows(b)))


def union(a: Rel, b: Rel, space: StateSpace) -> Rel:
    k = Kernel(space)
    return k.rel(k.union(k.rows(a), k.rows(b)))


def star(a: Rel, space: StateSpace) -> Rel:
    """Reflexive-transitive closure: the least fixpoint of
    r -> id ∪ (a ∘ r), computed directly by Warshall's algorithm, so no
    iteration cap is needed."""
    k = Kernel(space)
    return k.rel(k.star(k.rows(a)))


def eval_expr(
    expr: TransformerExpr, interp: Mapping[Tag, Rel], space: StateSpace
) -> Rel:
    """Structural fold of the expression into a concrete relation. The
    fold stays in kernel form: each atom's relation is read through
    `Kernel.rows`, so it is converted from pairs only the first time it is
    read under these state lists, and the result is a `Rel` that keeps its
    rows, so comparing it (`rels_equal`) converts nothing, and that builds
    its pairs only if they are read. An atomic
    expression evaluates to its interpretation itself."""
    k = Kernel(space)
    out = k.eval(expr, interp, {})
    if isinstance(expr, Atomic):
        return interp[expr.tag]
    return k.rel(out)


def rels_equal(a: Rel, b: Rel, space: StateSpace) -> bool:
    """Denotational equality: equal once expanded to the full agent set.
    A `Rel` that keeps its rows for these state lists (one made by
    `eval_expr` or `brute_force_summary`, or one compared before) is not
    converted again."""
    k = Kernel(space)
    return k.equal(k.rows(a), k.rows(b))
