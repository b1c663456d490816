"""A reduction's working diagram: the private copy of its input that it
rewrites in place, and the log of its changes.

`working_copy` copies a diagram and gives the copy an empty `Log` (its
`log`). `rewrite` changes the copy in place through `model.rewrite`,
which keeps the copy's derived values current, guard indexes included,
and puts the change into the log. The log rebuilds the diagram after any
number of changes by replaying them forward from the diagram copied.
"""

from __future__ import annotations

from typing import Optional

from . import model
from .model import AtomSpec, Change, Negotiation, Targets, redo
from .transformers import TransformerExpr


class Log:
    """The changes made to one working diagram since it was copied from
    `initial`, in order. `diagram(i)` rebuilds the diagram after the first
    `i` of them on a replay copy of its own, which it moves forward by
    `model.redo`; asked for a diagram before the replay copy's, it starts
    again from `initial`. So visiting the diagrams in order costs one
    replay of the log. The replay copy stays with the log between calls:
    once any diagram has been rebuilt, the log holds one diagram besides
    its changes, the last one rebuilt."""

    def __init__(self, initial: Negotiation):
        self.initial = initial
        self.changes: list[Change] = []
        self._replay: Optional[Negotiation] = None  # the diagram after `_at` changes
        self._at = 0

    def diagram(self, i: int) -> Negotiation:
        """The diagram after the first `i` changes: `initial` itself for 0,
        else a new diagram with tables of its own; `IndexError` unless `i`
        is in 0..len(changes)."""
        if not 0 <= i <= len(self.changes):
            raise IndexError(f"no diagram after {i} changes: 0..{len(self.changes)}")
        if i == 0:
            return self.initial
        replay = self._replay
        if replay is None or i < self._at:
            replay = self._replay = self.initial.copy()
            _name_transformers(replay)
            self._at = 0
        while self._at < i:
            redo(replay, self.changes[self._at])
            self._at += 1
        return replay.copy()


def _name_transformers(neg: Negotiation) -> None:
    """Give every outcome its transformer in `neg.transformers`, in outcome
    order (a rule output holds them all)."""
    neg.transformers = {o: neg.transformer(o) for o in neg.outcomes()}


def working_copy(neg: Negotiation) -> Negotiation:
    """A private copy of `neg` for a reduction to rewrite in place, whose
    `log` is an empty `Log` of `neg`; `neg` is not changed."""
    work = neg.copy()
    work.log = Log(neg)
    return work


def rewrite(
    neg: Negotiation,
    spec: AtomSpec,
    dropped: tuple[str, ...],
    added: dict[str, Targets],
    transformers: dict[str, TransformerExpr],
    removed: Optional[str] = None,
) -> Change:
    """`model.rewrite` of the working diagram `neg` (which see for the
    arguments), with the change put into its log. The first change names
    every outcome's transformer first, as `model.rewrite` needs."""
    changes = neg.log.changes
    if not changes:
        _name_transformers(neg)
    change = model.rewrite(neg, spec, dropped, added, transformers, removed)
    changes.append(change)
    return change
