"""Complete deterministic finite automata over dense integer states.

States are indices ``0..num_states-1`` and letters are indices
``0..alphabet_size-1``; semantic identities (subsets, star centers, ...)
live only in the optional state labels. Words apply left to right:
``q . (uv) = (q . u) . v``. Every value here is immutable after
construction, so instances are safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

from .errors import are_indices, check_index, check_int, check_points

Word = Sequence[int]


@dataclass(frozen=True)
class Dfa:
    """A complete DFA given by its transition table.

    ``delta[q][c]`` is the successor of state ``q`` on letter ``c``; the
    table is total by construction. ``labels``, when present, names every
    state with a str. Construction raises ValueError for a bad size, row,
    entry, start, final or label. The table is checked in one pass of
    builtins over all its entries; only when that fails are the rows
    walked, so that the message names the first bad row or entry in row
    order.
    """

    num_states: int
    alphabet_size: int
    delta: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", tuple(map(tuple, self.delta)))
        object.__setattr__(self, "finals", frozenset(self.finals))
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
        check_int("num_states", self.num_states, 1)
        check_int("alphabet_size", self.alphabet_size, 1)
        if len(self.delta) != self.num_states:
            raise ValueError(
                f"delta has {len(self.delta)} rows for {self.num_states} states"
            )
        if set(map(len, self.delta)) != {self.alphabet_size} or not are_indices(
            [*chain.from_iterable(self.delta)], self.num_states
        ):
            self._reject_table()
        if type(self.start) is not int or not 0 <= self.start < self.num_states:
            raise ValueError(f"start state {self.start!r} is not a state")
        if not are_indices(self.finals, self.num_states):
            for q in self.finals:
                if type(q) is not int or not 0 <= q < self.num_states:
                    raise ValueError(f"final state {q!r} is not a state")
        if self.labels is not None:
            if len(self.labels) != self.num_states:
                raise ValueError("labels must name every state")
            if not all(map(isinstance, self.labels, repeat(str))):
                label = next(x for x in self.labels if not isinstance(x, str))
                raise ValueError(f"label {label!r} is not a str")

    def _reject_table(self) -> None:
        """Raise ValueError naming the first short or long row or bad entry."""
        for q, row in enumerate(self.delta):
            if len(row) != self.alphabet_size:
                raise ValueError(
                    f"state {q}: row has {len(row)} entries for an alphabet "
                    f"of {self.alphabet_size}"
                )
            for c, target in enumerate(row):
                if type(target) is not int or not 0 <= target < self.num_states:
                    raise ValueError(f"delta({q},{c}) = {target!r} is not a state")

    def label(self, q: int) -> str:
        return self.labels[q] if self.labels is not None else str(q)


def check_dfa(dfa: object) -> None:
    """Raise ValueError unless ``dfa`` is a Dfa."""
    if not isinstance(dfa, Dfa):
        raise ValueError(f"expected a Dfa (got {type(dfa).__name__})")


def apply_word(dfa: Dfa, q: int, word: Word) -> int:
    """Run ``word`` from state ``q``, one letter at a time, left to right."""
    check_dfa(dfa)
    check_index("state", q, dfa.num_states)
    for c in check_points("word", word):
        check_index("letter", c, dfa.alphabet_size)
        q = dfa.delta[q][c]
    return q


def accepts(dfa: Dfa, word: Word) -> bool:
    """True iff running ``word`` from the start state ends in a final state."""
    check_dfa(dfa)
    return apply_word(dfa, dfa.start, word) in dfa.finals


def is_permutation_automaton(dfa: Dfa) -> bool:
    """True iff every letter permutes the state set."""
    check_dfa(dfa)
    for c in range(dfa.alphabet_size):
        images = {row[c] for row in dfa.delta}
        if len(images) != dfa.num_states:
            return False
    return True


def reachable_states(dfa: Dfa) -> list[int]:
    """States reachable from the start, in BFS discovery order.

    Ties break by letter index, so the order is reproducible; the canonical
    renumbering in minimization reuses it.
    """
    check_dfa(dfa)
    delta = dfa.delta
    seen = [False] * dfa.num_states
    seen[dfa.start] = True
    order = [dfa.start]
    for q in order:  # grows while it is walked: BFS order
        for t in delta[q]:
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order
