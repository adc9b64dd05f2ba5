"""Complete deterministic finite automata over dense integer states.

States are indices ``0..num_states-1`` and letters are indices
``0..alphabet_size-1``; semantic identities (subsets, star centers, ...)
live only in the optional state labels. A table is one tuple of images per
letter, the form in which every producer builds it and every reader reads
it. Words apply left to right:
``q . (uv) = (q . u) . v``. Every value here is immutable after
construction, so instances are safe to share between threads.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Sequence

from .errors import are_indices, check_index, check_int, check_points, int_text
from .perms import _inverse
from .records import Record

Word = Sequence[int]


class Dfa(Record):
    """A complete DFA given by its transition table, one column per letter.

    ``columns[c][q]`` is the successor of state ``q`` on letter ``c``, so
    each letter's column is its image array; the table is total by
    construction. ``labels``, when present, names every state with a str.
    Construction raises ValueError for a bad size, table, column, entry,
    start, final or label. The table is checked in one pass of builtins
    over its columns; only when that fails are the columns walked, so that
    the message names the first bad column or entry in column order.
    """

    num_states: int
    alphabet_size: int
    columns: tuple[tuple[int, ...], ...]
    start: int
    finals: frozenset[int]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        check_int("num_states", self.num_states, 1)
        check_int("alphabet_size", self.alphabet_size, 1)
        n, k = self.num_states, self.alphabet_size
        table = "table must be a sequence of columns"
        self._collect("columns", lambda t: tuple(map(tuple, t)), table)
        self._collect("finals", frozenset, "finals must be a set of states")
        if self.labels is not None:
            self._collect("labels", tuple, "labels must be a sequence of str")
        columns, finals = self.columns, self.finals
        if len(columns) != k:
            raise ValueError(f"table has {len(columns)} columns for an alphabet of {k}")
        if set(map(len, columns)) != {n} or not all(
            map(are_indices, columns, repeat(n))
        ):
            self._reject_table()
        if type(self.start) is not int or not 0 <= self.start < n:
            raise ValueError(f"start state {int_text(self.start)} is not a state")
        if not are_indices(finals, n):
            q = next(q for q in finals if type(q) is not int or not 0 <= q < n)
            raise ValueError(f"final state {int_text(q)} is not a state")
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels must name every state")
            if not all(map(isinstance, self.labels, repeat(str))):
                label = next(x for x in self.labels if not isinstance(x, str))
                raise ValueError(f"label {label!r} is not a str")

    def _collect(self, name: str, kind: Callable, rule: str) -> None:
        """Store field ``name`` as ``kind`` of its value; ValueError stating
        ``rule`` when ``kind`` cannot take the value."""
        value = getattr(self, name)
        try:
            object.__setattr__(self, name, kind(value))
        except TypeError:
            raise ValueError(f"{rule} (got {int_text(value)})") from None

    def _reject_table(self) -> None:
        """Raise ValueError naming the first short or long column or bad entry."""
        n = self.num_states
        for c, column in enumerate(self.columns):
            if len(column) != n:
                raise ValueError(
                    f"letter {c}: column has {len(column)} entries for {n} states"
                )
            for q, t in enumerate(column):
                if type(t) is not int or not 0 <= t < n:
                    raise ValueError(f"delta({q},{c}) = {int_text(t)} is not a state")

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
        q = dfa.columns[c][q]
    return q


def accepts(dfa: Dfa, word: Word) -> bool:
    """True iff running ``word`` from the start state ends in a final state."""
    check_dfa(dfa)
    return apply_word(dfa, dfa.start, word) in dfa.finals


def is_permutation_automaton(dfa: Dfa) -> bool:
    """True iff every letter permutes the state set."""
    check_dfa(dfa)
    return None not in map(_inverse, dfa.columns)


def reachable_states(dfa: Dfa) -> list[int]:
    """States reachable from the start, in BFS discovery order.

    Ties break by letter index, so the order is reproducible; the canonical
    renumbering in minimization reuses it.
    """
    check_dfa(dfa)
    return _reachable(dfa.columns, dfa.start)


def _reachable(columns: Sequence[Sequence[int]], start: int) -> list[int]:
    """``reachable_states`` of the table given as its columns, which are
    not checked."""
    seen = [False] * len(columns[0])
    seen[start] = True
    order = [start]
    for q in order:  # grows while it is walked: BFS order
        for column in columns:
            t = column[q]
            if not seen[t]:
                seen[t] = True
                order.append(t)
    return order
