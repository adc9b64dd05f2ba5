"""Reverse subset construction, explored lazily from the final-state set.

Subset-states are plain ints used as bit vectors over the forward states:
bit ``q`` is set iff forward state ``q`` belongs to the subset. The full
power-set automaton is never materialized; only the part reachable from the
forward finals is interned, in BFS discovery order with letter-index
tie-break, so state numbering is reproducible.
"""

from __future__ import annotations

from typing import Iterable

from .dfa import Dfa, Word
from .errors import CapacityError

SubsetState = int

DEFAULT_MAX_STATES = 1_000_000


def subset_mask(states: Iterable[int]) -> SubsetState:
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def mask_states(mask: SubsetState) -> list[int]:
    """The members of a subset-state, ascending."""
    if mask < 0:
        raise ValueError("subset-state must be non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def finals_mask(dfa: Dfa) -> SubsetState:
    return subset_mask(dfa.finals)


def _check_mask(dfa: Dfa, mask: SubsetState) -> None:
    if mask < 0 or mask >> dfa.num_states:
        raise ValueError("subset-state does not fit the forward automaton")


def _check_letter(dfa: Dfa, letter: int) -> None:
    if not 0 <= letter < dfa.alphabet_size:
        raise ValueError(f"letter {letter} is out of range")


def _predecessors(fwd: Dfa, letter: int) -> list[list[int]]:
    """``pre[q]`` lists the forward states ``p`` with ``delta[p][letter] == q``."""
    pre: list[list[int]] = [[] for _ in range(fwd.num_states)]
    for p, row in enumerate(fwd.delta):
        pre[row[letter]].append(p)
    return pre


def _preimage(pre: list[list[int]], mask: SubsetState) -> SubsetState:
    """Union of the predecessor lists over the members of ``mask``."""
    out = 0
    for q in mask_states(mask):
        for p in pre[q]:
            out |= 1 << p
    return out


def reverse_step(fwd: Dfa, mask: SubsetState, letter: int) -> SubsetState:
    """Preimage of the subset under one letter of the forward automaton.

    When ``fwd`` is a permutation automaton this is a bijection on subsets
    and preserves cardinality.
    """
    _check_mask(fwd, mask)
    _check_letter(fwd, letter)
    return _preimage(_predecessors(fwd, letter), mask)


def reverse_word(fwd: Dfa, mask: SubsetState, word: Word) -> SubsetState:
    """Fold reverse_step over the word, left to right.

    Equals the direct formula: the set of forward states that land inside
    the given subset when run on the reversed word.
    """
    _check_mask(fwd, mask)
    for c in word:
        _check_letter(fwd, c)
    pre = [_predecessors(fwd, c) for c in range(fwd.alphabet_size)]
    for c in word:
        mask = _preimage(pre[c], mask)
    return mask


def reverse_construction(
    fwd: Dfa, max_states: int = DEFAULT_MAX_STATES
) -> tuple[Dfa, list[SubsetState]]:
    """Reachable part of the automaton accepting the reversed language, and
    the subset-state behind each of its states.

    Exploration starts from the forward final set and follows letter
    preimages; a subset-state is final iff it contains the forward start
    state. State labels join the forward labels of the members with commas.
    """
    if max_states < 1:
        raise ValueError(f"max_states must be >= 1 (got {max_states})")
    pre = [_predecessors(fwd, c) for c in range(fwd.alphabet_size)]
    subsets = [finals_mask(fwd)]
    index = {subsets[0]: 0}
    rows: list[tuple[int, ...]] = []
    for s in subsets:  # grows while it is walked: BFS order
        row = []
        for pre_c in pre:
            t = _preimage(pre_c, s)
            j = index.get(t)
            if j is None:
                if len(subsets) >= max_states:
                    raise CapacityError(
                        f"reverse construction exceeded {max_states} states",
                        count=len(subsets),
                        stage="reverse_construction",
                    )
                j = index[t] = len(subsets)
                subsets.append(t)
            row.append(j)
        rows.append(tuple(row))
    rev = Dfa(
        num_states=len(subsets),
        alphabet_size=fwd.alphabet_size,
        delta=tuple(rows),
        start=0,
        finals=frozenset(i for i, s in enumerate(subsets) if (s >> fwd.start) & 1),
        labels=tuple(
            ",".join(fwd.label(q) for q in mask_states(s)) for s in subsets
        ),
    )
    return rev, subsets


def reverse_subsets(fwd: Dfa, max_states: int = DEFAULT_MAX_STATES) -> list[SubsetState]:
    """The reachable subset-states, in intern (BFS) order."""
    return reverse_construction(fwd, max_states)[1]


def reverse_dfa(fwd: Dfa, max_states: int = DEFAULT_MAX_STATES) -> Dfa:
    """The automaton of ``reverse_construction`` without its subsets."""
    return reverse_construction(fwd, max_states)[0]
