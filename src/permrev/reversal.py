"""Reverse subset construction, explored lazily from the final-state set.

A subset-state is the strictly increasing tuple of its forward states. It
costs its member count, not the forward state count, and each subset has
exactly one form, so subsets are interned by hashing. The full power-set
automaton is never materialized; only the part reachable from the forward
finals is interned, in BFS discovery order with letter-index tie-break, so
state numbering is reproducible.

A letter that permutes the forward states gives each state exactly one
predecessor, so the preimage of S is S mapped through the letter's inverse
and sorted: |S| lookups and one sort. Any other letter unions the
predecessor lists of the members of S, about |S| + |preimage| list
operations plus one sort. Each letter takes its path from the input.

``certify_reversal`` runs the construction and reads the accepting-state
complexity and minimality of both sides off its subsets, without
minimizing either automaton.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from operator import itemgetter, lt
from typing import Callable, Iterable

from .dfa import Dfa, reachable_states
from .errors import CapacityError, check_int

SubsetState = tuple[int, ...]

DEFAULT_MAX_STATES = 1_000_000


def mask_states(mask: int) -> list[int]:
    """The set bits of a non-negative int, ascending."""
    if mask < 0:
        raise ValueError("mask must be non-negative")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _check_subset(dfa: Dfa, s: SubsetState) -> None:
    """Reject anything but a strictly increasing tuple of forward states."""
    if not isinstance(s, tuple) or s and (
        s[0] < 0 or s[-1] >= dfa.num_states or not all(map(lt, s, s[1:]))
    ):
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


def _preimage_map(fwd: Dfa, letter: int) -> Callable[[SubsetState], Iterable[int]]:
    """The map taking a subset-state to its preimage under ``letter``,
    unsorted.

    When the letter permutes the states, every state has exactly one
    predecessor, and the preimage is the image under the inverse map.
    Otherwise it is the union of the predecessor lists of the members;
    each state has one successor per letter, so distinct states have
    disjoint lists and the union has no repeats.
    """
    column = [*map(itemgetter(letter), fwd.delta)]
    if len(set(column)) == fwd.num_states:
        inverse = sorted(range(fwd.num_states), key=column.__getitem__)
        return partial(map, inverse.__getitem__)
    pre = _predecessors(fwd, letter)
    return lambda s: chain.from_iterable(map(pre.__getitem__, s))


def reverse_step(fwd: Dfa, s: SubsetState, letter: int) -> SubsetState:
    """Preimage of the subset under one letter of the forward automaton.

    When ``fwd`` is a permutation automaton this is a bijection on subsets
    and preserves cardinality.
    """
    _check_subset(fwd, s)
    _check_letter(fwd, letter)
    return tuple(sorted(_preimage_map(fwd, letter)(s)))


def reverse_construction(
    fwd: Dfa, max_states: int = DEFAULT_MAX_STATES
) -> tuple[Dfa, list[SubsetState]]:
    """Reachable part of the automaton accepting the reversed language, and
    the subset-state behind each of its states.

    Exploration starts from the forward final set and follows letter
    preimages; a subset-state is final iff it contains the forward start
    state. Each letter's preimage goes through its inverse map when the
    letter permutes the forward states, and through the union of its
    predecessor lists otherwise; one BFS serves both. The reverse DFA is
    unlabeled (``labels=None``): the subsets name its states, and
    ``reverse_dfa`` renders them as labels for text output.
    """
    check_int("max_states", max_states, 1)
    preimages = [_preimage_map(fwd, c) for c in range(fwd.alphabet_size)]
    subsets = [tuple(sorted(fwd.finals))]
    index = {subsets[0]: 0}
    intern = index.setdefault
    rows: list[tuple[int, ...]] = []
    for s in subsets:  # grows while it is walked: BFS order
        row = []
        for preimage in preimages:
            t = tuple(sorted(preimage(s)))
            j = intern(t, len(subsets))
            if j == len(subsets):
                if j >= max_states:
                    raise CapacityError(
                        f"reverse construction exceeded {max_states} states",
                        count=j,
                        stage="reverse_construction",
                    )
                subsets.append(t)
            row.append(j)
        rows.append(tuple(row))
    rev = Dfa(
        num_states=len(subsets),
        alphabet_size=fwd.alphabet_size,
        delta=tuple(rows),
        start=0,
        finals=frozenset(i for i, s in enumerate(subsets) if fwd.start in s),
    )
    return rev, subsets


def reverse_subsets(fwd: Dfa, max_states: int = DEFAULT_MAX_STATES) -> list[SubsetState]:
    """The reachable subset-states, in intern (BFS) order."""
    return reverse_construction(fwd, max_states)[1]


def reverse_dfa(fwd: Dfa, max_states: int = DEFAULT_MAX_STATES) -> Dfa:
    """The automaton of ``reverse_construction``, labeled for text output.

    Each state's label joins the forward labels of its subset's members
    with commas; this is the view that ``permrev reverse`` emits.
    """
    rev, subsets = reverse_construction(fwd, max_states)
    return replace(
        rev, labels=tuple(",".join(fwd.label(q) for q in s) for s in subsets)
    )


@dataclass(frozen=True)
class ReversalCertificate:
    """asc and minimality of a DFA and of its reverse, as read off the
    reverse subsets.

    ``forward_minimal`` and ``reverse_minimal`` mean that minimizing the
    automaton would keep every one of its states.
    """

    asc_forward: int
    asc_reverse: int
    forward_minimal: bool
    reverse_minimal: bool


def certify_reversal(
    fwd: Dfa,
) -> tuple[Dfa, list[SubsetState], ReversalCertificate]:
    """``reverse_construction(fwd)`` and the certificate read off its subsets.

    The construction runs with its default cap; its CapacityError
    propagates. The subsets are exactly the sets ``{p : delta(p, w) in F}``,
    one for each word w, so two forward states are Myhill-Nerode
    equivalent iff every subset holds both or neither, and two reverse
    states are equivalent iff their subsets agree on the reachable forward
    states (Brzozowski's double-reversal argument). The forward classes
    come from refining one partition by membership in each subset; the
    cost is about the total size of the subsets, with no Moore refinement.
    """
    rev, subsets = reverse_construction(fwd)
    reach = reachable_states(fwd)
    accessible = len(reach) == fwd.num_states
    # Unreachable states take no part in either language's quotient.
    if accessible:
        cut = subsets
    else:
        live = set(reach)
        cut = [tuple(p for p in s if p in live) for s in subsets]

    block = [0] * fwd.num_states
    fresh = 1
    for s in cut:
        # Members of s leave their block for a fresh one, shared only with
        # the members of s from the same old block.
        moved: dict[int, int] = {}
        for p in s:
            block[p] = moved.setdefault(block[p], fresh + len(moved))
        fresh += len(moved)
    return rev, subsets, ReversalCertificate(
        asc_forward=len({block[q] for q in reach if q in fwd.finals}),
        asc_reverse=len({cut[i] for i in rev.finals}),
        forward_minimal=accessible and len(set(block)) == fwd.num_states,
        reverse_minimal=len(set(cut)) == len(cut),
    )
