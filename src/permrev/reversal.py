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

``reversal_certificate`` reads the accepting-state complexity and
minimality of both sides off the subsets, without minimizing either
automaton and without building the reverse one. ``certify_reversal``
returns the reverse automaton and its subsets as well, from the same
exploration.

On at most ``MASK_STATES`` forward states, ``reversal_certificate`` takes
a second, private path where a subset-state is an int bitmask. A preimage
is the OR of the members' predecessor masks, the subsets are interned in a
set, and the forward classes are block masks split by ``b & S``. On at
most 30 states every mask is one CPython digit (30 bits), so each step is
a few single-digit int operations. But each step runs in the interpreter,
where the tuple path's sort and inverse map run in C. Per automaton (2 vCPUs, Python 3.11), the mask
path took 0.63-0.85 of the tuple path's time on random binary permutation
automata of 4 to 8 states and at most 1.05 up to 30; on the paper's
witnesses it took 0.57-0.94 up to 8 states, 0.98-1.27 at 10 and 1.08-1.6
at 15 to 28. A witness has few subsets for its size, so the mask path's
per-state set-up and per-block splits dominate. Hence ``MASK_STATES`` is
8, the largest size at which no measured input was slower.
``certify_reversal`` and ``reverse_construction`` keep the tuple subsets,
which the star classification reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress, count, repeat
from operator import contains, itemgetter, lt
from typing import Callable, Iterable, Iterator, NoReturn

from .dfa import Dfa, reachable_states
from .errors import CapacityError, check_int

SubsetState = tuple[int, ...]

DEFAULT_MAX_STATES = 1_000_000

# reversal_certificate runs on int-mask subsets up to this many forward
# states and on tuple subsets above: the measured crossover of the module
# docstring. It must stay at most 30, so that every mask is one CPython digit.
MASK_STATES = 8


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
    if type(letter) is not int or not 0 <= letter < dfa.alphabet_size:
        raise ValueError(f"letter {letter!r} is out of range")


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


def _explore(fwd: Dfa, max_states: int) -> tuple[list[int], list[SubsetState]]:
    """The reverse BFS: the successor indices of every subset-state, one
    letter after another in one flat list, and the subset-states in intern
    order.

    Exploration starts from the forward final set and follows letter
    preimages. Each letter's preimage goes through its inverse map when the
    letter permutes the forward states, and through the union of its
    predecessor lists otherwise; one BFS serves both.
    """
    preimages = [_preimage_map(fwd, c) for c in range(fwd.alphabet_size)]
    subsets = [tuple(sorted(fwd.finals))]
    index = {subsets[0]: 0}
    intern = index.setdefault
    fresh = 1  # the id of the next new subset-state, len(subsets)
    targets: list[int] = []
    for s in subsets:  # grows while it is walked: BFS order
        for preimage in preimages:
            t = tuple(sorted(preimage(s)))
            j = intern(t, fresh)
            if j == fresh:
                if j >= max_states:
                    _overflow(max_states, j)
                subsets.append(t)
                fresh += 1
            targets.append(j)
    return targets, subsets


def _overflow(max_states: int, count: int) -> NoReturn:
    raise CapacityError(
        f"reverse construction exceeded {max_states} states",
        count=count,
        stage="reverse_construction",
    )


def _check_dfa(fwd: object) -> None:
    if not isinstance(fwd, Dfa):
        raise ValueError(f"expected a Dfa (got {type(fwd).__name__})")


def _final_indices(fwd: Dfa, subsets: list[SubsetState]) -> Iterator[int]:
    """The indices of the subset-states that hold the forward start state."""
    return compress(count(), map(contains, subsets, repeat(fwd.start)))


def reverse_construction(
    fwd: Dfa, max_states: int = DEFAULT_MAX_STATES
) -> tuple[Dfa, list[SubsetState]]:
    """Reachable part of the automaton accepting the reversed language, and
    the subset-state behind each of its states.

    ``_explore`` interns the subset-states; one is final iff it contains
    the forward start state. The reverse DFA is unlabeled
    (``labels=None``): the subsets name its states, and ``reverse_dfa``
    renders them as labels for text output.
    """
    check_int("max_states", max_states, 1)
    _check_dfa(fwd)
    targets, subsets = _explore(fwd, max_states)
    rev = Dfa(
        num_states=len(subsets),
        alphabet_size=fwd.alphabet_size,
        delta=tuple(zip(*[iter(targets)] * fwd.alphabet_size)),
        start=0,
        finals=frozenset(_final_indices(fwd, subsets)),
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
    """``reverse_construction(fwd)`` and ``reversal_certificate(fwd)``,
    from one exploration.

    The construction runs with its default cap; its CapacityError
    propagates.
    """
    rev, subsets = reverse_construction(fwd)
    return rev, subsets, _certificate(fwd, subsets, rev.finals)


def reversal_certificate(fwd: Dfa) -> ReversalCertificate:
    """The certificate of ``fwd``, read off its reverse subsets without
    building the reverse automaton.

    Raises ValueError unless ``fwd`` is a Dfa, and CapacityError when the
    reverse construction would pass its default cap. An automaton on at
    most ``MASK_STATES`` states is certified on int-mask subsets, any other
    on the tuple subsets of ``_explore``; both give the same certificate.
    """
    _check_dfa(fwd)
    if fwd.num_states <= MASK_STATES:
        return _mask_certificate(fwd)
    subsets = _explore(fwd, DEFAULT_MAX_STATES)[1]
    return _certificate(fwd, subsets, _final_indices(fwd, subsets))


def _certificate(
    fwd: Dfa, subsets: list[SubsetState], finals: Iterable[int]
) -> ReversalCertificate:
    """The certificate read off the reverse subsets and the indices of the
    final ones.

    The subsets are exactly the sets ``{p : delta(p, w) in F}``, one for
    each word w, so two forward states are Myhill-Nerode equivalent iff
    every subset holds both or neither, and two reverse states are
    equivalent iff their subsets agree on the reachable forward states
    (Brzozowski's double-reversal argument). The forward classes come from
    refining one partition by membership in each subset; the cost is about
    the total size of the subsets, with no Moore refinement. A partition
    with one state per block cannot split further, so the refinement stops
    there. It looks for that only after n new block ids since its last
    look, so the looks cost O(ids issued).
    """
    n = fwd.num_states
    reach = reachable_states(fwd)
    accessible = len(reach) == n
    # Unreachable states take no part in either language's quotient.
    if accessible:
        cut = subsets
    else:
        live = set(reach)
        cut = [tuple(p for p in s if p in live) for s in subsets]

    block = [0] * n
    fresh = 1
    look = 1 + n  # the value of fresh at the next look
    for s in cut:
        # Members of s leave their block for a fresh one, shared only with
        # the members of s from the same old block.
        moved: dict[int, int] = {}
        for p in s:
            block[p] = moved.setdefault(block[p], fresh + len(moved))
        fresh += len(moved)
        if fresh >= look:
            if len(set(block)) == n:
                break
            look = fresh + n
    return ReversalCertificate(
        asc_forward=len({block[q] for q in reach if q in fwd.finals}),
        asc_reverse=len(set(map(cut.__getitem__, finals))),
        forward_minimal=accessible and len(set(block)) == n,
        reverse_minimal=len(set(cut)) == len(cut),
    )


def _mask_certificate(fwd: Dfa) -> ReversalCertificate:
    """``_certificate`` for an automaton on at most ``MASK_STATES`` states,
    with each subset-state an int whose bit ``1 << p`` stands for forward
    state p.

    Each letter maps the bit of q to the mask of q's predecessors, so a
    preimage is the OR of those masks over the set bits of S, for any
    letter. The subsets are interned in a set in the BFS order of
    ``_explore``, under the same cap. The forward classes are block masks,
    split by ``b & S`` for each subset S cut to the reachable states, until
    there is one block per reachable state.
    """
    max_states = DEFAULT_MAX_STATES
    bits = [1 << q for q in range(fwd.num_states)]
    preimages = [dict.fromkeys(bits, 0) for _ in range(fwd.alphabet_size)]
    for bit, row in zip(bits, fwd.delta):
        for pre, q in zip(preimages, row):
            pre[bits[q]] |= bit
    finals = sum(map(bits.__getitem__, fwd.finals))
    subsets = [finals]
    seen = {finals}
    for s in subsets:  # grows while it is walked: BFS order
        for pre in preimages:
            t, rest = 0, s
            while rest:
                low = rest & -rest
                t |= pre[low]
                rest ^= low
            if t not in seen:
                if len(subsets) >= max_states:
                    _overflow(max_states, len(subsets))
                seen.add(t)
                subsets.append(t)

    reach = reachable_states(fwd)
    live = sum(map(bits.__getitem__, reach))
    cut = [s & live for s in subsets]
    blocks = [live]
    for s in cut:
        if len(blocks) == len(reach):
            break
        blocks = [part for b in blocks for part in (b & s, b & ~s) if part]
    # The first subset is the final set, so each block is all final or all
    # non-final: one reachable state, or split by that subset.
    start = bits[fwd.start]
    return ReversalCertificate(
        asc_forward=sum(1 for b in blocks if b & finals),
        asc_reverse=len({c for s, c in zip(subsets, cut) if s & start}),
        forward_minimal=len(blocks) == fwd.num_states,
        reverse_minimal=len(set(cut)) == len(cut),
    )
