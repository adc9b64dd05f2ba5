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

The magic-value probe certifies automata of at most ``MASK_STATES`` = 8
states on a private byte kernel, ``_mask_certificate``, where a
subset-state is a byte: bit p stands for forward state p, so every subset
is a mask in 0..255. Each letter's preimage map is then one 256-byte
table, built from ints whose byte lanes hold one mask each, and the BFS
maps a whole level per letter with one ``bytes.translate`` in C. The
forward classes and both asc values are read off the bytes of all subsets
with more translates, with no block splits. The bound is the width of a
byte, not a tuning knob. On the 2019 automata that the benchmark's probe
certifies (seed 1009, at most 8 states, 2 vCPUs, Python 3.11), the byte
kernel took 0.034-0.052 s in all and the tuple path 0.10-0.15 s.
``reversal_certificate``, ``certify_reversal`` and ``reverse_construction``
keep the tuple subsets, which the star classification reads.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, compress, count, repeat
from operator import contains
from typing import AbstractSet, Callable, Iterable, Iterator, Sequence

from .dfa import Dfa, check_dfa, reachable_states
from .errors import CapacityError, are_subset_states, check_index, check_int
from .records import Record, replace

SubsetState = tuple[int, ...]

DEFAULT_MAX_STATES = 1_000_000

# _mask_certificate takes automata of up to this many states: one bit per
# state in a byte.
MASK_STATES = 8

# Lane s (byte s) of _BIT[q] is 1 iff the mask s holds state q. _HOLDS[p][q]
# is _BIT[q] as one little-endian int shifted by p: lane s is 1 << p iff s
# holds q.
_BIT = [
    (b"\0" * (1 << q) + b"\1" * (1 << q)) * (128 >> q) for q in range(MASK_STATES)
]
_HOLDS = [
    [int.from_bytes(lanes, "little") << p for lanes in _BIT] for p in range(MASK_STATES)
]


def mask_states(mask: int) -> list[int]:
    """The set bits of a non-negative int, ascending.

    Raises ValueError unless ``mask`` is an int >= 0 (a bool is not).
    """
    check_int("mask", mask, 0)
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _predecessors(column: Sequence[int]) -> list[list[int]]:
    """``pre[q]`` lists the forward states ``p`` with ``column[p] == q``."""
    pre: list[list[int]] = [[] for _ in column]
    for p, q in enumerate(column):
        pre[q].append(p)
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
    column = fwd.columns[letter]
    if len(set(column)) == fwd.num_states:
        inverse = sorted(range(fwd.num_states), key=column.__getitem__)
        return partial(map, inverse.__getitem__)
    pre = _predecessors(column)
    return lambda s: chain.from_iterable(map(pre.__getitem__, s))


def reverse_step(fwd: Dfa, s: SubsetState, letter: int) -> SubsetState:
    """Preimage of the subset under one letter of the forward automaton.

    When ``fwd`` is a permutation automaton this is a bijection on subsets
    and preserves cardinality.
    """
    check_dfa(fwd)
    if not are_subset_states((s,), fwd.num_states):
        raise ValueError("subset-state does not fit the forward automaton")
    check_index("letter", letter, fwd.alphabet_size)
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
                    raise CapacityError(
                        f"reverse construction exceeded {max_states} states",
                        count=j,
                        stage="reverse_construction",
                    )
                subsets.append(t)
                fresh += 1
            targets.append(j)
    return targets, subsets


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
    check_dfa(fwd)
    targets, subsets = _explore(fwd, max_states)
    k = fwd.alphabet_size
    columns = [targets[c::k] for c in range(k)]
    rev = Dfa(len(subsets), k, columns, 0, frozenset(_final_indices(fwd, subsets)))
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


class ReversalCertificate(Record):
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

    The construction runs with ``DEFAULT_MAX_STATES`` as it reads at call
    time; its CapacityError propagates.
    """
    rev, subsets = reverse_construction(fwd, DEFAULT_MAX_STATES)
    return rev, subsets, _certificate(fwd, subsets, rev.finals, reachable_states(fwd))


def reversal_certificate(fwd: Dfa) -> ReversalCertificate:
    """The certificate of ``fwd``, read off its reverse subsets without
    building the reverse automaton.

    Raises ValueError unless ``fwd`` is a Dfa, and CapacityError when the
    reverse construction would pass its default cap.
    """
    reach = reachable_states(fwd)
    subsets = _explore(fwd, DEFAULT_MAX_STATES)[1]
    return _certificate(fwd, subsets, _final_indices(fwd, subsets), reach)


def _certificate(
    fwd: Dfa, subsets: list[SubsetState], finals: Iterable[int], reach: list[int]
) -> ReversalCertificate:
    """The certificate read off the reverse subsets, the indices of the
    final ones and the reachable forward states.

    The subsets are exactly the sets ``{p : p . w in F}``, one for
    each word w, so two forward states are Myhill-Nerode equivalent iff
    every subset holds both or neither, and two reverse states are
    equivalent iff their subsets agree on the reachable forward states
    (Brzozowski's double-reversal argument). The forward classes come from
    refining one partition by membership in each subset; the cost is about
    the total size of the subsets, with no Moore refinement. On an
    accessible automaton the cut subsets are the interned ones, which are
    distinct, so the reverse is minimal; ``_mask_certificate`` reads
    reverse minimality by the same rule.
    """
    n = fwd.num_states
    accessible = len(reach) == n
    # Unreachable states take no part in either language's quotient.
    if accessible:
        cut = subsets
    else:
        live = set(reach)
        cut = [tuple(p for p in s if p in live) for s in subsets]

    block = [0] * n
    fresh = 1
    for s in cut:
        # Members of s leave their block for a fresh one, shared only with
        # the members of s from the same old block.
        moved: dict[int, int] = {}
        for p in s:
            block[p] = moved.setdefault(block[p], fresh + len(moved))
        fresh += len(moved)
    return ReversalCertificate(
        asc_forward=len({block[q] for q in reach if q in fwd.finals}),
        asc_reverse=len(set(map(cut.__getitem__, finals))),
        forward_minimal=accessible and len(set(block)) == n,
        reverse_minimal=accessible or len(set(cut)) == len(cut),
    )


def _lane_table(rows: Iterable[list[int]], sources: Iterable[int]) -> bytes:
    """The sum of ``row[q]`` over the pairs (row, q) of ``rows`` and
    ``sources``, as a 256-byte translate table.

    Each row is ``_HOLDS[p]`` for a distinct p, so the ints' lanes never
    share a bit, the sum is their OR, and lane s is the OR of ``1 << p``
    over the pairs whose q is in the mask s.
    """
    return sum(map(list.__getitem__, rows, sources)).to_bytes(256, "little")


def _mask_certificate(
    columns: Sequence[Sequence[int]],
    start: int,
    finals: AbstractSet[int],
    reach: list[int],
) -> ReversalCertificate:
    """``_certificate`` for an automaton on at most ``MASK_STATES`` states,
    given as its letter columns (``columns[c][q]`` the successor of q on
    letter c), start, finals and reachable states, with each subset-state a
    byte whose bit ``1 << p`` stands for forward state p.

    Nothing is checked and no ``Dfa`` is needed: the magic-value probe
    passes the columns that ``spectrum._draw`` shuffled, so a probe draw
    becomes a ``Dfa`` only when it is a counterexample.

    Each letter's preimage map is one 256-byte table, so the BFS maps a
    whole level per letter with ``bytes.translate``, and deleting the seen
    masks from the result leaves the next level. There are at most 256
    masks, so no cap applies. The seen masks are then one bytes object, and the
    certificate is read off it with ``translate``: forward state q's
    signature marks the subsets that hold q, and reachable states are
    equivalent iff their signatures are equal.
    """
    n = len(columns[0])
    # the preimage of s under a letter holds p iff s holds p's successor
    tables = [_lane_table(_HOLDS, column) for column in columns]
    subsets = level = bytes((sum(map((1).__lshift__, finals)),))
    while level:
        preimages = b"".join(map(level.translate, tables))
        level = bytes(set(preimages.translate(None, subsets)))
        subsets += level

    signature = {q: subsets.translate(_BIT[q]) for q in reach}
    asc_forward = len({signature[q] for q in reach if q in finals})
    holds_start = _BIT[start]
    if len(reach) == n:
        return ReversalCertificate(
            asc_forward=asc_forward,
            asc_reverse=subsets.translate(holds_start).count(1),
            forward_minimal=len(set(signature.values())) == n,
            reverse_minimal=True,
        )
    # Unreachable states take no part in either language's quotient. The
    # start is reachable, so a subset holds it iff its cut does.
    live = _lane_table(map(_HOLDS.__getitem__, reach), reach)
    cut = bytes(set(subsets.translate(live)))
    return ReversalCertificate(
        asc_forward=asc_forward,
        asc_reverse=cut.translate(holds_start).count(1),
        forward_minimal=False,
        reverse_minimal=len(cut) == len(subsets),
    )
