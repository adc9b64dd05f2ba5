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
operations plus one sort. Each letter takes its path from the input, and
one ``itemgetter`` per subset serves every letter.

``reversal_certificate`` reads the accepting-state complexity and
minimality of both sides off the subsets, without minimizing either
automaton and without building the reverse one. ``certify_reversal``
returns the reverse automaton and its subsets as well, from the same
exploration. Both take permutation automata only, the automata that the
reversal spectrum is about, and refuse any other DFA before exploring: the
letters generate a group, transitive on the reachable states, that
permutes the Nerode classes and the reverse subsets, so the forward side
is read off the start's Nerode class, which one set intersection over the
reverse subsets that hold the start gives. The construction itself, and
``reverse_dfa``, serve every DFA.

The magic-value probe reads the asc pair of automata of at most
``MASK_STATES`` = 8 states on a private byte kernel, ``_mask_asc_pair``,
where a subset-state is a byte: bit p stands for forward state p, so every
subset is a mask in 0..255. Each letter's preimage map is then one
256-byte table, built from ints whose byte lanes hold one mask each. The
walk appends each new mask to a found-list that it walks as it grows,
with a 256-byte ``bytearray`` as the seen-table: one table lookup per
mask and letter. The orbits are tiny (21.5 masks over 5.9 BFS levels on
average on the benchmark's probe), so these scalar steps cost less than
mapping a whole level per letter with ``bytes.translate``, which pays
several C calls and a new ``bytes`` per level. The same start-class rule reads both asc values off
the bytes of all subsets: one translate and one AND over the subsets that
hold the start. The bound is the width of a byte, not a tuning knob. On
the 2019 automata that the benchmark's probe certifies (seed 1009, at
most 8 states), the walk took 0.017 s at best and 0.030 s in the median
of 30 interleaved repetitions, the level-by-level translate kernel
0.024 s and 0.042 s, and the tuple path 0.086 s and 0.149 s (2 shared
vCPUs, Python 3.11).
``reversal_certificate``, ``certify_reversal`` and ``reverse_construction``
keep the tuple subsets, which the star classification reads.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, count, repeat
from operator import and_, contains, itemgetter
from typing import AbstractSet, Sequence

from .dfa import Dfa, check_dfa, is_permutation_automaton, reachable_states
from .errors import CapacityError, are_subset_states, check_index, check_int
from .records import Record, replace

SubsetState = tuple[int, ...]

DEFAULT_MAX_STATES = 1_000_000

# _mask_asc_pair takes automata of up to this many states: one bit per
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


def _preimage_table(fwd: Dfa, letter: int) -> tuple[list, bool]:
    """The table that a subset-state's members pick their preimage from
    under ``letter``, and whether the letter permutes the states.

    When the letter permutes the states, every state has exactly one
    predecessor, and the table is the inverse map. Otherwise it holds the
    predecessor list of each state, and the preimage is the union of the
    members' lists; each state has one successor per letter, so distinct
    states have disjoint lists and the union has no repeats.
    """
    column = fwd.columns[letter]
    if len(set(column)) == fwd.num_states:
        return sorted(range(fwd.num_states), key=column.__getitem__), True
    return _predecessors(column), False


def reverse_step(fwd: Dfa, s: SubsetState, letter: int) -> SubsetState:
    """Preimage of the subset under one letter of the forward automaton.

    When ``fwd`` is a permutation automaton this is a bijection on subsets
    and preserves cardinality.
    """
    check_dfa(fwd)
    if not are_subset_states((s,), fwd.num_states):
        raise ValueError("subset-state does not fit the forward automaton")
    check_index("letter", letter, fwd.alphabet_size)
    table, permutes = _preimage_table(fwd, letter)
    image = map(table.__getitem__, s)
    return tuple(sorted(image if permutes else chain.from_iterable(image)))


def _explore(fwd: Dfa, max_states: int) -> tuple[list[int], list[SubsetState]]:
    """The reverse BFS: the successor indices of every subset-state, one
    letter after another in one flat list, and the subset-states in intern
    order.

    Exploration starts from the forward final set and follows letter
    preimages. Each subset-state gets one ``itemgetter`` of its members,
    which picks them from every letter's ``_preimage_table``: the picks
    are the preimage for a letter that permutes the forward states, and
    the predecessor lists to chain otherwise; one BFS serves both.
    """
    tables = [_preimage_table(fwd, c) for c in range(fwd.alphabet_size)]
    subsets = [tuple(sorted(fwd.finals))]
    index = {subsets[0]: 0}
    intern = index.setdefault
    fresh = 1  # the id of the next new subset-state, len(subsets)
    targets: list[int] = []
    for s in subsets:  # grows while it is walked: BFS order
        # itemgetter returns a tuple only for two or more items
        get = itemgetter(*s) if len(s) > 1 else lambda seq: [*map(seq.__getitem__, s)]
        for table, permutes in tables:
            image = get(table)
            t = tuple(sorted(image if permutes else chain.from_iterable(image)))
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
    finals = compress(count(), map(contains, subsets, repeat(fwd.start)))
    rev = Dfa(len(subsets), k, columns, 0, frozenset(finals))
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
    names = fwd.labels or [*map(str, range(fwd.num_states))]
    pick = names.__getitem__
    return replace(rev, labels=tuple(",".join(map(pick, s)) for s in subsets))


class ReversalCertificate(Record):
    """asc and minimality of a permutation automaton and of its reverse, as
    read off the reverse subsets.

    ``forward_minimal`` and ``reverse_minimal`` mean that minimizing the
    automaton would keep every one of its states.
    """

    asc_forward: int
    asc_reverse: int
    forward_minimal: bool
    reverse_minimal: bool


def _check_permutation_automaton(fwd: Dfa) -> None:
    """Raise ValueError unless every letter of the Dfa ``fwd`` permutes."""
    if not is_permutation_automaton(fwd):
        raise ValueError("expected a permutation automaton")


def certify_reversal(
    fwd: Dfa,
) -> tuple[Dfa, list[SubsetState], ReversalCertificate]:
    """``reverse_construction(fwd)`` and ``reversal_certificate(fwd)``,
    from one exploration.

    Raises ValueError, before exploring, unless ``fwd`` is a permutation
    automaton. The construction runs with ``DEFAULT_MAX_STATES`` as it
    reads at call time; its CapacityError propagates.
    """
    _check_permutation_automaton(fwd)
    rev, subsets = reverse_construction(fwd, DEFAULT_MAX_STATES)
    return rev, subsets, _certificate(fwd, subsets, reachable_states(fwd))


def reversal_certificate(fwd: Dfa) -> ReversalCertificate:
    """The certificate of ``fwd``, read off its reverse subsets without
    building the reverse automaton.

    Raises ValueError, before exploring, unless ``fwd`` is a permutation
    automaton, and CapacityError when the reverse construction would pass
    its default cap.
    """
    _check_permutation_automaton(fwd)
    subsets = _explore(fwd, DEFAULT_MAX_STATES)[1]
    return _certificate(fwd, subsets, reachable_states(fwd))


def _certificate(
    fwd: Dfa, subsets: list[SubsetState], reach: list[int]
) -> ReversalCertificate:
    """The certificate of a permutation automaton, read off its reverse
    subsets and its reachable states.

    The subsets are exactly the sets ``{p : p . w in F}``, one for
    each word w, so two forward states are Myhill-Nerode equivalent iff
    every subset holds both or neither, and two reverse states are
    equivalent iff their subsets agree on the reachable forward states
    (Brzozowski's double-reversal argument). ``_start_class`` reads the
    forward side. The final reverse states are the subsets that hold the
    forward start. On an accessible automaton the cut subsets are the
    interned ones, which are distinct, so the reverse is minimal.
    """
    n = fwd.num_states
    accessible = len(reach) == n
    # Unreachable states take no part in either language's quotient.
    if accessible:
        cut = subsets
    else:
        live = set(reach)
        cut = [tuple(p for p in s if p in live) for s in subsets]
    # The start is reachable, so a subset holds it iff its cut does.
    holds = [*map(contains, cut, repeat(fwd.start))]
    asc_forward, num_classes = _start_class(fwd, cut, holds, reach)
    return ReversalCertificate(
        asc_forward=asc_forward,
        asc_reverse=len(set(compress(cut, holds))),
        forward_minimal=accessible and num_classes == n,
        reverse_minimal=accessible or len(set(cut)) == len(cut),
    )


def _start_class(
    fwd: Dfa, cut: list[SubsetState], holds: list[bool], reach: list[int]
) -> tuple[int, int]:
    """The number of Nerode classes among the reachable finals and among
    the reachable states of a permutation automaton; ``holds[i]`` tells
    whether ``cut[i]`` holds the start.

    The letters generate a group G, transitive on the reachable states,
    that permutes the classes, so all have the size of the start's class
    C. G permutes the subsets too, so every reachable state lies in
    equally many of them, and one that lies in every subset holding the
    start lies in no other: C is one intersection.
    """
    start_class = set(reach).intersection(*compress(cut, holds))
    size = len(start_class)
    return len(fwd.finals.intersection(reach)) // size, len(reach) // size


def _mask_asc_pair(
    columns: Sequence[Sequence[int]], start: int, live: AbstractSet[int]
) -> tuple[int, int]:
    """(asc, reverse asc) of a permutation automaton on at most
    ``MASK_STATES`` states, given as its letter columns (``columns[c][q]``
    the successor of q on letter c), its start and ``live``, its reachable
    finals; each subset-state is a byte whose bit ``1 << p`` stands for
    forward state p.

    Nothing is checked and no ``Dfa`` is needed: the magic-value probe
    passes the columns that ``spectrum._draw`` shuffled, so a probe draw
    becomes a ``Dfa`` only when it is a counterexample.

    Each letter's preimage map is one 256-byte table. The walk runs over
    a found-list that grows while it is walked, with a 256-byte seen-table,
    so each found mask costs one lookup per letter; both asc values depend
    on the orbit as a set, not on the order it is found in. There are at
    most 256 masks, so no cap applies. The group that the letters generate
    keeps the reachable states, so the walk from ``live`` finds exactly the
    reverse subsets cut to them. The reverse asc counts the subsets that
    hold the start, and, as in ``_start_class``, the start's Nerode class
    is their intersection and the forward asc is ``len(live)`` over its
    size.
    """
    # the preimage of s under a letter holds p iff s holds p's successor;
    # the rows _HOLDS[p] have disjoint lanes, so their sum is their OR
    tables = [
        sum(map(list.__getitem__, _HOLDS, column)).to_bytes(256, "little")
        for column in columns
    ]
    found = [sum(map((1).__lshift__, live))]
    seen = bytearray(256)
    seen[found[0]] = 1
    for s in found:  # grows while it is walked
        for table in tables:
            t = table[s]
            if not seen[t]:
                seen[t] = 1
                found.append(t)
    subsets = bytes(found)
    holds = subsets.translate(_BIT[start])
    # with no live state no subset holds the start, and the asc is 0
    start_class = reduce(and_, compress(subsets, holds), 255)
    return len(live) // start_class.bit_count(), holds.count(1)
