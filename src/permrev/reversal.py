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

Each entry point builds only what it returns, from one core, ``_reverse``:
``reverse_construction`` one unlabeled ``Dfa``, ``reverse_dfa`` one
labeled ``Dfa`` and ``reverse_subsets`` none; ``reverse_step`` reads one
preimage off one letter column. These serve every DFA.
``reversal_certificate`` reads the accepting-state complexity and
minimality of both sides off the subsets, without minimizing either
automaton and without building the reverse one. It takes permutation
automata only, the automata that the reversal spectrum is about, and
refuses any other DFA before exploring; ``_certified`` says why the forward
side is then read off the start's Nerode class.

The magic-value probe, through ``_mask_asc_pair``, and the exhaustive
census of ``tests/test_exhaustive.py`` read the asc pairs of automata of
at most ``MASK_STATES`` = 8 states on one private byte kernel, where a
subset-state is a byte: bit p stands for forward state p, so every subset
is a mask in 0..255. ``_mask_tables`` makes each letter's preimage map one
256-byte table, and ``_mask_orbit`` walks the orbit of one final mask, one
table lookup per mask and letter; the probe walks one orbit per draw, the
census every orbit of the 2^n masks. The orbits are tiny
(21.5 masks over 5.9 BFS levels on average on the benchmark's probe), so
these scalar steps cost less than mapping a whole level per letter with
``bytes.translate``, which pays several C calls and a new ``bytes`` per
level. The bound is the width of a byte, not a tuning knob. On
the 2019 automata that the benchmark's probe certifies (seed 1009, at
most 8 states), the walk took 0.017 s at best and 0.030 s in the median
of 30 interleaved repetitions, the level-by-level translate kernel
0.024 s and 0.042 s, and the tuple path 0.086 s and 0.149 s (2 shared
vCPUs, Python 3.11).
Outside that kernel one path, ``_certified``, refuses any non-permuting
letter table, explores on each letter's inverse with ``_explore`` and
reads the certificate and the reverse finals off the one subset list.
The witness's own walk, ``witness._reverse_stars``, which the verifier,
the worked example and every grid cell run, needs no such path on an
intact witness: it checks that both letters act on the points and walks
the star centers; a broken witness goes through ``_certified``.
``_certified`` and ``_reverse`` take the permutation rule and the
inverses from one helper, ``perms._inverse``, which marks each state in
one pass and builds no set; ``_explore`` takes its letter tables from its
caller, so the certificate builds each inverse once.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, compress, count, repeat
from operator import and_, contains, itemgetter
from typing import AbstractSet, Sequence

from .dfa import Dfa, _reachable, check_dfa
from .errors import CapacityError, are_subset_states, check_index, check_int
from .perms import _inverse
from .records import Record

SubsetState = tuple[int, ...]

DEFAULT_MAX_STATES = 1_000_000

# The default of ``max_states``: every reverse construction reads
# DEFAULT_MAX_STATES when it is called, not when this module loads. It is
# not None, which is refused like any other non-int cap.
_DEFAULT_CAP: int = object()  # type: ignore[assignment]

# The byte kernel takes automata of up to this many states: one bit per
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


def reverse_step(fwd: Dfa, s: SubsetState, letter: int) -> SubsetState:
    """Preimage of the subset under one letter, read off its column in one pass.

    When ``fwd`` is a permutation automaton this is a bijection on subsets
    and preserves cardinality.
    """
    check_dfa(fwd)
    if not are_subset_states((s,), fwd.num_states):
        raise ValueError("subset-state does not fit the forward automaton")
    check_index("letter", letter, fwd.alphabet_size)
    return (*compress(count(), map(set(s).__contains__, fwd.columns[letter])),)


def _explore(
    tables: list[tuple[list, bool]], finals: frozenset[int], max_states: int
) -> tuple[list[int], list[SubsetState]]:
    """The reverse BFS: the successor indices of every subset-state, one
    letter after another in one flat list, and the subset-states in intern
    order.

    Exploration starts from the forward final set ``finals`` and follows
    letter preimages. Each letter gets one table from the caller, paired
    with True when it is the letter's inverse, since every state of a
    permuting letter has exactly one predecessor, and with False when it
    holds the predecessor list of each state. Each subset-state gets one
    ``itemgetter`` of its members, which picks them from every table: the
    picks are the preimage for a permuting letter, and the lists to chain
    otherwise. Each state has one successor per letter, so distinct states
    have disjoint lists and the chain has no repeats; one BFS serves both.
    """
    subsets = [tuple(sorted(finals))]
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
                    raise _capacity_error(max_states)
                subsets.append(t)
                fresh += 1
            targets.append(j)
    return targets, subsets


def _capacity_error(max_states: int) -> CapacityError:
    """The error of a reverse construction about to intern a subset past
    ``max_states``, which is then the subset's id."""
    return CapacityError(
        f"reverse construction exceeded {max_states} states",
        count=max_states,
        stage="reverse_construction",
    )


def _reverse(
    fwd: Dfa, max_states: int
) -> tuple[list[list[int]], frozenset[int], list[SubsetState]]:
    """The reverse construction's letter columns, finals (the subsets that
    hold the forward start) and subsets, under ``max_states`` or else
    ``DEFAULT_MAX_STATES`` as it reads at the call. A letter's table is its
    inverse from ``perms._inverse`` when it permutes the forward states, and
    otherwise its predecessor lists."""
    if max_states is _DEFAULT_CAP:
        max_states = DEFAULT_MAX_STATES
    check_int("max_states", max_states, 1)
    check_dfa(fwd)
    tables = [
        (_predecessors(column), False) if inverse is None else (inverse, True)
        for column, inverse in zip(fwd.columns, map(_inverse, fwd.columns))
    ]
    targets, subsets = _explore(tables, fwd.finals, max_states)
    k = fwd.alphabet_size
    finals = compress(count(), map(contains, subsets, repeat(fwd.start)))
    return [targets[c::k] for c in range(k)], frozenset(finals), subsets


def reverse_construction(
    fwd: Dfa, max_states: int = _DEFAULT_CAP
) -> tuple[Dfa, list[SubsetState]]:
    """Reachable part of the automaton accepting the reversed language, and
    the subset-state behind each of its states.

    The reverse DFA is unlabeled: the subsets name its states.
    """
    columns, finals, subsets = _reverse(fwd, max_states)
    return Dfa(len(subsets), fwd.alphabet_size, columns, 0, finals), subsets


def reverse_subsets(fwd: Dfa, max_states: int = _DEFAULT_CAP) -> list[SubsetState]:
    """The reachable subset-states, in intern (BFS) order; no DFA is built."""
    return _reverse(fwd, max_states)[2]


def reverse_dfa(fwd: Dfa, max_states: int = _DEFAULT_CAP) -> Dfa:
    """The automaton of ``reverse_construction``, labeled for text output.

    Each state's label joins the forward labels of its subset's members
    with commas; this is the view that ``permrev reverse`` emits.
    """
    columns, finals, subsets = _reverse(fwd, max_states)
    names = fwd.labels or [*map(str, range(fwd.num_states))]
    labels = tuple(",".join(map(names.__getitem__, s)) for s in subsets)
    return Dfa(len(subsets), fwd.alphabet_size, columns, 0, finals, labels)


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


def reversal_certificate(fwd: Dfa) -> ReversalCertificate:
    """The certificate of ``fwd``, read off its reverse subsets without
    building the reverse automaton.

    Raises ValueError, before exploring, unless ``fwd`` is a permutation
    automaton, and CapacityError when the reverse construction would pass
    its default cap.
    """
    check_dfa(fwd)
    return _certified(fwd.columns, fwd.start, fwd.finals, DEFAULT_MAX_STATES)[2]


def _certified(
    columns: Sequence[Sequence[int]],
    start: int,
    finals: frozenset[int],
    max_states: int,
) -> tuple[list[int], list[SubsetState], ReversalCertificate, list[int]]:
    """``_explore``'s successor indices and subsets for the permutation
    automaton with letter tables ``columns``, start ``start`` and finals
    ``finals``, explored on the inverses from ``perms._inverse``, with its
    certificate and the positions of its reverse finals. Raises
    ValueError, before exploring, unless the columns have one length and
    each permutes its states, a test that also bounds every entry.

    The subsets are exactly the sets ``{p : p . w in F}``, one for each
    word w, so two forward states are Myhill-Nerode equivalent iff every
    subset holds both or neither, and two reverse states are equivalent
    iff their subsets agree on the reachable forward states (Brzozowski's
    double-reversal argument). Unreachable states take no part in either
    quotient, so each subset is cut to the reachable states; the start is
    reachable, so a subset holds it, and is a reverse final, iff its cut
    does. On an accessible automaton the cut subsets are the interned
    ones, which are distinct, so the reverse is minimal.

    The letters generate a group G, transitive on the reachable states,
    that permutes the Nerode classes, so all have the size of the start's
    class C. G permutes the subsets too, so every reachable state lies in
    the same number k of them, and one that lies in every subset holding
    the start lies in no other: C is one intersection, begun at the first
    subset that holds the start. The forward asc is the reachable finals
    over |C|, and the automaton is minimal iff it is accessible and
    |C| = 1. On an accessible automaton k is the reverse asc, and counting
    memberships gives k * (state count) = |finals| * (subset count); k = 1,
    the magic value, makes C the one subset holding the start: asc 1 too.
    """
    inverses = [*map(_inverse, columns)]
    if None in inverses or len(set(map(len, columns))) > 1:
        raise ValueError("expected a permutation automaton")
    reach = _reachable(columns, start)
    live = None if len(reach) == len(columns[0]) else frozenset(reach)
    targets, subsets = _explore([*zip(inverses, repeat(True))], finals, max_states)
    holds = [*map(contains, subsets, repeat(start))]
    rev_finals = [*compress(count(), holds)]
    cut = subsets if live is None else [*map(live.intersection, subsets)]
    holding = [*compress(cut, holds)]
    # with no subset holding the start, every reachable state is one class
    start_class = set(holding[0]).intersection(*holding) if holding else reach
    certificate = ReversalCertificate(
        asc_forward=len(finals if live is None else finals & live) // len(start_class),
        asc_reverse=len(rev_finals) if live is None else len(set(holding)),
        forward_minimal=live is None and len(start_class) == 1,
        reverse_minimal=live is None or len(set(cut)) == len(subsets),
    )
    return targets, subsets, certificate, rev_finals


def _mask_tables(columns: Sequence[Sequence[int]]) -> list[bytes]:
    """One 256-byte preimage table per letter column (``columns[c][q]``
    the successor of q on letter c) of a permutation automaton on at most
    ``MASK_STATES`` states: byte s is the preimage of the mask s, whose bit
    ``1 << p`` stands for forward state p. Nothing is checked.
    """
    # the preimage of s under a letter holds p iff s holds p's successor;
    # the rows _HOLDS[p] have disjoint lanes, so their sum is their OR
    return [
        sum(map(list.__getitem__, _HOLDS, column)).to_bytes(256, "little")
        for column in columns
    ]


def _mask_orbit(
    tables: Sequence[bytes], start: int, first: int, seen: bytearray
) -> tuple[int, int, int]:
    """(asc, reverse asc, orbit size) of the final mask ``first`` under
    ``_mask_tables``' tables, with the orbit marked in ``seen``.

    The walk runs over a found-list that grows while it is walked, so each
    found mask costs one lookup per letter; both asc values depend on the
    orbit as a set, not on the order it is found in. There are at most 256
    masks, so no cap applies. The group that the letters generate keeps
    the reachable states, so from reachable finals the walk finds exactly
    the reverse subsets cut to them. The reverse asc counts the subsets
    that hold the start, and, as in ``_certified``, the start's Nerode class
    is their intersection and the forward asc is ``first.bit_count()``
    over its size.
    """
    seen[first] = 1
    found = [first]
    for s in found:  # grows while it is walked
        for table in tables:
            t = table[s]
            if not seen[t]:
                seen[t] = 1
                found.append(t)
    subsets = bytes(found)
    holds = subsets.translate(_BIT[start])
    # with no final no subset holds the start, and the asc is 0
    start_class = reduce(and_, compress(subsets, holds), 255)
    return first.bit_count() // start_class.bit_count(), holds.count(1), len(found)


def _mask_asc_pair(
    columns: Sequence[Sequence[int]], start: int, live: AbstractSet[int]
) -> tuple[int, int]:
    """(asc, reverse asc) of a permutation automaton on at most
    ``MASK_STATES`` states from its letter columns, its start and ``live``,
    its reachable finals: the probe's one ``_mask_orbit`` per draw.

    Nothing is checked and no ``Dfa`` is needed, so a probe draw becomes a
    ``Dfa`` only when it is a counterexample.
    """
    live_mask = sum(map((1).__lshift__, live))
    return _mask_orbit(_mask_tables(columns), start, live_mask, bytearray(256))[:2]
