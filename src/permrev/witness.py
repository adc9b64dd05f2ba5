"""The k-subset witness automaton and machine verification of its reversal.

For parameters m >= 2 and alpha >= 2 put n = m + alpha - 1. The witness is
a binary permutation automaton whose states are the alpha-subsets of [n]:
letter ``a`` acts as the full n-cycle, letter ``b`` as the transposition of
the first two points, the start state is {1..alpha}, and the final states
form the star around {1..alpha-1} (all alpha-subsets containing it).
``verify_witness`` recomputes, rather than assumes, every property this
construction is supposed to have: state and final counts on both sides,
the star structure of the reverse reachable part, minimality forward and
backward, and the accepting-state complexities.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations, compress, islice, repeat
from operator import add, and_, eq, ge, itemgetter, not_, or_, xor
from typing import Iterable, Sequence

from . import reversal
from .dfa import Dfa, check_dfa
from .errors import (
    CapacityError, are_subset_states, check_int, check_points, check_subset, int_text
)
from .perms import KSubset
from .records import Record
from .reversal import (
    ReversalCertificate,
    SubsetState,
    _capacity_error,
    _certify,
    _permutation_live,
    mask_states,
)

# Unused here: perfbench/tracing.py wraps these names on this module by attribute.
from .minimize import asc, minimize  # noqa: F401
from .perms import (  # noqa: F401
    act_on_subset,
    colex_rank,
    colex_unrank,
    cycle_perm,
    ksubsets,
    perm_inverse,
    transposition_perm,
)
from .reversal import reverse_dfa, reverse_step, reverse_subsets  # noqa: F401

DEFAULT_STATE_CAP = 10_000
# A witness count past the cap is computed exactly, for the CapacityError,
# only when min(alpha, m - 1) * n.bit_length(), a bound on its bits, is at
# most this: C(19999, 10000) then takes about 15 ms and no such count more
# than about 35 ms (2 vCPUs, Python 3.11), where math.comb takes 43 s on
# C(1999999, 1000000).
EXACT_COUNT_BITS = 1 << 18
# The characters that build_witness's labels may take, counted before any
# is built: the state cap counts states, but labels grow as states * alpha.
# (11, 11) needs 9.6 M; (2, 9999), within the default cap, would need 489 M.
LABEL_CHARS = 1 << 26


class WitnessParams(Record):
    """The pair (m, alpha) with the derived ground-set size n = m + alpha - 1."""

    m: int
    alpha: int

    def __post_init__(self) -> None:
        check_int("m", self.m, 2)
        check_int("alpha", self.alpha, 2)

    @property
    def n(self) -> int:
        return self.m + self.alpha - 1

    @property
    def q_init(self) -> KSubset:
        """The start state: the first alpha points."""
        return tuple(range(self.alpha))


def _check_params(params: object) -> None:
    if not isinstance(params, WitnessParams):
        raise ValueError(f"expected WitnessParams (got {type(params).__name__})")


def subset_label(subset: KSubset) -> str:
    """Render a subset 1-based; compact digits while every point fits one.

    Raises ValueError unless ``subset`` is a sequence of ints >= 0 in
    strictly increasing order, so that every label names one subset.
    """
    points = check_points("subset", subset)
    if points and points[0] < 0 or any(map(ge, points, points[1:])):
        raise ValueError(
            f"subset {int_text(points)} must list points >= 0 in increasing order"
        )
    points = [i + 1 for i in points]
    if points and points[-1] > 9:
        return ".".join(str(p) for p in points)
    return "".join(str(p) for p in points)


def star_label(center: KSubset) -> str:
    return f"S({subset_label(center)})"


class Star(Record):
    """All alpha-subsets of [n] containing a fixed center of size alpha - 1."""

    center: KSubset
    members: tuple[KSubset, ...]


def star_members(params: WitnessParams, center: KSubset) -> Star:
    """The star around ``center``; it always has exactly m members."""
    _check_params(params)
    center = check_subset("center", center, params.n)
    if len(center) != params.alpha - 1:
        raise ValueError(
            f"center must have {params.alpha - 1} points (got {len(center)})"
        )
    members = tuple(
        sorted(
            tuple(sorted(center + (u,)))
            for u in range(params.n)
            if u not in center
        )
    )
    return Star(center, members)


def _colex_masks(n: int, k: int) -> list[int]:
    """The k-subsets of [n] as n-bit masks (bit i set iff point i is a
    member), in increasing order, which is colexicographic order.

    The masks are built up one point at a time: adding point j keeps the
    t-subsets of the points so far and appends the (t-1)-subsets with bit j
    set, which are all larger. Only the sizes that can still grow to k are
    kept up to date, and each size is dropped after the last step that
    reads it.
    """
    by_size = [[0]] + [[] for _ in range(k)]
    for j in range(n):
        bit = 1 << j
        for t in range(min(j + 1, k), max(0, k - n + j), -1):
            by_size[t] += map(bit.__or__, by_size[t - 1])
        if j >= n - k:
            by_size[k - n + j] = []
    return by_size[k]


def build_witness(m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The binary permutation automaton on the alpha-subsets of [n].

    States are numbered in colexicographic order and labeled 1-based, so the
    start state {1..alpha} is state 0 with label like "1234". The table
    comes from ``_witness_core`` and the labels are joined from
    ``itertools.combinations`` of the digit strings. Raises ValueError when
    ``state_cap`` is not an int >= 1 and CapacityError when the witness
    would have more than ``state_cap`` states. That is decided without
    computing C(n, alpha) in full; the error's ``count`` is the exact count
    where ``EXACT_COUNT_BITS`` admits it, and None otherwise. Labels of
    more than ``LABEL_CHARS`` characters in all are a CapacityError too,
    whose ``count`` is that character count, raised before any is built.
    """
    params = WitnessParams(m, alpha)
    _witness_size(params, state_cap)
    _label_chars(params)
    columns, finals, points = _witness_core(params)
    return Dfa(len(points), 2, columns, 0, finals, _labels(params.n, alpha))


def _witness_core(
    params: WitnessParams,
) -> tuple[tuple[tuple[int, ...], ...], frozenset[int], list[int]]:
    """The unlabeled witness, whose size its callers check first with
    ``_witness_size``: its letter columns, its finals and the n-bit
    point-set of each state, from ``_colex_masks``.

    The states are numbered in colex order, so the colex rank of a set
    s_1 < ... < s_alpha, the sum of C(s_j, j), is its state number, and
    each column and final is read off the point-sets with no lookup:
    - Letter a (i -> i+1 mod n) maps the sets without point n-1, the
      first C(n-1, alpha) states, onto the sets without point 0, and the
      sets with point n-1 onto those with point 0. On either part it adds
      one to each point below n-1, which keeps colex order, and on the
      second it also sends n-1, held by every set there, to 0. So a's
      column is the stable partition of the state numbers by point 0:
      first the states without point 0, then the states with it, each run
      in increasing order.
    - Letter b swaps points 0 and 1. Only a set holding exactly one of
      them changes, and then only in its first term C(s_1, 1) = s_1,
      which is 0 or 1; so b sends q to q + bit0 - bit1 of q's point-set.
    - The finals, the first alpha - 1 points and one point u >= alpha - 1,
      rank C(u, alpha): the other terms are C(j - 1, j) = 0.
    Both columns take their entries from one list of state ints, so each
    state is one int object, and each column is built as the tuple that
    ``Dfa`` stores, so it is never copied.
    """
    n, alpha = params.n, params.alpha
    points = _colex_masks(n, alpha)
    states = [*range(len(points))]
    odd = [*map((1).__and__, points)]
    a_images = (*compress(states, map(not_, odd)), *compress(states, odd))
    steps = map(_STEP01.__getitem__, map((3).__and__, points))
    b_images = tuple(map(states.__getitem__, map(add, states, steps)))
    finals = frozenset(math.comb(u, alpha) for u in range(alpha - 1, n))
    return (a_images, b_images), finals, points


def _witness_size(params: WitnessParams, state_cap: int) -> int:
    """C(n, alpha), the witness's state count, checked against the cap as
    ``build_witness`` states."""
    check_int("state_cap", state_cap, 1)
    m, alpha, n = params.m, params.alpha, params.n
    k = min(alpha, m - 1)  # C(n, alpha) = C(n, k), and k <= n / 2
    total = _count_up_to(n, k, state_cap)
    if total > state_cap:
        exact = math.comb(n, k) if k * n.bit_length() <= EXACT_COUNT_BITS else None
        m, alpha, n, cap = map(int_text, (m, alpha, n, state_cap))
        raise CapacityError(
            f"witness for (m={m}, alpha={alpha}) needs C({n}, {alpha}) states, "
            f"more than the cap of {cap}",
            count=exact,
            stage="build_witness",
        )
    return total


def _label_chars(params: WitnessParams) -> int:
    """``sum(map(len, _labels(n, alpha)))``, refused past ``LABEL_CHARS``.

    Each point p lies in C(n - 1, alpha - 1) subsets and takes len(str(p))
    digits, one per power of ten up to p, and each label with a point above
    9 takes alpha - 1 dots. Called after the state cap, so C(n, alpha) is
    small.
    """
    alpha, n = params.alpha, params.n
    digits, low = 0, 1
    while low <= n:
        digits, low = digits + n - low + 1, 10 * low
    dotted = math.comb(n, alpha) - math.comb(min(n, 9), alpha)
    total = math.comb(n - 1, alpha - 1) * digits + (alpha - 1) * dotted
    if total > LABEL_CHARS:
        m, alpha, chars = map(int_text, (params.m, alpha, total))
        raise CapacityError(
            f"witness for (m={m}, alpha={alpha}) needs {chars} label characters, "
            f"more than the budget of {LABEL_CHARS}",
            count=total,
            stage="build_witness",
        )
    return total


def _count_up_to(n: int, k: int, cap: int) -> int:
    """C(n, k) for 0 <= k <= n / 2 if it is at most ``cap``, else some
    C(n, j) > ``cap`` with j <= k.

    The running product C(n, j), j = 1..k, grows with j, and C(n, j) >=
    (n / j)^j >= 2^j, so it passes the cap within log2(cap) + 1 steps,
    however large k is.
    """
    total = 1
    for j in range(1, k + 1):
        total = total * (n - j + 1) // j
        if total > cap:
            break
    return total


def _rotations(masks: list[int], n: int) -> Iterable[int]:
    """Each n-bit mask rotated right by one bit: the preimage under a.

    The 2n bits of x * (2^n + 1) are x twice over, side by side, so a shift
    and a cut to n bits give the rotation.
    """
    doubled = map(((1 << n) + 1).__mul__, masks)
    return map(((1 << n) - 1).__and__, map((1).__rrshift__, doubled))


# x ^ _SWAP01[x & 3] is x with bits 0 and 1 swapped, and the colex rank of
# x plus _STEP01[x & 3] is that of the swapped set: bit0 - bit1.
_SWAP01 = (0, 3, 3, 0)
_STEP01 = (0, 1, -1, 0)


def _swaps(masks: list[int]) -> Iterable[int]:
    """Each mask with bits 0 and 1 swapped: the transposition of points 0, 1."""
    return map(xor, masks, map(_SWAP01.__getitem__, map((3).__and__, masks)))


def _labels(n: int, alpha: int) -> list[str]:
    """``subset_label`` of every alpha-subset of [n], in colexicographic order.

    ``combinations`` of the points in decreasing order lists the subsets in
    decreasing colexicographic order, each in decreasing point order. Every
    subset of 1..9 comes after every subset that has a point above 9, so
    the last C(min(n, 9), alpha) get plain digits and the rest get dots.
    """
    descending = combinations([str(p) for p in range(n, 0, -1)], alpha)
    dotted = math.comb(n, alpha) - math.comb(min(n, 9), alpha)
    labels = [*map(".".join, map(reversed, islice(descending, dotted)))]
    labels += map("".join, map(reversed, descending))
    labels.reverse()
    return labels


class StarClassification(Record):
    """Outcome of matching every reverse state against a star.

    ``centers[i]`` is the center of reverse state ``i`` as an n-bit point
    mask, or None when that state is not a star (which would falsify the
    construction). ``accepting_centers`` are the centers of the accepting
    reverse states that are stars, as sorted point tuples.
    """

    centers: tuple[int | None, ...]
    accepting_centers: tuple[KSubset, ...]
    covers_all_centers: bool
    letter_law_holds: bool

    @property
    def all_stars(self) -> bool:
        return None not in self.centers

    @property
    def ok(self) -> bool:
        return self.all_stars and self.covers_all_centers and self.letter_law_holds


def classify_reverse_states(
    params: WitnessParams, rev: Dfa, subsets: list[SubsetState]
) -> StarClassification:
    """Match every reverse state to its star center.

    ``subsets[i]`` is the subset of witness states behind state ``i`` of
    ``rev``, as ``reverse_construction`` returns them: distinct, strictly
    increasing tuples of witness state numbers. A state's center is the
    common part of its members, the AND of their n-bit point-sets. m
    alpha-subsets whose common part has alpha - 1 points are the whole
    star around it, since that star has exactly m members. That common
    mask is the star's center, kept as a mask; any other state gets center
    None. No star is built per center.
    Besides the per-state star test, this checks the bijection with all
    (alpha-1)-subset centers and the single-letter law on center masks:
    reading letter c maps the star around T to the star around the preimage
    of T under c, a right rotation by one bit for a and the swap of bits 0
    and 1 for b.
    The AND of the members and the letter law each run as builtins over a
    whole column; only the star test is a comprehension.
    Raises ValueError unless ``params`` is a WitnessParams, ``rev`` a Dfa
    and ``subsets`` subset-states of the witness that match ``rev``.
    """
    _check_params(params)
    check_dfa(rev)
    n, alpha = params.n, params.alpha
    if not are_subset_states(subsets, math.comb(n, alpha)):
        raise ValueError("a subset does not fit the witness for these parameters")
    if rev.alphabet_size != 2 or not len(set(subsets)) == len(subsets) == rev.num_states:
        raise ValueError("subsets do not match the states of rev")
    points = _colex_masks(n, alpha)
    members = map(map, repeat(points.__getitem__), subsets)
    commons = map(reduce, repeat(and_), members, repeat((1 << n) - 1))
    centers = [
        common if len(subset) == params.m and common.bit_count() == alpha - 1 else None
        for subset, common in zip(subsets, commons)
    ]
    checks = _star_checks(params, centers, rev.columns, rev.finals)
    return StarClassification(tuple(centers), *checks[1:])


def _star_checks(
    params: WitnessParams,
    keys: list,
    columns: Sequence[Sequence[int]],
    finals: Iterable[int],
) -> tuple[bool, tuple[KSubset, ...], bool, bool]:
    """(all stars, accepting centers, covers all centers, letter law) of
    the reverse states in ``keys``, whose letter columns are ``columns``
    and whose finals are ``finals``.

    An int key is the center mask of the star that the state is; any other
    key is a state that is no star. The accepting centers are those of the
    finals that are stars, as sorted point tuples.
    """
    n, alpha = params.n, params.alpha
    all_stars = all(map(isinstance, keys, repeat(int)))
    accepting = sorted(
        tuple(mask_states(keys[i])) for i in finals if isinstance(keys[i], int)
    )
    # Distinct centers have distinct members, so no two states share a center.
    covers = all_stars and len(keys) == math.comb(n, alpha - 1)
    # Reading a reverse letter applies its inverse to the center: a^-1 is a
    # right rotation by one bit and b is its own inverse.
    to_a, to_b = (map(keys.__getitem__, column) for column in columns)
    letter_law = (
        all_stars
        and all(map(eq, to_a, _rotations(keys, n)))
        and all(map(eq, to_b, _swaps(keys)))
    )
    return all_stars, tuple(accepting), covers, letter_law


def _reverse_stars(
    params: WitnessParams, state_cap: int
) -> tuple[int, int, list, tuple[list[int], list[int]], list[int], ReversalCertificate]:
    """The witness from ``_witness_core`` and its reverse construction,
    explored once: the forward state and final counts, the intern key of
    each reverse state in this walk's BFS order (ties by letter), the
    reverse's two letter columns, its finals and the witness's certificate.

    A subset of m members whose common point mask has alpha - 1 bits is
    the star around that mask (``classify_reverse_states``'s rule), keyed
    by the mask; any other subset is keyed by its sorted member tuple. An
    int never equals a tuple, so interning stays by subset. The letters
    permute, so every subset has as many members as the finals. The
    preimages are read off the inverses that ``reversal._permutation_live``
    returns with its check, whose entries are the columns' own int
    objects, so they add no int objects. ``packed[q]`` holds the
    point-sets of q's preimages under a and b in two n-bit lanes: one AND
    over a subset's members gives both images' common masks. A local
    generator yields each BFS level of member tuples before it walks it,
    and ``reversal._certify`` reads the certificate and the reverse finals
    off the levels as they come, so only the frontier is kept. Raises as ``build_witness`` does;
    ValueError, before exploring, unless the letters permute; and
    CapacityError past ``reversal.DEFAULT_MAX_STATES`` as it reads at
    call time, before anything is built when the C(n, alpha - 1) stars
    of an unbroken witness would pass it.
    """
    n, alpha, max_states = params.n, params.alpha, reversal.DEFAULT_MAX_STATES
    _witness_size(params, state_cap)  # a bad or passed state cap comes first
    if _count_up_to(n, min(alpha - 1, params.m), max_states) > max_states:
        raise _capacity_error(max_states)
    columns, finals, points = _witness_core(params)
    (inverse_a, inverse_b), live = _permutation_live(columns, 0)
    size, full = len(points), (1 << n) - 1
    pick = points.__getitem__
    packed = [
        *map(or_, map(pick, inverse_a), map(n.__rlshift__, map(pick, inverse_b)))
    ]
    both = (1 << 2 * n) - 1

    first = tuple(sorted(finals))
    # a popcount is never -1: no subset of another size is a star
    bits = alpha - 1 if len(first) == params.m else -1
    common = reduce(and_, map(pick, first), full)
    del columns, pick, points
    index = {common if common.bit_count() == bits else first: 0}
    # itemgetter returns a tuple only for two or more items
    getter = itemgetter if len(first) > 1 else (
        lambda *s: lambda seq: (*map(seq.__getitem__, s),)
    )
    to_a: list[int] = []
    to_b: list[int] = []

    def levels():
        """Yield each BFS level of member tuples, then walk it."""
        intern = index.setdefault
        fresh = 1  # the id of the next new subset, len(index)
        level = [first]
        while level:
            yield level
            found = []
            for s in level:
                get = getter(*s)
                common = reduce(and_, get(packed), both)
                mask = common & full
                key = mask if mask.bit_count() == bits else (*sorted(get(inverse_a)),)
                j = intern(key, fresh)
                if j == fresh:
                    if j >= max_states:
                        raise _capacity_error(max_states)
                    found.append(get(inverse_a))
                    fresh += 1
                to_a.append(j)
                mask = common >> n
                key = mask if mask.bit_count() == bits else (*sorted(get(inverse_b)),)
                j = intern(key, fresh)
                if j == fresh:
                    if j >= max_states:
                        raise _capacity_error(max_states)
                    found.append(get(inverse_b))
                    fresh += 1
                to_b.append(j)
            level = found

    certificate, rev_finals = _certify(levels(), 0, finals, size, live)
    del inverse_a, inverse_b, packed
    return size, len(finals), [*index], (to_a, to_b), rev_finals, certificate


class WitnessReport(Record):
    """Verification record for one (m, alpha) witness.

    ``first_failure`` names the first check that came out false, or is None
    when everything holds; ``accepting_stars`` lists the accepting reverse
    states as stars, sorted by center.
    """

    params: WitnessParams
    forward_states: int
    forward_finals: int
    forward_minimal: bool
    reverse_states: int
    reverse_finals: int
    reverse_minimal: bool
    stars_match: bool
    accepting_centers_match: bool
    asc_forward: int
    asc_reverse: int
    accepting_stars: tuple[Star, ...]
    first_failure: str | None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def verify_witness(
    m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP
) -> WitnessReport:
    """Build the (m, alpha) witness, reverse it, and check every claim.

    Capacity overruns propagate as CapacityError; any falsified check
    produces a failing report naming the first broken clause.

    One BFS, ``_reverse_stars``, explores the reverse and interns each
    star by its center mask; the counts, the certificate and the star
    checks are read off its keys, columns and finals. No reverse ``Dfa``
    is built and nothing is minimized.

    A test breaks the witness five ways, which fail ``forward_finals``,
    ``forward_minimal``, ``reverse_states`` and ``stars_match`` first. The
    other checks follow from these, or from the construction:
    - ``forward_states``: ``_witness_core`` numbers all C(n, alpha) states.
    - ``reverse_finals``: by ``stars_match``; a star accepts iff the start holds
      its center, and alpha centers lie in the start. ``_certify``'s lemma
      reads alpha * C(n, alpha) = m * C(n, alpha - 1) here.
    - ``accepting_centers``: by ``stars_match``, as ``reverse_finals``.
    - ``reverse_minimal``: by ``forward_minimal``; an accessible DFA's reverse is.
    - ``asc_forward``: by ``forward_finals`` and ``forward_minimal``.
    - ``asc_reverse``: by ``reverse_finals`` and ``reverse_minimal``.
    """
    params = WitnessParams(m, alpha)
    return _witness_report(params, _reverse_stars(params, state_cap))


def _witness_report(params: WitnessParams, walk: tuple) -> WitnessReport:
    """``verify_witness``'s report on ``walk``, the result of
    ``_reverse_stars`` for ``params``."""
    m, alpha, n = params.m, params.alpha, params.n
    forward_states, forward_finals, keys, rev_columns, rev_finals, certificate = walk
    all_stars, accepting_centers, covers, letter_law = _star_checks(
        params, keys, rev_columns, rev_finals
    )
    stars_ok = covers and letter_law

    expected_centers = tuple(combinations(params.q_init, alpha - 1))
    accepting_ok = all_stars and accepting_centers == expected_centers
    accepting_stars = tuple(
        star_members(params, center) for center in accepting_centers
    )

    checks = (
        ("forward_states", forward_states == math.comb(n, alpha)),
        ("forward_finals", forward_finals == m),
        ("forward_minimal", certificate.forward_minimal),
        ("reverse_states", len(keys) == math.comb(n, alpha - 1)),
        ("stars_match", stars_ok),
        ("reverse_finals", len(rev_finals) == alpha),
        ("accepting_centers", accepting_ok),
        ("reverse_minimal", certificate.reverse_minimal),
        ("asc_forward", certificate.asc_forward == m),
        ("asc_reverse", certificate.asc_reverse == alpha),
    )
    first_failure = next((name for name, ok in checks if not ok), None)

    return WitnessReport(
        params=params,
        forward_states=forward_states,
        forward_finals=forward_finals,
        forward_minimal=certificate.forward_minimal,
        reverse_states=len(keys),
        reverse_finals=len(rev_finals),
        reverse_minimal=certificate.reverse_minimal,
        stars_match=stars_ok,
        accepting_centers_match=accepting_ok,
        asc_forward=certificate.asc_forward,
        asc_reverse=certificate.asc_reverse,
        accepting_stars=accepting_stars,
        first_failure=first_failure,
    )
