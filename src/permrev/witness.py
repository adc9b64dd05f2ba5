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

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import and_, lt
from typing import Iterable

from .dfa import Dfa
from .errors import CapacityError
from .perms import KSubset, ksubsets
from .reversal import SubsetState, certify_reversal

# Unused here: perfbench/tracing.py wraps these names on this module by attribute.
from .minimize import asc, minimize  # noqa: F401
from .perms import (  # noqa: F401
    act_on_subset,
    colex_rank,
    colex_unrank,
    cycle_perm,
    perm_inverse,
    transposition_perm,
)
from .reversal import mask_states, reverse_dfa, reverse_step, reverse_subsets  # noqa: F401

DEFAULT_STATE_CAP = 10_000


@dataclass(frozen=True)
class WitnessParams:
    """The pair (m, alpha) with the derived ground-set size n = m + alpha - 1."""

    m: int
    alpha: int

    def __post_init__(self) -> None:
        if type(self.m) is not int or self.m < 2:
            raise ValueError(f"m must be an int >= 2 (got {self.m!r})")
        if type(self.alpha) is not int or self.alpha < 2:
            raise ValueError(f"alpha must be an int >= 2 (got {self.alpha!r})")

    @property
    def n(self) -> int:
        return self.m + self.alpha - 1

    @property
    def q_init(self) -> KSubset:
        """The start state: the first alpha points."""
        return tuple(range(self.alpha))

    @property
    def center0(self) -> KSubset:
        """Center of the final-state star: the first alpha - 1 points."""
        return tuple(range(self.alpha - 1))


def subset_label(subset: KSubset) -> str:
    """Render a subset 1-based; compact digits while every point fits one."""
    points = [i + 1 for i in subset]
    if points and points[-1] > 9:
        return ".".join(str(p) for p in points)
    return "".join(str(p) for p in points)


def star_label(center: KSubset) -> str:
    return f"S({subset_label(center)})"


@dataclass(frozen=True)
class Star:
    """All alpha-subsets of [n] containing a fixed center of size alpha - 1."""

    center: KSubset
    members: tuple[KSubset, ...]


def star_members(params: WitnessParams, center: KSubset) -> Star:
    """The star around ``center``; it always has exactly m members."""
    center = tuple(sorted(center))
    if len(center) != params.alpha - 1:
        raise ValueError(
            f"center must have {params.alpha - 1} points (got {len(center)})"
        )
    if len(set(center)) != len(center):
        raise ValueError(f"center {center} has repeated points")
    for i in center:
        if not 0 <= i < params.n:
            raise ValueError(f"point {i} is out of range for n={params.n}")
    members = tuple(
        sorted(
            tuple(sorted(center + (u,)))
            for u in range(params.n)
            if u not in center
        )
    )
    return Star(center, members)


def check_state_cap(state_cap: int) -> None:
    """Raise ValueError unless ``state_cap`` is an int >= 1."""
    if type(state_cap) is not int or state_cap < 1:
        raise ValueError(f"state_cap must be an int >= 1 (got {state_cap!r})")


def _point_sets(subsets: Iterable[KSubset], n: int) -> list[int]:
    """Each subset as an n-bit mask: bit i is set iff point i is a member.

    Colexicographic order of k-subsets is increasing order of their masks.
    """
    bit = [1 << i for i in range(n)]
    return [sum(map(bit.__getitem__, x)) for x in subsets]


def build_witness(m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The binary permutation automaton on the alpha-subsets of [n].

    States are numbered in colexicographic order and labeled 1-based, so the
    start state {1..alpha} is state 0 with label like "1234". Each state is
    an n-bit point-set: letter a (i -> i+1 mod n) rotates it left by one
    bit, letter b swaps bits 0 and 1, and a dict from point-set to state
    number gives each image's index. Raises ValueError when ``state_cap`` is
    not an int >= 1 and CapacityError when the witness would have more than
    ``state_cap`` states; the exact count is the error's ``count``.
    """
    params = WitnessParams(m, alpha)
    check_state_cap(state_cap)
    n = params.n
    total = math.comb(n, alpha)
    if total > state_cap:
        # C(n, alpha) can have more digits than str(int) accepts.
        raise CapacityError(
            f"witness for (m={m}, alpha={alpha}) needs C({n}, {alpha}) states, "
            f"more than the cap of {state_cap}",
            count=total,
            stage="build_witness",
        )
    subsets = list(ksubsets(n, alpha))
    points = _point_sets(subsets, n)
    index = {x: i for i, x in enumerate(points)}
    full = (1 << n) - 1
    delta = tuple(
        (index[(x << 1 | x >> (n - 1)) & full], index[x ^ 3] if x & 3 in (1, 2) else i)
        for i, x in enumerate(points)
    )
    # The final star: the first alpha - 1 points and any one other point.
    center0 = (1 << (alpha - 1)) - 1
    finals = frozenset(index[center0 | 1 << u] for u in range(alpha - 1, n))
    # The labels subset_label writes, joined from one digit string per point.
    digits = [str(i + 1) for i in range(n)]
    labels = tuple(
        ("." if x[-1] > 8 else "").join(map(digits.__getitem__, x)) for x in subsets
    )
    return Dfa(total, 2, delta, 0, finals, labels)


@dataclass(frozen=True)
class StarClassification:
    """Outcome of matching every reverse state against a star.

    ``centers[i]`` is the center of reverse state ``i`` or None when that
    state is not a star (which would falsify the construction).
    ``accepting_centers`` are the centers of the accepting reverse states
    that are stars, sorted.
    """

    centers: tuple[KSubset | None, ...]
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
    ``rev``, as ``certify_reversal`` returns them: distinct, strictly
    increasing tuples of witness state numbers. A state's center is the
    common part of its members, the AND of their n-bit point-sets. m
    alpha-subsets whose common part has alpha - 1 points are the whole
    star around it, since that star has exactly m members; any other state
    gets center None.
    Besides the per-state star test, this checks the bijection with all
    (alpha-1)-subset centers and the single-letter law on center masks:
    reading letter c maps the star around T to the star around the preimage
    of T under c, a right rotation by one bit for a and the swap of bits 0
    and 1 for b.
    Raises ValueError when the subsets do not fit ``rev`` or the witness
    for ``params``.
    """
    n, alpha = params.n, params.alpha
    total = math.comb(n, alpha)
    if not all(_is_witness_subset(s, total) for s in subsets):
        raise ValueError("a subset does not fit the witness for these parameters")
    if rev.alphabet_size != 2 or not len(set(subsets)) == len(subsets) == rev.num_states:
        raise ValueError("subsets do not match the states of rev")

    points = _point_sets(ksubsets(n, alpha), n)
    full = (1 << n) - 1
    commons: list[int | None] = []
    for s in subsets:
        common = reduce(and_, map(points.__getitem__, s), full)
        star = len(s) == params.m and common.bit_count() == alpha - 1
        commons.append(common if star else None)
    centers = [
        None if c is None else tuple(i for i in range(n) if c >> i & 1)
        for c in commons
    ]
    accepting = sorted(centers[i] for i in rev.finals if centers[i] is not None)

    all_stars = None not in commons
    # Distinct centers have distinct members, so no two states share a center.
    covers = all_stars and len(commons) == math.comb(n, alpha - 1)
    # Reading a reverse letter applies its inverse to the center: a^-1 is a
    # right rotation by one bit and b is its own inverse.
    letter_law = all_stars and all(
        commons[to_a] == (c >> 1 | (c & 1) << (n - 1))
        and commons[to_b] == (c ^ 3 if c & 3 in (1, 2) else c)
        for c, (to_a, to_b) in zip(commons, rev.delta)
    )
    return StarClassification(tuple(centers), tuple(accepting), covers, letter_law)


def _is_witness_subset(s: SubsetState, total: int) -> bool:
    """Whether ``s`` is a strictly increasing tuple inside range(total)."""
    return (
        type(s) is tuple
        and set(map(type, s)) <= {int}
        and all(map(lt, s, s[1:]))
        and (not s or 0 <= s[0] and s[-1] < total)
    )


@dataclass(frozen=True)
class WitnessReport:
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
    """
    params = WitnessParams(m, alpha)
    n = params.n
    fwd = build_witness(m, alpha, state_cap=state_cap)
    rev, subsets, certificate = certify_reversal(fwd)
    classification = classify_reverse_states(params, rev, subsets)

    expected_centers = tuple(itertools.combinations(params.q_init, alpha - 1))
    accepting_ok = (
        classification.all_stars
        and classification.accepting_centers == expected_centers
    )
    accepting_stars = tuple(
        star_members(params, center) for center in classification.accepting_centers
    )

    checks = (
        ("forward_states", fwd.num_states == math.comb(n, alpha)),
        ("forward_finals", len(fwd.finals) == m),
        ("forward_minimal", certificate.forward_minimal),
        ("reverse_states", rev.num_states == math.comb(n, alpha - 1)),
        ("stars_match", classification.ok),
        ("reverse_finals", len(rev.finals) == alpha),
        ("accepting_centers", accepting_ok),
        ("reverse_minimal", certificate.reverse_minimal),
        ("asc_forward", certificate.asc_forward == m),
        ("asc_reverse", certificate.asc_reverse == alpha),
    )
    first_failure = next((name for name, ok in checks if not ok), None)

    return WitnessReport(
        params=params,
        forward_states=fwd.num_states,
        forward_finals=len(fwd.finals),
        forward_minimal=certificate.forward_minimal,
        reverse_states=rev.num_states,
        reverse_finals=len(rev.finals),
        reverse_minimal=certificate.reverse_minimal,
        stars_match=classification.ok,
        accepting_centers_match=accepting_ok,
        asc_forward=certificate.asc_forward,
        asc_reverse=certificate.asc_reverse,
        accepting_stars=accepting_stars,
        first_failure=first_failure,
    )
