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

from .dfa import Dfa
from .errors import CapacityError
from .perms import (
    KSubset,
    act_on_subset,
    colex_rank,
    cycle_perm,
    ksubsets,
    perm_inverse,
    transposition_perm,
)
from .reversal import SubsetState, certify_reversal

# Unused here: perfbench/tracing.py wraps these names on this module by attribute.
from .minimize import asc, minimize  # noqa: F401
from .perms import colex_unrank  # noqa: F401
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


def build_witness(m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """The binary permutation automaton on the alpha-subsets of [n].

    States are numbered in colexicographic order and labeled 1-based, so the
    start state {1..alpha} is state 0 with label like "1234". Raises
    ValueError when ``state_cap`` is not an int >= 1 and CapacityError when
    the witness would have more than ``state_cap`` states.
    """
    params = WitnessParams(m, alpha)
    check_state_cap(state_cap)
    n = params.n
    total = math.comb(n, alpha)
    if total > state_cap:
        raise CapacityError(
            f"witness for (m={m}, alpha={alpha}) needs {total} states "
            f"(cap {state_cap})",
            count=total,
            stage="build_witness",
        )
    a = cycle_perm(n)
    b = transposition_perm(n)
    subsets = list(ksubsets(n, alpha))
    delta = tuple(
        (colex_rank(act_on_subset(a, x)), colex_rank(act_on_subset(b, x)))
        for x in subsets
    )
    start = colex_rank(params.q_init)
    finals = frozenset(
        colex_rank(x) for x in star_members(params, params.center0).members
    )
    labels = tuple(subset_label(x) for x in subsets)
    return Dfa(total, 2, delta, start, finals, labels)


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
    common part of its members. m alpha-subsets whose common part has
    alpha - 1 points are the whole star around it, since that star has
    exactly m members; any other state gets center None.
    Besides the per-state star test, this checks the bijection with all
    (alpha-1)-subset centers and the single-letter law: reading letter c
    maps the star around T to the star around the preimage of T under c.
    Raises ValueError when the subsets do not fit ``rev`` or the witness
    for ``params``.
    """
    n, alpha = params.n, params.alpha
    total = math.comb(n, alpha)
    if not all(_is_witness_subset(s, total) for s in subsets):
        raise ValueError("a subset does not fit the witness for these parameters")
    if rev.alphabet_size != 2 or not len(set(subsets)) == len(subsets) == rev.num_states:
        raise ValueError("subsets do not match the states of rev")

    points = [sum(1 << i for i in x) for x in ksubsets(n, alpha)]
    centers: list[KSubset | None] = []
    for s in subsets:
        common = (1 << n) - 1
        for q in s:
            common &= points[q]
        star = len(s) == params.m and common.bit_count() == alpha - 1
        centers.append(tuple(i for i in range(n) if common >> i & 1) if star else None)
    accepting = sorted(centers[i] for i in rev.finals if centers[i] is not None)

    all_stars = None not in centers
    # Distinct centers have distinct members, so no two states share a center.
    covers = all_stars and len(centers) == math.comb(n, alpha - 1)
    inverses = (perm_inverse(cycle_perm(n)), perm_inverse(transposition_perm(n)))
    letter_law = all_stars and all(
        centers[rev.delta[i][c]] == act_on_subset(inverses[c], center)
        for i, center in enumerate(centers)
        for c in (0, 1)
    )
    return StarClassification(tuple(centers), tuple(accepting), covers, letter_law)


def _is_witness_subset(s: SubsetState, total: int) -> bool:
    """Whether ``s`` is a strictly increasing tuple inside range(total)."""
    return (
        type(s) is tuple
        and all(type(q) is int for q in s)
        and all(p < q for p, q in zip(s, s[1:]))
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
