"""Desk-scale verification of the reversal spectrum.

The grid rows check that the (m, alpha) witness really has asc pair
(m, alpha); the trivial rows pin the m = 0 and m = 1 cases on their
one-state automata; and the magic-value probe samples random permutation
automata looking for a reversal with asc 1 (none is expected: 1 is the one
unattainable value once asc >= 2). Every asc pair here is read off the
reverse subsets by one start-class rule, ``reversal._certify``: a grid
cell through the witness walk that ``verify_witness`` runs,
``witness._reverse_stars``, a trivial row through
``reversal_certificate``, and a probe draw by the byte-mask kernel
``_mask_asc_pair`` on the draw's letter columns and reachable finals. No
reverse automaton is built, nothing is minimized, and a draw becomes a
``Dfa`` only when it is a counterexample.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import compress

from .dfa import Dfa, _reachable
from .errors import CapacityError, check_int, int_text
from .records import Record
from .reversal import MASK_STATES, _mask_asc_pair, reversal_certificate
from .witness import DEFAULT_STATE_CAP, WitnessParams, _reverse_stars

# Unused here: perfbench/tracing.py wraps these names on this module by attribute.
from .minimize import asc  # noqa: F401
from .reversal import reverse_dfa  # noqa: F401
from .witness import build_witness  # noqa: F401

DEFAULT_SEED = 1009
# Witness cells of one spectrum_table call: the 2..101 square fits. A skipped
# row still costs about 175 B, so the cap bounds the report at about 2 MB.
MAX_GRID_CELLS = 10_000

_NOTES = (
    "rows m=0 and m=1 are pinned by their one-state automata; that no other "
    "reverse value occurs for m<=1, and that reverse asc 1 never occurs for "
    "m>=2, is supported here by the sampled magic-value probe rather than a "
    "proof",
)


def asc_pair(pfa: Dfa) -> tuple[int, int]:
    """(asc of the language, asc of its reversal) for a permutation automaton."""
    certificate = reversal_certificate(pfa)
    return certificate.asc_forward, certificate.asc_reverse


def spectrum_point(
    m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[int, int]:
    """asc pair of the (m, alpha) witness; the expected value is (m, alpha).

    The witness is built unlabeled and explored by ``verify_witness``'s
    own walk, ``witness._reverse_stars``.
    """
    certificate = _reverse_stars(WitnessParams(m, alpha), state_cap)[-1]
    return certificate.asc_forward, certificate.asc_reverse


class SpectrumRow(Record):
    m: int
    alpha: int
    asc_forward: int | None
    asc_reverse: int | None
    verdict: str  # "pass", "fail", or "skipped"


def _one_state_pfa(final: bool) -> Dfa:
    finals = frozenset({0}) if final else frozenset()
    return Dfa(1, 1, ((0,),), 0, finals)


def trivial_rows() -> tuple[SpectrumRow, SpectrumRow]:
    """The m = 0 and m = 1 rows.

    The empty language (one-state, no finals) must give (0, 0) and the
    all-words unary language (one-state, all-final) must give (1, 1).
    """
    rows = []
    for expected, dfa in ((0, _one_state_pfa(False)), (1, _one_state_pfa(True))):
        forward, reverse = asc_pair(dfa)
        verdict = "pass" if (forward, reverse) == (expected, expected) else "fail"
        rows.append(SpectrumRow(expected, expected, forward, reverse, verdict))
    return tuple(rows)


def _draw(
    rng: random.Random, n: int, k: int
) -> tuple[list[list[int]], int, frozenset[int]]:
    """The letter columns, start and finals of a random permutation
    automaton on n states and k letters; ``columns[c][q]`` is the successor
    of q on letter c.

    The RNG shuffles one column per letter, picks the start, then flips one
    coin per state in state order. A draw reads only ``rng.getrandbits``
    and ``rng.random``: a value below s takes s.bit_length() bits and is
    drawn again while it is s or more. That is the rule of
    ``random.Random``'s own ``shuffle`` and ``randrange``, so the draw and
    the state it leaves are theirs. A subclass that overrides only
    ``random()`` still gets uniform permutations, but not the ones its
    ``shuffle`` gives.
    """
    getrandbits = rng.getrandbits
    columns = []
    for _ in range(k):
        column = list(range(n))
        for i in range(n - 1, 0, -1):  # Fisher-Yates: swap i with j <= i
            width = (i + 1).bit_length()
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            column[i], column[j] = column[j], column[i]
        columns.append(column)
    width = n.bit_length()
    start = getrandbits(width)
    while start >= n:
        start = getrandbits(width)
    coin = rng.random
    flips = [coin() < 0.5 for _ in range(n)]
    return columns, start, frozenset(compress(range(n), flips))


def random_pfa(rng: random.Random, num_states: int) -> Dfa:
    """A binary permutation automaton: a uniform random permutation per
    letter, uniform start, fair-coin finals, of any size; the draw reads
    only ``rng.getrandbits`` and ``rng.random`` (see ``_draw``).

    Raises ValueError unless ``rng`` is a ``random.Random`` and
    ``num_states`` is an int >= 1.
    """
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random (got {type(rng).__name__})")
    check_int("num_states", num_states, 1)
    return Dfa(num_states, 2, *_draw(rng, num_states, 2))


class MagicProbeReport(Record):
    """Result of the empirical search for a reversal with asc 1.

    ``drawn`` counts all sampled automata, ``checked`` the ones with
    asc >= 2 whose reversal was actually tested. A draw is reversed only
    when it has at least two finals and its reachable states hold at least
    two finals and at least one non-final; every other draw has asc <= 1
    and is counted in ``drawn`` only. ``histogram`` counts the checked
    automata per ``(asc, asc_reverse)`` pair, sorted by pair; its counts
    sum to ``checked``. A counterexample is a finding (recorded with
    its asc pair), never an exception.
    """

    n_max: int
    samples: int
    seed: int
    drawn: int
    checked: int
    counterexamples: tuple[tuple[Dfa, int, int], ...]
    histogram: tuple[tuple[tuple[int, int], int], ...]

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def magic_one_probe(
    n_max: int,
    samples: int,
    seed: int = DEFAULT_SEED,
    count_checked_only: bool = False,
) -> MagicProbeReport:
    """Sample random binary permutation automata and test their reversals.

    By default ``samples`` counts draws, and only draws with asc >= 2 are
    checked (a run can be vacuous, e.g. on one state). Two skips count a
    draw without reversing it, because its asc is at most 1: asc counts the
    Nerode classes of the reachable finals, so a draw with fewer than two
    finals is skipped before its Dfa is built; and a draw is skipped when
    its reachable states hold fewer than two finals or no non-final, since
    a reachable part that is all final accepts every word. With
    ``count_checked_only`` the sampler rejects until ``samples`` automata
    with asc >= 2 have been checked; that needs ``n_max >= 3``, because on
    at most 2 states two final states accept the same words. ``seed`` may
    be any int, and a bool is not one.

    A draw stays as the letter columns that ``_draw`` shuffled: the skips
    search them for reachable states and ``_mask_asc_pair`` reads them.
    Only a counterexample is built into a (validated) ``Dfa``, so a run
    without one builds none.
    """
    check_int("n_max", n_max, 1)
    check_int("samples", samples, 0)
    check_int("seed", seed)
    if n_max > MASK_STATES:  # every draw is certified on byte masks
        raise ValueError(f"n_max must be between 1 and {MASK_STATES}")
    if count_checked_only and n_max < 3:
        raise ValueError("no automaton on fewer than 3 states has asc >= 2")
    rng = random.Random(seed)
    # the state count is rng.randint(1, n_max), drawn by _draw's rule
    getrandbits = rng.getrandbits
    width = n_max.bit_length()
    drawn = 0
    checked = 0
    hits: list[tuple[Dfa, int, int]] = []
    pairs: Counter[tuple[int, int]] = Counter()
    while (checked if count_checked_only else drawn) < samples:
        n = getrandbits(width)
        while n >= n_max:
            n = getrandbits(width)
        n += 1
        columns, start, finals = _draw(rng, n, 2)
        drawn += 1
        if len(finals) < 2:
            continue  # asc never exceeds the number of final states
        reach = _reachable(columns, start)
        live = finals.intersection(reach)
        if not 2 <= len(live) < len(reach):
            continue  # fewer than two reachable finals, or all of them final
        # _draw permutes by construction, so the byte-mask kernel takes the
        # draw as it is, unchecked
        forward, reverse = _mask_asc_pair(columns, start, live)
        if forward < 2:
            continue
        checked += 1
        pairs[forward, reverse] += 1
        if reverse == 1:
            hits.append((Dfa(n, 2, columns, start, finals), forward, reverse))
    return MagicProbeReport(
        n_max=n_max,
        samples=samples,
        seed=seed,
        drawn=drawn,
        checked=checked,
        counterexamples=tuple(hits),
        histogram=tuple(sorted(pairs.items())),
    )


class SpectrumReport(Record):
    """Grid plus trivial rows, in (m, alpha) order, with an overall verdict."""

    m_max: int
    alpha_max: int
    rows: tuple[SpectrumRow, ...]
    magic_probe: MagicProbeReport | None = None
    notes: tuple[str, ...] = _NOTES

    @property
    def passed(self) -> bool:
        if any(row.verdict == "fail" for row in self.rows):
            return False
        return self.magic_probe is None or self.magic_probe.passed


def spectrum_table(
    m_max: int,
    alpha_max: int,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SpectrumReport:
    """Trivial rows plus the witness grid 2..m_max x 2..alpha_max, with no
    probe; ``permrev.records.replace(report, magic_probe=probe)`` attaches
    one.

    Rows whose witness would blow the state cap are recorded as skipped,
    not failed; the overall verdict ignores them. Raises ValueError when
    ``m_max`` or ``alpha_max`` is not an int, or ``state_cap`` is not an
    int >= 1, and CapacityError, before any row is built, when the grid
    has more than ``MAX_GRID_CELLS`` witness cells.
    """
    check_int("m_max", m_max)
    check_int("alpha_max", alpha_max)
    check_int("state_cap", state_cap, 1)
    cells = max(m_max - 1, 0) * max(alpha_max - 1, 0)
    if cells > MAX_GRID_CELLS:
        raise CapacityError(
            f"spectrum grid of {int_text(cells)} cells exceeds {MAX_GRID_CELLS}",
            count=cells,
            stage="spectrum_table",
        )
    rows = list(trivial_rows())
    # An empty grid walks no m, since m_max alone is not bounded.
    for m in range(2, m_max + 1 if cells else 2):
        for alpha in range(2, alpha_max + 1):
            try:
                forward, reverse = spectrum_point(m, alpha, state_cap=state_cap)
            except CapacityError:
                rows.append(SpectrumRow(m, alpha, None, None, "skipped"))
                continue
            verdict = "pass" if (forward, reverse) == (m, alpha) else "fail"
            rows.append(SpectrumRow(m, alpha, forward, reverse, verdict))
    return SpectrumReport(m_max=m_max, alpha_max=alpha_max, rows=tuple(rows))
