"""Desk-scale verification of the reversal spectrum.

The grid rows check that the (m, alpha) witness really has asc pair
(m, alpha); the trivial rows pin the m = 0 and m = 1 cases on their
one-state automata; and the magic-value probe samples random permutation
automata looking for a reversal with asc 1 (none is expected: 1 is the one
unattainable value once asc >= 2). Every asc pair here is read off the
reverse subsets by ``reversal_certificate``; no reverse automaton is built
and nothing is minimized.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import compress

from .dfa import Dfa, is_permutation_automaton, reachable_states
from .errors import CapacityError, check_int
from .reversal import MASK_STATES, _mask_certificate, reversal_certificate
from .witness import DEFAULT_STATE_CAP, build_witness

# Unused here: perfbench/tracing.py wraps these names on this module by attribute.
from .minimize import asc  # noqa: F401
from .reversal import reverse_dfa  # noqa: F401

DEFAULT_SEED = 1009
MAX_PROBE_STATES = MASK_STATES  # every draw is certified on byte masks

_NOTES = (
    "rows m=0 and m=1 are pinned by their one-state automata; that no other "
    "reverse value occurs for m<=1, and that reverse asc 1 never occurs for "
    "m>=2, is supported here by the sampled magic-value probe rather than a "
    "proof",
)


def asc_pair(pfa: Dfa) -> tuple[int, int]:
    """(asc of the language, asc of its reversal) for a permutation automaton."""
    if not isinstance(pfa, Dfa) or not is_permutation_automaton(pfa):
        raise ValueError("asc_pair requires a permutation automaton")
    certificate = reversal_certificate(pfa)
    return certificate.asc_forward, certificate.asc_reverse


def spectrum_point(
    m: int, alpha: int, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[int, int]:
    """asc pair of the (m, alpha) witness; the expected value is (m, alpha)."""
    return asc_pair(build_witness(m, alpha, state_cap=state_cap))


@dataclass(frozen=True)
class SpectrumRow:
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
) -> tuple[tuple[tuple[int, ...], ...], int, frozenset[int]]:
    """The table, start and finals of a random permutation automaton on n
    states and k letters.

    The RNG shuffles one column per letter, picks the start, then flips one
    coin per state in state order.
    """
    columns = []
    for _ in range(k):
        column = list(range(n))
        rng.shuffle(column)
        columns.append(column)
    start = rng.randrange(n)
    flips = [rng.random() < 0.5 for _ in range(n)]
    return tuple(zip(*columns)), start, frozenset(compress(range(n), flips))


def random_pfa(rng: random.Random, num_states: int, alphabet_size: int = 2) -> Dfa:
    """Uniform random permutation per letter, uniform start, fair-coin finals.

    Raises ValueError unless ``rng`` is a ``random.Random`` and
    ``num_states`` and ``alphabet_size`` are ints >= 1.
    """
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random (got {type(rng).__name__})")
    check_int("num_states", num_states, 1)
    check_int("alphabet_size", alphabet_size, 1)
    return Dfa(num_states, alphabet_size, *_draw(rng, num_states, alphabet_size))


@dataclass(frozen=True)
class MagicProbeReport:
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
    """
    check_int("n_max", n_max, 1)
    check_int("samples", samples, 0)
    check_int("seed", seed)
    if n_max > MAX_PROBE_STATES:
        raise ValueError(f"n_max must be between 1 and {MAX_PROBE_STATES}")
    if count_checked_only and n_max < 3:
        raise ValueError("no automaton on fewer than 3 states has asc >= 2")
    rng = random.Random(seed)
    drawn = 0
    checked = 0
    hits: list[tuple[Dfa, int, int]] = []
    pairs: Counter[tuple[int, int]] = Counter()
    while (checked if count_checked_only else drawn) < samples:
        n = rng.randint(1, n_max)
        delta, start, finals = _draw(rng, n, 2)
        drawn += 1
        if len(finals) < 2:
            continue  # asc never exceeds the number of final states
        dfa = Dfa(n, 2, delta, start, finals)
        reach = reachable_states(dfa)
        if not 2 <= len(finals.intersection(reach)) < len(reach):
            continue  # fewer than two reachable finals, or all of them final
        # _draw permutes by construction, so asc_pair's check is skipped, and
        # the kernel of reversal_certificate takes the reachable states as is
        certificate = _mask_certificate(dfa, reach)
        forward, reverse = certificate.asc_forward, certificate.asc_reverse
        if forward < 2:
            continue
        checked += 1
        pairs[forward, reverse] += 1
        if reverse == 1:
            hits.append((dfa, forward, reverse))
    return MagicProbeReport(
        n_max=n_max,
        samples=samples,
        seed=seed,
        drawn=drawn,
        checked=checked,
        counterexamples=tuple(hits),
        histogram=tuple(sorted(pairs.items())),
    )


@dataclass(frozen=True)
class SpectrumReport:
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

    @property
    def skipped(self) -> tuple[SpectrumRow, ...]:
        return tuple(row for row in self.rows if row.verdict == "skipped")


def spectrum_table(
    m_max: int,
    alpha_max: int,
    state_cap: int = DEFAULT_STATE_CAP,
    probe: MagicProbeReport | None = None,
) -> SpectrumReport:
    """Trivial rows plus the witness grid 2..m_max x 2..alpha_max.

    Rows whose witness would blow the state cap are recorded as skipped,
    not failed; the overall verdict ignores them. Raises ValueError when
    ``m_max`` or ``alpha_max`` is not an int, or ``state_cap`` is not an
    int >= 1.
    """
    check_int("m_max", m_max)
    check_int("alpha_max", alpha_max)
    check_int("state_cap", state_cap, 1)
    rows = list(trivial_rows())
    for m in range(2, m_max + 1):
        for alpha in range(2, alpha_max + 1):
            try:
                forward, reverse = spectrum_point(m, alpha, state_cap=state_cap)
            except CapacityError:
                rows.append(SpectrumRow(m, alpha, None, None, "skipped"))
                continue
            verdict = "pass" if (forward, reverse) == (m, alpha) else "fail"
            rows.append(SpectrumRow(m, alpha, forward, reverse, verdict))
    return SpectrumReport(
        m_max=m_max, alpha_max=alpha_max, rows=tuple(rows), magic_probe=probe
    )
