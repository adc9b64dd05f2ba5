"""Every binary permutation automaton of up to eight states, certified.

The m >= 2 row of the spectrum says that reverse asc 1 never occurs once
asc >= 2. The probe samples that claim; here it is checked on one
automaton per isomorphism class of accessible binary permutation automata
(``oracles.canonical_permutation_pairs``, start 0) and every final set of
2 to n - 1 states. Fewer than two finals give asc <= 1, and n finals accept
every word. ``census`` reads each asc pair with the probe's byte kernel,
``_mask_asc_pair``; every automaton here is accessible, so its reachable
finals are its finals. A tier-1 test checks that kernel against
``reversal_certificate`` on every final set up to five states, and
``tests/test_spectrum.py`` does on probe draws of six to eight states.

The census by orbits, ``orbit_census``, walks each orbit of final masks
once, where ``census`` walks every final set, through the same kernel's
``_mask_tables`` and ``_mask_orbit``. In a permutation automaton each
letter's preimage map permutes the subsets of states, and both asc
values are constant on an orbit O of final sets: O is the set of reverse
subsets. The group that the letters generate is transitive, so every
state lies in the same number k of members of O. k, the count of members
that hold the start, is the reverse asc, and counting (state, member)
pairs two ways gives |O| * |F| = k * n, which the census asserts on every
orbit. The start's Nerode class is the AND of those k members, so the
forward asc is |F| over its bit count, and k = 1 forces the forward asc 1.
Tier-1 tests check the orbit census against ``census`` up to five states
and check that its ``_mask_orbit`` calls cover the 2^n masks of each pair;
they pin its six- and seven-state lines.

Run as a script, ``python tests/test_exhaustive.py N`` prints the orbit
census for N <= 8 states: the pair count, the count with asc >= 2, the
count with reverse asc 1, and the ``(asc, asc_reverse)`` histogram.
"""

import sys
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest

from permrev import reversal
from permrev.dfa import Dfa
from permrev.minimize import asc
from permrev.reversal import (
    MASK_STATES, _mask_asc_pair, reversal_certificate, reverse_dfa
)

from oracles import bfs_order_by_queue, canonical_permutation_pairs


def pair_dfa(pair, finals):
    return Dfa(len(pair[0]), 2, pair, 0, frozenset(finals))


def census(n):
    """(pairs, histogram): the number of canonical pairs on n states, and the
    ``(asc, asc_reverse)`` counts of their automata with asc >= 2 over every
    final set of 2 to n - 1 states."""
    pairs = canonical_permutation_pairs(n)
    histogram = Counter()
    for pair in pairs:
        for size in range(2, n):
            for finals in combinations(range(n), size):
                forward, reverse = _mask_asc_pair(pair, 0, finals)
                if forward >= 2:
                    histogram[forward, reverse] += 1
    return len(pairs), histogram


def orbit_census(n):
    """``census`` of n <= 8 states, one walk per orbit of final masks.

    The masks 0..2^n - 1 are split into orbits by the probe's own kernel,
    ``reversal._mask_tables`` and ``reversal._mask_orbit``. Each orbit
    adds its size to the histogram once, under the asc pair that all its
    members share.
    """
    if n > MASK_STATES:
        raise ValueError(f"the byte tables hold at most {MASK_STATES} states")
    pairs = canonical_permutation_pairs(n)
    orbit = reversal._mask_orbit
    histogram = Counter()
    for pair in pairs:
        tables = reversal._mask_tables(pair)
        seen = bytearray(1 << n)
        for first in range(1 << n):
            if not seen[first]:
                forward, reverse, size = orbit(tables, 0, first, seen)
                assert size * first.bit_count() == reverse * n, (pair, first)
                if forward >= 2:
                    histogram[forward, reverse] += size
    return len(pairs), histogram


def census_lines(n):
    pairs, histogram = orbit_census(n)
    reverse_one = sum(
        count for (_, reverse), count in histogram.items() if reverse == 1
    )
    return [
        f"n={n} pairs={pairs} asc>=2={sum(histogram.values())} "
        f"reverse_asc_1={reverse_one}",
        "histogram: " + " ".join(
            f"({forward},{reverse})={count}"
            for (forward, reverse), count in sorted(histogram.items())
        ),
    ]


def transitive_pair_count(n):
    """Pairs of permutations of range(n) under which 0 reaches every state,
    by brute force over all n!^2 pairs."""
    total = 0
    for a, b in product(permutations(range(n)), repeat=2):
        seen, stack = {0}, [0]
        while stack:
            q = stack.pop()
            for t in (a[q], b[q]):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        total += len(seen) == n
    return total


@pytest.mark.parametrize("n", range(1, 6))
def test_canonical_pairs_are_the_transitive_classes(n):
    pairs = canonical_permutation_pairs(n)
    # OEIS A003319, and the transitive pairs up to renaming states 1..n-1
    assert len(pairs) == [1, 3, 13, 71, 461][n - 1]
    assert len(pairs) == transitive_pair_count(n) // factorial(n - 1)
    assert len(set(pairs)) == len(pairs)
    for a, b in pairs:
        assert sorted(a) == sorted(b) == [*range(n)]
        assert bfs_order_by_queue(pair_dfa((a, b), ())) == [*range(n)]


HISTOGRAMS = {
    1: {},
    2: {},
    3: {(2, 2): 39},
    4: {(2, 2): 72, (2, 3): 312, (3, 3): 284},
    5: {(2, 2): 210, (2, 4): 4400, (3, 3): 210, (3, 6): 4400, (4, 4): 2305},
}


def test_no_reverse_asc_one_up_to_five_states():
    counts = [census(n) for n in range(1, 6)]
    assert [pairs for pairs, _ in counts] == [1, 3, 13, 71, 461]
    assert [sum(h.values()) for _, h in counts] == [0, 0, 39, 668, 11525]
    for n, (_, histogram) in enumerate(counts, 1):
        assert not any(reverse == 1 for _, reverse in histogram)
        assert dict(histogram) == HISTOGRAMS[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_census_matches_the_census_up_to_five_states(n):
    # census(n) itself is checked against HISTOGRAMS above
    assert orbit_census(n) == census(n)


@pytest.mark.parametrize("n", range(1, 5))
def test_orbit_census_walks_the_probe_kernel(n, monkeypatch):
    kernel = reversal._mask_orbit
    sizes = Counter()  # orbit sizes summed per pair, keyed by its tables

    def recorded(tables, start, first, seen):
        orbit = kernel(tables, start, first, seen)
        sizes[tuple(tables)] += orbit[2]
        return orbit

    monkeypatch.setattr(reversal, "_mask_orbit", recorded)
    orbit_census(n)
    assert len(sizes) == len(canonical_permutation_pairs(n))
    assert set(sizes.values()) == {1 << n}


# The lines that `python tests/test_exhaustive.py N` prints; CI pins N = 6
# and N = 8 the same way.
CENSUS_LINES = {
    6: [
        "n=6 pairs=3447 asc>=2=191865 reverse_asc_1=0",
        "histogram: (2,2)=2511 (2,3)=2322 (2,4)=1872 (2,5)=45000 (3,2)=312 "
        "(3,3)=954 (3,4)=936 (3,5)=2280 (3,6)=1512 (3,9)=4644 (3,10)=57720 "
        "(4,4)=1926 (4,6)=2322 (4,8)=1872 (4,10)=45000 (5,5)=20682",
    ],
    7: [
        "n=7 pairs=29093 asc>=2=3462067 reverse_asc_1=0",
        "histogram: (2,2)=609 (2,6)=610344 (3,3)=7091 (3,6)=2646 (3,9)=4704 "
        "(3,12)=22344 (3,15)=981470 (4,4)=7091 (4,8)=2646 (4,12)=4704 "
        "(4,16)=22344 (4,20)=981470 (5,5)=609 (5,15)=610344 (6,6)=203651",
    ],
}


@pytest.mark.parametrize("n", sorted(CENSUS_LINES))
def test_orbit_census_lines_of_six_and_seven_states(n):
    assert census_lines(n) == CENSUS_LINES[n]


@pytest.mark.parametrize("n", range(1, 6))
def test_census_kernel_matches_the_certificate_up_to_five_states(n):
    # every final set, empty and full included
    for pair in canonical_permutation_pairs(n):
        for size in range(n + 1):
            for finals in combinations(range(n), size):
                certificate = reversal_certificate(pair_dfa(pair, finals))
                assert _mask_asc_pair(pair, 0, finals) == (
                    certificate.asc_forward, certificate.asc_reverse
                ), (pair, finals)


@pytest.mark.parametrize("n", range(1, 5))
def test_certificates_match_minimization_up_to_four_states(n):
    # every final set, asc <= 1 included
    for pair in canonical_permutation_pairs(n):
        for size in range(n + 1):
            for finals in combinations(range(n), size):
                dfa = pair_dfa(pair, finals)
                certificate = reversal_certificate(dfa)
                assert certificate.asc_forward == asc(dfa)
                assert certificate.asc_reverse == asc(reverse_dfa(dfa))


if __name__ == "__main__":
    print("\n".join(census_lines(int(sys.argv[1]))))
