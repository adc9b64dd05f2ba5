"""Every binary permutation automaton of up to five states, certified.

The m >= 2 row of the spectrum says that reverse asc 1 never occurs once
asc >= 2. The probe samples that claim; here it is checked on one
automaton per isomorphism class of accessible binary permutation automata
(``oracles.canonical_permutation_pairs``, start 0) and every final set of
2 to n - 1 states. Fewer than two finals give asc <= 1, and n finals accept
every word. The census reads each asc pair with the probe's byte kernel,
``_mask_asc_pair``; every automaton here is accessible, so its reachable
finals are its finals. A tier-1 test checks that kernel against
``reversal_certificate`` on every final set up to five states, and
``tests/test_spectrum.py`` does on probe draws of six to eight states.

Run as a script, ``python tests/test_exhaustive.py N`` prints the census for
N states: the pair count, the count with asc >= 2, the count with reverse
asc 1, and the ``(asc, asc_reverse)`` histogram.
"""

import sys
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest

from permrev.dfa import Dfa
from permrev.minimize import asc
from permrev.reversal import _mask_asc_pair, reversal_certificate, reverse_dfa

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


def census_lines(n):
    pairs, histogram = census(n)
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
