"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line when it succeeds (visible with -s or
-rA); a failing criterion fails its test outright.
"""

import math
import random
import time

from permrev.dfa import is_permutation_automaton
from permrev.cli import main
from permrev.minimize import are_equivalent, minimize
from permrev.perms import cycle_perm, orbit, perm_from_word, synthesize_word, transposition_perm
from permrev.reversal import reverse_dfa
from permrev.spectrum import (
    DEFAULT_SEED,
    magic_one_probe,
    random_pfa,
    spectrum_point,
    trivial_rows,
)
from permrev.witness import build_witness

from oracles import (
    enumerate_binary_dfas,
    minimize_counts_by_marking,
    random_dfa,
    reverse_by_word_formula,
)

GOLDEN_STARS = [
    "  S(123) = {1234,1235,1236}",
    "  S(124) = {1234,1245,1246}",
    "  S(134) = {1234,1345,1346}",
    "  S(234) = {1234,2345,2346}",
]


def _report(capsys, number: int, text: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_worked_example_golden(capsys):
    started = time.perf_counter()
    code = main(["verify", "3", "4"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert code == 0
    assert "forward: states=15 finals=3 minimal=yes" in out
    assert "reverse: states=20 finals=4 minimal=yes stars=yes" in out
    assert "asc: forward=3 reverse=4" in out
    lines = out.splitlines()
    star_lines = [l for l in lines if l.startswith("  S(")]
    assert star_lines == GOLDEN_STARS
    assert "result: PASS" in out
    assert elapsed < 1.0
    _report(capsys, 1, f"verify 3 4 matches the worked example in {elapsed:.3f}s")


def test_criterion_2_theorem_grid(capsys):
    started = time.perf_counter()
    for m in range(2, 6):
        for alpha in range(2, 6):
            n = m + alpha - 1
            assert math.comb(n, alpha) <= 3003
            assert spectrum_point(m, alpha) == (m, alpha)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(capsys, 2, f"asc pairs exact on the 2..5 x 2..5 grid in {elapsed:.2f}s")


def test_criterion_3_trivial_rows(capsys):
    rows = trivial_rows()
    assert [(r.asc_forward, r.asc_reverse) for r in rows] == [(0, 0), (1, 1)]
    assert all(r.verdict == "pass" for r in rows)
    _report(capsys, 3, "empty language gives (0,0), all-final one-state gives (1,1)")


def test_criterion_4_reversal_lemma_suite(capsys):
    rng = random.Random(20250607)
    failures = 0
    for _ in range(200):
        dfa = random_dfa(rng, max_states=5)
        if not are_equivalent(reverse_dfa(dfa), reverse_by_word_formula(dfa)):
            failures += 1
    assert failures == 0
    closure_failures = 0
    for _ in range(200):
        pfa = random_pfa(rng, rng.randint(1, 6))
        if not is_permutation_automaton(reverse_dfa(pfa)):
            closure_failures += 1
    assert closure_failures == 0
    _report(capsys, 4, "200 reversals match the word-formula automaton, "
               "200 permutation reversals stay permutation automata")


def test_criterion_5_minimizer_oracle_agreement(capsys):
    corpus = []
    rng = random.Random(424242)
    corpus.extend(random_dfa(rng, max_states=5) for _ in range(200))
    for m in range(2, 6):
        for alpha in range(2, 6):
            fwd = build_witness(m, alpha)
            corpus.append(fwd)
            corpus.append(reverse_dfa(fwd))
    disagreements = 0
    for dfa in corpus:
        small = minimize(dfa)
        if minimize_counts_by_marking(dfa) != (small.num_states, len(small.finals)):
            disagreements += 1
    assert disagreements == 0

    # exhaustive micro-oracle: over every binary DFA on <= 3 states, asc
    # equals the minimum final count among all enumerated equivalent DFAs
    by_language: dict[tuple, list[int]] = {}
    for dfa in enumerate_binary_dfas(3):
        small = minimize(dfa)
        key = (small.num_states, small.columns, tuple(sorted(small.finals)))
        record = by_language.setdefault(key, [len(small.finals), len(dfa.finals)])
        assert record[0] == len(small.finals)
        record[1] = min(record[1], len(dfa.finals))
    for asc_value, brute_minimum in by_language.values():
        assert asc_value == brute_minimum
    _report(capsys, 5, f"minimizers agree on {len(corpus)} automata; asc equals the "
               f"brute-force minimum over {len(by_language)} micro languages")


def test_criterion_6_magic_one_probe(capsys):
    started = time.perf_counter()
    report = magic_one_probe(6, 1000, seed=DEFAULT_SEED, count_checked_only=True)
    elapsed = time.perf_counter() - started
    assert report.checked == 1000
    assert report.counterexamples == ()
    assert elapsed < 60.0
    _report(capsys, 6, f"1000 permutation automata with asc >= 2, no reverse asc 1, "
               f"in {elapsed:.2f}s")


def test_criterion_7_group_action_suite(capsys):
    for n in range(2, 9):
        generators = [cycle_perm(n), transposition_perm(n)]
        for k in range(1, n):
            assert len(orbit(generators, tuple(range(k)))) == math.comb(n, k)
    rng = random.Random(777)
    for n in range(2, 7):
        generators = [cycle_perm(n), transposition_perm(n)]
        for _ in range(100):
            target = list(range(n))
            rng.shuffle(target)
            target = tuple(target)
            word = synthesize_word(generators, target)
            assert perm_from_word(generators, word) == target
    _report(capsys, 7, "orbit sizes are binomial for n <= 8; 500 synthesized words "
               "recompose to their targets")
