import random
import sys
from collections import Counter

import pytest
from hypothesis import given

from permrev import dfa as dfa_module
from permrev import reversal, spectrum
from permrev.dfa import Dfa, is_permutation_automaton, reachable_states
from permrev.minimize import asc
from permrev.records import replace
from permrev.reversal import (
    MASK_STATES, _mask_asc_pair, certify_reversal, reversal_certificate, reverse_dfa
)
from permrev.spectrum import (
    DEFAULT_SEED,
    asc_pair,
    magic_one_probe,
    random_pfa,
    spectrum_point,
    spectrum_table,
    trivial_rows,
)
from permrev.witness import build_witness, verify_witness

from conftest import permutation_automata, pfas
from oracles import draw_by_stdlib, probe_by_stdlib


@pytest.mark.parametrize("call", [
    lambda: verify_witness(3.0, 4),
    lambda: verify_witness(3, True),
    lambda: build_witness(3, 4.0),
    lambda: spectrum_table("5", 5),
    lambda: spectrum_table(5, 5.0),
    lambda: magic_one_probe(3, 5.5),
    lambda: magic_one_probe(True, 3),
    lambda: magic_one_probe(3.0, 5),
    lambda: magic_one_probe(3, True),
    lambda: build_witness(2, 2, state_cap=True),
    lambda: build_witness(2, 2, state_cap=0),
    lambda: verify_witness(3, 3, state_cap=None),
    lambda: spectrum_table(1, 1, state_cap="x"),
], ids=["verify-float-m", "verify-bool-alpha", "build-float-alpha",
        "table-str-m_max", "table-float-alpha_max", "probe-float-samples",
        "probe-bool-n_max", "probe-float-n_max", "probe-bool-samples",
        "build-bool-cap", "build-zero-cap", "verify-none-cap", "table-str-cap"])
def test_witness_sizes_must_be_ints(call):
    with pytest.raises(ValueError, match="must be an int"):
        call()


def test_asc_pair_rejects_non_permutation_input():
    non_pfa = Dfa(2, 2, ((0, 0), (0, 1)), 0, frozenset({1}))
    assert not is_permutation_automaton(non_pfa)
    with pytest.raises(ValueError) as info:
        asc_pair(non_pfa)
    assert str(info.value) == "expected a permutation automaton"


def test_spectrum_points():
    assert spectrum_point(3, 4) == (3, 4)
    assert spectrum_point(2, 2) == (2, 2)
    assert spectrum_point(2, 5) == (2, 5)


def test_trivial_rows_match_case_table():
    rows = trivial_rows()
    assert [(r.m, r.asc_forward, r.asc_reverse, r.verdict) for r in rows] == [
        (0, 0, 0, "pass"),
        (1, 1, 1, "pass"),
    ]


def test_reversal_involution_on_asc():
    rng = random.Random(99)
    for _ in range(20):
        pfa = random_pfa(rng, rng.randint(1, 5))
        assert asc(reverse_dfa(reverse_dfa(pfa))) == asc(pfa)


# ---------------------------------------------------------------------
# random generation
# ---------------------------------------------------------------------

def test_random_pfa_is_seeded_and_permutation():
    a = random_pfa(random.Random(4), 6)
    b = random_pfa(random.Random(4), 6)
    assert a == b
    assert is_permutation_automaton(a)


def test_random_pfa_consumes_the_rng_as_pinned():
    # the exact automaton pins how many values each part of a draw takes
    assert random_pfa(random.Random(4), 6) == Dfa(
        6, 2, ((3, 5, 4, 0, 2, 1), (4, 2, 5, 0, 1, 3)), 3,
        frozenset({1, 3, 5}),
    )


def test_draw_equals_the_stdlib_draw():
    # sizes past MASK_STATES too: random_pfa takes any size
    for seed in range(100):
        for n in range(1, 13):
            for k in range(1, 4):
                rng, reference = random.Random(seed), random.Random(seed)
                assert spectrum._draw(rng, n, k) == draw_by_stdlib(reference, n, k)
                assert rng.getstate() == reference.getstate(), (seed, n, k)


@pytest.mark.parametrize("n_max", range(1, MASK_STATES + 1))
@pytest.mark.parametrize("seed", [3, DEFAULT_SEED])
def test_probe_equals_the_stdlib_probe(n_max, seed):
    report = magic_one_probe(n_max, 300, seed)
    assert (report.drawn, report.checked, report.histogram) == probe_by_stdlib(
        n_max, 300, seed
    )
    if n_max >= 3:
        report = magic_one_probe(n_max, 100, seed, count_checked_only=True)
        assert (report.drawn, report.checked, report.histogram) == probe_by_stdlib(
            n_max, 100, seed, count_checked_only=True
        )


def test_random_pfa_takes_a_size_past_the_byte_kernel():
    pfa = random_pfa(random.Random(0), 40)
    assert pfa.num_states == 40
    assert is_permutation_automaton(pfa)


def test_mask_kernel_matches_the_certificate_at_the_probe_sizes():
    # orbits of up to C(8, 4) = 70 masks, on draws of 6 to 8 states with
    # any finals, inaccessible ones included, cut to their reachable finals
    rng = random.Random(31)
    inaccessible = 0
    reverse_values = set()
    for _ in range(1000):
        n = rng.randint(6, 8)
        columns, start, finals = spectrum._draw(rng, n, 2)
        dfa = Dfa(n, 2, columns, start, finals)
        reach = reachable_states(dfa)
        inaccessible += len(reach) < n
        certificate = reversal_certificate(dfa)
        pair = (certificate.asc_forward, certificate.asc_reverse)
        assert _mask_asc_pair(columns, start, finals.intersection(reach)) == pair
        reverse_values.add(certificate.asc_reverse)
    assert inaccessible >= 100
    # a reverse asc above 10 needs an orbit above C(5, 2) = 10 masks
    assert max(reverse_values) > 10


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rng", [None, 4, random])
def test_random_pfa_requires_a_random_instance(rng):
    with pytest.raises(ValueError) as info:
        random_pfa(rng, 3)
    assert str(info.value) == f"rng must be a random.Random (got {type(rng).__name__})"


def test_random_pfa_validates_size():
    with pytest.raises(ValueError):
        random_pfa(random.Random(0), 0)
    # a float size used to raise TypeError
    with pytest.raises(ValueError) as info:
        random_pfa(random.Random(0), 2.5)
    assert str(info.value) == "num_states must be an int >= 1 (got 2.5)"


# ---------------------------------------------------------------------
# magic-value probe
# ---------------------------------------------------------------------

def test_probe_finds_nothing_on_small_sample():
    report = magic_one_probe(4, 1000, seed=1)
    assert report.drawn == 1000
    assert report.checked <= 1000
    assert report.counterexamples == ()
    assert report.passed


def test_probe_is_vacuous_on_one_state():
    report = magic_one_probe(1, 10, seed=3)
    assert report.checked == 0
    assert report.passed


def test_probe_can_count_checked_samples():
    report = magic_one_probe(4, 25, seed=2, count_checked_only=True)
    assert report.checked == 25
    assert report.drawn >= 25


def test_probe_histogram_golden():
    report = magic_one_probe(6, 2000, seed=1009)
    assert report.checked == 774
    assert sum(count for _, count in report.histogram) == report.checked
    assert list(report.histogram) == sorted(report.histogram)
    reverse_values = Counter()
    for (_, reverse), count in report.histogram:
        reverse_values[reverse] += count
    assert reverse_values == {
        2: 161, 3: 189, 4: 130, 5: 71, 6: 95, 8: 3, 9: 5, 10: 120,
    }
    ones = sum(count for (_, reverse), count in report.histogram if reverse == 1)
    assert ones == len(report.counterexamples)


def test_probe_golden_counts_every_draw():
    # Draws with fewer than two finals are skipped before reversal; the
    # sampling stream, counts and histogram must not notice.
    report = magic_one_probe(8, 1000, seed=7)
    assert (report.drawn, report.checked) == (1000, 530)
    assert report.counterexamples == ()
    assert report.histogram == (
        ((2, 2), 56), ((2, 3), 32), ((2, 4), 37), ((2, 5), 26), ((2, 6), 12),
        ((2, 7), 17), ((3, 3), 36), ((3, 4), 1), ((3, 5), 1), ((3, 6), 37),
        ((3, 9), 3), ((3, 10), 42), ((3, 12), 1), ((3, 15), 26), ((3, 18), 1),
        ((3, 21), 22), ((4, 4), 25), ((4, 6), 4), ((4, 8), 2), ((4, 10), 18),
        ((4, 20), 22), ((4, 35), 41), ((5, 5), 12), ((5, 15), 18), ((5, 30), 1),
        ((5, 35), 20), ((6, 6), 5), ((6, 21), 7), ((7, 7), 5),
    )


def test_benchmark_probe_job_is_pinned():
    # the probe job of perfbench/workloads.py, at its default seed
    report = magic_one_probe(8, 2000, 1009, count_checked_only=True)
    assert (report.drawn, report.checked) == (3899, 2000)
    assert report.counterexamples == ()
    assert report.histogram == (
        ((2, 2), 203), ((2, 3), 126), ((2, 4), 171), ((2, 5), 99), ((2, 6), 80),
        ((2, 7), 45), ((3, 2), 1), ((3, 3), 116), ((3, 4), 1), ((3, 5), 4),
        ((3, 6), 117), ((3, 9), 15), ((3, 10), 112), ((3, 12), 2), ((3, 15), 119),
        ((3, 18), 1), ((3, 21), 92), ((4, 4), 76), ((4, 6), 4), ((4, 7), 1),
        ((4, 8), 7), ((4, 10), 88), ((4, 16), 4), ((4, 20), 118), ((4, 21), 1),
        ((4, 28), 2), ((4, 35), 106), ((5, 5), 38), ((5, 15), 66), ((5, 20), 1),
        ((5, 30), 3), ((5, 35), 91), ((6, 6), 22), ((6, 21), 49), ((7, 7), 19),
    )


@given(permutation_automata())
def test_asc_never_exceeds_final_count(dfa):
    # the premise of the probe's skip, inaccessible automata included
    certificate = certify_reversal(dfa)[2]
    assert certificate.asc_forward <= len(dfa.finals)


@given(pfas())
def test_asc_pair_below_two_without_two_finals(pfa):
    forward, _ = asc_pair(pfa)
    assert forward < 2 or len(pfa.finals) >= 2


@given(pfas())
def test_asc_pair_below_two_without_two_reachable_finals_and_a_non_final(pfa):
    # the premise of the probe's second skip: asc counts the classes of the
    # reachable finals, and an all-final reachable part accepts every word
    reach = reachable_states(pfa)
    finals = [q for q in reach if q in pfa.finals]
    if len(finals) < 2 or len(finals) == len(reach):
        assert asc_pair(pfa)[0] < 2


def test_probe_validates_arguments():
    with pytest.raises(ValueError):
        magic_one_probe(9, 10)
    with pytest.raises(ValueError):
        magic_one_probe(3, -1)
    with pytest.raises(ValueError):
        magic_one_probe(1, 10, count_checked_only=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [[1], True, 1.0, "7", None])
def test_probe_seed_must_be_an_int(seed):
    with pytest.raises(ValueError) as info:
        magic_one_probe(3, 2, seed=seed)
    assert str(info.value) == f"seed must be an int (got {seed!r})"


@pytest.mark.parametrize("seed", [0, -5, 2**70])
def test_probe_accepts_every_int_seed(seed):
    assert magic_one_probe(3, 2, seed=seed).seed == seed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pfa", [None, "dfa 1 1", ((0,),)], ids=["none", "str", "table"])
def test_asc_pair_requires_a_dfa(pfa):
    with pytest.raises(ValueError) as info:
        asc_pair(pfa)
    assert str(info.value) == f"expected a Dfa (got {type(pfa).__name__})"


def test_probe_rejects_asc2_count_on_two_states():
    # no automaton on at most 2 states has asc >= 2, so this would never end
    with pytest.raises(ValueError):
        magic_one_probe(2, 1, count_checked_only=True)


def test_known_witness_confirms_probe_expectation():
    # a fixed permutation automaton with asc 2 reverses to asc 2, not 1
    assert asc_pair(build_witness(2, 2)) == (2, 2)


# ---------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------

def test_small_grid_passes():
    report = spectrum_table(3, 3)
    assert report.passed
    assert [(r.m, r.alpha) for r in report.rows] == [
        (0, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3),
    ]
    assert all(r.verdict == "pass" for r in report.rows)
    assert report.notes


def test_full_grid_passes():
    report = spectrum_table(5, 5)
    assert report.passed
    grid_rows = [r for r in report.rows if r.m >= 2]
    assert len(grid_rows) == 16
    assert all(r.verdict == "pass" for r in grid_rows)
    assert all((r.asc_forward, r.asc_reverse) == (r.m, r.alpha) for r in grid_rows)


def test_grid_2_to_8_reads_m_alpha():
    report = spectrum_table(8, 8)
    assert report.passed
    assert [(r.m, r.alpha) for r in report.rows[2:]] == [
        (m, alpha) for m in range(2, 9) for alpha in range(2, 9)
    ]
    assert all(
        (r.asc_forward, r.asc_reverse, r.verdict) == (r.m, r.alpha, "pass")
        for r in report.rows
    )


def test_capacity_rows_are_skipped_not_failed():
    report = spectrum_table(4, 4, state_cap=20)
    skipped = {(r.m, r.alpha) for r in report.rows if r.verdict == "skipped"}
    assert (4, 4) in skipped  # comb(7, 4) = 35 > 20
    assert report.passed
    assert all(r.verdict in ("pass", "skipped") for r in report.rows)


@pytest.mark.parametrize("alpha_max", [1, -5])
def test_empty_grid_walks_no_m(alpha_max):
    # no witness cell, so a huge m_max passes the cell cap and must not be
    # walked row by row
    report = spectrum_table(10**12, alpha_max)
    assert report.rows == trivial_rows()
    assert report.passed


def test_probe_report_travels_with_table():
    probe = magic_one_probe(3, 20, seed=DEFAULT_SEED)
    report = replace(spectrum_table(2, 2), magic_probe=probe)
    assert report.magic_probe is probe
    assert report.passed


# ---------------------------------------------------------------------
# call structure: one exploration per automaton, no minimization
# ---------------------------------------------------------------------

def count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(spectrum, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(spectrum, name, counted(name))
    return calls


def forbid_full_reversal(monkeypatch):
    """Count the calls that build a reverse Dfa: ``certify_reversal`` and
    the construction, looked up on the reversal module."""
    calls = {"certify_reversal": 0, "reverse_construction": 0}

    def counted(name):
        original = getattr(reversal, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(reversal, name, counted(name))
    return calls


def test_grid_explores_each_automaton_once_and_never_minimizes(monkeypatch):
    names = ("_witness_core", "build_witness", "reversal_certificate", "reverse_dfa", "asc")
    calls = count_calls(monkeypatch, names)
    full = forbid_full_reversal(monkeypatch)
    assert spectrum_table(3, 3).passed
    # four unlabeled witnesses plus the two one-state automata of the trivial rows
    assert calls == {
        "_witness_core": 4, "build_witness": 0, "reversal_certificate": 6,
        "reverse_dfa": 0, "asc": 0,
    }
    assert full == {"certify_reversal": 0, "reverse_construction": 0}
    assert not hasattr(spectrum, "certify_reversal")


def record_draws(monkeypatch):
    draws = []
    original = spectrum._draw

    def recorded(*args):
        draws.append(original(*args))
        return draws[-1]

    monkeypatch.setattr(spectrum, "_draw", recorded)
    return draws


def draw_dfa(draw):
    """The Dfa of a recorded draw."""
    columns, start, finals = draw
    return Dfa(len(columns[0]), len(columns), columns, start, finals)


def passes_both_skips(draw):
    finals = draw[2]
    if len(finals) < 2:
        return False
    reach = reachable_states(draw_dfa(draw))
    return 2 <= len(finals.intersection(reach)) < len(reach)


def test_probe_explores_each_draw_once_and_never_minimizes(monkeypatch):
    draws = record_draws(monkeypatch)
    calls = count_calls(
        monkeypatch, ("_mask_asc_pair", "reversal_certificate", "reverse_dfa", "asc")
    )
    full = forbid_full_reversal(monkeypatch)
    report = magic_one_probe(6, 50, count_checked_only=True)
    assert report.checked == 50
    assert len(draws) == report.drawn
    # a draw without two reachable finals and a reachable non-final has
    # asc <= 1 and is never reversed; _draw permutes by construction, so
    # no draw is checked for it, and every draw fits the byte-mask kernel,
    # which takes the probe's reachable finals
    certified = sum(map(passes_both_skips, draws))
    assert calls == {
        "_mask_asc_pair": certified, "reversal_certificate": 0, "reverse_dfa": 0,
        "asc": 0,
    }
    assert not hasattr(spectrum, "is_permutation_automaton")
    assert certified < sum(len(finals) >= 2 for _, _, finals in draws)
    assert full == {"certify_reversal": 0, "reverse_construction": 0}


def test_probe_certifies_each_draw_from_its_own_columns(monkeypatch):
    draws = record_draws(monkeypatch)
    kernel_args = []
    original = spectrum._mask_asc_pair

    def recorded(*args):
        kernel_args.append(args)
        return original(*args)

    monkeypatch.setattr(spectrum, "_mask_asc_pair", recorded)
    magic_one_probe(8, 200, count_checked_only=True)
    # one kernel call per draw that passes both skips, on the very columns
    # and start that _draw returned, with the finals that the Dfa reaches
    certified = [*filter(passes_both_skips, draws)]
    assert len(kernel_args) == len(certified)
    for (columns, start, live), draw in zip(kernel_args, certified):
        assert columns is draw[0] and start == draw[1]
        assert live == draw[2].intersection(reachable_states(draw_dfa(draw)))


def record_built(monkeypatch):
    """The Dfas constructed from here on, in order."""
    built = []
    original = Dfa.__post_init__

    def recorded(self):
        original(self)
        built.append(self)

    monkeypatch.setattr(Dfa, "__post_init__", recorded)
    return built


def test_probe_builds_no_dfa_without_a_counterexample(monkeypatch):
    draws = record_draws(monkeypatch)
    built = record_built(monkeypatch)
    report = magic_one_probe(8, 200, count_checked_only=True)
    assert len(draws) == report.drawn
    assert report.counterexamples == ()
    # the draws stay as columns: no forward Dfa and no reverse automaton
    assert built == []


def test_probe_searches_each_draw_with_two_finals_once_for_reachable_states(
    monkeypatch,
):
    draws = record_draws(monkeypatch)
    searched = []
    original = dfa_module._reachable

    def counted(columns, start):
        searched.append((columns, start))
        return original(columns, start)

    for name, module in [*sys.modules.items()]:
        if name.startswith("permrev") and getattr(
            module, "_reachable", None
        ) is original:
            monkeypatch.setattr(module, "_reachable", counted)
    report = magic_one_probe(8, 200, count_checked_only=True)
    assert report.checked == 200
    # the probe's own skip and the kernel share one search per draw with
    # two finals, on the draw's own columns
    two_finals = [draw for draw in draws if len(draw[2]) >= 2]
    assert len(searched) == len(two_finals)
    for (columns, start), draw in zip(searched, two_finals):
        assert columns is draw[0] and start == draw[1]


def fake_one_counterexample(monkeypatch, which):
    """Make the kernel report reverse asc 1 for the ``which``-th certified
    draw with asc >= 2; return the arguments and forward asc of that call."""
    faked = []
    certified = []
    original = spectrum._mask_asc_pair

    def kernel(*args):
        forward, reverse = original(*args)
        if forward >= 2:
            certified.append(args)
            if len(certified) == which:
                faked.append((args, forward))
                return forward, 1
        return forward, reverse

    monkeypatch.setattr(spectrum, "_mask_asc_pair", kernel)
    return faked


def test_probe_records_a_counterexample_as_its_dfa(monkeypatch):
    draws = record_draws(monkeypatch)
    faked = fake_one_counterexample(monkeypatch, which=7)
    built = record_built(monkeypatch)
    report = magic_one_probe(8, 200, seed=DEFAULT_SEED, count_checked_only=True)
    ((args, forward),) = faked
    ((columns, start, finals),) = [draw for draw in draws if draw[0] is args[0]]
    assert len(report.counterexamples) == 1
    (dfa, hit_forward, hit_reverse) = report.counterexamples[0]
    assert (hit_forward, hit_reverse) == (forward, 1)
    # the one Dfa of the run, validated by its constructor
    assert built == [dfa]
    assert dfa == draw_dfa((columns, start, finals))
    assert is_permutation_automaton(dfa)
    assert asc(dfa) == forward
    assert dict(report.histogram)[forward, 1] == 1
    assert report.checked == 200
    assert not report.passed
    assert not replace(spectrum_table(2, 2), magic_probe=report).passed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_draws_are_permutation_automata(k):
    # the probe builds no Dfa for a draw, so its validity is checked here
    for n in range(1, MASK_STATES + 1):
        for seed in range(150):
            columns, start, finals = spectrum._draw(random.Random(seed), n, k)
            assert len(columns) == k
            assert all(sorted(column) == [*range(n)] for column in columns)
            assert type(start) is int and 0 <= start < n
            assert type(finals) is frozenset and finals <= set(range(n))
            dfa = Dfa(n, k, columns, start, finals)
            assert is_permutation_automaton(dfa)
