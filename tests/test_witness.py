import math
from itertools import combinations

import pytest

from permrev import reversal, witness
from permrev.dfa import Dfa, is_permutation_automaton
from permrev.errors import CapacityError
from permrev.reversal import reverse_construction
from permrev.witness import (
    WitnessParams,
    build_witness,
    classify_reverse_states,
    star_label,
    star_members,
    subset_label,
    verify_witness,
)

from oracles import (
    all_pairs_distinguishable,
    star_centers_by_enumeration,
    witness_by_itertools,
    witness_checks_by_oracle,
)


def labels_of(dfa, states):
    return sorted(dfa.label(q) for q in states)


def test_params_derivations():
    params = WitnessParams(3, 4)
    assert params.n == 6
    assert params.q_init == (0, 1, 2, 3)


def test_params_validation():
    with pytest.raises(ValueError):
        WitnessParams(1, 4)
    with pytest.raises(ValueError):
        WitnessParams(2, 1)


def test_subset_and_star_labels():
    assert subset_label((0, 1, 2, 3)) == "1234"
    assert star_label((0, 1, 2)) == "S(123)"
    # points beyond one digit switch to a separated rendering
    assert subset_label((0, 1, 9)) == "1.2.10"


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------

def test_witness_3_4_layout(witness_3_4):
    assert witness_3_4.num_states == 15
    assert witness_3_4.alphabet_size == 2
    assert witness_3_4.label(witness_3_4.start) == "1234"
    assert labels_of(witness_3_4, witness_3_4.finals) == ["1234", "1235", "1236"]
    assert is_permutation_automaton(witness_3_4)


def test_witness_2_2_layout():
    dfa = build_witness(2, 2)
    assert dfa.num_states == 3
    assert dfa.labels == ("12", "13", "23")
    assert dfa.label(dfa.start) == "12"
    assert labels_of(dfa, dfa.finals) == ["12", "13"]


def test_witness_5_2_final_count():
    dfa = build_witness(5, 2)
    assert dfa.num_states == math.comb(6, 2) == 15
    assert len(dfa.finals) == 5


def test_witness_matches_itertools_oracle():
    # The 2..6 grid, where n reaches 11 and (6, 5) is the first cell with
    # dotted labels. Then n = 12 at (9, 4), n = 13 with every label dotted
    # (alpha = 12) or all but the first C(9, 2) (alpha = 2), and n = 19.
    cells = [(m, alpha) for m in range(2, 7) for alpha in range(2, 7)]
    cells += [(9, 4), (2, 12), (12, 2), (10, 10)]
    for m, alpha in cells:
        dfa = build_witness(m, alpha, state_cap=100_000)
        oracle = witness_by_itertools(m, alpha)
        assert (dfa.columns, dfa.finals, dfa.start, dfa.labels) == (
            oracle.columns, oracle.finals, oracle.start, oracle.labels
        ), (m, alpha)
    assert dfa.labels[0] == "1.2.3.4.5.6.7.8.9.10"
    assert dfa.labels[-1] == "10.11.12.13.14.15.16.17.18.19"


def test_colex_masks_match_combinations():
    for n in range(13):
        for k in range(n + 1):
            masks = sorted(sum(1 << i for i in x) for x in combinations(range(n), k))
            assert witness._colex_masks(n, k) == masks, (n, k)


def test_witness_rejects_bad_params():
    with pytest.raises(ValueError):
        build_witness(1, 4)
    with pytest.raises(ValueError):
        build_witness(4, 1)


def test_witness_respects_state_cap():
    with pytest.raises(CapacityError) as info:
        build_witness(5, 5, state_cap=10)
    assert info.value.stage == "build_witness"
    assert info.value.count == math.comb(9, 5)
    # C(19999, 10000) has more digits than str(int) accepts by default
    with pytest.raises(CapacityError, match=r"C\(19999, 10000\)") as info:
        build_witness(10000, 10000)
    assert info.value.count == math.comb(19999, 10000)


@pytest.mark.parametrize("m,alpha", [(2**64, 2**64), (10**6, 10**6), (10**19, 10**19)])
def test_witness_cap_refuses_a_huge_count_without_computing_it(m, alpha):
    # math.comb takes tens of seconds on the second count and raises
    # OverflowError on the others; no count is computed
    with pytest.raises(CapacityError) as info:
        build_witness(m, alpha)
    assert (info.value.stage, info.value.count) == ("build_witness", None)
    assert str(info.value) == (
        f"witness for (m={m}, alpha={alpha}) needs C({m + alpha - 1}, {alpha})"
        " states, more than the cap of 10000"
    )


@pytest.mark.parametrize("m,alpha", [(2, 2), (3, 4), (5, 5), (8, 7), (20, 2), (2, 20)])
def test_witness_cap_admits_exactly_its_count(m, alpha):
    total = math.comb(m + alpha - 1, alpha)
    assert build_witness(m, alpha, state_cap=total).num_states == total
    with pytest.raises(CapacityError) as info:
        build_witness(m, alpha, state_cap=total - 1)
    assert info.value.count == total


# ---------------------------------------------------------------------
# stars
# ---------------------------------------------------------------------

def test_star_members_worked_examples():
    params = WitnessParams(3, 4)
    assert [subset_label(x) for x in star_members(params, (0, 1, 2)).members] == [
        "1234", "1235", "1236",
    ]
    assert [subset_label(x) for x in star_members(params, (1, 2, 3)).members] == [
        "1234", "2345", "2346",
    ]
    small = WitnessParams(2, 2)
    assert [subset_label(x) for x in star_members(small, (2,)).members] == ["13", "23"]


def test_star_center_size_checked():
    with pytest.raises(ValueError):
        star_members(WitnessParams(3, 4), (0, 1))
    # three points, but only two distinct ones
    with pytest.raises(ValueError, match="repeated"):
        star_members(WitnessParams(3, 4), (0, 0, 1))


@pytest.mark.filterwarnings("error")
def test_star_center_of_non_ints_rejected():
    with pytest.raises(ValueError) as info:
        star_members(WitnessParams(3, 4), "abc")
    assert str(info.value) == "center must be a sequence of ints (got 'abc')"


@pytest.mark.filterwarnings("error")
def test_subset_label_rejects_a_non_subset():
    with pytest.raises(ValueError) as info:
        subset_label(None)
    assert str(info.value) == "subset must be a sequence of ints (got None)"


@pytest.mark.parametrize("label", [subset_label, star_label])
@pytest.mark.parametrize("points", [(-5, 3), (-1,), (1, 1), (2, 1), (0, 3, 2)])
def test_labels_refuse_negative_repeated_or_unsorted_points(label, points):
    # such points used to give '-44', '22' or '32': no subset's label, or
    # another subset's
    with pytest.raises(ValueError) as info:
        label(points)
    assert str(info.value) == (
        f"subset {points} must list points >= 0 in increasing order"
    )


def test_labels_of_the_edge_subsets():
    assert subset_label(()) == ""
    assert star_label((0,)) == "S(1)"
    assert subset_label([8, 9]) == "9.10"


def test_star_always_has_m_members():
    for m, alpha in [(2, 2), (3, 4), (4, 3), (5, 2)]:
        params = WitnessParams(m, alpha)
        for center in combinations(range(params.n), alpha - 1):
            assert len(star_members(params, center).members) == m


def test_stars_pairwise_distinct():
    for m, alpha in [(2, 2), (3, 4), (4, 3)]:
        params = WitnessParams(m, alpha)
        seen = {}
        for center in combinations(range(params.n), alpha - 1):
            members = star_members(params, center).members
            assert members not in seen.values()
            seen[center] = members


# ---------------------------------------------------------------------
# classification of the reverse reachable part
# ---------------------------------------------------------------------

def _mask(center):
    """The n-bit point mask of a center tuple, as classify stores it."""
    return sum(1 << p for p in center)


def _masks(centers):
    return [None if c is None else _mask(c) for c in centers]


def test_classification_of_worked_example(witness_3_4):
    params = WitnessParams(3, 4)
    rev, subsets = reverse_construction(witness_3_4)
    cls = classify_reverse_states(params, rev, subsets)
    assert cls.all_stars
    assert cls.covers_all_centers
    assert cls.letter_law_holds
    assert len(set(cls.centers)) == math.comb(6, 3) == 20
    # the a-successor of the start star S(123) is S(126)
    assert cls.centers[rev.columns[0][0]] == _mask((0, 1, 5))
    assert cls.accepting_centers == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def test_classification_flags_a_non_star_state(witness_3_4):
    params = WitnessParams(3, 4)
    rev, subsets = reverse_construction(witness_3_4)
    before = classify_reverse_states(params, rev, subsets)
    # two stars of 3 members share at most one, so their union is no star
    union = tuple(sorted(set(subsets[0]) | set(subsets[1])))
    j = 5
    changed = subsets[:j] + [union] + subsets[j + 1:]
    after = classify_reverse_states(params, rev, changed)
    assert after.centers[j] is None
    assert not after.all_stars
    assert not after.ok
    assert [c for i, c in enumerate(after.centers) if i != j] == [
        c for i, c in enumerate(before.centers) if i != j
    ]


def test_classification_counts_the_centers(witness_3_4):
    # 19 of the 20 stars, on a 19-state automaton: each is a star, but one
    # center is missing
    rev, subsets = reverse_construction(witness_3_4)
    part = Dfa(19, 2, (tuple(range(19)),) * 2, 0, frozenset())
    cls = classify_reverse_states(WitnessParams(3, 4), part, subsets[:19])
    assert cls.all_stars
    assert not cls.covers_all_centers
    assert not cls.ok


def test_classification_smallest_witness():
    params = WitnessParams(2, 2)
    fwd = build_witness(2, 2)
    cls = classify_reverse_states(params, *reverse_construction(fwd))
    assert cls.ok
    assert sorted(cls.centers) == [_mask((0,)), _mask((1,)), _mask((2,))]


def test_classification_rejects_foreign_automata(witness_3_4):
    params = WitnessParams(3, 4)
    _, subsets = reverse_construction(witness_3_4)
    # a 15-state automaton against the 20 subsets of the reverse witness
    with pytest.raises(ValueError):
        classify_reverse_states(params, witness_3_4, subsets)
    # the (4, 3) construction has 20 witness states; (3, 4) has 15
    with pytest.raises(ValueError):
        classify_reverse_states(params, *reverse_construction(build_witness(4, 3)))
    # right state count, but a member at or above C(6, 4) = 15
    rev, subsets = reverse_construction(witness_3_4)
    for bad in ((0, 1, 15), (16,)):
        with pytest.raises(ValueError):
            classify_reverse_states(params, rev, [bad] + subsets[1:])
    # right state count and subsets, but a one-letter automaton
    unary = Dfa(20, 1, (tuple(range(20)),), 0, frozenset())
    with pytest.raises(ValueError):
        classify_reverse_states(params, unary, subsets)
    # right count, but one subset twice
    with pytest.raises(ValueError, match="do not match"):
        classify_reverse_states(params, rev, subsets[:-1] + subsets[:1])
    # a repeated, an unsorted or a negative member; intersecting the point
    # sets without checking the subset would call each the star (0, 1, 5)
    for bad in ((5, 5, 6), (6, 5, 9), (-10, 6, 9)):
        with pytest.raises(ValueError, match="does not fit"):
            classify_reverse_states(params, rev, [bad] + subsets[1:])


def _perturbed(subsets, total):
    """Lists that differ from ``subsets`` in one strictly increasing subset:
    a member dropped, a member replaced by another state, or the union of
    two neighbouring subsets."""
    seen = set(subsets)
    for j in range(0, len(subsets), max(1, len(subsets) // 4)):
        s, t = subsets[j], subsets[(j + 1) % len(subsets)]
        outside = next(q for q in range(total) if q not in s)
        for changed in (
            s[1:],
            tuple(sorted(s[:-1] + (outside,))),
            tuple(sorted(set(s) | set(t))),
        ):
            if changed not in seen:
                yield subsets[:j] + [changed] + subsets[j + 1:]


def test_classification_matches_star_oracle():
    perturbed = 0
    # (2, 12) and (12, 2) are the popcount edges: 11-bit and 1-bit centers.
    grid = [(m, alpha) for m in range(2, 6) for alpha in range(2, 6)]
    for m, alpha in grid + [(2, 12), (12, 2)]:
        params = WitnessParams(m, alpha)
        n, total = params.n, math.comb(params.n, alpha)
        rev, subsets = reverse_construction(build_witness(m, alpha))
        cls = classify_reverse_states(params, rev, subsets)
        expected = _masks(star_centers_by_enumeration(n, alpha, subsets))
        assert list(cls.centers) == expected
        assert cls.all_stars
        # every star is in the list, so a changed subset is no star
        for case in _perturbed(subsets, total):
            cls = classify_reverse_states(params, rev, case)
            assert list(cls.centers) == _masks(
                star_centers_by_enumeration(n, alpha, case)
            ), (m, alpha)
            assert cls.centers.count(None) == 1
            perturbed += 1
    assert perturbed > 150


def test_classification_builds_no_star_per_center(monkeypatch, witness_3_4):
    def forbidden(*args):
        raise AssertionError("classify must not build stars by center")

    monkeypatch.setattr(witness, "star_members", forbidden)
    monkeypatch.setattr(witness, "colex_rank", forbidden)
    monkeypatch.setattr(witness, "ksubsets", forbidden)
    rev, subsets = reverse_construction(witness_3_4)
    assert classify_reverse_states(WitnessParams(3, 4), rev, subsets).ok


# ---------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------

def test_verify_worked_example():
    report = verify_witness(3, 4)
    assert report.passed
    assert (report.forward_states, report.forward_finals) == (15, 3)
    assert (report.reverse_states, report.reverse_finals) == (20, 4)
    assert (report.asc_forward, report.asc_reverse) == (3, 4)
    assert [star_label(star.center) for star in report.accepting_stars] == [
        "S(123)", "S(124)", "S(134)", "S(234)",
    ]
    assert [subset_label(x) for x in report.accepting_stars[3].members] == [
        "1234", "2345", "2346",
    ]


def test_verify_smallest_witness():
    report = verify_witness(2, 2)
    assert report.passed
    assert (report.forward_states, report.forward_finals) == (3, 2)
    assert (report.reverse_states, report.reverse_finals) == (3, 2)


def test_verify_4_3():
    report = verify_witness(4, 3)
    assert report.passed
    assert (report.forward_states, report.forward_finals) == (20, 4)
    assert (report.reverse_states, report.reverse_finals) == (15, 3)


def test_verify_explores_once_and_never_minimizes(monkeypatch):
    names = ("certify_reversal", "reverse_dfa", "reverse_subsets", "minimize", "asc")
    private = ("_labels", "are_subset_states", "_colex_masks")
    calls = dict.fromkeys(names + ("reverse_construction",) + private, 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(witness, name, counted(witness, name))
    # certify_reversal looks up the construction on its own module
    monkeypatch.setattr(
        reversal, "reverse_construction", counted(reversal, "reverse_construction")
    )
    # verify builds its witness unlabeled, classifies without re-checking,
    # and lists point masks once, for the forward states: centers stay masks
    for name in private:
        monkeypatch.setattr(witness, name, counted(witness, name))
    assert verify_witness(3, 4).passed
    assert calls == {
        "certify_reversal": 1, "reverse_construction": 1, "reverse_dfa": 0,
        "reverse_subsets": 0, "minimize": 0, "asc": 0, "_labels": 0,
        "are_subset_states": 0, "_colex_masks": 1,
    }


def test_verify_passes_on_the_2_to_7_grid():
    failures = [
        (m, alpha)
        for m in range(2, 8)
        for alpha in range(2, 8)
        if not verify_witness(m, alpha).passed
    ]
    assert failures == []


def _mutations(columns, finals):
    """Five broken (3, 4) witnesses as (name, columns, finals), and the
    check of ``verify_witness`` that each should fail first."""
    a, b = columns
    others = sorted(set(range(len(a))) - finals)
    return [
        ("a final swapped for a non-final", (a, b),
         finals - {max(finals)} | {others[0]}, "reverse_states"),
        ("a non-final made final", (a, b), finals | {others[0]}, "forward_finals"),
        ("b the identity", (a, tuple(range(len(a)))), finals, "forward_minimal"),
        ("b equal to a", (a, a), finals, "forward_minimal"),
        ("the letters swapped", (b, a), finals, "stars_match"),
    ]


def test_verify_fails_each_mutated_witness_at_the_oracles_check(monkeypatch):
    oracle = witness_by_itertools(3, 4)
    assert witness_checks_by_oracle(3, 4, oracle) == (None, 3, 4, 20)
    core = witness._witness_core
    for name, columns, finals, first in _mutations(oracle.columns, oracle.finals):

        def mutated(m, alpha, state_cap, columns=columns, finals=finals):
            points = core(m, alpha, state_cap)[2]
            return columns, frozenset(finals), points

        monkeypatch.setattr(witness, "_witness_core", mutated)
        report = verify_witness(3, 4)
        expected = witness_checks_by_oracle(
            3, 4, Dfa(oracle.num_states, 2, columns, 0, finals)
        )
        assert expected[0] == first, name
        assert (
            report.first_failure, report.asc_forward, report.asc_reverse,
            report.reverse_states,
        ) == expected, name
        assert not report.passed


def test_verify_propagates_capacity():
    with pytest.raises(CapacityError):
        verify_witness(5, 5, state_cap=10)


@pytest.mark.parametrize("m,alpha", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_accepting_star_count_is_alpha(m, alpha):
    report = verify_witness(m, alpha)
    assert report.passed
    assert len(report.accepting_stars) == alpha


def test_forward_minimality_certificates():
    # all pairs of states, via the marking oracle
    for m, alpha in [(2, 2), (3, 4), (4, 3), (5, 2), (2, 5)]:
        assert all_pairs_distinguishable(build_witness(m, alpha))
