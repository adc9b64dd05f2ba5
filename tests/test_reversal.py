import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from permrev import reversal
from permrev.dfa import (
    Dfa, accepts, apply_word, is_permutation_automaton, reachable_states
)
from permrev.errors import CapacityError
from permrev.minimize import minimize
from permrev.records import replace
from permrev.reversal import (
    MASK_STATES,
    _mask_asc_pair,
    mask_states,
    reversal_certificate,
    reverse_construction,
    reverse_dfa,
    reverse_step,
    reverse_subsets,
)
from permrev.textio import word_from_str
from permrev.witness import WitnessParams, build_witness, star_members

from conftest import (
    count_calls, dfa_with_word, dfas, mixed_dfas, permutation_automata, pfas
)
from oracles import (
    brute_reachable_subsets,
    colex_subsets,
    minimize_counts_by_marking,
    random_dfa,
    reverse_by_word_formula,
)

SIGMA_STAR = Dfa(1, 2, ((0,), (0,)), 0, frozenset({0}))


def star_subset(params, center):
    """The witness states of a star, numbered by their colex position."""
    number = {x: q for q, x in enumerate(colex_subsets(params.n, params.alpha))}
    return tuple(
        sorted(number[member] for member in star_members(params, center).members)
    )


def reverse_word(fwd, s, word):
    """reverse_step folded over the word, left to right."""
    for c in word:
        s = reverse_step(fwd, s, c)
    return s


def test_mask_roundtrip():
    assert mask_states(0b101001) == [0, 3, 5]
    assert mask_states(0) == []


def test_mask_states_sparse_high_bit():
    assert mask_states(1 | 1 << 5000) == [0, 5000]
    assert mask_states(1 << 5000) == [5000]


def test_mask_states_rejects_negative_mask():
    # -1 >> 1 == -1: a shift or bit walk over a negative int never ends
    with pytest.raises(ValueError):
        mask_states(-1)
    with pytest.raises(ValueError):
        mask_states(-(1 << 40))


def test_preimage_of_empty_is_empty(witness_3_4):
    assert reverse_step(witness_3_4, (), 0) == ()
    assert reverse_step(witness_3_4, (), 1) == ()


def test_single_a_step_on_final_star(witness_3_4):
    params = WitnessParams(3, 4)
    assert reverse_step(witness_3_4, star_subset(params, (0, 1, 2)), 0) == star_subset(
        params, (0, 1, 5)
    )


def test_single_b_step_on_star(witness_3_4):
    params = WitnessParams(3, 4)
    assert reverse_step(witness_3_4, star_subset(params, (1, 2, 3)), 1) == star_subset(
        params, (0, 2, 3)
    )


def test_reverse_step_validates_inputs(witness_3_4):
    # 15 witness states; members must be in range, distinct and ascending
    for bad in ((15,), (0, 15), (-1, 2), (3, 1), (1, 1), 1 << 15, 0, [1, 3]):
        with pytest.raises(ValueError):
            reverse_step(witness_3_4, bad, 0)
    with pytest.raises(ValueError):
        reverse_step(witness_3_4, (1,), 2)


@pytest.mark.filterwarnings("error")
def test_reverse_step_rejects_a_letter_that_is_not_an_int(witness_3_4):
    with pytest.raises(ValueError) as info:
        reverse_step(witness_3_4, (0,), "a")
    assert str(info.value) == "letter 'a' is out of range"


def test_reverse_word_empty_is_identity(witness_3_4):
    # the construction starts from the preimage of the finals under no letter
    start = tuple(sorted(witness_3_4.finals))
    assert reverse_word(witness_3_4, start, ()) == start
    assert reverse_construction(witness_3_4)[1][0] == start


def test_reverse_word_worked_chain(witness_3_4):
    params = WitnessParams(3, 4)
    start = tuple(sorted(witness_3_4.finals))
    assert start == star_subset(params, (0, 1, 2))
    assert reverse_word(witness_3_4, start, word_from_str("aabaaaa")) == star_subset(
        params, (0, 1, 3)
    )
    assert reverse_word(witness_3_4, start, word_from_str("aaaaa")) == star_subset(
        params, (1, 2, 3)
    )


@given(dfa_with_word(), st.data())
def test_reverse_word_matches_direct_formula(dfa_word, data):
    dfa, word = dfa_word
    members = data.draw(st.sets(st.integers(0, dfa.num_states - 1)))
    expected = tuple(
        q
        for q in range(dfa.num_states)
        if apply_word(dfa, q, tuple(reversed(word))) in members
    )
    assert reverse_word(dfa, tuple(sorted(members)), word) == expected


@given(pfas(), st.data())
def test_permutation_steps_preserve_cardinality(pfa, data):
    s = tuple(sorted(data.draw(st.sets(st.integers(0, pfa.num_states - 1)))))
    letter = data.draw(st.integers(0, pfa.alphabet_size - 1))
    assert len(reverse_step(pfa, s, letter)) == len(s)


@given(mixed_dfas(), st.data())
def test_reverse_step_matches_the_preimage_oracle_on_every_letter(dfa, data):
    # one letter permutes the states and the other merges two of them
    assert not is_permutation_automaton(dfa)
    members = data.draw(st.sets(st.integers(0, dfa.num_states - 1)))
    for letter in range(dfa.alphabet_size):
        expected = tuple(
            q for q in range(dfa.num_states) if apply_word(dfa, q, (letter,)) in members
        )
        assert reverse_step(dfa, tuple(sorted(members)), letter) == expected


# ---------------------------------------------------------------------
# reverse_dfa
# ---------------------------------------------------------------------

def test_all_words_language_is_reversal_invariant():
    rev = reverse_dfa(SIGMA_STAR)
    assert rev.num_states == 1
    assert rev.finals == frozenset({0})
    assert rev.columns == ((0,), (0,))


def test_witness_reverse_counts(witness_3_4):
    rev = reverse_dfa(witness_3_4)
    assert rev.num_states == 20
    assert len(rev.finals) == 4


@pytest.mark.parametrize("m,alpha", [(2, 2), (3, 4), (4, 3)])
def test_smallest_witness_reverse_against_brute_force(m, alpha):
    fwd = build_witness(m, alpha)
    rev, subsets = reverse_construction(fwd)
    brute = brute_reachable_subsets(fwd)
    assert len(subsets) == len(brute) == math.comb(m + alpha - 1, alpha - 1)
    assert {frozenset(s) for s in subsets} == brute
    assert subsets == reverse_subsets(fwd)
    # the pipeline's reverse is unlabeled; reverse_dfa only adds labels
    assert rev.labels is None
    assert replace(reverse_dfa(fwd), labels=None) == rev
    assert len(rev.finals) == alpha


@pytest.mark.parametrize(
    "name,built",
    [
        ("reverse_dfa", 1),
        ("reverse_construction", 1),
        ("reverse_subsets", 0),
        ("reverse_step", 0),
    ],
)
def test_each_entry_point_builds_only_the_dfa_it_returns(
    monkeypatch, witness_3_4, name, built
):
    # reverse_dfa builds its labeled DFA directly, not by relabeling an
    # unlabeled one, and reverse_subsets and reverse_step return no DFA
    args = (witness_3_4, (0, 3), 1) if name == "reverse_step" else (witness_3_4,)
    constructed = count_calls(monkeypatch, Dfa, ["__post_init__"])
    getattr(reversal, name)(*args)
    assert constructed["__post_init__"] == built


def test_reverse_start_is_finals_and_labels_join(witness_3_4):
    rev = reverse_dfa(witness_3_4)
    assert rev.start == 0
    assert rev.labels[0] == "1234,1235,1236"


def test_capacity_cap_reports_progress(witness_3_4):
    with pytest.raises(CapacityError) as info:
        reverse_dfa(witness_3_4, max_states=2)
    assert info.value.count == 2
    assert info.value.stage == "reverse_construction"
    for bad in (0, None, 2.0, True):
        with pytest.raises(ValueError, match="max_states must be an int"):
            reverse_dfa(witness_3_4, max_states=bad)


@given(dfas(max_states=6))
def test_construction_subsets_match_brute_force(dfa):
    # arbitrary DFAs: states with no predecessor or several on one letter
    _, subsets = reverse_construction(dfa)
    assert len(set(subsets)) == len(subsets)
    assert {frozenset(s) for s in subsets} == brute_reachable_subsets(dfa)
    labels = reverse_dfa(dfa).labels
    # the canonical form that hashing and the S ∩ reach cut rely on
    for i, s in enumerate(subsets):
        assert all(p < q for p, q in zip(s, s[1:]))
        assert labels[i] == ",".join(dfa.label(q) for q in s)


@given(dfas())
def test_construction_matches_word_formula(dfa):
    # both explore in BFS order with letter tie-break, so the tables agree
    rev, oracle = reverse_dfa(dfa), reverse_by_word_formula(dfa)
    assert (rev.num_states, rev.columns, rev.start, rev.finals) == (
        oracle.num_states, oracle.columns, oracle.start, oracle.finals
    )


@given(mixed_dfas())
def test_construction_mixing_permuting_and_merging_letters(dfa):
    # one letter reverses through its inverse map, the other through the
    # union of its predecessor lists, in the same BFS
    rev, subsets = reverse_construction(dfa)
    assert {frozenset(s) for s in subsets} == brute_reachable_subsets(dfa)
    oracle = reverse_by_word_formula(dfa)
    assert (rev.num_states, rev.columns, rev.start, rev.finals) == (
        oracle.num_states, oracle.columns, oracle.start, oracle.finals
    )


@given(pfas())
def test_reversal_of_permutation_automaton_is_one(pfa):
    assert is_permutation_automaton(reverse_dfa(pfa))


def test_reversed_language_on_exhaustive_words():
    # randomized forward sample, exhaustive binary words up to length 8
    rng = random.Random(101)
    for _ in range(12):
        fwd = random_dfa(rng, max_states=5)
        rev = reverse_dfa(fwd)
        for length in range(9):
            for word in product((0, 1), repeat=length):
                assert accepts(rev, word) == accepts(fwd, tuple(reversed(word)))


# ---------------------------------------------------------------------
# reversal_certificate
# ---------------------------------------------------------------------

def certified(fwd):
    """(asc_forward, asc_reverse, forward_minimal, reverse_minimal)."""
    c = reversal_certificate(fwd)
    return c.asc_forward, c.asc_reverse, c.forward_minimal, c.reverse_minimal


def mask_asc_pair(fwd):
    """The byte-mask kernel on the letter columns and reachable finals of
    ``fwd``."""
    live = fwd.finals.intersection(reachable_states(fwd))
    return _mask_asc_pair(fwd.columns, fwd.start, live)


def asc_pair_of(certificate):
    return certificate.asc_forward, certificate.asc_reverse


def every_permutation_automaton(num_states, alphabet_size):
    """Every permutation automaton on these sizes, over every table, start
    and final set."""
    states = range(num_states)
    columns = [*permutations(states)]
    final_sets = [
        frozenset(q for q in states if bits >> q & 1) for bits in range(1 << num_states)
    ]
    for table in product(columns, repeat=alphabet_size):
        for start in states:
            for finals in final_sets:
                yield Dfa(num_states, alphabet_size, table, start, finals)


@pytest.mark.parametrize("num_states,alphabet_size", [
    (1, 2), (2, 2), (3, 2), (1, 1), (2, 1), (3, 1), (4, 1),
])
def test_certificate_paths_agree_on_every_small_dfa(num_states, alphabet_size):
    # the byte-mask kernel against the tuple path, exhaustively: unreachable
    # states, empty and full final sets
    seen = 0
    for fwd in every_permutation_automaton(num_states, alphabet_size):
        assert mask_asc_pair(fwd) == asc_pair_of(reversal_certificate(fwd)), fwd
        seen += 1
    n = num_states
    assert seen == math.factorial(n) ** alphabet_size * n * 2**n


def forbid(patch, name):
    """Make ``reversal.<name>`` fail the test when it is called."""

    def forbidden(*args):
        raise AssertionError(f"{name} called")

    patch.setattr(reversal, name, forbidden)


@given(pfas(min_states=MASK_STATES, max_states=MASK_STATES, max_finals=2))
def test_certificate_paths_meet_at_the_mask_bound(fwd):
    # every bit of a byte holds a state; with at most two finals each orbit
    # of subsets stays small
    assert mask_asc_pair(fwd) == asc_pair_of(reversal_certificate(fwd))


# "masks" is a witness small enough for the byte-mask kernel, "tuples" one
# that is not; reversal_certificate explores both on tuples.
SIZES = pytest.mark.parametrize("m,alpha", [(2, 4), (3, 4)], ids=["masks", "tuples"])


@SIZES
def test_certificate_capacity_error_is_the_same_on_both_paths(monkeypatch, m, alpha):
    # 5 and 15 forward states, 10 and 20 reverse subsets; the cap is read
    # at call time
    fwd = build_witness(m, alpha)
    assert (fwd.num_states <= MASK_STATES) == (m == 2)
    forbid(monkeypatch, "_mask_asc_pair")
    monkeypatch.setattr(reversal, "DEFAULT_MAX_STATES", 2)
    with pytest.raises(CapacityError) as info:
        reversal_certificate(fwd)
    assert (str(info.value), info.value.count, info.value.stage) == (
        "reverse construction exceeded 2 states", 2, "reverse_construction"
    )


@pytest.mark.parametrize(
    "call", [reverse_subsets, reverse_construction, reverse_dfa, reversal_certificate]
)
def test_default_cap_is_read_at_call_time_by_every_construction(monkeypatch, call):
    # build_witness(3, 4) has 20 reverse subsets; a default bound when the
    # module loaded would return them all
    fwd = build_witness(3, 4)
    monkeypatch.setattr(reversal, "DEFAULT_MAX_STATES", 2)
    with pytest.raises(CapacityError) as info:
        call(fwd)
    assert (str(info.value), info.value.count, info.value.stage) == (
        "reverse construction exceeded 2 states", 2, "reverse_construction"
    )
    monkeypatch.setattr(reversal, "DEFAULT_MAX_STATES", 20)
    call(fwd)


@SIZES
def test_certificate_cap_admits_exactly_its_count(monkeypatch, m, alpha):
    fwd = build_witness(m, alpha)
    size = len(reverse_subsets(fwd))
    expected = reversal_certificate(fwd)
    forbid(monkeypatch, "_mask_asc_pair")
    monkeypatch.setattr(reversal, "DEFAULT_MAX_STATES", size)
    assert reversal_certificate(fwd) == expected
    monkeypatch.setattr(reversal, "DEFAULT_MAX_STATES", size - 1)
    with pytest.raises(CapacityError) as info:
        reversal_certificate(fwd)
    assert info.value.count == size - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [reverse_construction, reversal_certificate])
@pytest.mark.parametrize("fwd", [None, "dfa 1 1", ((0,),)], ids=["none", "str", "table"])
def test_certificates_require_a_dfa(call, fwd):
    with pytest.raises(ValueError) as info:
        call(fwd)
    assert str(info.value) == f"expected a Dfa (got {type(fwd).__name__})"


@given(permutation_automata())
def test_certificate_matches_minimize(fwd):
    # permutation_automata() draws many with unreachable states and 1-3 letters
    rev = reverse_dfa(fwd)
    small_fwd, small_rev = minimize(fwd), minimize(rev)
    assert certified(fwd) == (
        len(small_fwd.finals),
        len(small_rev.finals),
        small_fwd.num_states == fwd.num_states,
        small_rev.num_states == rev.num_states,
    )


def test_certificate_matches_marking_oracle_on_witnesses():
    for m in range(2, 6):
        for alpha in range(2, 6):
            fwd = build_witness(m, alpha)
            rev = reverse_dfa(fwd)
            fwd_states, fwd_finals = minimize_counts_by_marking(fwd)
            rev_states, rev_finals = minimize_counts_by_marking(rev)
            assert certified(fwd) == (
                fwd_finals,
                rev_finals,
                fwd_states == fwd.num_states,
                rev_states == rev.num_states,
            )


def test_certificate_of_trivial_languages():
    assert certified(Dfa(1, 2, ((0,), (0,)), 0, frozenset())) == (0, 0, True, True)
    assert certified(Dfa(3, 2, ((1, 2, 0), (2, 0, 1)), 0, frozenset())) == (
        0, 0, False, True
    )
    assert certified(SIGMA_STAR) == (1, 1, True, True)


def test_certificate_when_the_partition_never_turns_discrete():
    # States 2 and 3 are unreachable, so no subset cut to the reachable
    # part separates them: the Nerode partition of all four states is
    # never discrete. The cut subsets (1,) and (0,) are distinct.
    fwd = Dfa(4, 1, ((1, 0, 3, 2),), 0, frozenset({1, 2}))
    assert reverse_construction(fwd)[1] == [(1, 2), (0, 3)]
    assert certified(fwd) == (1, 1, False, True)


def test_certificates_refuse_a_merging_letter_before_exploring(monkeypatch):
    # a swaps the two states and b sends both to 0; the construction and
    # reverse_dfa still take it
    fwd = Dfa(2, 2, ((1, 0), (0, 0)), 0, frozenset({1}))
    assert reverse_construction(fwd)[1] == [(1,), (0,), (), (0, 1)]
    for name in ("_explore", "_reachable", "reverse_construction"):
        forbid(monkeypatch, name)
    with pytest.raises(ValueError) as info:
        reversal_certificate(fwd)
    assert str(info.value) == "expected a permutation automaton"


def test_certificate_cuts_subsets_to_reachable_states():
    # State 0 loops and accepts; the unreachable states 1 and 2 swap, and
    # 1 is final. The subsets {0, 1} and {0, 2} differ only off the
    # reachable part, so both sides accept a* with one final state and are
    # not minimal.
    fwd = Dfa(3, 1, ((0, 2, 1),), 0, frozenset({0, 1}))
    _, subsets = reverse_construction(fwd)
    assert subsets == [(0, 1), (0, 2)]
    assert certified(fwd) == (1, 1, False, False)


@pytest.mark.parametrize("columns", [
    ((1, 0), (0, 2)), ((0, -1),), ((1, 1),),
    # a longer column that repeats a state, or that hits every state and
    # more, and a bool for 1: each passed a test of the columns as sets
    ((0, 1), (1, 0, 0)), ((1, 0), (0, 1, 1, 0)), ((True, 0),),
    # a longer column that is itself a permutation
    ((1, 0), (0, 1, 2)),
])
def test_permutation_prologue_bounds_every_entry(monkeypatch, columns):
    # the witness walk hands its tables over with no Dfa to check them first
    calls = count_calls(monkeypatch, reversal, ["_explore"])
    with pytest.raises(ValueError) as info:
        reversal._certified(columns, 0, frozenset({0}), 10)
    assert str(info.value) == "expected a permutation automaton"
    assert calls == {"_explore": 0}


def test_certificate_builds_each_inverse_once(monkeypatch):
    # the refusal's inverses are the exploration's tables: one per letter
    calls = count_calls(monkeypatch, reversal, ["_inverse", "_certified"])
    reversal_certificate(build_witness(3, 4))
    assert calls == {"_inverse": 2, "_certified": 1}


@given(permutation_automata())
def test_start_class_rule_matches_minimize(fwd):
    # the forward rule on the reverse subsets: asc counts the Nerode
    # classes among the reachable finals, and the automaton is minimal iff
    # it is accessible and no two states share a class
    certificate = reversal_certificate(fwd)
    small_fwd = minimize(fwd)
    assert (certificate.asc_forward, certificate.forward_minimal) == (
        len(small_fwd.finals), small_fwd.num_states == fwd.num_states
    )


def reachable_part(fwd):
    """``fwd`` cut to its reachable states, renumbered in BFS order."""
    reach = reachable_states(fwd)
    number = {q: i for i, q in enumerate(reach)}
    columns = [[number[column[q]] for q in reach] for column in fwd.columns]
    finals = frozenset(number[q] for q in fwd.finals if q in number)
    return Dfa(len(reach), fwd.alphabet_size, columns, 0, finals)


@given(permutation_automata())
def test_reverse_asc_is_the_membership_count_of_each_state(draw):
    # an inaccessible draw has the asc pair of its reachable part, which is
    # accessible; there the group is transitive, so every state lies in the
    # same number k of reverse subsets, and k is the reverse asc: counting
    # memberships two ways gives k * n = |F| * (subset count), and k = 1
    # forces asc 1
    fwd = reachable_part(draw)
    certificate = reversal_certificate(fwd)
    assert asc_pair_of(certificate) == asc_pair_of(reversal_certificate(draw))
    assert certificate.asc_reverse * fwd.num_states == len(fwd.finals) * len(
        reverse_subsets(fwd)
    )
    assert certificate.asc_reverse != 1 or certificate.asc_forward == 1


WITNESSES = st.builds(build_witness, st.integers(2, 4), st.integers(2, 4))


@given(permutation_automata() | WITNESSES)
def test_certified_subsets_and_finals_match_the_construction(fwd):
    # the certificate path explores on the inverses alone, where the
    # construction takes each letter's own path: both intern alike
    rev, subsets = reverse_construction(fwd)
    _, certified_subsets, _, rev_finals = reversal._certified(
        fwd.columns, fwd.start, fwd.finals, reversal.DEFAULT_MAX_STATES
    )
    assert certified_subsets == subsets
    assert rev_finals == sorted(rev.finals)
