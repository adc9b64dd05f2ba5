import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from permrev.dfa import Dfa, reachable_states
from permrev.minimize import are_equivalent, asc, minimize
from permrev.reversal import reverse_dfa

from conftest import dfas
from oracles import all_pairs_distinguishable, minimize_counts_by_marking, random_dfa

EMPTY_LANG = Dfa(1, 2, ((0,), (0,)), 0, frozenset())
SIGMA_STAR = Dfa(1, 2, ((0,), (0,)), 0, frozenset({0}))


def test_collapses_all_final_pair():
    dfa = Dfa(2, 2, ((1, 1), (1, 1)), 0, frozenset({0, 1}))
    small = minimize(dfa)
    assert small.num_states == 1
    assert small.finals == frozenset({0})


def test_witness_is_already_minimal(witness_3_4):
    small = minimize(witness_3_4)
    assert small.num_states == 15
    assert len(small.finals) == 3


def test_reverse_witness_is_already_minimal(witness_3_4):
    rev = reverse_dfa(witness_3_4)
    assert minimize(rev).num_states == 20


@given(dfas())
def test_minimize_is_idempotent(dfa):
    once = minimize(dfa)
    twice = minimize(once)
    assert twice.columns == once.columns
    assert twice.finals == once.finals
    assert twice.start == once.start


@given(dfas())
def test_minimize_preserves_language(dfa):
    assert are_equivalent(dfa, minimize(dfa))


@given(dfas(), st.data())
def test_minimized_table_ignores_state_names(dfa, data):
    # the canonical numbering is breadth-first from the start state with
    # letter tie-break, whatever the input's own state numbers are
    name = data.draw(st.permutations(range(dfa.num_states)))
    columns = [[None] * dfa.num_states for _ in dfa.columns]
    for renamed_column, column in zip(columns, dfa.columns):
        for q, t in enumerate(column):
            renamed_column[name[q]] = name[t]
    renamed = Dfa(dfa.num_states, dfa.alphabet_size, columns,
                  name[dfa.start], frozenset(name[q] for q in dfa.finals))
    small = minimize(dfa)
    assert minimize(renamed) == small
    assert reachable_states(small) == list(range(small.num_states))


def test_double_reversal_is_equivalent(witness_3_4):
    assert are_equivalent(witness_3_4, reverse_dfa(reverse_dfa(witness_3_4)))


def test_distinct_languages_differ():
    assert not are_equivalent(EMPTY_LANG, SIGMA_STAR)


def test_equivalence_needs_matching_alphabets():
    with pytest.raises(ValueError):
        are_equivalent(EMPTY_LANG, Dfa(1, 1, ((0,),), 0, frozenset()))


def test_double_reversal_reproduces_minimal_size():
    # reversing twice (reachable parts only) lands on the minimal DFA,
    # which independently cross-checks both minimize and asc
    rng = random.Random(23)
    for _ in range(40):
        dfa = random_dfa(rng, max_states=5)
        twice = reverse_dfa(reverse_dfa(dfa))
        small = minimize(dfa)
        assert are_equivalent(twice, dfa)
        assert twice.num_states == small.num_states
        assert len(twice.finals) == asc(dfa)


# ---------------------------------------------------------------------
# asc
# ---------------------------------------------------------------------

def test_asc_of_trivial_languages():
    assert asc(EMPTY_LANG) == 0
    assert asc(SIGMA_STAR) == 1


def test_asc_of_witness_pair(witness_3_4):
    assert asc(witness_3_4) == 3
    assert asc(reverse_dfa(witness_3_4)) == 4


@given(dfas())
def test_asc_never_exceeds_final_count(dfa):
    assert asc(dfa) <= len(dfa.finals)


@settings(max_examples=50)
@given(dfas(max_states=4))
def test_marking_oracle_agrees(dfa):
    small = minimize(dfa)
    assert minimize_counts_by_marking(dfa) == (small.num_states, len(small.finals))


def test_minimize_output_is_pairwise_distinguishable():
    rng = random.Random(5)
    for _ in range(20):
        small = minimize(random_dfa(rng, max_states=5))
        assert all_pairs_distinguishable(small)
