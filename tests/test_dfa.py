import pytest
from hypothesis import given
import hypothesis.strategies as st

from permrev.dfa import (
    Dfa,
    accepts,
    apply_word,
    is_permutation_automaton,
    reachable_states,
)
from permrev.textio import word_from_str
from permrev.witness import build_witness

from conftest import dfa_with_word, dfas, pfas
from oracles import bfs_order_by_queue

TWO_CYCLE = Dfa(2, 1, ((1, 0),), 0, frozenset({0}))


def state_of(dfa, label):
    return dfa.labels.index(label)


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------

def test_rejects_missing_row():
    # state 1 has no entry in the column of letter 0
    with pytest.raises(ValueError):
        Dfa(2, 1, ((0,),), 0, frozenset())


def test_rejects_short_row():
    # state 0 has no entry for letter 1: its column is missing
    with pytest.raises(ValueError):
        Dfa(1, 2, ((0,),), 0, frozenset())


def test_rejects_out_of_range_target():
    with pytest.raises(ValueError):
        Dfa(2, 1, ((1, 2),), 0, frozenset())


def test_rejects_bad_start_and_finals():
    with pytest.raises(ValueError):
        Dfa(2, 1, ((0, 1),), 2, frozenset())
    with pytest.raises(ValueError):
        Dfa(2, 1, ((0, 1),), 0, frozenset({5}))


def test_rejects_non_integer_target():
    # 0 <= 1.5 < 2 holds, so only the type test stops a float state
    with pytest.raises(ValueError, match="not a state"):
        Dfa(2, 1, ((1.5, 0),), 0, frozenset())
    for bad in ("1", True, None):
        with pytest.raises(ValueError):
            Dfa(2, 1, ((bad, 0),), 0, frozenset())


@pytest.mark.parametrize("delta, message", [
    (((0, 1),), "table has 1 columns for an alphabet of 2"),
    (((0, 1), (1,)), "letter 1: column has 1 entries for 2 states"),
    (((0, 1, 0), (1, 0)), "letter 0: column has 3 entries for 2 states"),
    (((0, 1), (1.5, 0)), "delta(0,1) = 1.5 is not a state"),
    (((0, None), (1, 0)), "delta(1,0) = None is not a state"),
    (((True, 1), (1, 0)), "delta(0,0) = True is not a state"),
    (((0, "1"), (1, 0)), "delta(1,0) = '1' is not a state"),
    (((0, 1), (1, -1)), "delta(1,1) = -1 is not a state"),
    (((0, 1), (2, 0)), "delta(0,1) = 2 is not a state"),
    # the first bad entry in column order is named, whatever its kind; in
    # the second table a walk in row order would name delta(0,1) = 9
    (((0, 1), (7, -1)), "delta(0,1) = 7 is not a state"),
    (((0, None), (9, 1)), "delta(1,0) = None is not a state"),
    (((0, 9), (1,)), "delta(1,0) = 9 is not a state"),
    (((0,), (1, 9)), "letter 0: column has 1 entries for 2 states"),
])
def test_rejection_messages_are_pinned(delta, message):
    with pytest.raises(ValueError) as info:
        Dfa(2, 2, delta, 0, frozenset())
    assert str(info.value) == message


def test_rejects_non_integer_start_and_finals():
    # a string final used to escape as TypeError from the range comparison
    with pytest.raises(ValueError, match="not a state"):
        Dfa(2, 1, ((0, 1),), 0, frozenset({"x"}))
    for finals in ({1.0}, {None}):
        with pytest.raises(ValueError):
            Dfa(2, 1, ((0, 1),), 0, frozenset(finals))
    for start in (0.0, "0", None):
        with pytest.raises(ValueError):
            Dfa(2, 1, ((0, 1),), start, frozenset())


def test_rejects_non_integer_sizes():
    with pytest.raises(ValueError):
        Dfa(2.0, 1, ((0, 1),), 0, frozenset())
    with pytest.raises(ValueError):
        Dfa(1, "1", ((0,),), 0, frozenset())


def test_rejects_label_length_mismatch():
    with pytest.raises(ValueError):
        Dfa(2, 1, ((0, 1),), 0, frozenset(), labels=("only-one",))


def test_rejects_non_string_labels():
    # emit_dfa and emit_dot need str labels; anything else is refused up front
    for bad in ((5,), (None,), (b"q0",)):
        with pytest.raises(ValueError):
            Dfa(1, 1, ((0,),), 0, frozenset(), labels=bad)


def test_empty_finals_allowed():
    dfa = Dfa(1, 2, ((0,), (0,)), 0, frozenset())
    assert not accepts(dfa, ())


# ---------------------------------------------------------------------
# apply_word / accepts
# ---------------------------------------------------------------------

def test_empty_word_is_identity():
    assert apply_word(TWO_CYCLE, 1, ()) == 1


def test_order_two_letter():
    assert apply_word(TWO_CYCLE, 0, (0, 0)) == 0


def test_witness_start_shifts_under_a(witness_3_4):
    q = apply_word(witness_3_4, state_of(witness_3_4, "1234"), word_from_str("a"))
    assert witness_3_4.label(q) == "2345"


def test_apply_word_rejects_bad_inputs():
    with pytest.raises(ValueError):
        apply_word(TWO_CYCLE, 5, ())
    with pytest.raises(ValueError):
        apply_word(TWO_CYCLE, 0, (3,))


@pytest.mark.filterwarnings("error")
def test_accepts_rejects_a_word_of_non_ints(witness_3_4):
    with pytest.raises(ValueError) as info:
        accepts(witness_3_4, "ab")
    assert str(info.value) == "word must be a sequence of ints (got 'ab')"


def test_accepts_empty_word_iff_start_final():
    assert accepts(TWO_CYCLE, ())
    assert not accepts(TWO_CYCLE, (0,))


def test_witness_accepts_empty_but_not_a(witness_3_4):
    assert accepts(witness_3_4, ())
    assert not accepts(witness_3_4, word_from_str("a"))


@given(dfa_with_word(), st.data())
def test_apply_word_composes(dfa_word, data):
    dfa, u = dfa_word
    v = tuple(data.draw(st.lists(st.integers(0, dfa.alphabet_size - 1), max_size=8)))
    q = data.draw(st.integers(0, dfa.num_states - 1))
    assert apply_word(dfa, q, u + v) == apply_word(dfa, apply_word(dfa, q, u), v)


# ---------------------------------------------------------------------
# permutation detection
# ---------------------------------------------------------------------

def test_witness_is_permutation_automaton(witness_3_4):
    assert is_permutation_automaton(witness_3_4)
    assert is_permutation_automaton(build_witness(2, 2))


def test_non_injective_letter_detected():
    dfa = Dfa(2, 1, ((0, 0),), 0, frozenset())
    assert not is_permutation_automaton(dfa)


def test_one_state_is_permutation_automaton():
    assert is_permutation_automaton(Dfa(1, 2, ((0,), (0,)), 0, frozenset()))


@given(pfas(), st.data())
def test_permutation_words_act_bijectively(pfa, data):
    word = tuple(data.draw(st.lists(st.integers(0, pfa.alphabet_size - 1), max_size=10)))
    image = {apply_word(pfa, q, word) for q in range(pfa.num_states)}
    assert len(image) == pfa.num_states


# ---------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------

def test_single_state_reachability():
    assert reachable_states(Dfa(1, 1, ((0,),), 0, frozenset())) == [0]


def test_witness_fully_reachable(witness_3_4):
    assert len(reachable_states(witness_3_4)) == 15


def test_isolated_state_not_reached():
    dfa = Dfa(2, 1, ((0, 1),), 0, frozenset())
    assert reachable_states(dfa) == [0]


def test_bfs_order_breaks_ties_by_letter():
    # from "12" letter a reaches "23" before b's self-loop; then "13"
    dfa = build_witness(2, 2)
    assert reachable_states(dfa) == [0, 2, 1]


@given(dfas(max_states=8))
def test_reachable_order_matches_queue_bfs(dfa):
    assert reachable_states(dfa) == bfs_order_by_queue(dfa)


@given(dfas())
def test_reachable_contains_start_and_is_closed(dfa):
    reach = reachable_states(dfa)
    reach_set = set(reach)
    assert dfa.start == reach[0]
    for q in reach_set:
        for c in range(dfa.alphabet_size):
            assert dfa.columns[c][q] in reach_set


@given(dfas(), st.data())
def test_reachable_monotone_under_added_letter(dfa, data):
    extra = tuple(
        data.draw(st.integers(0, dfa.num_states - 1)) for _ in range(dfa.num_states)
    )
    wider = Dfa(
        dfa.num_states,
        dfa.alphabet_size + 1,
        dfa.columns + (extra,),
        dfa.start,
        dfa.finals,
    )
    assert set(reachable_states(dfa)) <= set(reachable_states(wider))
