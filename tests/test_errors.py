"""The shared argument checkers and the entry points that call them.

Each argument rule has one checker in ``permrev.errors``: ``check_index``
for a state or a letter, ``check_points`` for a sequence of ints,
``check_subset`` for a set of points of [n] and ``are_subset_states`` for
the subset-states of a reverse construction; ``permrev.dfa.check_dfa``
checks a Dfa argument. The table pins the error of each entry point on inputs that a looser check
would read as an index or a point; the property puts ints, bools, floats,
None, strings and tuples in every argument slot of those entry points.
"""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from permrev.dfa import (
    accepts, apply_word, is_permutation_automaton, reachable_states
)
from permrev.errors import (
    CapacityError,
    NotInGroupError,
    are_subset_states,
    check_index,
    check_subset,
)
from permrev.minimize import are_equivalent, asc, distinguishing_word, minimize
from permrev.perms import (
    act_on_subset,
    colex_rank,
    cycle_perm,
    orbit,
    perm_compose,
    perm_from_word,
    synthesize_word,
    transposition_perm,
)
from permrev.reversal import reverse_construction, reverse_step
from permrev.textio import (
    ParseError, emit_dfa, emit_dot, parse_dfa, word_from_str, word_to_str
)
from permrev.witness import (
    WitnessParams,
    build_witness,
    classify_reverse_states,
    star_members,
)

from conftest import dfas, perms

W = build_witness(3, 4)  # 15 states, 2 letters
REV, SUBSETS = reverse_construction(W)
PARAMS = WitnessParams(3, 4)
P = cycle_perm(4)
GENS = [cycle_perm(4), transposition_perm(4)]


@pytest.mark.parametrize("value", [0, 14])
def test_check_index_accepts_an_int_in_range(value):
    check_index("state", value, 15)


@pytest.mark.parametrize("value", [-1, 15, True, False, 0.0, None, "a", (0,)])
def test_check_index_rejects_anything_else(value):
    with pytest.raises(ValueError) as info:
        check_index("state", value, 15)
    assert str(info.value) == f"state {value!r} is out of range"


def test_check_subset_returns_the_sorted_points():
    assert check_subset("seed", [3, 0, 2], 4) == (0, 2, 3)
    assert check_subset("seed", (), 0) == ()


@pytest.mark.parametrize("values,message", [
    ((2, 0, 2), "seed (0, 2, 2) has repeated points"),
    ((0, 4, 5), "point 4 is out of range for n=4"),
    ((-1, 9), "point -1 is out of range for n=4"),
    ((True,), "seed must be a sequence of ints (got (True,))"),
    (None, "seed must be a sequence of ints (got None)"),
])
def test_check_subset_rejections_are_pinned(values, message):
    with pytest.raises(ValueError) as info:
        check_subset("seed", values, 4)
    assert str(info.value) == message


def is_subset_state_list(subsets, stop):
    """``are_subset_states`` spelled out, one member at a time."""
    return all(
        type(s) is tuple
        and all(type(x) is int and 0 <= x < stop for x in s)
        and list(s) == sorted(set(s))
        for s in subsets
    )


MEMBERS = st.one_of(st.integers(-2, 6), st.booleans(), st.just(1.0))


@given(
    st.lists(st.one_of(st.lists(MEMBERS, max_size=4).map(tuple), st.lists(MEMBERS))),
    st.integers(0, 6),
)
def test_are_subset_states_matches_its_definition(subsets, stop):
    assert are_subset_states(subsets, stop) == is_subset_state_list(subsets, stop)


@pytest.mark.parametrize("subsets", [None, 3, "ab", iter([(0,)])])
def test_are_subset_states_rejects_a_non_collection(subsets):
    assert not are_subset_states(subsets, 4)


NOT_FIT = "subset-state does not fit the forward automaton"
NOT_WITNESS = "a subset does not fit the witness for these parameters"
NOT_DFA = "expected a Dfa (got NoneType)"


@pytest.mark.parametrize("call,args,message", [
    (apply_word, (W, 0.0, ()), "state 0.0 is out of range"),
    (apply_word, (W, True, ()), "state True is out of range"),
    (apply_word, (W, None, ()), "state None is out of range"),
    (apply_word, (W, 0, (True,)), "word must be a sequence of ints (got (True,))"),
    (apply_word, (W, 0, (2,)), "letter 2 is out of range"),
    (apply_word, (None, 0, ()), "expected a Dfa (got NoneType)"),
    (accepts, (None, ()), "expected a Dfa (got NoneType)"),
    (distinguishing_word, (W, True, 1), "state True is out of range"),
    (distinguishing_word, (W, 0, 1.0), "state 1.0 is out of range"),
    (distinguishing_word, (W, None, 1), "state None is out of range"),
    (distinguishing_word, (None, 0, 1), "expected a Dfa (got NoneType)"),
    (act_on_subset, (P, (1, 1)), "subset (1, 1) has repeated points"),
    (act_on_subset, (P, (True,)), "subset must be a sequence of ints (got (True,))"),
    (act_on_subset, (P, None), "subset must be a sequence of ints (got None)"),
    (act_on_subset, (P, (4,)), "point 4 is out of range for n=4"),
    (act_on_subset, (None, (0,)), "generator must be a sequence of ints (got None)"),
    (reverse_step, (W, (0.5,), 0), NOT_FIT),
    (reverse_step, (W, (True,), 0), NOT_FIT),
    (reverse_step, (W, None, 0), NOT_FIT),
    (reverse_step, (W, (0,), True), "letter True is out of range"),
    (reverse_step, (W, (0,), None), "letter None is out of range"),
    (reverse_step, (None, (0,), 0), "expected a Dfa (got NoneType)"),
    (perm_from_word, (GENS, (0.5,)), "word must be a sequence of ints (got (0.5,))"),
    (perm_from_word, (GENS, (True,)), "word must be a sequence of ints (got (True,))"),
    (perm_from_word, (GENS, None), "word must be a sequence of ints (got None)"),
    (perm_from_word, (GENS, (2,)), "letter 2 is out of range"),
    (word_to_str, ((0.5,),), "word must be a sequence of ints (got (0.5,))"),
    (word_to_str, ((True,),), "word must be a sequence of ints (got (True,))"),
    (word_to_str, (None,), "word must be a sequence of ints (got None)"),
    (word_to_str, ((26,),), "letter 26 is out of range"),
    (orbit, (GENS, (True,)), "seed must be a sequence of ints (got (True,))"),
    (orbit, (GENS, None), "seed must be a sequence of ints (got None)"),
    (star_members, (PARAMS, (0, True, 2)),
     "center must be a sequence of ints (got (0, True, 2))"),
    (star_members, (PARAMS, (0, 1, 6)), "point 6 is out of range for n=6"),
    (star_members, (None, (0, 1, 2)), "expected WitnessParams (got NoneType)"),
    (classify_reverse_states, (PARAMS, REV, [(True, 1, 2)] + SUBSETS[1:]), NOT_WITNESS),
    (classify_reverse_states, (PARAMS, REV, [(0.0, 1, 2)] + SUBSETS[1:]), NOT_WITNESS),
    (classify_reverse_states, (PARAMS, REV, None), NOT_WITNESS),
    (classify_reverse_states, (PARAMS, None, SUBSETS), "expected a Dfa (got NoneType)"),
    (classify_reverse_states, ((3, 4), REV, SUBSETS),
     "expected WitnessParams (got tuple)"),
    (parse_dfa, (None,), "expected a str (got NoneType)"),
    (minimize, (None,), NOT_DFA),
    (asc, (None,), NOT_DFA),
    (are_equivalent, (None, W), NOT_DFA),
    (are_equivalent, (W, None), NOT_DFA),
    (reachable_states, (None,), NOT_DFA),
    (is_permutation_automaton, (None,), NOT_DFA),
    (emit_dfa, (None,), NOT_DFA),
    (emit_dot, (None,), NOT_DFA),
    (word_from_str, (None,), "expected a str (got NoneType)"),
    (word_from_str, ((0, 1),), "expected a str (got tuple)"),
    (synthesize_word, (GENS, None), "target must be a sequence of ints (got None)"),
    (synthesize_word, (GENS, (0.0, 1, 2, 3)),
     "target must be a sequence of ints (got (0.0, 1, 2, 3))"),
    (perm_compose, (None, (0,)), "generator must be a sequence of ints (got None)"),
    (perm_compose, ((0,), None), "generator must be a sequence of ints (got None)"),
    (perm_compose, ((5,), (0,)), "(5,) is not a permutation of [1]"),
    (perm_compose, ((0, 1, 2), P), "(1, 2, 3, 0) is not a permutation of [3]"),
    (colex_rank, (None,), "subset must be a sequence of ints (got None)"),
    (colex_rank, ((0, True),), "subset must be a sequence of ints (got (0, True))"),
], ids=[
    "apply_word_float_state", "apply_word_bool_state", "apply_word_none_state",
    "apply_word_bool_letter", "apply_word_letter_range", "apply_word_none_dfa",
    "accepts_none_dfa", "distinguishing_bool_state", "distinguishing_float_state",
    "distinguishing_none_state", "distinguishing_none_dfa", "act_repeated",
    "act_bool_point", "act_none_subset", "act_point_range", "act_none_perm",
    "reverse_step_float_member", "reverse_step_bool_member",
    "reverse_step_none_subset", "reverse_step_bool_letter",
    "reverse_step_none_letter", "reverse_step_none_dfa", "perm_word_float",
    "perm_word_bool", "perm_word_none", "perm_letter_range", "word_to_str_float",
    "word_to_str_bool", "word_to_str_none", "word_to_str_range", "orbit_bool_seed",
    "orbit_none_seed", "star_bool_point", "star_point_range", "star_none_params",
    "classify_bool_member", "classify_float_member", "classify_none_subsets",
    "classify_none_rev", "classify_tuple_params", "parse_none",
    "minimize_none_dfa", "asc_none_dfa", "equivalent_none_first",
    "equivalent_none_second", "reachable_none_dfa", "permutation_none_dfa",
    "emit_none_dfa", "dot_none_dfa", "word_from_none", "word_from_tuple",
    "synthesize_none_target", "synthesize_float_target", "compose_none_first",
    "compose_none_second", "compose_out_of_range", "compose_size_mismatch",
    "colex_none", "colex_bool_point",
])
@pytest.mark.filterwarnings("error")
def test_argument_errors_are_pinned(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


SCALARS = st.one_of(
    st.integers(-3, 30), st.booleans(), st.floats(), st.none(), st.text(max_size=3)
)
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8
)
DFAS = st.one_of(VALUES, dfas(), st.just(W), st.just(REV))
GENERATORS = st.one_of(
    VALUES,
    st.lists(VALUES, max_size=3),
    st.lists(perms(max_n=4), min_size=1, max_size=3),
)
WITNESS_PARAMS = st.one_of(
    VALUES, st.builds(WitnessParams, st.integers(2, 3), st.integers(2, 4))
)
SUBSET_LISTS = st.one_of(VALUES, st.just(SUBSETS), st.lists(VALUES, max_size=4))

# Each entry point that applies a shared rule, and a strategy per argument:
# junk in every slot, valid values in some so that later checks are reached.
ENTRY_POINTS = {
    "apply_word": (apply_word, DFAS, VALUES, VALUES),
    "accepts": (accepts, DFAS, VALUES),
    "distinguishing_word": (distinguishing_word, DFAS, VALUES, VALUES),
    "reverse_step": (reverse_step, DFAS, VALUES, VALUES),
    "perm_from_word": (perm_from_word, GENERATORS, VALUES),
    "act_on_subset": (act_on_subset, st.one_of(VALUES, perms(max_n=5)), VALUES),
    "orbit": (orbit, GENERATORS, VALUES),
    "word_to_str": (word_to_str, VALUES),
    "star_members": (star_members, WITNESS_PARAMS, VALUES),
    "classify_reverse_states": (
        classify_reverse_states, WITNESS_PARAMS, DFAS, SUBSET_LISTS
    ),
    "parse_dfa": (parse_dfa, st.one_of(VALUES, st.text())),
    "minimize": (minimize, DFAS),
    "asc": (asc, DFAS),
    "are_equivalent": (are_equivalent, DFAS, DFAS),
    "reachable_states": (reachable_states, DFAS),
    "is_permutation_automaton": (is_permutation_automaton, DFAS),
    "emit_dfa": (emit_dfa, DFAS),
    "emit_dot": (emit_dot, DFAS),
    "word_from_str": (word_from_str, st.one_of(VALUES, st.text(max_size=4))),
    "synthesize_word": (
        synthesize_word, GENERATORS, st.one_of(VALUES, perms(max_n=4))
    ),
    "perm_compose": (
        perm_compose, st.one_of(VALUES, perms(max_n=3)), st.one_of(VALUES, perms(max_n=3))
    ),
    "colex_rank": (colex_rank, VALUES),
}

DOCUMENTED = (ValueError, ParseError, CapacityError, NotInGroupError)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.filterwarnings("error")
@given(data=st.data())
def test_entry_points_return_or_raise_a_documented_error(name, data):
    call, *slots = ENTRY_POINTS[name]
    args = [data.draw(slot) for slot in slots]
    try:
        call(*args)
    except DOCUMENTED:
        pass
