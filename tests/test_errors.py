"""The shared argument checkers and the entry points that call them.

Each argument rule has one checker in ``permrev.errors``: ``check_index``
for a state or a letter, ``check_points`` for a sequence of ints,
``check_subset`` for a set of points of [n] and ``are_subset_states`` for
the subset-states of a reverse construction; ``permrev.dfa.check_dfa``
checks a Dfa argument. The table pins the error of each entry point on inputs that a looser check
would read as an index or a point; the property puts ints, bools, floats,
None, strings and tuples in every argument slot of those entry points.
The last tests pin the cap on the cells of a spectrum grid, which is
checked before any row is built, and the capacity messages that name an
int too long for ``str()``.
"""

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from permrev import spectrum
from permrev.dfa import (
    Dfa, accepts, apply_word, is_permutation_automaton, reachable_states
)
from permrev.errors import (
    CapacityError,
    NotInGroupError,
    are_subset_states,
    check_index,
    check_int,
    check_points,
    check_subset,
    int_text,
)
from permrev.minimize import are_equivalent, asc, minimize
from permrev.perms import (
    act_on_subset,
    colex_rank,
    colex_unrank,
    cycle_perm,
    identity_perm,
    ksubsets,
    orbit,
    perm_from_word,
    perm_inverse,
    synthesize_word,
    transposition_perm,
)
from permrev.reversal import (
    mask_states,
    reversal_certificate,
    reverse_construction,
    reverse_dfa,
    reverse_step,
    reverse_subsets,
)
from permrev.spectrum import (
    MAX_GRID_CELLS,
    asc_pair,
    magic_one_probe,
    random_pfa,
    spectrum_point,
    spectrum_table,
)
from permrev.textio import (
    ParseError, emit_dfa, emit_dot, letter_name, parse_dfa, report_to_json, word_from_str
)
from permrev.witness import (
    WitnessParams,
    build_witness,
    classify_reverse_states,
    star_label,
    star_members,
    subset_label,
    verify_witness,
)

from conftest import dfas, perms

W = build_witness(3, 4)  # 15 states, 2 letters
REV, SUBSETS = reverse_construction(W)
PARAMS = WitnessParams(3, 4)
P = cycle_perm(4)
GENS = [cycle_perm(4), transposition_perm(4)]
REPORT = verify_witness(2, 3)


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
    (perm_from_word, ((None, (0,)), ()),
     "generator must be a sequence of ints (got None)"),
    (perm_from_word, (((0,), None), ()),
     "generator must be a sequence of ints (got None)"),
    (perm_from_word, (((5,), (0,)), ()), "(5,) is not a permutation of [1]"),
    (perm_from_word, (((0, 1, 2), P), ()), "(1, 2, 3, 0) is not a permutation of [3]"),
    (colex_rank, (None,), "subset must be a sequence of ints (got None)"),
    (colex_rank, ((0, True),), "subset must be a sequence of ints (got (0, True))"),
    (colex_rank, ((1, 1),),
     "subset (1, 1) is not a strictly increasing tuple of points >= 0"),
    (colex_rank, ((2, 0),),
     "subset (2, 0) is not a strictly increasing tuple of points >= 0"),
    (colex_rank, ((-1, 2),),
     "subset (-1, 2) is not a strictly increasing tuple of points >= 0"),
    (synthesize_word, (GENS, (0, 0, 0, 0)), "(0, 0, 0, 0) is not a permutation of [4]"),
    (synthesize_word, (GENS, (0, 1, 2)), "(0, 1, 2) is not a permutation of [4]"),
    (Dfa, (1, 1, None, 0, ()), "table must be a sequence of columns (got None)"),
    (Dfa, (1, 1, (5,), 0, ()), "table must be a sequence of columns (got (5,))"),
    (Dfa, (1, 1, ((0,),), 0, None), "finals must be a set of states (got None)"),
    (Dfa, (1, 1, ((0,),), 0, [[0]]), "finals must be a set of states (got [[0]])"),
    (Dfa, (1, 1, ((0,),), 0, (), 5), "labels must be a sequence of str (got 5)"),
    (mask_states, (None,), "mask must be an int >= 0 (got None)"),
    (mask_states, ("x",), "mask must be an int >= 0 (got 'x')"),
    (mask_states, (1.5,), "mask must be an int >= 0 (got 1.5)"),
], ids=[
    "apply_word_float_state", "apply_word_bool_state", "apply_word_none_state",
    "apply_word_bool_letter", "apply_word_letter_range", "apply_word_none_dfa",
    "accepts_none_dfa", "act_repeated",
    "act_bool_point", "act_none_subset", "act_point_range", "act_none_perm",
    "reverse_step_float_member", "reverse_step_bool_member",
    "reverse_step_none_subset", "reverse_step_bool_letter",
    "reverse_step_none_letter", "reverse_step_none_dfa", "perm_word_float",
    "perm_word_bool", "perm_word_none", "perm_letter_range", "orbit_bool_seed",
    "orbit_none_seed", "star_bool_point", "star_point_range", "star_none_params",
    "classify_bool_member", "classify_float_member", "classify_none_subsets",
    "classify_none_rev", "classify_tuple_params", "parse_none",
    "minimize_none_dfa", "asc_none_dfa", "equivalent_none_first",
    "equivalent_none_second", "reachable_none_dfa", "permutation_none_dfa",
    "emit_none_dfa", "dot_none_dfa", "word_from_none", "word_from_tuple",
    "synthesize_none_target", "synthesize_float_target", "compose_none_first",
    "compose_none_second", "compose_out_of_range", "compose_size_mismatch",
    "colex_none", "colex_bool_point", "colex_repeated", "colex_unsorted",
    "colex_negative", "synthesize_not_a_permutation", "synthesize_size_mismatch",
    "dfa_none_table", "dfa_int_column", "dfa_none_finals", "dfa_unhashable_finals",
    "dfa_int_labels", "mask_none", "mask_str", "mask_float",
])
@pytest.mark.filterwarnings("error")
def test_argument_errors_are_pinned(call, args, message):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


def scalars(max_int=30):
    return st.one_of(
        st.integers(-3, max_int), st.booleans(), st.floats(), st.none(),
        st.text(max_size=3),
    )


def values(max_int=30):
    """Scalars nested in tuples; no int is above ``max_int``."""
    return st.recursive(
        scalars(max_int), lambda inner: st.lists(inner, max_size=4).map(tuple),
        max_leaves=8,
    )


SCALARS = scalars()
VALUES = values()
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
# Dfa's slots: two states and two letters in some draws, so that a valid
# table is followed by junk in the later slots
SIZES = st.one_of(VALUES, st.just(2))
TABLES = st.one_of(
    VALUES,
    st.just(((1, 0), (0, 0))),
    st.lists(st.lists(st.one_of(SCALARS, st.integers(0, 1)), max_size=3), max_size=3),
)
FINALS = st.one_of(
    VALUES,
    st.frozensets(st.integers(-1, 2)),
    st.lists(st.lists(SCALARS, max_size=2), max_size=2),
)
LABELS = st.one_of(st.none(), VALUES, st.lists(st.text(max_size=2), max_size=3))

# Each entry point that applies a shared rule, and a strategy per argument:
# junk in every slot, valid values in some so that later checks are reached.
ENTRY_POINTS = {
    "apply_word": (apply_word, DFAS, VALUES, VALUES),
    "accepts": (accepts, DFAS, VALUES),
    "reverse_step": (reverse_step, DFAS, VALUES, VALUES),
    "perm_from_word": (perm_from_word, GENERATORS, VALUES),
    "act_on_subset": (act_on_subset, st.one_of(VALUES, perms(max_n=5)), VALUES),
    "orbit": (orbit, GENERATORS, VALUES),
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
    "colex_rank": (colex_rank, VALUES),
    "Dfa": (Dfa, SIZES, SIZES, TABLES, VALUES, FINALS, LABELS),
    "mask_states": (mask_states, VALUES),
    "reverse_dfa": (reverse_dfa, DFAS, VALUES),
    "reverse_subsets": (reverse_subsets, DFAS, VALUES),
    "reverse_construction": (reverse_construction, DFAS, VALUES),
    "reversal_certificate": (reversal_certificate, DFAS),
    "asc_pair": (asc_pair, DFAS),
    "random_pfa": (random_pfa, st.one_of(VALUES, st.builds(random.Random)), VALUES),
    "subset_label": (subset_label, VALUES),
    "star_label": (star_label, VALUES),
    "letter_name": (letter_name, VALUES),
    "report_to_json": (report_to_json, st.one_of(VALUES, st.just(REPORT))),
    "cycle_perm": (cycle_perm, VALUES),
    "transposition_perm": (transposition_perm, VALUES),
    "identity_perm": (identity_perm, VALUES),
    "perm_inverse": (perm_inverse, st.one_of(VALUES, perms(max_n=4))),
    "colex_unrank": (colex_unrank, VALUES, VALUES, VALUES),
    # the int slots stay below 31, so a witness has at most 30 states
    "build_witness": (build_witness, VALUES, VALUES, VALUES),
    "verify_witness": (verify_witness, VALUES, VALUES, VALUES),
    "spectrum_point": (spectrum_point, VALUES, VALUES, VALUES),
    # at most 29 x 29 grid cells, each witness of at most 30 states or skipped
    "spectrum_table": (spectrum_table, VALUES, VALUES, VALUES),
    # at most 30 samples, or 30 checked draws
    "magic_one_probe": (magic_one_probe, VALUES, VALUES, VALUES, VALUES),
    # listed in full, as ksubsets yields lazily: at most C(16, 8) = 12 870
    "ksubsets": (lambda n, k: [*ksubsets(n, k)], values(16), values(16)),
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


def forbidden(*args, **kwargs):
    raise AssertionError("a grid row was built")


@pytest.mark.parametrize("m_max,alpha_max,cells", [
    (200_000, 2, 199_999),
    (100_000_000, 2, 99_999_999),
    (10_002, 2, 10_001),
    (102, 101, 10_100),
])
def test_spectrum_grid_cap_is_pinned(monkeypatch, m_max, alpha_max, cells):
    # the cell count is checked before the trivial rows or any witness row
    monkeypatch.setattr(spectrum, "trivial_rows", forbidden)
    monkeypatch.setattr(spectrum, "spectrum_point", forbidden)
    with pytest.raises(CapacityError) as info:
        spectrum_table(m_max, alpha_max, state_cap=1)
    assert (str(info.value), info.value.count, info.value.stage) == (
        f"spectrum grid of {cells} cells exceeds 10000", cells, "spectrum_table"
    )


@pytest.mark.parametrize("m_max,alpha_max", [(101, 101), (10_001, 2), (-5, -5)])
def test_spectrum_grid_cap_admits_its_bound(m_max, alpha_max):
    cells = max(m_max - 1, 0) * max(alpha_max - 1, 0)
    assert cells <= MAX_GRID_CELLS == 10_000
    report = spectrum_table(m_max, alpha_max, state_cap=1)
    assert len(report.rows) == 2 + cells
    assert sum(r.verdict == "skipped" for r in report.rows) == cells


HUGE = 10**5000  # 5001 digits; str() refuses more than 4300


@pytest.mark.parametrize("call,stage,count,message", [
    (lambda: spectrum_table(HUGE, 2), "spectrum_table", HUGE - 1,
     "spectrum grid of <5000 digits> cells exceeds 10000"),
    (lambda: build_witness(HUGE, 2), "build_witness", (HUGE + 1) * HUGE // 2,
     "witness for (m=<5001 digits>, alpha=2) needs C(<5001 digits>, 2) states,"
     " more than the cap of 10000"),
    (lambda: verify_witness(2, HUGE), "build_witness", HUGE + 1,
     "witness for (m=2, alpha=<5001 digits>) needs C(<5001 digits>,"
     " <5001 digits>) states, more than the cap of 10000"),
], ids=["spectrum_table", "build_witness", "verify_witness"])
def test_capacity_message_names_a_huge_int_by_its_digits(call, stage, count, message):
    with pytest.raises(CapacityError) as info:
        call()
    assert (str(info.value), info.value.stage, info.value.count) == (
        message, stage, count
    )


@pytest.mark.parametrize("digits", [101, 102, 309, 1000, 4300, 4301, 5001, 20_000])
def test_int_text_counts_digits_at_powers_of_ten(digits):
    # 10**(d-1) is the least and 10**d - 1 the greatest int of d digits
    for value in (10 ** (digits - 1), 10**digits - 1):
        assert int_text(value) == int_text(-value) == f"<{digits} digits>"
    assert int_text(10**digits) == f"<{digits + 1} digits>"


def test_int_text_is_repr_up_to_100_digits():
    assert int_text(10**100 - 1) == "9" * 100
    assert int_text(10**100) == "<101 digits>"
    assert [int_text(v) for v in (0, -7, True, "x", 2.5)] == [
        "0", "-7", "True", "'x'", "2.5"
    ]


@pytest.mark.parametrize("call,message", [
    (lambda: colex_rank((HUGE, 0)),
     "subset (<5001 digits>, 0) is not a strictly increasing tuple of points >= 0"),
    (lambda: colex_unrank(5, HUGE, 0), "rank 5 out of range for 0-subsets of"
     " [<5001 digits>]"),
    (lambda: colex_unrank(HUGE, 5, 2), "rank <5001 digits> out of range for"
     " 2-subsets of [5]"),
    (lambda: colex_unrank(0, 5, HUGE), "rank 0 out of range for <5001 digits>"
     "-subsets of [5]"),
    (lambda: perm_inverse((HUGE, 0)), "(<5001 digits>, 0) is not a permutation of [2]"),
    (lambda: act_on_subset((HUGE, 0), (0,)),
     "(<5001 digits>, 0) is not a permutation of [2]"),
    (lambda: synthesize_word([(1, 0)], (HUGE, 0)),
     "(<5001 digits>, 0) is not a permutation of [2]"),
    (lambda: star_members(WitnessParams(2, HUGE), (0,)),
     "center must have <5000 digits> points (got 1)"),
], ids=["colex_rank", "colex_unrank_n", "colex_unrank_rank", "colex_unrank_k",
        "perm_inverse", "act_on_subset", "synthesize_word", "star_members"])
def test_argument_message_names_a_huge_int_by_its_digits(call, message):
    # str() of an int past 4300 digits raises its own ValueError
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_argument_checks_name_a_huge_int_by_its_digits():
    with pytest.raises(ValueError, match=r"^m must be an int >= 2 \(got <5001 digits>\)$"):
        check_int("m", -HUGE, 2)
    with pytest.raises(ValueError, match=r"^letter <5001 digits> is out of range$"):
        check_index("letter", HUGE, 26)
    with pytest.raises(ValueError, match=r"^point <5001 digits> is out of range for n=4$"):
        check_subset("subset", (1, HUGE), 4)
    with pytest.raises(ValueError, match=(
        r"^word must be a sequence of ints \(got \(<5001 digits>, None\)\)$"
    )):
        check_points("word", (HUGE, None))
    with pytest.raises(ValueError, match=(
        r"^s \(<5001 digits>, <5001 digits>\) has repeated points$"
    )):
        check_subset("s", (HUGE, HUGE), 4)
