import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from permrev.errors import CapacityError, NotInGroupError
from permrev.perms import (
    _inverse,
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

from conftest import perms


def test_cycle_perm_examples():
    assert cycle_perm(6) == (1, 2, 3, 4, 5, 0)
    assert cycle_perm(1) == (0,)
    assert cycle_perm(2) == (1, 0)
    with pytest.raises(ValueError):
        cycle_perm(0)


def test_transposition_perm_examples():
    assert transposition_perm(6) == (1, 0, 2, 3, 4, 5)
    assert transposition_perm(2) == cycle_perm(2)
    assert perm_from_word([transposition_perm(5)], (0, 0)) == identity_perm(5)
    with pytest.raises(ValueError):
        transposition_perm(1)


def compose(p, q):
    """"p then q", as perm_from_word composes a word's letters."""
    return perm_from_word([p, q], (0, 1))


def test_compose_with_identity():
    p = cycle_perm(4)
    assert compose(p, identity_perm(4)) == p
    assert compose(identity_perm(4), p) == p


def test_compose_cycle_squared():
    # point 1 -> 3, 2 -> 1, 3 -> 2 in 1-based terms
    assert compose(cycle_perm(3), cycle_perm(3)) == (2, 0, 1)


def test_compose_is_p_then_q():
    # transposition then cycle sends point 1 to 3 (1 -> 2 -> 3)
    assert compose(transposition_perm(3), cycle_perm(3)) == (2, 1, 0)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(cycle_perm(3), cycle_perm(4))


def test_inverse_examples():
    assert perm_inverse(identity_perm(3)) == identity_perm(3)
    assert perm_inverse(cycle_perm(6)) == (5, 0, 1, 2, 3, 4)
    assert perm_inverse(transposition_perm(6)) == transposition_perm(6)


@given(perms())
def test_inverse_cancels(p):
    assert compose(p, perm_inverse(p)) == identity_perm(len(p))


def inverse_by_sorting(p):
    """The inverse of ``p`` by sorting and search, or None unless the
    entries are ints, not bools, that sort to range(len(p))."""
    if not all(type(x) is int for x in p) or sorted(p) != [*range(len(p))]:
        return None
    return [p.index(q) for q in range(len(p))]


# tables of every kind, and permutations, which few random lists are
TABLES = st.one_of(
    st.lists(st.integers(-2, 10) | st.booleans(), max_size=9),
    st.integers(0, 9).flatmap(lambda n: st.permutations(range(n))),
)


@given(TABLES)
def test_one_permutation_rule_matches_sorting(p):
    expected = inverse_by_sorting(p)
    assert _inverse(p) == _inverse(tuple(p)) == expected


def test_inverse_reuses_the_tables_own_ints():
    # the witness walk's memory depends on this: its inverses add no int
    # objects to those of its columns
    p = [*range(1000)]
    random.Random(41).shuffle(p)
    p = [int(str(q)) for q in p]  # fresh objects, not range's
    inverse = _inverse(p)
    assert inverse == inverse_by_sorting(p)
    assert {*map(id, inverse)} <= {*map(id, p)}


def test_act_on_subset_examples():
    assert act_on_subset(identity_perm(6), (0, 2, 4)) == (0, 2, 4)
    assert act_on_subset(cycle_perm(6), (0, 1, 2)) == (1, 2, 3)
    # inverse cycle sends {1,2,3} to {1,2,6} in 1-based terms
    assert act_on_subset(perm_inverse(cycle_perm(6)), (0, 1, 2)) == (0, 1, 5)
    with pytest.raises(ValueError):
        act_on_subset(cycle_perm(3), (0, 4))


@given(perms(min_n=2), st.data())
def test_subset_action_is_group_action(p, data):
    n = len(p)
    q = tuple(data.draw(st.permutations(tuple(range(n)))))
    subset = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    assert act_on_subset(identity_perm(n), subset) == subset
    assert act_on_subset(compose(p, q), subset) == act_on_subset(
        q, act_on_subset(p, subset)
    )


# ---------------------------------------------------------------------
# colex ranking
# ---------------------------------------------------------------------

def test_ksubsets_colex_order():
    assert list(ksubsets(4, 2)) == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("n, k", [(3, -1), (-1, 0), (-2, -2)])
def test_ksubsets_rejects_negative_sizes(n, k):
    # k < 0 used to recurse until RecursionError
    with pytest.raises(ValueError):
        ksubsets(n, k)


def test_rank_matches_enumeration_order():
    for n, k in [(5, 2), (6, 3), (7, 4)]:
        for rank, subset in enumerate(ksubsets(n, k)):
            assert colex_rank(subset) == rank
            assert colex_unrank(rank, n, k) == subset


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        colex_unrank(math.comb(5, 2), 5, 2)


@pytest.mark.parametrize("call, message", [
    # colex_unrank(1.5, 5, 2) used to return (0, 2)
    (lambda: colex_unrank(1.5, 5, 2), "rank must be an int >= 0 (got 1.5)"),
    (lambda: colex_unrank(True, 5, 2), "rank must be an int >= 0 (got True)"),
    (lambda: colex_unrank(0, 5.0, 2), "n must be an int >= 0 (got 5.0)"),
    # the rest used to raise TypeError
    (lambda: ksubsets(5, 2.0), "k must be an int >= 0 (got 2.0)"),
    (lambda: ksubsets("5", 2), "n must be an int >= 0 (got '5')"),
    (lambda: cycle_perm(2.0), "n must be an int >= 1 (got 2.0)"),
    (lambda: cycle_perm(0), "n must be an int >= 1 (got 0)"),
    (lambda: transposition_perm(None), "n must be an int >= 2 (got None)"),
])
def test_sizes_must_be_ints(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# ---------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------

def test_orbit_under_identity():
    assert orbit([identity_perm(4)], (0, 1)) == [(0, 1)]


def test_orbit_of_4_subsets_is_everything():
    gens = [cycle_perm(6), transposition_perm(6)]
    assert len(orbit(gens, (0, 1, 2, 3))) == 15


def test_orbit_of_3_subsets_is_everything():
    gens = [cycle_perm(6), transposition_perm(6)]
    assert len(orbit(gens, (0, 1, 2))) == 20


def test_orbit_requires_generators():
    with pytest.raises(ValueError):
        orbit([], (0,))


def test_orbit_validates_points():
    with pytest.raises(ValueError):
        orbit([cycle_perm(3)], (0, 3))
    # a multiset seed would grow an orbit of multisets such as (2, 2)
    with pytest.raises(ValueError, match="repeated"):
        orbit([cycle_perm(3), transposition_perm(3)], (1, 1))


@pytest.mark.filterwarnings("error")
def test_orbit_rejects_a_seed_of_non_ints():
    with pytest.raises(ValueError) as info:
        orbit([cycle_perm(4), transposition_perm(4)], (0.5,))
    assert str(info.value) == "seed must be a sequence of ints (got (0.5,))"


@pytest.mark.parametrize("n", range(2, 7))
def test_orbit_sizes_are_binomials(n):
    gens = [cycle_perm(n), transposition_perm(n)]
    for k in range(1, n):
        assert len(orbit(gens, tuple(range(k)))) == math.comb(n, k)


# ---------------------------------------------------------------------
# word synthesis
# ---------------------------------------------------------------------

def test_synthesize_identity_is_empty_word():
    gens = [cycle_perm(5), transposition_perm(5)]
    assert synthesize_word(gens, identity_perm(5)) == ()


def test_synthesize_inverse_cycle_on_three_points():
    gens = [cycle_perm(3), transposition_perm(3)]
    word = synthesize_word(gens, perm_inverse(cycle_perm(3)))
    assert word == (0, 0)


def test_synthesize_generator_itself():
    gens = [cycle_perm(6), transposition_perm(6)]
    assert synthesize_word(gens, transposition_perm(6)) == (1,)


def test_synthesize_detects_missing_target():
    with pytest.raises(NotInGroupError):
        synthesize_word([identity_perm(4)], transposition_perm(4))


NOT_A_PERMUTATION = [(3, 0, 1)]  # point 3 is outside [3]; point 2 has no preimage


@pytest.mark.parametrize(
    "call",
    [
        lambda: perm_from_word(NOT_A_PERMUTATION, [0, 0]),
        lambda: orbit(NOT_A_PERMUTATION, (0,)),
        lambda: synthesize_word(NOT_A_PERMUTATION, identity_perm(3)),
        lambda: orbit([cycle_perm(3), (0, 0, 1)], (0,)),
        lambda: perm_inverse((0, 0)),
    ],
    ids=["perm_from_word", "orbit", "synthesize_word", "orbit-second-generator",
         "perm_inverse"],
)
def test_non_permutation_generators_rejected(call):
    # perm_from_word used to raise IndexError on the first of these;
    # perm_inverse((0, 0)) returned (1, 0)
    with pytest.raises(ValueError):
        call()


def test_synthesize_respects_group_cap(monkeypatch):
    # the cap is read at call time
    monkeypatch.setattr("permrev.perms.MAX_GROUP_ELEMENTS", 3)
    gens = [cycle_perm(5), transposition_perm(5)]
    target = perm_inverse(cycle_perm(5))
    with pytest.raises(CapacityError) as info:
        synthesize_word(gens, target)
    assert (str(info.value), info.value.count, info.value.stage) == (
        "group closure exceeded 3 elements", 3, "synthesize_word"
    )


def test_synthesize_size_mismatch():
    with pytest.raises(ValueError):
        synthesize_word([cycle_perm(4)], cycle_perm(5))


def test_synthesize_rejects_a_non_permutation_target_before_searching(monkeypatch):
    # the target used to be checked only for its length, so (0,) * 8 walked
    # all of S8 before NotInGroupError
    def searched(*args):
        raise AssertionError("the group search was entered")

    monkeypatch.setattr("permrev.perms.identity_perm", searched)
    monkeypatch.setattr("permrev.perms._compose", searched)
    gens = [cycle_perm(8), transposition_perm(8)]
    with pytest.raises(ValueError) as info:
        synthesize_word(gens, (0,) * 8)
    assert type(info.value) is ValueError


def test_synthesized_words_recompose():
    rng = random.Random(7)
    for n in range(2, 6):
        gens = [cycle_perm(n), transposition_perm(n)]
        for _ in range(25):
            target = list(range(n))
            rng.shuffle(target)
            target = tuple(target)
            word = perm_from_word(gens, synthesize_word(gens, target))
            assert word == target
