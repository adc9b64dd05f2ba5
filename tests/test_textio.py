import hashlib
import json
import random
import tracemalloc
from itertools import chain, combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from permrev import textio
from permrev.dfa import Dfa
from permrev.reversal import reverse_construction, reverse_dfa
from permrev.records import replace
from permrev.spectrum import magic_one_probe, spectrum_table, trivial_rows
from permrev.textio import (
    ParseError,
    emit_dfa,
    emit_dot,
    letter_name,
    parse_dfa,
    report_to_json,
    word_from_str,
)
from permrev.witness import (
    WitnessParams,
    build_witness,
    classify_reverse_states,
    star_label,
    verify_witness,
)

from conftest import dfas
from oracles import (
    emit_dfa_by_lines, emit_dot_by_lines, parse_dfa_by_lines, random_dfa
)

SIGMA_STAR = Dfa(1, 2, ((0,), (0,)), 0, frozenset({0}))


# ---------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------

def test_one_state_document_is_four_lines():
    text = emit_dfa(SIGMA_STAR)
    assert text == "dfa 1 2\nstart 0\nfinals 0\nstate 0 : 0 0\n"
    assert parse_dfa(text) == SIGMA_STAR


def test_labeled_witness_roundtrip():
    dfa = build_witness(2, 2)
    text = emit_dfa(dfa)
    assert "[12]" in text and "[13]" in text and "[23]" in text
    assert parse_dfa(text) == dfa


def test_empty_finals_roundtrip():
    dfa = Dfa(1, 1, ((0,),), 0, frozenset())
    assert parse_dfa(emit_dfa(dfa)) == dfa


def test_empty_label_roundtrip():
    # the reverse of the empty language has one state: the empty subset,
    # whose comma-joined label is the empty string
    rev = reverse_dfa(Dfa(1, 2, ((0,), (0,)), 0, frozenset()))
    assert rev.labels == ("",)
    assert "[]" in emit_dfa(rev)
    assert parse_dfa(emit_dfa(rev)) == rev


@given(dfas())
def test_roundtrip_random(dfa):
    assert parse_dfa(emit_dfa(dfa)) == dfa


@given(dfas(max_states=4, max_alphabet=2))
def test_roundtrip_random_labeled(dfa):
    labeled = Dfa(
        dfa.num_states,
        dfa.alphabet_size,
        dfa.columns,
        dfa.start,
        dfa.finals,
        labels=tuple(f"s{q}" for q in range(dfa.num_states)),
    )
    assert parse_dfa(emit_dfa(labeled)) == labeled


def test_missing_header():
    with pytest.raises(ParseError) as info:
        parse_dfa("start 0\n")
    assert info.value.line == 1


def test_start_out_of_range_is_positioned():
    text = "dfa 3 1\nstart 5\nfinals\nstate 0 : 0\nstate 1 : 1\nstate 2 : 2\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert info.value.line == 2
    assert info.value.column == 7


def test_duplicate_state_line():
    text = "dfa 2 1\nstart 0\nfinals\nstate 0 : 0\nstate 0 : 1\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert info.value.line == 5


def test_wrong_image_count():
    with pytest.raises(ParseError):
        parse_dfa("dfa 1 2\nstart 0\nfinals\nstate 0 : 0\n")


def test_image_out_of_range():
    with pytest.raises(ParseError):
        parse_dfa("dfa 1 1\nstart 0\nfinals\nstate 0 : 4\n")


def test_missing_state_line():
    with pytest.raises(ParseError) as info:
        parse_dfa("dfa 2 1\nstart 0\nfinals\nstate 0 : 0\n")
    assert "state 1" in str(info.value)


def test_header_count_bounded_by_state_lines():
    # a count the text could hold: the first gap is named
    text = "dfa 5 1\nstart 0\nfinals\nstate 0 : 0\nstate 1 : 1\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.column) == (5, 1)
    assert "missing 'state 2' line" in str(info.value)


def test_huge_header_count_is_refused_before_allocation():
    # the numeral table is built only for a count no larger than the text
    text = (
        "dfa 100000000 2\nstart 0\nfinals\n"
        "state 0 : 1 0\nstate 1 : 2 1\nstate 2 : 0 2\n"
    )
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "line 6, column 1: missing 'state 3' line"
    assert peak < 1_000_000


def test_duplicate_reported_before_missing():
    text = "dfa 3 1\nstart 0\nfinals\nstate 0 : 0\nstate 0 : 0\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.column) == (5, 7)
    assert "duplicate" in str(info.value)


def test_inconsistent_labeling():
    text = "dfa 2 1\nstart 0\nfinals\nstate 0 [x] : 0\nstate 1 : 1\n"
    with pytest.raises(ParseError):
        parse_dfa(text)


def test_non_integer_token():
    with pytest.raises(ParseError):
        parse_dfa("dfa one 2\n")


def test_unwritable_label():
    bad = Dfa(1, 1, ((0,),), 0, frozenset(), labels=("has space",))
    with pytest.raises(ValueError):
        emit_dfa(bad)


@pytest.mark.parametrize("label", [
    "a b", "a\tb", "a\x1fb", "a\xa0b", "a\u3000b", "a\u2028b", " ", "[", "a]",
])
def test_unwritable_label_is_named(label):
    # whitespace is what str.split() splits on, so no label can break a line
    dfa = Dfa(3, 1, ((0, 1, 2),), 0, frozenset(), labels=("", label, "x y"))
    with pytest.raises(ValueError) as info:
        emit_dfa(dfa)
    assert str(info.value) == (
        f"label {label!r} cannot be written to the text format"
    )


def test_empty_and_punctuated_labels_are_writable():
    labels = ("", "1.2.3.4.10", 'a"b\\c', "S(123)", "")
    dfa = Dfa(5, 1, (tuple(range(5)),), 0, frozenset(), labels=labels)
    assert parse_dfa(emit_dfa(dfa)) == dfa


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_dfa("")


HEAD = "dfa 2 1\nstart 0\nfinals 1\n"
HEAD2 = "dfa 2 2\nstart 0\nfinals 1\n"
# more digits than int() converts by default (4300)
BIG = "1" * 5000
TOO_LONG = "expected {}, got a number of 5000 digits"


PINNED_ERRORS = pytest.mark.parametrize("text,line,column,message", [
    ("", 1, 1, "expected 'dfa' header"),
    ("  \n\t\n", 1, 1, "expected 'dfa' header"),
    ("  dfx 2 1\n", 1, 3, "expected 'dfa' header"),
    ("dfa 2 1 9\n", 1, 9, "expected 'dfa <num_states> <alphabet_size>'"),
    ("dfa 2\n", 1, 5, "expected 'dfa <num_states> <alphabet_size>'"),
    ("dfa two 1\n", 1, 5, "expected a state count, got 'two'"),
    ("dfa 2 b\n", 1, 7, "expected an alphabet size, got 'b'"),
    ("dfa 1_0 1\n", 1, 5, "expected a state count, got '1_0'"),
    ("dfa 0 1\n", 1, 5, "state count must be >= 1"),
    ("dfa 2 -1\n", 1, 7, "alphabet size must be >= 1"),
    ("dfa 2 1\n\n\n", 1, 1, "expected 'start' line"),
    ("dfa 2 1\n  begin 0\n", 2, 3, "expected 'start <index>'"),
    ("dfa 2 1\nstart 0 1\n", 2, 1, "expected 'start <index>'"),
    ("dfa 2 1\nstart x\n", 2, 7, "expected a state index, got 'x'"),
    ("dfa 2 1\nstart +0\n", 2, 7, "expected a state index, got '+0'"),
    ("dfa 2 1\nstart\t2\n", 2, 7, "start state 2 is out of range"),
    ("dfa 2 1\r\nstart 5\r\n", 2, 7, "start state 5 is out of range"),
    ("dfa 2 1\x1cstart 9\n", 2, 7, "start state 9 is out of range"),
    ("dfa 2 1\nstart 0\n", 2, 1, "expected 'finals' line"),
    ("dfa 2 1\nstart 0\nfinal 1\n", 3, 1, "expected 'finals' line"),
    ("dfa 2 1\nstart 0\nfinals 1 y\n", 3, 10, "expected a state index, got 'y'"),
    ("dfa 2 1\nstart 0\nfinals \u0663\n", 3, 8,
     "expected a state index, got '\u0663'"),
    ("dfa 2 1\nstart 0\nfinals 0  5\n", 3, 11, "final state 5 is out of range"),
    ("dfa 2 1\nstart 0\nfinals 7 y\n", 3, 8, "final state 7 is out of range"),
    (HEAD + "stat 0 : 1\n", 4, 1, "expected 'state' line"),
    (HEAD + "  state\n", 4, 3, "expected 'state <index>'"),
    (HEAD + "state zero : 1\n", 4, 7, "expected a state index, got 'zero'"),
    (HEAD + "state 2 : 1\n", 4, 7, "state 2 is out of range"),
    (HEAD + "state 0 : 1\nstate\t 0 : 0\n", 5, 8, "duplicate line for state 0"),
    (HEAD + "state 0 [a]b : 1\n", 4, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [a : 1\n", 4, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [a[b] : 1\n", 4, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [x] : 1\nstate 1 : 0\n", 5, 1,
     "state lines must be labeled consistently"),
    (HEAD + "state 0 : 1\n state 1 [x] : 0\n", 5, 2,
     "state lines must be labeled consistently"),
    (HEAD + "state 0 - 1\n", 4, 9, "expected ':' before the transition images"),
    (HEAD + "state 0\n", 4, 7, "expected ':' before the transition images"),
    (HEAD + "state 0 [x]\n", 4, 9, "expected ':' before the transition images"),
    (HEAD + "state 0 : 1 0\n", 4, 13, "expected 1 transition images, got 2"),
    (HEAD + "state 0 :\n", 4, 9, "expected 1 transition images, got 0"),
    (HEAD + "state 0 [] :\n", 4, 12, "expected 1 transition images, got 0"),
    (HEAD + "state 0 : z\n", 4, 11, "expected a state index, got 'z'"),
    (HEAD + "state 0 : 2\n", 4, 11, "image 2 is out of range"),
    (HEAD + "state 0 : -1\n", 4, 11, "image -1 is out of range"),
    (HEAD2 + "state 0 : 9 z\n", 4, 11, "image 9 is out of range"),
    (HEAD2 + "state 0 : z 9\n", 4, 11, "expected a state index, got 'z'"),
    (HEAD2 + "state 0 : 1 z\n", 4, 13, "expected a state index, got 'z'"),
    (HEAD2 + "state 0 : 1 -3\n", 4, 13, "image -3 is out of range"),
    (HEAD + "state\x1f0\xa0:\u3000z\n", 4, 11, "expected a state index, got 'z'"),
    (HEAD + "state 1 : 0\n\n", 4, 1, "missing 'state 0' line"),
    ("dfa 3 1\nstart 0\nfinals\nstate 0 : 0\nstate 2 : 2\n", 5, 1,
     "missing 'state 1' line"),
    # a number is 0 or -?[1-9][0-9]*, the one form emit_dfa writes
    ("dfa 02 1\n", 1, 5, "expected a state count, got '02'"),
    ("dfa 2 -0\n", 1, 7, "expected an alphabet size, got '-0'"),
    ("dfa 2 1\nstart -0\n", 2, 7, "expected a state index, got '-0'"),
    ("dfa 2 1\nstart -1\n", 2, 7, "start state -1 is out of range"),
    ("dfa 2 1\nstart 0\nfinals 007\n", 3, 8, "expected a state index, got '007'"),
    ("dfa 2 1\nstart 0\nfinals 0 01\n", 3, 10, "expected a state index, got '01'"),
    (HEAD + "state 01 : 0\n", 4, 7, "expected a state index, got '01'"),
    (HEAD + "state -0 : 0\n", 4, 7, "expected a state index, got '-0'"),
    (HEAD + "state 0 : 00\n", 4, 11, "expected a state index, got '00'"),
    (HEAD2 + "state 0 : 0 -0\n", 4, 13, "expected a state index, got '-0'"),
    (f"dfa {BIG} 1\n", 1, 5, TOO_LONG.format("a state count")),
    (f"dfa 2 {BIG}\n", 1, 7, TOO_LONG.format("an alphabet size")),
    (f"dfa 2 1\nstart {BIG}\n", 2, 7, TOO_LONG.format("a state index")),
    (f"dfa 2 1\nstart 0\nfinals 1 {BIG}\n", 3, 10, TOO_LONG.format("a state index")),
    (HEAD + f"state {BIG} : 0\nstate 1 : 0\n", 4, 7, TOO_LONG.format("a state index")),
    (HEAD + f"state 0 : 1\nstate 1 [x] : {BIG}\n", 5, 1,
     "state lines must be labeled consistently"),
    (HEAD2 + f"state 0 : 0 {BIG}\nstate 1 : 0 0\n", 4, 13,
     TOO_LONG.format("a state index")),
    # tokens that the state block's numeral lookup refuses, and the labels
    # that its one split refuses, in the last line and in the first
    (HEAD + "state 0 : 1\nstate +1 : 0\n", 5, 7, "expected a state index, got '+1'"),
    (HEAD + "state 0 : 1\nstate 1 : +1\n", 5, 11, "expected a state index, got '+1'"),
    (HEAD + "state 0 : 1\nstate 1_0 : 0\n", 5, 7,
     "expected a state index, got '1_0'"),
    (HEAD + "state 0 : 1\nstate 1 : 1_0\n", 5, 11,
     "expected a state index, got '1_0'"),
    (HEAD + f"state 0 : 1\nstate {BIG} : 0\n", 5, 7, TOO_LONG.format("a state index")),
    (HEAD + f"state 0 : 1\nstate 1 : {BIG}\n", 5, 11, TOO_LONG.format("a state index")),
    (HEAD + "state 0 [a] : 1\nstate 1 [a][b] : 0\n", 5, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [a][b] : 1\nstate 1 [b] : 0\n", 4, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [a] : 1\nstate 1 [a]] : 0\n", 5, 9, "expected '[<label>]'"),
    (HEAD + "state 0 [a]] : 1\nstate 1 [b] : 0\n", 4, 9, "expected '[<label>]'"),
    # "[a" and "b]" join to one bracketed piece
    (HEAD + "state 0 [a : 1\nstate 1 b] : 0\n", 4, 9, "expected '[<label>]'"),
], ids=[
    "empty", "blank", "header", "header_long", "header_short", "state_count",
    "alphabet_size", "state_count_underscore", "state_count_zero",
    "alphabet_size_negative", "start_missing", "start_keyword", "start_long",
    "start_index", "start_plus", "start_range", "start_range_crlf",
    "start_range_file_separator", "finals_missing", "finals_keyword",
    "finals_index", "finals_digit_other_script", "finals_range",
    "finals_range_first", "state_keyword", "state_short", "state_index",
    "state_range", "state_duplicate", "label_trailing", "label_open",
    "label_nested", "labels_dropped", "labels_added", "colon_other",
    "colon_missing", "colon_missing_labeled", "images_too_many",
    "images_none", "images_none_labeled", "image_index", "image_range",
    "image_negative", "image_range_first", "image_index_first",
    "image_index_second", "image_range_second", "unicode_whitespace",
    "state_missing", "state_gap", "state_count_leading_zero",
    "alphabet_size_minus_zero", "start_minus_zero", "start_negative",
    "finals_leading_zeros", "finals_zero_then_leading_zero",
    "state_leading_zero", "state_minus_zero", "image_leading_zero",
    "image_minus_zero", "state_count_too_long", "alphabet_size_too_long",
    "start_too_long", "finals_too_long", "state_too_long",
    "too_long_after_labels_added", "image_too_long", "last_state_plus",
    "last_image_plus", "last_state_underscore", "last_image_underscore",
    "last_state_too_long", "last_image_too_long", "last_label_two",
    "first_label_two", "last_label_closed_twice", "first_label_closed_twice",
    "label_split_across_lines",
])


def check_parse_error(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


@PINNED_ERRORS
def test_parse_error_positions_are_pinned(text, line, column, message):
    check_parse_error(text, line, column, message)


# parse_dfa cutting a chunk past 16, 32 or 48 characters, so that a chunk
# holds one state line or several. The size is patched in the test body:
# Hypothesis refuses a function-scoped fixture under @given, as its
# examples would share it.
FEW_LINE_CHUNKS = pytest.mark.parametrize("size", [1, 2, 3])


@FEW_LINE_CHUNKS
@PINNED_ERRORS
def test_parse_error_positions_hold_in_small_slices(size, text, line, column, message):
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        check_parse_error(text, line, column, message)


MUTATION_TOKENS = ("dfa", "start", "finals", "state", ":", "[", "[]", "[s0]")


@st.composite
def mutated_documents(draw):
    """The emitted text of a random DFA with one token dropped, duplicated
    or replaced."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dfa = random_dfa(rng, max_states=4, alphabet_size=draw(st.integers(1, 2)))
    if draw(st.booleans()):
        labels = tuple(f"s{q}" for q in range(dfa.num_states))
        dfa = replace(dfa, labels=labels)
    lines = [line.split() for line in emit_dfa(dfa).splitlines()]
    # The position and the action come from the seeded rng, so that they
    # spread evenly over the document instead of clustering on the header.
    line = rng.choice(lines)
    j = rng.randrange(len(line))
    action = rng.choice(("drop", "duplicate", "replace"))
    if action == "drop":
        del line[j]
    elif action == "duplicate":
        line.insert(j, line[j])
    else:
        line[j] = draw(
            st.integers(-2, 6).map(str)
            | st.sampled_from(MUTATION_TOKENS)
            | st.text(min_size=1)
        )
    return "\n".join(" ".join(line) for line in lines) + "\n"


def test_well_formed_document_computes_no_column(monkeypatch):
    # columns are found only for an error; a good document never asks
    docs = [emit_dfa(dfa) for dfa in grid_dfas()]

    def fail(line, k):
        raise AssertionError("a column was computed")

    monkeypatch.setattr(textio, "_column", fail)
    monkeypatch.setattr(textio, "_TOKEN", None)
    for text in docs:
        parse_dfa(text)


SPLIT_TEXT = st.text(
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000"
                    "\u2028\u2029\u202f\u3000\u200b\ufeffab[]:0")
    | st.characters()
)


@given(SPLIT_TEXT)
def test_split_tokens_match_the_column_pattern(text):
    # parse_dfa splits with str.split(); _column counts tokens with _TOKEN
    for line in text.splitlines():
        assert line.split() == textio._TOKEN.findall(line)


@settings(max_examples=300)
@given(mutated_documents())
def test_parse_error_column_starts_a_token(text):
    try:
        parse_dfa(text)
    except ParseError as err:
        lines = text.splitlines()
        line = lines[err.line - 1] if err.line <= len(lines) else ""
        starts = {m.start() + 1 for m in textio._TOKEN.finditer(line)}
        assert err.column == 1 or err.column in starts


def check_parse_roundtrips_or_raises(text):
    # parse_dfa accepts what the line-by-line oracle accepts, with its Dfa
    expected = parse_dfa_by_lines(text)
    try:
        dfa = parse_dfa(text)
    except ParseError:
        assert expected is None
        return
    assert dfa == expected
    assert parse_dfa(emit_dfa(dfa)) == dfa


# header counts of more digits than int() converts
@example(f"dfa {BIG} 1\nstart 0\nfinals\nstate 0 : 0\n")
@example(f"dfa 1 {BIG}\nstart 0\nfinals\nstate 0 : 0\n")
@given(st.text())
def test_parse_arbitrary_text_roundtrips_or_raises(text):
    check_parse_roundtrips_or_raises(text)


@settings(max_examples=300)
@given(mutated_documents())
def test_parse_mutated_document_roundtrips_or_raises(text):
    check_parse_roundtrips_or_raises(text)


KEYWORDS = ("dfa", "start", "finals", "state", ":")


@st.composite
def value_mutated_documents(draw):
    """The emitted text of a random DFA with one value changed: a count, a
    state index, a transition image or a label. Every keyword stays in
    place, so each example gets past the parser's structural checks."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dfa = random_dfa(rng, max_states=4, alphabet_size=draw(st.integers(1, 2)))
    if draw(st.booleans()):
        labels = tuple(f"s{q}" for q in range(dfa.num_states))
        dfa = replace(dfa, labels=labels)
    lines = [line.split() for line in emit_dfa(dfa).splitlines()]
    values = [
        (i, j)
        for i, line in enumerate(lines)
        for j, token in enumerate(line)
        if token not in KEYWORDS
    ]
    # As above, the position comes from the seeded rng so that it spreads
    # over the document.
    i, j = rng.choice(values)
    if lines[i][j].startswith("["):
        printable = st.characters(blacklist_categories=("Z", "C"))
        lines[i][j] = "[" + draw(st.text(printable, max_size=3)) + "]"
    else:
        lines[i][j] = str(draw(st.integers(-1, dfa.num_states + 1)))
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300)
@given(value_mutated_documents())
def test_parse_value_mutated_document_roundtrips_or_raises(text):
    check_parse_roundtrips_or_raises(text)


# ---------------------------------------------------------------------
# documents aimed at the state-block pass
# ---------------------------------------------------------------------

# The SPLIT_TEXT whitespace that does not end a line, and the line ends
LINE_SPACE = " \t\x1f\xa0\u1680\u2000\u202f\u3000"
LINE_ENDS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
             "\u2028", "\u2029")
LABELS = ("", "1.2.3.4.10", 'a"b\\c', "S(123)", ":", "state", "0", "\u0663")


def random_document_lines(rng, labeled):
    """The token lists of an emitted random DFA, labeled or not."""
    dfa = random_dfa(rng, max_states=5, alphabet_size=rng.randint(1, 3))
    if labeled:
        labels = tuple(rng.choice(LABELS + (f"s{q}",)) for q in range(dfa.num_states))
        dfa = replace(dfa, labels=labels)
    return [line.split() for line in emit_dfa(dfa).splitlines()]


@st.composite
def spaced_documents(draw):
    """An emitted random DFA with its state lines shuffled, blank lines
    added, and runs of whitespace between and around the tokens."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lines = random_document_lines(rng, draw(st.booleans()))
    states = lines[3:]
    rng.shuffle(states)
    lines = lines[:3] + states
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), [])

    def space():
        return "".join(rng.choices(LINE_SPACE, k=rng.randint(1, 3)))

    texts = [
        rng.choice(("", space())) + space().join(tokens) + rng.choice(("", space()))
        for tokens in lines
    ]
    return "".join(text + rng.choice(LINE_ENDS) for text in texts)


@given(spaced_documents())
def test_parse_spaced_shuffled_document_matches_oracle(text):
    assert parse_dfa_by_lines(text) is not None
    check_parse_roundtrips_or_raises(text)


@FEW_LINE_CHUNKS
@given(spaced_documents())
def test_spaced_shuffled_document_in_small_slices_matches_oracle(size, text):
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        check_parse_roundtrips_or_raises(text)


BAD_NUMBERS = ("00", "07", "-0", "-1", "\u0663", "n", "state", ":", "[x]", "+1",
               "1_0", BIG)
BAD_LABELS = ("[a]b]", "[a[b]", "[]]", "[[]", "[", "]", "a]", ":", "[a][b]", "[a]]")
BAD_COLONS = ("state", "n", "0", "[x]", "::")
BAD_KEYWORDS = ("stat", ":", "0", "[x]")


@st.composite
def same_width_documents(draw):
    """An emitted random DFA with one change to its state lines that keeps
    every line's token count: two tokens swapped, in one line or between
    two, or one token replaced or given a leading zero."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    labeled = draw(st.booleans())
    lines = random_document_lines(rng, labeled)
    n = len(lines) - 3
    states = lines[3:]
    line = rng.choice(states)
    colon = line.index(":")
    action = rng.choice(
        ("swap_within", "swap_across", "index", "image", "label", "colon",
         "keyword", "zero")
    )
    if action == "swap_within":
        i, j = rng.randrange(len(line)), rng.randrange(len(line))
        line[i], line[j] = line[j], line[i]
    elif action == "swap_across":
        other = rng.choice(states)
        i, j = rng.randrange(len(line)), rng.randrange(len(other))
        line[i], other[j] = other[j], line[i]
    elif action in ("index", "image"):
        j = 1 if action == "index" else rng.randrange(colon + 1, len(line))
        line[j] = rng.choice((str(rng.randrange(n)), str(n), rng.choice(BAD_NUMBERS)))
    elif action == "label" and labeled:
        line[2] = rng.choice(BAD_LABELS)
    elif action == "colon":
        line[colon] = rng.choice(BAD_COLONS)
    elif action == "keyword":
        line[0] = rng.choice(BAD_KEYWORDS)
    else:  # "zero", and "label" on an unlabeled document
        j = rng.choice([1, *range(colon + 1, len(line))])
        line[j] = "0" + line[j]
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=300)
@given(same_width_documents())
def test_parse_same_width_mutation_matches_oracle(text):
    check_parse_roundtrips_or_raises(text)


@FEW_LINE_CHUNKS
@settings(max_examples=300)
@given(same_width_documents())
def test_same_width_mutation_in_small_slices_matches_oracle(size, text):
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        check_parse_roundtrips_or_raises(text)


@FEW_LINE_CHUNKS
@settings(max_examples=300)
@given(value_mutated_documents())
def test_value_mutated_document_in_small_slices_matches_oracle(size, text):
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        check_parse_roundtrips_or_raises(text)


# Four state lines. At 16 characters lines 4-5 and 6-7 are two chunks; at
# 32 and 48 the header's chunk holds line 4, or lines 4-5
FOUR = "dfa 4 1\nstart 0\nfinals 3\n"


@pytest.mark.parametrize("size", [1, 2, 3, 512])
@pytest.mark.parametrize("text,line,column,message", [
    (FOUR + "state 0 [a] : 1\nstate 1 [b] : 2\nstate 2 : 3\nstate 3 : 0\n", 6, 1,
     "state lines must be labeled consistently"),
    (FOUR + "state 0 : 1\nstate 1 : 2\nstate 2 [c] : 3\nstate 3 [d] : 0\n", 6, 1,
     "state lines must be labeled consistently"),
    (FOUR + "state 0 : 1\nstate 1 : 2\nstate 2 : 3 0\nstate 3 : 0\n", 6, 13,
     "expected 1 transition images, got 2"),
    (FOUR + "state 0 : 1\nstate 1 : 2\nstate 1 : 3\nstate 3 : 0\n", 6, 7,
     "duplicate line for state 1"),
    (FOUR + "state 0 : 1\nstate 1 : 2\nstate 2 : 3\nstate 3 : 4\n", 7, 11,
     "image 4 is out of range"),
    (FOUR + "state 0 [a] : 1\nstate 1 [b] : 2\nstate 2 [c] : 3\nstate 3 [d : 0\n", 7, 9,
     "expected '[<label>]'"),
    (FOUR + "state 0 : 1\nstate 1 : 2\n \n\t\n", 5, 1, "missing 'state 2' line"),
], ids=["labeled_then_unlabeled", "unlabeled_then_labeled", "width_change",
        "index_in_two_slices", "late_image_range", "late_label", "blank_last_slice"])
def test_parse_error_across_slices_is_positioned(size, text, line, column, message):
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        check_parse_error(text, line, column, message)


@pytest.mark.parametrize("size", [1, 2, 3, 512])
@pytest.mark.parametrize("labeled", [False, True])
def test_blank_lines_on_a_slice_boundary_are_skipped(size, labeled):
    # the last chunk is blank at 16 characters labeled and at 32 unlabeled,
    # and other chunks start or end blank
    lines = ["state 0 [a] : 1", "state 1 [b] : 2", "", " \t ",
             "state 3 [d] : 0", "\u3000", "state 2 [c] : 3", ""]
    if not labeled:
        lines = [" ".join(t for t in line.split(" ") if "[" not in t) for line in lines]
    text = FOUR + "\n".join(lines) + "\n"
    labels = ("a", "b", "c", "d") if labeled else None
    expected = Dfa(4, 1, ((1, 2, 3, 0),), 0, frozenset({3}), labels)
    assert parse_dfa_by_lines(text) == expected
    with patch.object(textio, "CHUNK_CHARS", 16 * size):
        assert parse_dfa(text) == expected


# ---------------------------------------------------------------------
# documents split into chunks of lines
# ---------------------------------------------------------------------

# parse_dfa cutting a chunk at the first "\n" at or past 1, 2 or 3
# characters, so that each line of three or more characters ends a chunk
SMALL_CHUNKS = pytest.mark.parametrize("chars", [1, 2, 3])


@SMALL_CHUNKS
@PINNED_ERRORS
def test_parse_error_positions_hold_in_small_chunks(chars, text, line, column, message):
    with patch.object(textio, "CHUNK_CHARS", chars):
        check_parse_error(text, line, column, message)


@SMALL_CHUNKS
@given(spaced_documents())
def test_spaced_shuffled_document_in_small_chunks_matches_oracle(chars, text):
    with patch.object(textio, "CHUNK_CHARS", chars):
        check_parse_roundtrips_or_raises(text)


@SMALL_CHUNKS
@settings(max_examples=300)
@given(same_width_documents())
def test_same_width_mutation_in_small_chunks_matches_oracle(chars, text):
    with patch.object(textio, "CHUNK_CHARS", chars):
        check_parse_roundtrips_or_raises(text)


@SMALL_CHUNKS
@settings(max_examples=300)
@given(value_mutated_documents())
def test_value_mutated_document_in_small_chunks_matches_oracle(chars, text):
    with patch.object(textio, "CHUNK_CHARS", chars):
        check_parse_roundtrips_or_raises(text)


SWAP = Dfa(2, 1, ((1, 0),), 0, frozenset({1}))


def chunk_lines(text, chars):
    with patch.object(textio, "CHUNK_CHARS", chars):
        return [*textio._chunks(text)]


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_chunks_cut_only_at_line_ends(end):
    # a cut at any "\n", that of "\r\n" included, keeps every line whole
    text = end.join(emit_dfa(SWAP).splitlines()) + end
    for chars in range(1, len(text) + 2):
        chunks = chunk_lines(text, chars)
        assert [*chain.from_iterable(chunks)] == text.splitlines()
        # its shortest line has 7 characters, so up to 7 each is one chunk
        if chars <= 7:
            assert len(chunks) == 5
        with patch.object(textio, "CHUNK_CHARS", chars):
            assert parse_dfa(text) == SWAP


@pytest.mark.parametrize("end", ["\r", "\u2028"])
def test_line_ends_other_than_newline_make_one_chunk(end):
    text = end.join(emit_dfa(SWAP).splitlines()) + end
    assert chunk_lines(text, 1) == [text.splitlines()]
    with patch.object(textio, "CHUNK_CHARS", 1):
        assert parse_dfa(text) == SWAP
        check_parse_error(text.replace("start 0", "start 9"), 2, 7,
                          "start state 9 is out of range")


@pytest.mark.parametrize("chars", [1, 2, 3, 7, 40])
def test_blank_lines_before_the_header_span_chunks(chars):
    blank = "\n" * 30 + " \t\n" * 10
    assert len(chunk_lines(blank, chars)) > 1
    with patch.object(textio, "CHUNK_CHARS", chars):
        assert parse_dfa(blank + emit_dfa(SWAP)) == SWAP
        check_parse_error(blank + "dfa 2 1\n\n" + blank + "start 9\n", 83, 7,
                          "start state 9 is out of range")
        check_parse_error(blank + "dfa 2 1\nstart 0\n" + blank, 42, 1,
                          "expected 'finals' line")


def test_header_count_past_the_text_builds_no_table(monkeypatch):
    # a state line takes more than one character: no numeral table is built
    text = "dfa 1000000000000 1\nstart 0\nfinals\nstate 0 : 0\n"

    def fail(*args):
        raise AssertionError("the state block was read")

    monkeypatch.setattr(textio, "_state_block", fail)
    check_parse_error(text, 4, 1, "missing 'state 1' line")


def test_parse_peak_memory_is_bounded():
    # the (8, 7) reverse document: 466 678 bytes and 3003 state lines.
    # Splitting every line before checking any peaked at 4 285 485 bytes;
    # a slice at a time, with the whole line list, 2 252 936 bytes; a chunk
    # of lines at a time, the parse holds the numeral table, the Dfa and one
    # chunk's lines and tokens: 1 099 663 bytes (Python 3.11)
    text = emit_dfa(reverse_dfa(build_witness(8, 7)))
    tracemalloc.start()
    try:
        dfa = parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dfa.num_states == 3003
    assert peak < 1_500_000


def test_short_lines_are_read_a_whole_chunk_at_a_time():
    # 100 000 state lines of 11 to 19 characters: the densest chunk holds
    # 527 of them, and a chunk is the one bound on the lines held at once
    n = 100_000
    cycle = Dfa(n, 1, ((*range(1, n), 0),), 0, frozenset({0}))
    text = emit_dfa(cycle)
    chunks = [*textio._chunks(text)]
    assert [*chain.from_iterable(chunks)] == text.splitlines()
    assert max(map(len, chunks)) == 527
    for lines in chunks[:-1]:
        # cut at the first "\n" past CHUNK_CHARS characters, and nowhere else
        assert sum(map(len, lines[:-1])) + len(lines) - 1 <= textio.CHUNK_CHARS
        assert sum(map(len, lines)) + len(lines) > textio.CHUNK_CHARS
    tracemalloc.start()
    try:
        dfa = parse_dfa(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dfa == cycle
    # 16 210 272 bytes on Python 3.10, 15 182 733 on 3.11, 14 348 821 on
    # 3.12 and 14 348 837 on 3.13: the numeral table's dict is the bulk,
    # and 3.10 stores a hash beside each of its str keys
    assert peak < 17_000_000


WITNESS_7_7 = emit_dfa(build_witness(7, 7)).splitlines()


@pytest.mark.parametrize("old,new,token,message", [
    (" : ", " ", 3, "expected ':' before the transition images"),
    (" 1715\n", " 1716\n", 5, "image 1716 is out of range"),
    ("state 1715 ", "state 42 ", 1, "duplicate line for state 42"),
    ("] : ", " : ", 2, "expected '[<label>]'"),
], ids=["colon_missing", "image_range", "state_duplicate", "label_open"])
def test_late_error_in_a_large_document_is_positioned(old, new, token, message):
    # only the last of 1716 state lines is bad; the error names it
    lines = WITNESS_7_7[:]
    assert lines[-1].startswith("state 1715 [") and lines[-1].endswith(" 1715")
    lines[-1] = (lines[-1] + "\n").replace(old, new).rstrip("\n")
    column = len(lines[-1]) - len(lines[-1].split(None, token)[-1]) + 1
    with pytest.raises(ParseError) as info:
        parse_dfa("\n".join(lines) + "\n")
    assert (info.value.line, info.value.column) == (len(lines), column)
    assert str(info.value) == f"line {len(lines)}, column {column}: {message}"


# ---------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------

def test_dot_self_loops_per_letter():
    dot = emit_dot(SIGMA_STAR)
    assert dot.count("q0 -> q0") == 2
    assert 'shape=doublecircle' in dot
    assert "__start -> q0" in dot


def test_dot_witness_counts(witness_3_4):
    dot = emit_dot(witness_3_4)
    node_lines = [l for l in dot.splitlines() if "label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l and "q" in l.split("->")[0]]
    assert len(node_lines) == 15
    assert len(edge_lines) == 30


def test_dot_escapes_quotes_and_backslashes():
    dfa = parse_dfa(
        "dfa 2 1\nstart 0\nfinals 1\n"
        'state 0 [a"b] : 1\nstate 1 [c\\d] : 0\n'
    )
    assert dfa.labels == ('a"b', "c\\d")
    dot = emit_dot(dfa)
    assert 'q0 [label="a\\"b", shape=circle];' in dot
    assert 'q1 [label="c\\\\d", shape=doublecircle];' in dot


def test_dot_escapes_a_quote_first_and_a_backslash_last():
    # the escape test must read every label: only the first holds a quote
    # and only the last a backslash
    labels = ('a"b', "c", "", "d.e", "f\\g")
    dfa = Dfa(5, 1, ((1, 2, 3, 4, 0),), 0, frozenset({4}), labels=labels)
    dot = emit_dot(dfa)
    assert dot == emit_dot_by_lines(dfa)
    assert 'q0 [label="a\\"b", shape=circle];' in dot
    assert 'q2 [label="2", shape=circle];' in dot
    assert 'q4 [label="f\\\\g", shape=doublecircle];' in dot
    for one in ((labels[0], *labels[1:4], "f"), ("a", *labels[1:])):
        # one escaped character, at either end
        dot = emit_dot(replace(dfa, labels=one))
        assert dot == emit_dot_by_lines(replace(dfa, labels=one))


def test_dot_reverse_witness_has_star_labels(witness_3_4):
    rev, subsets = reverse_construction(witness_3_4)
    cls = classify_reverse_states(WitnessParams(3, 4), rev, subsets)
    # classify keeps each center as its point mask
    center_of = {sum(1 << p for p in c): c for c in combinations(range(6), 3)}
    dot = emit_dot(
        replace(rev, labels=tuple(star_label(center_of[c]) for c in cls.centers))
    )
    assert 'label="S(123)"' in dot
    assert dot.count("shape=") == 20 + 1  # 20 states plus the start marker


def grid_dfas():
    """The forward and reverse DFAs of the 2..7 grid, then of (6, 5)."""
    cells = [(m, alpha) for m in range(2, 8) for alpha in range(2, 8)]
    for m, alpha in cells + [(6, 5)]:
        fwd = build_witness(m, alpha)
        yield fwd
        yield reverse_dfa(fwd)


def test_emitters_are_pinned():
    # (6, 5) has n = 10 points, so its reverse labels are dotted
    digest = hashlib.sha256()
    for dfa in grid_dfas():
        digest.update(emit_dfa(dfa).encode())
        digest.update(emit_dot(dfa).encode())
    assert digest.hexdigest() == (
        "375ec026b6c8dfb4096d82c37a4d542a559b94e9716c3fd0bc3604b8d58b772a"
    )


def test_emitters_are_pinned_on_unlabeled_dfas():
    # the reverse automata of the 2..7 grid as the pipeline builds them
    digest = hashlib.sha256()
    for m in range(2, 8):
        for alpha in range(2, 8):
            rev, _ = reverse_construction(build_witness(m, alpha))
            assert rev.labels is None
            digest.update(emit_dfa(rev).encode())
            digest.update(emit_dot(rev).encode())
    assert digest.hexdigest() == (
        "504d6215c19a36334d866763c5a6c1c0ca29e56dad5ab09432a86a8f2d9702e3"
    )


# empty labels, DOT's escaped characters, braces and non-ASCII text, and
# any text at all, which may not be writable to a DFA document
ANY_LABELS = st.one_of(
    st.just(""),
    st.text(st.sampled_from('a1.,"\\{}\xe9\u2713\U0001d4b3'), max_size=5),
    st.text(max_size=4),
)
UNWRITABLE_CHARS = st.sampled_from(" \t\n\x1f\x85\xa0\u2028\u3000[]")


@st.composite
def emitter_dfas(draw, labeled=None):
    """DFAs of 1 to 12 states on 1 to 30 letters, labeled or not."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 30))
    image = st.integers(0, n - 1)
    columns = draw(st.lists(st.tuples(*[image] * n), min_size=k, max_size=k))
    if labeled is None:
        labeled = draw(st.booleans())
    labels = draw(st.lists(ANY_LABELS, min_size=n, max_size=n)) if labeled else None
    finals = frozenset(draw(st.sets(image)))
    return Dfa(n, k, columns, draw(image), finals, labels)


def assert_emitters_match_oracles(dfa):
    assert emit_dot(dfa) == emit_dot_by_lines(dfa)
    try:
        expected = emit_dfa_by_lines(dfa)
    except ValueError as error:
        with pytest.raises(ValueError) as info:
            emit_dfa(dfa)
        assert str(info.value) == str(error)
    else:
        assert emit_dfa(dfa) == expected


@settings(max_examples=300)
@given(emitter_dfas())
def test_emitters_match_line_by_line_oracles(dfa):
    assert_emitters_match_oracles(dfa)


@given(emitter_dfas(labeled=True), st.data())
def test_emit_dfa_refuses_an_unwritable_label_as_the_oracle_does(dfa, data):
    q = data.draw(st.integers(0, dfa.num_states - 1))
    label = data.draw(ANY_LABELS)
    cut = data.draw(st.integers(0, len(label)))
    labels = list(dfa.labels)
    labels[q] = label[:cut] + data.draw(UNWRITABLE_CHARS) + label[cut:]
    dfa = replace(dfa, labels=tuple(labels))
    with pytest.raises(ValueError):
        emit_dfa_by_lines(dfa)
    assert_emitters_match_oracles(dfa)


# ---------------------------------------------------------------------
# words
# ---------------------------------------------------------------------

def test_word_conversions():
    assert word_from_str("aabaaaa") == (0, 0, 1, 0, 0, 0, 0)
    assert word_from_str("") == ()
    with pytest.raises(ValueError):
        word_from_str("a!b")


@pytest.mark.parametrize("letter", [2.5, "a", True, None, -3])
def test_letter_name_rejects_non_letters(letter):
    with pytest.raises(ValueError):
        letter_name(letter)


def test_dot_names_each_letter_once(monkeypatch):
    calls = []

    def counting(c):
        calls.append(c)
        return letter_name(c)

    monkeypatch.setattr(textio, "letter_name", counting)
    dfa = build_witness(4, 3)
    assert emit_dot(dfa).count(' [label="b"];') == dfa.num_states
    assert calls == [0, 1]


def test_letter_names_read_back_or_raise():
    letters = "".join(map(letter_name, range(26)))
    assert word_from_str(letters) == tuple(range(26))
    assert letter_name(26) == "c26"  # DOT edge labels only
    with pytest.raises(ValueError):
        letter_name(-1)


# ---------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------

def test_witness_report_json():
    payload = json.loads(report_to_json(verify_witness(2, 2)))
    assert payload["format_version"] == "1"
    assert payload["kind"] == "witness_report"
    assert payload["passed"] is True
    assert payload["asc_forward"] == 2
    assert payload["accepting_stars"][0]["center"] == "1"


def test_spectrum_report_json_with_probe():
    report = replace(
        spectrum_table(2, 2), magic_probe=magic_one_probe(3, 10, seed=5)
    )
    payload = json.loads(report_to_json(report))
    assert payload["kind"] == "spectrum_report"
    assert payload["rows"][0] == {
        "m": 0, "alpha": 0, "asc_forward": 0, "asc_reverse": 0, "verdict": "pass",
    }
    probe = payload["magic_probe"]
    assert probe["kind"] == "magic_probe_report"
    assert probe["histogram"] == [
        {"asc": forward, "asc_reverse": reverse, "count": count}
        for (forward, reverse), count in report.magic_probe.histogram
    ]
    assert sum(entry["count"] for entry in probe["histogram"]) == probe["checked"]
    assert payload["passed"] is True


@pytest.mark.parametrize("make_report,digest", [
    (lambda: verify_witness(8, 7),
     "e86d6961fa2c190d220092a48b2c5a45ad03540c29b943b413b1d273c11a1d54"),
    (lambda: spectrum_table(7, 7),
     "8c2e44bccc95c18a27801543b6c4d6f59eff903d07ec33798b7e09f494d3a0c1"),
    (lambda: replace(
        spectrum_table(5, 5),
        magic_probe=magic_one_probe(6, 1000, 1009, count_checked_only=True),
    ),
     "9c140ea3de8c14a73eb60574d4a6863b35a2ab089644dbd573a629bfd92c5193"),
], ids=["verify_8_7", "spectrum_7_7", "spectrum_5_5_probe"])
def test_report_json_is_pinned(make_report, digest):
    # the benchmark's verify and grid reports and the report of
    # `permrev spectrum --m-max 5 --alpha-max 5 --probe-samples 1000`, byte for byte
    assert hashlib.sha256(report_to_json(make_report()).encode()).hexdigest() == digest


def test_report_json_rejects_other_types():
    with pytest.raises(ValueError):
        report_to_json(object())
    with pytest.raises(ValueError):
        report_to_json(trivial_rows())
