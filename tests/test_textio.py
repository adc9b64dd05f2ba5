import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from permrev import textio
from permrev.dfa import Dfa
from permrev.reversal import reverse_construction, reverse_dfa
from permrev.spectrum import magic_one_probe, spectrum_table, trivial_rows
from permrev.textio import (
    ParseError,
    emit_dfa,
    emit_dot,
    letter_name,
    parse_dfa,
    report_to_json,
    word_from_str,
    word_to_str,
)
from permrev.witness import (
    WitnessParams,
    build_witness,
    classify_reverse_states,
    star_label,
    verify_witness,
)

from conftest import dfas
from oracles import random_dfa

SIGMA_STAR = Dfa(1, 2, ((0, 0),), 0, frozenset({0}))


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
    rev = reverse_dfa(Dfa(1, 2, ((0, 0),), 0, frozenset()))
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
        dfa.delta,
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
    # nothing is allocated from the header's count; the first gap is named
    text = "dfa 5 1\nstart 0\nfinals\nstate 0 : 0\nstate 1 : 1\n"
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.column) == (5, 1)
    assert "missing 'state 2' line" in str(info.value)


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
    dfa = Dfa(3, 1, ((0,), (1,), (2,)), 0, frozenset(), labels=("", label, "x y"))
    with pytest.raises(ValueError) as info:
        emit_dfa(dfa)
    assert str(info.value) == (
        f"label {label!r} cannot be written to the text format"
    )


def test_empty_and_punctuated_labels_are_writable():
    labels = ("", "1.2.3.4.10", 'a"b\\c', "S(123)", "")
    dfa = Dfa(5, 1, tuple((q,) for q in range(5)), 0, frozenset(), labels=labels)
    assert parse_dfa(emit_dfa(dfa)) == dfa


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_dfa("")


HEAD = "dfa 2 1\nstart 0\nfinals 1\n"
HEAD2 = "dfa 2 2\nstart 0\nfinals 1\n"


@pytest.mark.parametrize("text,line,column,message", [
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
    "image_minus_zero",
])
def test_parse_error_positions_are_pinned(text, line, column, message):
    with pytest.raises(ParseError) as info:
        parse_dfa(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


MUTATION_TOKENS = ("dfa", "start", "finals", "state", ":", "[", "[]", "[s0]")


@st.composite
def mutated_documents(draw):
    """The emitted text of a random DFA with one token dropped, duplicated
    or replaced."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dfa = random_dfa(rng, max_states=4, alphabet_size=draw(st.integers(1, 2)))
    if draw(st.booleans()):
        labels = tuple(f"s{q}" for q in range(dfa.num_states))
        dfa = dataclasses.replace(dfa, labels=labels)
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
    try:
        dfa = parse_dfa(text)
    except ParseError:
        return
    assert parse_dfa(emit_dfa(dfa)) == dfa


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
        dfa = dataclasses.replace(dfa, labels=labels)
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


def test_dot_reverse_witness_has_star_labels(witness_3_4):
    rev, subsets = reverse_construction(witness_3_4)
    cls = classify_reverse_states(WitnessParams(3, 4), rev, subsets)
    dot = emit_dot(
        dataclasses.replace(rev, labels=tuple(star_label(c) for c in cls.centers))
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


# ---------------------------------------------------------------------
# words
# ---------------------------------------------------------------------

def test_word_conversions():
    assert word_from_str("aabaaaa") == (0, 0, 1, 0, 0, 0, 0)
    assert word_to_str((0, 1)) == "ab"
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
    assert word_from_str(word_to_str(tuple(range(26)))) == tuple(range(26))
    assert letter_name(26) == "c26"  # DOT edge labels only
    with pytest.raises(ValueError):
        letter_name(-1)
    with pytest.raises(ValueError):
        word_to_str((-1,))
    with pytest.raises(ValueError):
        word_to_str((0, 26))


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
    report = spectrum_table(2, 2, probe=magic_one_probe(3, 10, seed=5))
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
], ids=["verify_8_7", "spectrum_7_7"])
def test_report_json_is_pinned(make_report, digest):
    # the benchmark's verify and grid reports, byte for byte
    assert hashlib.sha256(report_to_json(make_report()).encode()).hexdigest() == digest


def test_report_json_rejects_other_types():
    with pytest.raises(ValueError):
        report_to_json(object())
    with pytest.raises(ValueError):
        report_to_json(trivial_rows())
