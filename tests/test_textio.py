import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

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


def test_parse_empty_document():
    with pytest.raises(ParseError):
        parse_dfa("")


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


# ---------------------------------------------------------------------
# words
# ---------------------------------------------------------------------

def test_word_conversions():
    assert word_from_str("aabaaaa") == (0, 0, 1, 0, 0, 0, 0)
    assert word_to_str((0, 1)) == "ab"
    assert word_from_str("") == ()
    with pytest.raises(ValueError):
        word_from_str("a!b")


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
    with pytest.raises(TypeError):
        report_to_json(trivial_rows())
