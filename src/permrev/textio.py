"""Plain-text DFA documents, DOT export, JSON reports, word helpers.

The DFA document format is line oriented::

    dfa <num_states> <alphabet_size>
    start <index>
    finals <index> <index> ...
    state <index> [<label>] : <image on letter 0> <image on letter 1> ...

The ``finals`` line may list no indices. The bracketed label is optional
but must appear on every state line or on none; labels cannot contain
whitespace or brackets. ``parse_dfa``/``emit_dfa`` round-trip exactly,
labels included. Parse errors carry a 1-based line and column.
"""

from __future__ import annotations

import json
import re

from .dfa import Dfa, Word
from .spectrum import MagicProbeReport, SpectrumReport
from .witness import Star, WitnessReport, subset_label

FORMAT_VERSION = "1"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_TOKEN = re.compile(r"\S+")


class ParseError(ValueError):
    """Malformed DFA document, with the position of the offending token."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def letter_name(c: int) -> str:
    """'a'..'z' for letters 0..25, then "c26", "c27", ... (DOT labels only)."""
    if c < 0:
        raise ValueError(f"letter {c} is negative")
    return _LETTERS[c] if c < len(_LETTERS) else f"c{c}"


def word_from_str(text: str) -> tuple[int, ...]:
    """Letters 'a', 'b', ... to indices 0, 1, ..."""
    word = []
    for ch in text:
        idx = _LETTERS.find(ch)
        if idx < 0:
            raise ValueError(f"unknown letter {ch!r}")
        word.append(idx)
    return tuple(word)


def word_to_str(word: Word) -> str:
    """Inverse of ``word_from_str``; only letters 0..25 have a name there."""
    for c in word:
        if not 0 <= c < len(_LETTERS):
            raise ValueError(f"letter {c} has no single-character name")
    return "".join(_LETTERS[c] for c in word)


def emit_dfa(dfa: Dfa) -> str:
    """Write a DFA document; parsing it back gives a table-identical DFA."""
    lines = [
        f"dfa {dfa.num_states} {dfa.alphabet_size}",
        f"start {dfa.start}",
        ("finals " + " ".join(str(q) for q in sorted(dfa.finals))).rstrip(),
    ]
    for q in range(dfa.num_states):
        images = " ".join(str(t) for t in dfa.delta[q])
        if dfa.labels is not None:
            label = dfa.labels[q]
            if re.search(r"[\s\[\]]", label):
                raise ValueError(
                    f"label {label!r} cannot be written to the text format"
                )
            lines.append(f"state {q} [{label}] : {images}")
        else:
            lines.append(f"state {q} : {images}")
    return "\n".join(lines) + "\n"


def _tokens(line: str) -> list[tuple[int, str]]:
    return [(m.start() + 1, m.group()) for m in _TOKEN.finditer(line)]


def _int_token(line_no: int, col: int, token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, col, f"expected {what}, got {token!r}") from None


def parse_dfa(text: str) -> Dfa:
    rows = [
        (line_no, _tokens(line))
        for line_no, line in enumerate(text.splitlines(), start=1)
    ]
    rows = [(line_no, tokens) for line_no, tokens in rows if tokens]
    last_line = rows[-1][0] if rows else 1

    def need_row(i: int, what: str) -> tuple[int, list[tuple[int, str]]]:
        if i >= len(rows):
            raise ParseError(last_line, 1, f"expected {what}")
        return rows[i]

    line_no, tokens = need_row(0, "'dfa' header")
    if tokens[0][1] != "dfa":
        raise ParseError(line_no, tokens[0][0], "expected 'dfa' header")
    if len(tokens) != 3:
        raise ParseError(
            line_no, tokens[-1][0], "expected 'dfa <num_states> <alphabet_size>'"
        )
    num_states = _int_token(line_no, tokens[1][0], tokens[1][1], "a state count")
    alphabet_size = _int_token(line_no, tokens[2][0], tokens[2][1], "an alphabet size")
    if num_states < 1:
        raise ParseError(line_no, tokens[1][0], "state count must be >= 1")
    if alphabet_size < 1:
        raise ParseError(line_no, tokens[2][0], "alphabet size must be >= 1")

    line_no, tokens = need_row(1, "'start' line")
    if tokens[0][1] != "start" or len(tokens) != 2:
        raise ParseError(line_no, tokens[0][0], "expected 'start <index>'")
    start = _int_token(line_no, tokens[1][0], tokens[1][1], "a state index")
    if not 0 <= start < num_states:
        raise ParseError(
            line_no, tokens[1][0], f"start state {start} is out of range"
        )

    line_no, tokens = need_row(2, "'finals' line")
    if tokens[0][1] != "finals":
        raise ParseError(line_no, tokens[0][0], "expected 'finals' line")
    finals = set()
    for col, token in tokens[1:]:
        q = _int_token(line_no, col, token, "a state index")
        if not 0 <= q < num_states:
            raise ParseError(line_no, col, f"final state {q} is out of range")
        finals.add(q)

    # Keyed by state index, so nothing is allocated from the header's count.
    delta: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str | None] = {}
    labeled: bool | None = None
    for line_no, tokens in rows[3:]:
        if tokens[0][1] != "state":
            raise ParseError(line_no, tokens[0][0], "expected 'state' line")
        if len(tokens) < 2:
            raise ParseError(line_no, tokens[0][0], "expected 'state <index>'")
        col, token = tokens[1]
        q = _int_token(line_no, col, token, "a state index")
        if not 0 <= q < num_states:
            raise ParseError(line_no, col, f"state {q} is out of range")
        if q in delta:
            raise ParseError(line_no, col, f"duplicate line for state {q}")
        rest = tokens[2:]
        label: str | None = None
        if rest and rest[0][1].startswith("["):
            col, token = rest[0]
            if not token.endswith("]") or "[" in token[1:] or "]" in token[:-1]:
                raise ParseError(line_no, col, "expected '[<label>]'")
            label = token[1:-1]
            rest = rest[1:]
        if labeled is None:
            labeled = label is not None
        elif labeled != (label is not None):
            raise ParseError(
                line_no, tokens[0][0],
                "state lines must be labeled consistently",
            )
        if not rest or rest[0][1] != ":":
            raise ParseError(
                line_no,
                rest[0][0] if rest else tokens[-1][0],
                "expected ':' before the transition images",
            )
        rest = rest[1:]
        if len(rest) != alphabet_size:
            raise ParseError(
                line_no,
                rest[len(rest) - 1][0] if rest else tokens[-1][0],
                f"expected {alphabet_size} transition images, got {len(rest)}",
            )
        images = []
        for col, token in rest:
            t = _int_token(line_no, col, token, "a state index")
            if not 0 <= t < num_states:
                raise ParseError(line_no, col, f"image {t} is out of range")
            images.append(t)
        delta[q] = tuple(images)
        labels[q] = label

    for q in range(num_states):
        if q not in delta:
            raise ParseError(last_line, 1, f"missing 'state {q}' line")

    return Dfa(
        num_states=num_states,
        alphabet_size=alphabet_size,
        delta=tuple(delta[q] for q in range(num_states)),
        start=start,
        finals=frozenset(finals),
        labels=tuple(labels[q] or "" for q in range(num_states)) if labeled else None,
    )


def emit_dot(dfa: Dfa) -> str:
    """Graphviz digraph: double-circled finals, a point-node arrow into start.

    One node per state and one labeled edge per (state, letter), both in
    index order.
    """
    out = [
        "digraph dfa {",
        "  rankdir=LR;",
        "  __start [shape=point];",
        f"  __start -> q{dfa.start};",
    ]
    for q in range(dfa.num_states):
        shape = "doublecircle" if q in dfa.finals else "circle"
        label = (dfa.label(q) or str(q)).replace("\\", "\\\\")
        label = label.replace('"', '\\"')
        out.append(f'  q{q} [label="{label}", shape={shape}];')
    for q in range(dfa.num_states):
        for c in range(dfa.alphabet_size):
            out.append(f'  q{q} -> q{dfa.delta[q][c]} [label="{letter_name(c)}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def _star_dict(star: Star) -> dict:
    return {
        "center": subset_label(star.center),
        "members": [subset_label(member) for member in star.members],
    }


def witness_report_dict(report: WitnessReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "witness_report",
        "m": report.params.m,
        "alpha": report.params.alpha,
        "n": report.params.n,
        "forward_states": report.forward_states,
        "forward_finals": report.forward_finals,
        "forward_minimal": report.forward_minimal,
        "reverse_states": report.reverse_states,
        "reverse_finals": report.reverse_finals,
        "reverse_minimal": report.reverse_minimal,
        "stars_match": report.stars_match,
        "accepting_centers_match": report.accepting_centers_match,
        "asc_forward": report.asc_forward,
        "asc_reverse": report.asc_reverse,
        "accepting_stars": [_star_dict(star) for star in report.accepting_stars],
        "passed": report.passed,
        "first_failure": report.first_failure,
    }


def probe_report_dict(report: MagicProbeReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "magic_probe_report",
        "n_max": report.n_max,
        "samples": report.samples,
        "seed": report.seed,
        "drawn": report.drawn,
        "checked": report.checked,
        "passed": report.passed,
        "counterexamples": [
            {"asc": forward, "asc_reverse": reverse, "dfa": emit_dfa(dfa)}
            for dfa, forward, reverse in report.counterexamples
        ],
        "histogram": [
            {"asc": forward, "asc_reverse": reverse, "count": count}
            for (forward, reverse), count in report.histogram
        ],
    }


def spectrum_report_dict(report: SpectrumReport) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "kind": "spectrum_report",
        "m_max": report.m_max,
        "alpha_max": report.alpha_max,
        "rows": [
            {
                "m": row.m,
                "alpha": row.alpha,
                "asc_forward": row.asc_forward,
                "asc_reverse": row.asc_reverse,
                "verdict": row.verdict,
            }
            for row in report.rows
        ],
        "notes": list(report.notes),
        "magic_probe": (
            probe_report_dict(report.magic_probe) if report.magic_probe else None
        ),
        "passed": report.passed,
    }


def report_to_json(report: WitnessReport | SpectrumReport | MagicProbeReport) -> str:
    if isinstance(report, WitnessReport):
        payload = witness_report_dict(report)
    elif isinstance(report, SpectrumReport):
        payload = spectrum_report_dict(report)
    elif isinstance(report, MagicProbeReport):
        payload = probe_report_dict(report)
    else:
        raise TypeError(f"no JSON form for {type(report).__name__}")
    return json.dumps(payload, indent=2) + "\n"
