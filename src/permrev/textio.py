"""Plain-text DFA documents, DOT export, JSON reports, word helpers.

The DFA document format is line oriented::

    dfa <num_states> <alphabet_size>
    start <index>
    finals <index> <index> ...
    state <index> [<label>] : <image on letter 0> <image on letter 1> ...

Tokens are separated by whitespace, which means exactly what
``str.split()`` splits on: ASCII blanks, ``\x1c``-``\x1f``, ``\x85``,
``\xa0`` and the other Unicode spaces and line separators. Lines are
those of ``str.splitlines()``. The ``finals`` line may list no indices.
The bracketed label is optional but must appear on every state line or on
none; a label cannot contain whitespace, ``[`` or ``]``.
``parse_dfa``/``emit_dfa`` round-trip exactly, labels included. Parse
errors carry a 1-based line and column; the column is computed only when
an error is raised.
"""

from __future__ import annotations

import json
import re
from itertools import islice

from .dfa import Dfa, Word
from .errors import check_int
from .spectrum import MagicProbeReport, SpectrumReport
from .witness import Star, WitnessReport, subset_label

FORMAT_VERSION = "1"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_TOKEN = re.compile(r"\S+")
_UNWRITABLE = re.compile(r"[\s\[\]]")


class ParseError(ValueError):
    """Malformed DFA document, with the position of the offending token."""

    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def letter_name(c: int) -> str:
    """'a'..'z' for letters 0..25, then "c26", "c27", ... (DOT labels only).

    ``ValueError`` unless ``c`` is an int >= 0 (a bool is not).
    """
    check_int("letter", c, 0)
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
        " ".join(["finals", *map(str, sorted(dfa.finals))]),
    ]
    if dfa.labels is None:
        lines += [
            f"state {q} : {' '.join(map(str, row))}"
            for q, row in enumerate(dfa.delta)
        ]
    else:
        # One pass over all labels at C speed; the pattern names the first
        # bad label only when that pass fails.
        joined = "".join(dfa.labels)
        if joined and (joined.split() != [joined] or "[" in joined or "]" in joined):
            bad = next(filter(_UNWRITABLE.search, dfa.labels))
            raise ValueError(f"label {bad!r} cannot be written to the text format")
        lines += [
            f"state {q} [{label}] : {' '.join(map(str, row))}"
            for q, (label, row) in enumerate(zip(dfa.labels, dfa.delta))
        ]
    return "\n".join(lines) + "\n"


def _column(line: str, k: int) -> int:
    """1-based column of token ``k`` of ``line``; called only to report an error."""
    return next(islice(_TOKEN.finditer(line), k, None)).start() + 1


def _indices(
    line_no: int, line: str, tokens: list[str], k: int, bound: int, what: str
) -> tuple[int, ...]:
    """``tokens[k:]`` as ints in ``range(bound)``.

    The fast path reads a line whose tokens are all ASCII digits. Otherwise
    the tokens are walked one by one, so the error names the first token
    that is not a number or is out of range; a line that passes the walk,
    such as an empty one or one with a "-0", is read then.
    """
    digits = "".join(tokens[k:])
    if digits.isdigit() and digits.isascii():
        values = tuple(map(int, tokens[k:]))
        if max(values) < bound:
            return values
    for i in range(k, len(tokens)):
        value = _int_token(line_no, line, i, tokens[i], "a state index")
        if not 0 <= value < bound:
            raise ParseError(
                line_no, _column(line, i), f"{what} {value} is out of range"
            )
    return tuple(map(int, tokens[k:]))


def _int_token(line_no: int, line: str, k: int, token: str, what: str) -> int:
    """A number token: ASCII digits after an optional minus. int() alone
    would also read "1_0", "+0" and other scripts' digits such as "\u0663"."""
    digits = token.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(line_no, _column(line, k), f"expected {what}, got {token!r}")
    return int(token)


def parse_dfa(text: str) -> Dfa:
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if tokens:
            rows.append((line_no, line, tokens))
    last_line = rows[-1][0] if rows else 1

    def need_row(i: int, what: str) -> tuple[int, str, list[str]]:
        if i >= len(rows):
            raise ParseError(last_line, 1, f"expected {what}")
        return rows[i]

    line_no, line, tokens = need_row(0, "'dfa' header")
    if tokens[0] != "dfa":
        raise ParseError(line_no, _column(line, 0), "expected 'dfa' header")
    if len(tokens) != 3:
        raise ParseError(
            line_no,
            _column(line, len(tokens) - 1),
            "expected 'dfa <num_states> <alphabet_size>'",
        )
    num_states = _int_token(line_no, line, 1, tokens[1], "a state count")
    alphabet_size = _int_token(line_no, line, 2, tokens[2], "an alphabet size")
    if num_states < 1:
        raise ParseError(line_no, _column(line, 1), "state count must be >= 1")
    if alphabet_size < 1:
        raise ParseError(line_no, _column(line, 2), "alphabet size must be >= 1")

    line_no, line, tokens = need_row(1, "'start' line")
    if tokens[0] != "start" or len(tokens) != 2:
        raise ParseError(line_no, _column(line, 0), "expected 'start <index>'")
    start = _int_token(line_no, line, 1, tokens[1], "a state index")
    if not 0 <= start < num_states:
        raise ParseError(
            line_no, _column(line, 1), f"start state {start} is out of range"
        )

    line_no, line, tokens = need_row(2, "'finals' line")
    if tokens[0] != "finals":
        raise ParseError(line_no, _column(line, 0), "expected 'finals' line")
    finals = _indices(line_no, line, tokens, 1, num_states, "final state")

    # Keyed by state index, so nothing is allocated from the header's count.
    delta: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str | None] = {}
    labeled: bool | None = None
    for line_no, line, tokens in rows[3:]:
        if tokens[0] != "state":
            raise ParseError(line_no, _column(line, 0), "expected 'state' line")
        if len(tokens) < 2:
            raise ParseError(line_no, _column(line, 0), "expected 'state <index>'")
        q = _int_token(line_no, line, 1, tokens[1], "a state index")
        if not 0 <= q < num_states:
            raise ParseError(line_no, _column(line, 1), f"state {q} is out of range")
        if q in delta:
            raise ParseError(
                line_no, _column(line, 1), f"duplicate line for state {q}"
            )
        k = 2
        label: str | None = None
        if len(tokens) > 2 and tokens[2].startswith("["):
            token = tokens[2]
            if not token.endswith("]") or "[" in token[1:] or "]" in token[:-1]:
                raise ParseError(line_no, _column(line, 2), "expected '[<label>]'")
            label = token[1:-1]
            k = 3
        if labeled is None:
            labeled = label is not None
        elif labeled != (label is not None):
            raise ParseError(
                line_no, _column(line, 0),
                "state lines must be labeled consistently",
            )
        if k >= len(tokens) or tokens[k] != ":":
            raise ParseError(
                line_no,
                _column(line, min(k, len(tokens) - 1)),
                "expected ':' before the transition images",
            )
        k += 1
        if len(tokens) - k != alphabet_size:
            raise ParseError(
                line_no,
                _column(line, len(tokens) - 1),
                f"expected {alphabet_size} transition images, got {len(tokens) - k}",
            )
        delta[q] = _indices(line_no, line, tokens, k, num_states, "image")
        labels[q] = label

    if len(delta) != num_states:
        missing = next(q for q in range(num_states) if q not in delta)
        raise ParseError(last_line, 1, f"missing 'state {missing}' line")

    states = range(num_states)
    return Dfa(
        num_states=num_states,
        alphabet_size=alphabet_size,
        delta=tuple(map(delta.__getitem__, states)),
        start=start,
        finals=frozenset(finals),
        labels=tuple(map(labels.__getitem__, states)) if labeled else None,
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
    labels = dfa.labels if dfa.labels is not None else map(str, range(dfa.num_states))
    finals = dfa.finals
    for q, label in enumerate(labels):
        shape = "doublecircle" if q in finals else "circle"
        label = (label or str(q)).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  q{q} [label="{label}", shape={shape}];')
    ends = [f' [label="{letter_name(c)}"];' for c in range(dfa.alphabet_size)]
    out += [
        f"  q{q} -> q{t}{end}"
        for q, row in enumerate(dfa.delta)
        for t, end in zip(row, ends)
    ]
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
    """The report as indented JSON; ``ValueError`` for any other object."""
    if isinstance(report, WitnessReport):
        payload = witness_report_dict(report)
    elif isinstance(report, SpectrumReport):
        payload = spectrum_report_dict(report)
    elif isinstance(report, MagicProbeReport):
        payload = probe_report_dict(report)
    else:
        raise ValueError(f"no JSON form for {type(report).__name__}")
    return json.dumps(payload, indent=2) + "\n"
