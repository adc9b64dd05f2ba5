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
none; a label cannot contain whitespace, ``[`` or ``]``. A number is ``0``
or ``-?[1-9][0-9]*``, the one form ``emit_dfa`` writes, so ``parse_dfa``
and ``emit_dfa`` round-trip exactly, labels included. State lines may come
in any order.

The emitters work on the table's columns: each state's number becomes a
string once, each letter's images are picks from those strings, and a
document is one join, as adding joined blocks would copy it each time.
``emit_dot`` escapes labels only if their join holds ``\\`` or ``"``.
``parse_dfa`` splits the text into lines a chunk of ``CHUNK_CHARS``
characters at a time, walks the header lines token by token, and reads
the state lines in one pass of builtins over each chunk's token columns,
mapping numbers through one dict from ``str(q)`` to q for each state q:
a missing key is a bad number.
Only when a pass fails are the state lines numbered and walked one by
one. A walk raises a
``ParseError`` at the first bad token, with its 1-based line and column;
the column is computed only then.
"""

from __future__ import annotations

import json
import re
from itertools import chain, compress, count, islice, repeat, tee
from operator import itemgetter, not_
from typing import Iterable, Iterator, NoReturn

from .dfa import Dfa, check_dfa
from .errors import check_int
from .spectrum import MagicProbeReport, SpectrumReport
from .witness import WitnessReport, subset_label

FORMAT_VERSION = "1"

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

_TOKEN = re.compile(r"\S+")
_UNWRITABLE = re.compile(r"[\s\[\]]")
# Characters past which parse_dfa cuts its next chunk of lines at a "\n"
CHUNK_CHARS = 8192


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


def _check_str(text: object) -> None:
    if not isinstance(text, str):
        raise ValueError(f"expected a str (got {type(text).__name__})")


def word_from_str(text: str) -> tuple[int, ...]:
    """Letters 'a', 'b', ... to indices 0, 1, ..."""
    _check_str(text)
    word = tuple(map(_LETTERS.find, text))
    if -1 in word:
        raise ValueError(f"unknown letter {text[word.index(-1)]!r}")
    return word


def _lines(*pieces: Iterable[str]) -> Iterator[str]:
    """The i-th piece of every column, for each i in turn."""
    return chain.from_iterable(zip(*pieces))


def emit_dfa(dfa: Dfa) -> str:
    """Write a DFA document; parsing it back gives a table-identical DFA."""
    check_dfa(dfa)
    names = [*map(str, range(dfa.num_states))]
    head = " ".join([
        f"dfa {dfa.num_states} {dfa.alphabet_size}\nstart {dfa.start}\nfinals",
        *map(str, sorted(dfa.finals)),
    ])
    pieces = [repeat("\nstate "), names, repeat(" :")]
    if dfa.labels is not None:
        # a C-speed pass; the pattern names the bad label only if it fails
        joined = "".join(dfa.labels)
        if joined and (joined.split() != [joined] or "[" in joined or "]" in joined):
            bad = next(filter(_UNWRITABLE.search, dfa.labels))
            raise ValueError(f"label {bad!r} cannot be written to the text format")
        pieces[2:] = repeat(" ["), dfa.labels, repeat("] :")
    for column in dfa.columns:
        pieces += repeat(" "), map(names.__getitem__, column)
    return "".join(chain([head], _lines(*pieces), ["\n"]))


def _column(line: str, k: int) -> int:
    """1-based column of token ``k`` of ``line``; called only to report an error."""
    return next(islice(_TOKEN.finditer(line), k, None)).start() + 1


def _numbers(
    line_no: int, line: str, tokens: list[str], k: int, bound: int, what: str
) -> tuple[int, ...]:
    """``tokens[k:]`` as numbers in ``range(bound)``, walked one by one; a
    ParseError names the first that is not one."""
    values = []
    for i in range(k, len(tokens)):
        value = _int_token(line_no, line, i, tokens[i], "a state index")
        if not 0 <= value < bound:
            raise ParseError(
                line_no, _column(line, i), f"{what} {value} is out of range"
            )
        values.append(value)
    return tuple(values)


def _int_token(line_no: int, line: str, k: int, token: str, what: str) -> int:
    """A number token, ``0`` or ``-?[1-9][0-9]*``: int() alone would also
    read "1_0", "+0", "-0", "007" and other scripts' digits."""
    digits = token.removeprefix("-")
    if digits.isdigit() and digits.isascii() and (digits[0] != "0" or token == "0"):
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError(
                line_no,
                _column(line, k),
                f"expected {what}, got a number of {len(digits)} digits",
            ) from None
    raise ParseError(line_no, _column(line, k), f"expected {what}, got {token!r}")


def _chunks(text: str) -> Iterator[list[str]]:
    """``text.splitlines()``, one chunk at a time, each ending at the first
    ``"\\n"`` past ``CHUNK_CHARS`` characters."""
    for chunk in re.finditer("(?s).{1,%d}[^\n]*\n?" % CHUNK_CHARS, text):
        yield chunk[0].splitlines()


def _state_block(
    text: str, num_states: int, alphabet_size: int
) -> tuple[list[list[int]], list[str] | None] | None:
    """The letter columns and labels, in state order, of the state lines,
    the non-blank lines of ``text`` past the header's three; None if some
    line is bad.

    Each chunk's token columns get one pass of builtins. It accepts exactly
    the lines that ``_reject_state_lines`` accepts: the first line's width
    fixes labeling, and every line must be as wide; a line of width k + 4
    must be labeled; and n distinct indices below n are ``range(n)``. So
    when it returns None, the walk raises.
    """
    n, k = num_states, alphabet_size
    states = [*range(n)]
    # a KeyError is a token that is not 0|[1-9][0-9]* below n
    number = dict(zip(map(str, states), states)).__getitem__
    indices: list[int] = []
    width = labels = None
    skip = 3  # the header rows, which parse_dfa reads
    for lines in _chunks(text):
        rows = [*filter(None, map(str.split, lines))]
        rows, skip = rows[skip:], max(skip - len(rows), 0)
        if not rows:
            continue
        if width is None:
            width = len(rows[0])
            if width not in (k + 3, k + 4):
                return None
            colon = width - k - 1
            images = [[] for _ in range(k)]
            labels = [] if colon == 3 else None
        if set(map(len, rows)) != {width}:
            return None
        flat = [*chain.from_iterable(rows)]
        r = len(rows)
        if flat[::width].count("state") != r or flat[colon::width].count(":") != r:
            return None
        if labels is not None:
            # "] [" can match only at the r - 1 spaces of the join, so r
            # pieces free of brackets are the insides of r labels
            joined = " ".join(flat[2::width])
            if joined[0] != "[" or joined[-1] != "]":
                return None
            pieces = joined[1:-1].split("] [")
            rest = "".join(pieces)
            if len(pieces) != r or "[" in rest or "]" in rest:
                return None
            labels += pieces
        try:
            indices += map(number, flat[1::width])
            for j, column in enumerate(images, colon + 1):
                column += map(number, flat[j::width])
        except KeyError:
            return None
    # n indices below n are the n states iff they are distinct
    if len(indices) != n or indices != states and sorted(indices) != states:
        return None
    if indices != states:
        order = sorted(states, key=indices.__getitem__)
        images = [[*map(column.__getitem__, order)] for column in images]
        if labels is not None:
            labels = [*map(labels.__getitem__, order)]
    return images, labels


def _reject_state_lines(
    rows: Iterable[tuple[int, str, list[str]]],
    num_states: int,
    alphabet_size: int,
    line_no: int,
) -> NoReturn:
    """Raise the ParseError of the first bad state line, in line order;
    a missing line is named at the last line, ``line_no`` if none follows.

    Called only when ``_state_block`` returned None, so some line is bad.
    """
    seen: set[int] = set()
    labeled: bool | None = None
    for line_no, line, tokens in rows:
        if tokens[0] != "state":
            raise ParseError(line_no, _column(line, 0), "expected 'state' line")
        if len(tokens) < 2:
            raise ParseError(line_no, _column(line, 0), "expected 'state <index>'")
        (q,) = _numbers(line_no, line, tokens[:2], 1, num_states, "state")
        if q in seen:
            raise ParseError(line_no, _column(line, 1), f"duplicate line for state {q}")
        seen.add(q)
        k = 2
        if len(tokens) > 2 and tokens[2].startswith("["):
            token = tokens[2]
            if not token.endswith("]") or "[" in token[1:] or "]" in token[:-1]:
                raise ParseError(line_no, _column(line, 2), "expected '[<label>]'")
            k = 3
        if labeled is None:
            labeled = k == 3
        elif labeled != (k == 3):
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
        _numbers(line_no, line, tokens, k, num_states, "image")
    if len(seen) != num_states:
        missing = next(q for q in range(num_states) if q not in seen)
        raise ParseError(line_no, 1, f"missing 'state {missing}' line")
    raise AssertionError("the walk accepted state lines that the pass rejected")


def parse_dfa(text: str) -> Dfa:
    """The DFA of a document in the format above, labels included.

    The text is split one chunk of lines at a time, so beside the returned
    DFA the parse holds only the numeral table and one chunk's lines and
    tokens. Raises ``ParseError`` (a ``ValueError``) at the first
    bad token, with its line and column, and ``ValueError`` unless ``text``
    is a str.
    """
    _check_str(text)
    # the non-blank lines, numbered lazily: only the header and a rejected
    # state block are read through it
    lines, copy = tee(chain.from_iterable(_chunks(text)))
    numbered = filter(itemgetter(2), zip(count(1), lines, map(str.split, copy)))
    head = [*islice(numbered, 3)]

    def need_row(i: int, what: str) -> tuple[int, str, list[str]]:
        if i >= len(head):
            # fewer than three rows: the last of them is the last line
            raise ParseError(head[-1][0] if head else 1, 1, f"expected {what}")
        return head[i]

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
    (start,) = _numbers(line_no, line, tokens, 1, num_states, "start state")

    line_no, line, tokens = need_row(2, "'finals' line")
    if tokens[0] != "finals":
        raise ParseError(line_no, _column(line, 0), "expected 'finals' line")
    finals = _numbers(line_no, line, tokens, 1, num_states, "final state")

    # a state line takes more than one character, so a count past the text's
    # length is refused before the numeral table is built
    table = num_states <= len(text) and _state_block(text, num_states, alphabet_size)
    if not table:
        _reject_state_lines(numbered, num_states, alphabet_size, line_no)
    columns, labels = table
    return Dfa(num_states, alphabet_size, columns, start, frozenset(finals), labels)


def emit_dot(dfa: Dfa) -> str:
    """Graphviz digraph: double-circled finals, a point-node arrow into start.

    One node per state and one labeled edge per (state, letter), both in
    index order.
    """
    check_dfa(dfa)
    names = [*map(str, range(dfa.num_states))]
    labels = names
    if dfa.labels is not None:
        labels = [*dfa.labels]
        joined = "".join(labels)
        if "\\" in joined or '"' in joined:
            escaped = map(str.replace, labels, repeat("\\"), repeat("\\\\"))
            labels = [*map(str.replace, escaped, repeat('"'), repeat('\\"'))]
        for q in compress(range(dfa.num_states), map(not_, labels)):
            labels[q] = names[q]
    shapes = ['", shape=circle];\n'] * dfa.num_states
    for q in dfa.finals:
        shapes[q] = '", shape=doublecircle];\n'
    edges = []
    for c, column in enumerate(dfa.columns):
        end = repeat(f' [label="{letter_name(c)}"];\n')
        images = map(names.__getitem__, column)
        edges += repeat("  q"), names, repeat(" -> q"), images, end
    head = "digraph dfa {\n  rankdir=LR;\n  __start [shape=point];\n  __start -> q"
    nodes = _lines(repeat("  q"), names, repeat(' [label="'), labels, shapes)
    return "".join(chain([head, f"{dfa.start};\n"], nodes, _lines(*edges), ["}\n"]))


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
        "accepting_stars": [
            {
                "center": subset_label(star.center),
                "members": [*map(subset_label, star.members)],
            }
            for star in report.accepting_stars
        ],
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
        "rows": [*map(vars, report.rows)],
        "notes": list(report.notes),
        "magic_probe": (
            probe_report_dict(report.magic_probe) if report.magic_probe else None
        ),
        "passed": report.passed,
    }


def report_to_json(report: WitnessReport | SpectrumReport | MagicProbeReport) -> str:
    """The report as indented JSON; ``ValueError`` for any other object."""
    for kind, to_dict in (
        (WitnessReport, witness_report_dict),
        (SpectrumReport, spectrum_report_dict),
        (MagicProbeReport, probe_report_dict),
    ):
        if isinstance(report, kind):
            return json.dumps(to_dict(report), indent=2) + "\n"
    raise ValueError(f"no JSON form for {type(report).__name__}")
