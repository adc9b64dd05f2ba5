"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths it is meant to check:
the marking minimizer never calls the partition-refinement one, the
word-formula reversal recomputes every subset from scratch by running
reversed words forward instead of folding letter preimages, the star
oracle lists every star explicitly instead of reading a state's center off
its members, the witness oracle moves point tuples instead of bit masks,
the BFS order comes from an explicit queue, the DFA document reader
takes one line at a time, with a regular expression per token, and the
DFA document and DOT writers format one line per state or edge, the
random draws go through the stdlib's own ``shuffle``, ``randrange`` and
``randint``, and the witness checks read stars and minimality off these
oracles. Each oracle builds its own tables and runs its own words; none
calls a helper of the library, which serves only as the ``Dfa`` record,
except that the probe loop certifies its draws on ``reversal_certificate``:
the tuple path, which shares no code with the probe's sampler or its byte
kernel, and which the certificate tests check against minimization.
"""

from __future__ import annotations

import random
import re
from collections import Counter, deque
from itertools import combinations, product
from math import comb

from permrev.dfa import Dfa
from permrev.reversal import reversal_certificate


def random_dfa(rng: random.Random, max_states: int, alphabet_size: int = 2) -> Dfa:
    n = rng.randint(1, max_states)
    columns = tuple(
        tuple(rng.randrange(n) for _ in range(n)) for _ in range(alphabet_size)
    )
    start = rng.randrange(n)
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(n, alphabet_size, columns, start, finals)


def draw_by_stdlib(
    rng: random.Random, n: int, k: int
) -> tuple[list[list[int]], int, frozenset[int]]:
    """The probe's draw through the stdlib: ``rng.shuffle`` of each letter
    column, ``rng.randrange(n)`` for the start, then one ``rng.random() <
    0.5`` coin per state in state order."""
    columns = []
    for _ in range(k):
        column = list(range(n))
        rng.shuffle(column)
        columns.append(column)
    start = rng.randrange(n)
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return columns, start, finals


def probe_by_stdlib(
    n_max: int, samples: int, seed: int, count_checked_only: bool = False
) -> tuple[int, int, tuple[tuple[tuple[int, int], int], ...]]:
    """(drawn, checked, histogram) of the magic-value probe, by a loop of
    its own: ``rng.randint(1, n_max)`` states, ``draw_by_stdlib`` on two
    letters, and ``reversal_certificate`` of every draw's ``Dfa``, with no
    skip. A draw is checked when its asc is at least 2."""
    rng = random.Random(seed)
    drawn = checked = 0
    histogram: Counter[tuple[int, int]] = Counter()
    while (checked if count_checked_only else drawn) < samples:
        n = rng.randint(1, n_max)
        columns, start, finals = draw_by_stdlib(rng, n, 2)
        drawn += 1
        certificate = reversal_certificate(Dfa(n, 2, columns, start, finals))
        if certificate.asc_forward >= 2:
            checked += 1
            histogram[certificate.asc_forward, certificate.asc_reverse] += 1
    return drawn, checked, tuple(sorted(histogram.items()))


def _reachable(dfa: Dfa) -> list[int]:
    seen = {dfa.start}
    stack = [dfa.start]
    while stack:
        q = stack.pop()
        for column in dfa.columns:
            t = column[q]
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return sorted(seen)


def bfs_order_by_queue(dfa: Dfa) -> list[int]:
    """Reachable states in the order a FIFO queue discovers them, trying the
    letters of each state in index order."""
    order = [dfa.start]
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for column in dfa.columns:
            t = column[q]
            if t not in order:
                order.append(t)
                queue.append(t)
    return order


def nerode_classes_by_marking(dfa: Dfa) -> list[set[int]]:
    """Equivalence classes of the reachable states via pairwise marking."""
    reach = _reachable(dfa)
    marked: set[tuple[int, int]] = set()
    pairs = [(p, q) for i, p in enumerate(reach) for q in reach[i + 1 :]]
    for p, q in pairs:
        if (p in dfa.finals) != (q in dfa.finals):
            marked.add((p, q))
    changed = True
    while changed:
        changed = False
        for p, q in pairs:
            if (p, q) in marked:
                continue
            for column in dfa.columns:
                a, b = column[p], column[q]
                if a > b:
                    a, b = b, a
                if a != b and (a, b) in marked:
                    marked.add((p, q))
                    changed = True
                    break
    classes: list[set[int]] = []
    assigned: dict[int, set[int]] = {}
    for p in reach:
        for cls in classes:
            rep = min(cls)
            a, b = (rep, p) if rep < p else (p, rep)
            if (a, b) not in marked:
                cls.add(p)
                assigned[p] = cls
                break
        else:
            cls = {p}
            classes.append(cls)
            assigned[p] = cls
    return classes


def minimize_counts_by_marking(dfa: Dfa) -> tuple[int, int]:
    """(state count, final count) of the minimal DFA via table filling."""
    classes = nerode_classes_by_marking(dfa)
    final_classes = sum(1 for cls in classes if min(cls) in dfa.finals)
    return len(classes), final_classes


def all_pairs_distinguishable(dfa: Dfa) -> bool:
    return all(len(cls) == 1 for cls in nerode_classes_by_marking(dfa))


def reverse_by_word_formula(fwd: Dfa) -> Dfa:
    """DFA for the reversed language built from the word-level formula.

    The state reached on word w is the set of forward states that land in
    the forward finals when run on reversed(w), recomputed from scratch for
    every edge rather than folded one preimage at a time.
    """
    n = fwd.num_states

    def run(q: int, word: tuple[int, ...]) -> int:
        for c in word:
            q = fwd.columns[c][q]
        return q

    def state_for(word: tuple[int, ...]) -> frozenset[int]:
        reversed_word = tuple(reversed(word))
        return frozenset(q for q in range(n) if run(q, reversed_word) in fwd.finals)

    start = state_for(())
    index: dict[frozenset[int], int] = {start: 0}
    words: list[tuple[int, ...]] = [()]
    columns: list[list[int]] = [[] for _ in range(fwd.alphabet_size)]
    i = 0
    while i < len(words):
        for c, column in enumerate(columns):
            word = words[i] + (c,)
            target = state_for(word)
            j = index.get(target)
            if j is None:
                j = len(words)
                index[target] = j
                words.append(word)
            column.append(j)
        i += 1
    finals = frozenset(j for subset, j in index.items() if fwd.start in subset)
    return Dfa(len(words), fwd.alphabet_size, columns, 0, finals)


def brute_reachable_subsets(fwd: Dfa) -> set[frozenset[int]]:
    """All subset-states reachable from the finals, by definition-level preimages."""
    start = frozenset(fwd.finals)
    seen = {start}
    stack = [start]
    while stack:
        subset = stack.pop()
        for c in range(fwd.alphabet_size):
            pre = frozenset(
                q for q in range(fwd.num_states) if fwd.columns[c][q] in subset
            )
            if pre not in seen:
                seen.add(pre)
                stack.append(pre)
    return seen


def enumerate_binary_dfas(max_states: int):
    """Every complete binary DFA with at most ``max_states`` states."""
    for n in range(1, max_states + 1):
        state_range = range(n)
        for flat in product(state_range, repeat=2 * n):
            columns = (flat[:n], flat[n:])
            for start in state_range:
                for bits in range(1 << n):
                    finals = frozenset(q for q in state_range if (bits >> q) & 1)
                    yield Dfa(n, 2, columns, start, finals)


def canonical_permutation_pairs(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every pair (a, b) of permutations of range(n) whose BFS from state 0,
    letter a before letter b, discovers the states in the order 0..n-1.

    That is one binary permutation automaton per isomorphism class of
    accessible ones with start 0, finals aside. The tables are filled one
    transition at a time in BFS order: each image is a state already
    discovered that the letter does not yet hit, or the next new state; a
    state reached in the walk before it is discovered ends the branch.
    Uses no library code.
    """
    images = [[0] * n, [0] * n]
    hit = [[False] * n, [False] * n]
    pairs = []

    def fill(slot: int, found: int) -> None:
        q, c = divmod(slot, 2)
        if q == n:
            pairs.append((tuple(images[0]), tuple(images[1])))
            return
        if q >= found:
            return  # state q is not reachable
        for t in range(min(found + 1, n)):
            if not hit[c][t]:
                hit[c][t] = True
                images[c][q] = t
                fill(slot + 1, found + (t == found))
                hit[c][t] = False

    fill(0, 1)
    return pairs


def colex_subsets(n: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(n), sorted colexicographically."""
    return sorted(combinations(range(n), k), key=lambda x: x[::-1])


def witness_by_itertools(m: int, alpha: int) -> Dfa:
    """The (m, alpha) witness built from point tuples.

    States are the colex-sorted alpha-subsets of [n]; letter a moves every
    point i to i + 1 mod n, letter b swaps points 0 and 1, and each image
    is sorted and looked up by position. A label writes the points 1-based,
    with dots between them once some point needs two digits.
    """
    n = m + alpha - 1
    states = colex_subsets(n, alpha)
    number = {x: q for q, x in enumerate(states)}

    def image(x, move):
        return number[tuple(sorted(move(i) for i in x))]

    def a(i):
        return (i + 1) % n

    def b(i):
        return {0: 1, 1: 0}.get(i, i)

    def label(x):
        points = [str(i + 1) for i in x]
        return ("." if max(i + 1 for i in x) > 9 else "").join(points)

    return Dfa(
        len(states),
        2,
        tuple(tuple(image(x, move) for x in states) for move in (a, b)),
        number[tuple(range(alpha))],
        frozenset(q for q, x in enumerate(states) if set(range(alpha - 1)) <= set(x)),
        tuple(label(x) for x in states),
    )


def star_centers_by_enumeration(n: int, alpha: int, subsets) -> list:
    """Center of each subset-state of the alpha-subset witness on [n], or None.

    Witness states are numbered by the colexicographic order of the
    alpha-subsets; every star is listed by its member numbers and each
    subset is looked up among them.
    """
    states = colex_subsets(n, alpha)
    stars = {
        tuple(q for q, x in enumerate(states) if set(center) <= set(x)): center
        for center in combinations(range(n), alpha - 1)
    }
    return [stars.get(tuple(s)) for s in subsets]


_NUMBER = re.compile(r"0|-?[1-9][0-9]*")
_LABEL = re.compile(r"\[([^\[\]]*)\]")


def parse_dfa_by_lines(text: str) -> Dfa | None:
    """The Dfa that a DFA document describes, or None if it is malformed.

    Written from the format grammar of ``permrev.textio``, one line at a
    time: lines are those of ``str.splitlines()`` and tokens those of
    ``str.split()``; blank lines are skipped; the lines are ``dfa <n> <k>``
    with n, k >= 1, ``start <index>``, ``finals <index>...`` and then one
    ``state <index> [<label>] : <k images>`` line per state, in any order.
    A number is 0 or -?[1-9][0-9]* in ASCII digits, an index or image is a
    number in range(n), and the label, which holds no bracket, is on every
    state line or on none.
    """
    lines = [tokens for tokens in map(str.split, text.splitlines()) if tokens]
    if len(lines) < 3:
        return None
    header, start_line, finals_line, *state_lines = lines
    if len(header) != 3 or header[0] != "dfa":
        return None
    if not all(_NUMBER.fullmatch(token) for token in header[1:]):
        return None
    n, k = int(header[1]), int(header[2])
    if n < 1 or k < 1:
        return None

    def index(token: str) -> int | None:
        if _NUMBER.fullmatch(token) and 0 <= int(token) < n:
            return int(token)
        return None

    if len(start_line) != 2 or start_line[0] != "start":
        return None
    start = index(start_line[1])
    finals = [index(token) for token in finals_line[1:]]
    if start is None or finals_line[0] != "finals" or None in finals:
        return None
    rows: dict[int, tuple[int, ...]] = {}
    labels: dict[int, str | None] = {}
    for tokens in state_lines:
        if tokens[0] != "state" or len(tokens) < 2:
            return None
        q = index(tokens[1])
        if q is None or q in rows:
            return None
        rest = tokens[2:]
        label = None
        if rest and rest[0].startswith("["):
            match = _LABEL.fullmatch(rest[0])
            if match is None:
                return None
            label = match.group(1)
            rest = rest[1:]
        images = [index(token) for token in rest[1:]]
        if rest[:1] != [":"] or len(images) != k or None in images:
            return None
        rows[q] = tuple(images)
        labels[q] = label
    if sorted(rows) != list(range(n)):
        return None
    if len({label is None for label in labels.values()}) != 1:
        return None
    return Dfa(
        n,
        k,
        tuple(tuple(rows[q][c] for q in range(n)) for c in range(k)),
        start,
        frozenset(finals),
        None if labels[0] is None else tuple(labels[q] for q in range(n)),
    )


def emit_dfa_by_lines(dfa: Dfa) -> str:
    """The DFA document of ``dfa``, written one line at a time from the
    format grammar of ``permrev.textio``.

    ``ValueError`` naming the first label, in state order, that holds a
    whitespace character, "[" or "]", which would not read back.
    """
    lines = [
        f"dfa {dfa.num_states} {dfa.alphabet_size}",
        f"start {dfa.start}",
        " ".join(["finals"] + [str(q) for q in sorted(dfa.finals)]),
    ]
    for q in range(dfa.num_states):
        label = ""
        if dfa.labels is not None:
            text = dfa.labels[q]
            if any(ch.isspace() or ch in "[]" for ch in text):
                raise ValueError(
                    f"label {text!r} cannot be written to the text format"
                )
            label = f" [{text}]"
        images = " ".join(str(column[q]) for column in dfa.columns)
        lines.append(f"state {q}{label} : {images}")
    return "".join(line + "\n" for line in lines)


def emit_dot_by_lines(dfa: Dfa) -> str:
    """The Graphviz digraph of ``dfa``, one line at a time: a point node
    with an arrow into the start, one node per state, labeled with its
    label (its number when the label is empty or missing) with ``\\`` and
    ``"`` escaped by a backslash and double-circled when final, then one
    edge per (state, letter) named 'a'..'z', 'c26', 'c27', ..."""
    lines = [
        "digraph dfa {",
        "  rankdir=LR;",
        "  __start [shape=point];",
        f"  __start -> q{dfa.start};",
    ]
    for q in range(dfa.num_states):
        label = (dfa.labels[q] if dfa.labels is not None else "") or str(q)
        escaped = "".join("\\" + ch if ch in '\\"' else ch for ch in label)
        shape = "doublecircle" if q in dfa.finals else "circle"
        lines.append(f'  q{q} [label="{escaped}", shape={shape}];')
    for q in range(dfa.num_states):
        for c, column in enumerate(dfa.columns):
            t = column[q]
            letter = chr(ord("a") + c) if c < 26 else f"c{c}"
            lines.append(f'  q{q} -> q{t} [label="{letter}"];')
    lines.append("}")
    return "".join(line + "\n" for line in lines)


def witness_checks_by_oracle(m: int, alpha: int, fwd: Dfa) -> tuple:
    """(first failing check, asc, reverse asc, reverse state count) of
    ``fwd`` read as the (m, alpha) witness, with the checks of
    ``verify_witness`` in its order, each recomputed by the oracles here.

    The reverse states are the subsets that ``brute_reachable_subsets``
    finds, their stars come from ``star_centers_by_enumeration``, and the
    letter law asks that reading a reverse a (b) moves a star's center
    back by one point (swaps points 0 and 1). Minimality and asc come from
    ``minimize_counts_by_marking`` on ``fwd`` and on
    ``reverse_by_word_formula(fwd)``.
    """
    n = m + alpha - 1
    size = fwd.num_states
    subsets = sorted(tuple(sorted(s)) for s in brute_reachable_subsets(fwd))
    center_of = dict(zip(subsets, star_centers_by_enumeration(n, alpha, subsets)))
    rev = reverse_by_word_formula(fwd)
    fwd_classes, asc_forward = minimize_counts_by_marking(fwd)
    rev_classes, asc_reverse = minimize_counts_by_marking(rev)

    def preimage(subset, c):
        return tuple(q for q in range(size) if fwd.columns[c][q] in subset)

    def moved(center, c):
        if c == 0:
            return tuple(sorted((i - 1) % n for i in center))
        return tuple(sorted({0: 1, 1: 0}.get(i, i) for i in center))

    stars = None not in center_of.values()
    accepting = [center_of[s] for s in subsets if fwd.start in s]
    checks = (
        ("forward_states", size == comb(n, alpha)),
        ("forward_finals", len(fwd.finals) == m),
        ("forward_minimal", fwd_classes == size),
        ("reverse_states", len(subsets) == comb(n, alpha - 1)),
        ("stars_match", stars
         and len(set(center_of.values())) == comb(n, alpha - 1)
         and all(center_of[preimage(s, c)] == moved(center_of[s], c)
                 for s in subsets for c in (0, 1))),
        ("reverse_finals", len(accepting) == alpha),
        ("accepting_centers",
         stars and sorted(accepting) == [*combinations(range(alpha), alpha - 1)]),
        ("reverse_minimal", rev_classes == rev.num_states),
        ("asc_forward", asc_forward == m),
        ("asc_reverse", asc_reverse == alpha),
    )
    first_failure = next((name for name, ok in checks if not ok), None)
    return first_failure, asc_forward, asc_reverse, len(subsets)
