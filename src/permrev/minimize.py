"""DFA minimization, language equivalence, accepting-state complexity.

The minimizer prunes unreachable states, merges equivalent ones by
Moore-style partition refinement, and renumbers the quotient breadth-first
from the start state with letter-index tie-break. That renumbering is a
canonical form: two DFAs accept the same language iff their minimized
tables are identical, which is how ``are_equivalent`` decides.

The verification pipeline (``verify_witness``, the spectrum grid and the
magic-value probe) does not minimize: one ``reversal.certify_reversal`` or
``reversal.reversal_certificate`` call explores each automaton's reverse
subsets once and reads asc and minimality of both sides off them. The
minimizer serves ``permrev minimize`` and ``permrev asc``,
``are_equivalent``, and the tests, where table filling checks it and it
checks the certificate.
"""

from __future__ import annotations

from collections import deque

from .dfa import Dfa, check_dfa, reachable_states
from .errors import check_index


def minimize(dfa: Dfa) -> Dfa:
    """The canonical minimal DFA accepting the same language."""
    reach = reachable_states(dfa)
    block = {q: (1 if q in dfa.finals else 0) for q in reach}
    nblocks = len(set(block.values()))
    while True:
        ids: dict[tuple, int] = {}
        refined: dict[int, int] = {}
        for q in reach:
            sig = (
                block[q],
                tuple(block[dfa.delta[q][c]] for c in range(dfa.alphabet_size)),
            )
            if sig not in ids:
                ids[sig] = len(ids)
            refined[q] = ids[sig]
        block = refined
        if len(ids) == nblocks:
            break
        nblocks = len(ids)

    # Blocks in order of first appearance along the BFS order ``reach``.
    # This is the quotient's own BFS order: a block's later states lead
    # only to blocks its first state already led to.
    rep: dict[int, int] = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = list(rep)
    number = {b: i for i, b in enumerate(order)}

    delta = tuple(
        tuple(number[block[dfa.delta[rep[b]][c]]] for c in range(dfa.alphabet_size))
        for b in order
    )
    finals = frozenset(number[b] for b in order if rep[b] in dfa.finals)
    labels = None
    if dfa.labels is not None:
        labels = tuple(dfa.labels[rep[b]] for b in order)
    return Dfa(len(order), dfa.alphabet_size, delta, 0, finals, labels)


def are_equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, decided by comparing canonical minimal forms."""
    check_dfa(d1)
    check_dfa(d2)
    if d1.alphabet_size != d2.alphabet_size:
        raise ValueError("alphabet sizes differ")
    m1 = minimize(d1)
    m2 = minimize(d2)
    return (
        m1.num_states == m2.num_states
        and m1.delta == m2.delta
        and m1.finals == m2.finals
    )


def asc(dfa: Dfa) -> int:
    """Final-state count of the minimal DFA: the accepting-state complexity."""
    return len(minimize(dfa).finals)


def distinguishing_word(dfa: Dfa, p: int, q: int) -> tuple[int, ...] | None:
    """A shortest word accepted from exactly one of ``p``, ``q``.

    Returns None when the states are equivalent. Both states must be
    reachable. BFS runs over unordered state pairs with letter-index
    tie-break, so the word returned is deterministic.
    """
    check_dfa(dfa)
    check_index("state", p, dfa.num_states)
    check_index("state", q, dfa.num_states)
    reach = set(reachable_states(dfa))
    if p not in reach or q not in reach:
        raise ValueError("states must be reachable")

    def key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    first = key(p, q)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int] | None] = {first: None}
    queue = deque([first])
    while queue:
        pair = queue.popleft()
        a, b = pair
        if (a in dfa.finals) != (b in dfa.finals):
            word: list[int] = []
            node = pair
            while parent[node] is not None:
                node, letter = parent[node]
                word.append(letter)
            return tuple(reversed(word))
        for c in range(dfa.alphabet_size):
            nxt = key(dfa.delta[a][c], dfa.delta[b][c])
            if nxt not in parent:
                parent[nxt] = (pair, c)
                queue.append(nxt)
    return None
