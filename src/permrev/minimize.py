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

from .dfa import Dfa, check_dfa, reachable_states


def minimize(dfa: Dfa) -> Dfa:
    """The canonical minimal DFA accepting the same language."""
    reach = reachable_states(dfa)
    columns = dfa.columns
    block = {q: (1 if q in dfa.finals else 0) for q in reach}
    nblocks = len(set(block.values()))
    while True:
        ids: dict[tuple, int] = {}
        refined: dict[int, int] = {}
        for q in reach:
            sig = (block[q], tuple(block[column[q]] for column in columns))
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

    quotient = tuple(
        tuple(number[block[column[rep[b]]]] for b in order) for column in columns
    )
    finals = frozenset(number[b] for b in order if rep[b] in dfa.finals)
    labels = None
    if dfa.labels is not None:
        labels = tuple(dfa.labels[rep[b]] for b in order)
    return Dfa(len(order), dfa.alphabet_size, quotient, 0, finals, labels)


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
        and m1.columns == m2.columns
        and m1.finals == m2.finals
    )


def asc(dfa: Dfa) -> int:
    """Final-state count of the minimal DFA: the accepting-state complexity."""
    return len(minimize(dfa).finals)

