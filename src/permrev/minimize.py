"""DFA minimization, language equivalence, accepting-state complexity.

The minimizer prunes unreachable states, merges equivalent ones by
Moore-style partition refinement, and renumbers the quotient breadth-first
from the start state with letter-index tie-break. That renumbering is a
canonical form: two DFAs accept the same language iff their minimized
tables are identical, which is how ``are_equivalent`` decides.

The verification pipeline (``verify_witness``, the spectrum grid and the
magic-value probe) does not minimize: one ``witness._reverse_stars`` call
explores each witness's reverse subsets once, for the verifier and for
each grid cell alike, one ``reversal.reversal_certificate`` call each
trivial row's, and ``reversal._certify`` reads asc and minimality of
both sides off them; the probe reads asc on byte masks. The
minimizer serves ``permrev minimize`` and ``permrev asc``,
``are_equivalent``, and the tests, where table filling checks it and it
checks the certificate.
"""

from __future__ import annotations

from itertools import compress, count

from .dfa import Dfa, check_dfa, reachable_states


def minimize(dfa: Dfa) -> Dfa:
    """The canonical minimal DFA accepting the same language.

    A partition is a list of block numbers by BFS position. Each Moore
    round zips the blocks with each letter's column mapped through them,
    and numbers the signatures in order of first appearance, in passes of
    builtins with no per-state loop.
    """
    reach = reachable_states(dfa)
    position = dict(zip(reach, count()))
    columns = [
        [*map(position.__getitem__, map(column.__getitem__, reach))]
        for column in dfa.columns
    ]
    block = [*map(dfa.finals.__contains__, reach)]
    nblocks = len(set(block))
    while True:
        get = block.__getitem__
        signatures = [*zip(block, *(map(get, column) for column in columns))]
        number = dict(zip(dict.fromkeys(signatures), count()))
        block = [*map(number.__getitem__, signatures)]
        if len(number) == nblocks:
            break
        nblocks = len(number)

    # Blocks are numbered in order of first appearance along the BFS order
    # ``reach``. This is the quotient's own BFS order: a block's later
    # states lead only to blocks its first state already led to. Zipped
    # backwards, each block keeps the position of its first state.
    first = dict(zip(reversed(block), range(len(block) - 1, -1, -1)))
    reps = [*map(first.__getitem__, range(nblocks))]
    get = block.__getitem__
    quotient = tuple(
        tuple(map(get, map(column.__getitem__, reps))) for column in columns
    )
    states = [*map(reach.__getitem__, reps)]
    finals = frozenset(compress(count(), map(dfa.finals.__contains__, states)))
    labels = None
    if dfa.labels is not None:
        labels = tuple(map(dfa.labels.__getitem__, states))
    return Dfa(nblocks, dfa.alphabet_size, quotient, 0, finals, labels)


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

