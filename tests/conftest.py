import warnings

import hypothesis.strategies as st
import pytest

from permrev.dfa import Dfa
from permrev.witness import build_witness

# Hypothesis imports its patch writer, and with it libcst where that is
# installed, only when it reports a failing property. libcst's import warns
# (mypy_extensions.TypedDict is deprecated), and under a "error" warning
# filter that import then fails inside pytest's report hook, which crashes
# the run with INTERNALERROR instead of printing the falsifying example.
# Importing it once here, with the warning ignored, leaves nothing to warn.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass

def pytest_collection_finish(session):
    """Build the alphabet of ``st.text()`` before any test runs.

    The default alphabet is every character that utf-8 encodes. Hypothesis
    computes that set once per process, on first use, and caches it in its
    storage directory; with an empty directory that takes about 2 s, which
    would count against the input generation of the first test to draw
    text. Hypothesis warns about such work while conftest files load, so it
    runs here, once collection is done.
    """
    st.text().validate()


@st.composite
def dfas(draw, max_states=5, max_alphabet=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_alphabet))
    columns = tuple(
        tuple(draw(st.integers(0, n - 1)) for _ in range(n)) for _ in range(k)
    )
    start = draw(st.integers(0, n - 1))
    finals = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(n, k, columns, start, finals)


@st.composite
def pfas(draw, max_states=6, alphabet_size=2, min_states=1, max_finals=None):
    n = draw(st.integers(min_states, max_states))
    columns = [draw(st.permutations(tuple(range(n)))) for _ in range(alphabet_size)]
    start = draw(st.integers(0, n - 1))
    finals = frozenset(draw(st.sets(st.integers(0, n - 1), max_size=max_finals)))
    return Dfa(n, alphabet_size, columns, start, finals)


@st.composite
def permutation_automata(draw, max_states=9):
    """Permutation automata on 1 to 3 letters and up to ``max_states``
    states. Every letter permutes the first r states among themselves and
    the rest among themselves, so a start on one side leaves the other
    unreachable whenever r < n. The finals are none, one, all or any of
    the states."""
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    r = draw(st.integers(1, n))
    columns = [
        draw(st.permutations(range(r))) + draw(st.permutations(range(r, n)))
        for _ in range(k)
    ]
    start = draw(st.integers(0, n - 1))
    finals = draw(st.one_of(
        st.just(()),
        st.tuples(st.integers(0, n - 1)),
        st.just(range(n)),
        st.sets(st.integers(0, n - 1)),
    ))
    return Dfa(n, k, columns, start, finals)


@st.composite
def mixed_dfas(draw, max_states=6):
    """Binary DFAs with one permuting letter and one that merges two states."""
    n = draw(st.integers(2, max_states))
    perm = draw(st.permutations(tuple(range(n))))
    merge = [draw(st.integers(0, n - 1)) for _ in range(n)]
    p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    merge[q] = merge[p]
    columns = (perm, merge) if draw(st.booleans()) else (merge, perm)
    start = draw(st.integers(0, n - 1))
    finals = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Dfa(n, 2, columns, start, finals)


@st.composite
def dfa_with_word(draw, max_states=5, max_alphabet=3, max_len=8):
    dfa = draw(dfas(max_states=max_states, max_alphabet=max_alphabet))
    word = tuple(
        draw(st.lists(st.integers(0, dfa.alphabet_size - 1), max_size=max_len))
    )
    return dfa, word


@st.composite
def perms(draw, min_n=1, max_n=8):
    n = draw(st.integers(min_n, max_n))
    return tuple(draw(st.permutations(tuple(range(n)))))


def count_calls(monkeypatch, owner, names):
    """Wrap each named attribute of ``owner`` so that it counts its calls,
    and return the live dict of counts, keyed by name."""
    calls = dict.fromkeys(names, 0)

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


@pytest.fixture(scope="session")
def witness_3_4():
    return build_witness(3, 4)
