"""Safra's construction against the plain oracle on Buchi automata that
Hypothesis draws, so a counterexample shrinks to a small automaton.  Skipped
where Hypothesis is not installed: the package itself needs only the
standard library."""

import pytest

from hqsynth.automata import NBW, determinize
from hqsynth.common import all_letters

from oracles import assert_same_dpw, plain_determinize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

AB = frozenset({"a", "b"})
LETTERS = all_letters(AB)


@st.composite
def nbws(draw):
    """An NBW on states 0..n-1 over {a, b}, initial state 0: a set of
    (state, letter, target) edges, each fair or not."""
    n = draw(st.integers(1, 7))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, len(LETTERS) - 1),
                     st.integers(0, n - 1), st.booleans())
    edges = draw(st.lists(edge, max_size=n * n * len(LETTERS) // 2,
                          unique_by=lambda e: e[:3]))
    rows = [[()] * len(LETTERS) for _ in range(n)]
    for q, i, t, fair in edges:
        rows[q][i] += ((t, fair),)
    return NBW(AB, range(n), 0, rows)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(nbws())
def test_determinize_matches_the_plain_construction(nbw):
    assert_same_dpw(determinize(nbw), plain_determinize(nbw))
