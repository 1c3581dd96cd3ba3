"""Kuhn's search on row bitmasks: the matchings and Birkhoff terms of the cell-by-cell search.

``extremal._support_rows`` reads each row of a support into one int, bit
``j`` for column ``j``, and ``extremal._kuhn`` takes a row's candidates as
the set bits of ``adj[row] & ~seen``, lowest first.  Orders past 64 put a
row in more than one machine word.  Matchings and terms must equal those of
``reference_extremal``, which tests ``support[row, col]`` for every column,
bit for bit, refusals included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    CopulaGridError,
    birkhoff_decompose,
    make_comonotone,
    make_independence,
    random_copula,
)
from copulagrid.extremal import _perfect_matching, _support_rows
from reference_extremal import _perfect_matching as reference_matching
from reference_extremal import birkhoff_decompose as reference_decompose


def support_case(n, density, empty_rows, planted, rng):
    """A random ``n x n`` support; ``planted`` adds a permutation, ``empty_rows`` clears rows."""
    support = rng.random((n, n)) < density
    if planted:
        support[np.arange(n), rng.permutation(n)] = True
    support[rng.choice(n, size=min(empty_rows, n), replace=False)] = False
    return support


supports = st.tuples(
    st.integers(1, 80),
    st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.7, 1.0]),
    st.integers(0, 2),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(supports)
@example((80, 0.05, 0, True, True, 0))
@example((80, 0.05, 0, True, False, 1))
@example((80, 0.3, 1, True, True, 2))
@example((65, 1.0, 0, False, False, 3))
@example((64, 0.02, 0, False, True, 4))
@example((1, 0.02, 1, False, False, 5))
def test_matching_matches_reference(case):
    n, density, empty_rows, planted, use_forced, seed = case
    rng = np.random.default_rng(seed)
    support = support_case(n, density, empty_rows, planted, rng)
    forced = (-1, -1)
    if use_forced and support.any():
        cells = np.argwhere(support)
        forced = tuple(int(k) for k in cells[rng.integers(len(cells))])
    got = _perfect_matching(support, forced)
    assert got == reference_matching(support, forced)
    if empty_rows:
        assert got is None
    if got is not None:
        assert sorted(got) == list(range(n))
        assert all(support[i, j] for i, j in enumerate(got))


def test_the_corpus_reaches_matchings_and_refusals_past_one_word():
    found = {True: 0, False: 0}
    for seed in range(12):
        rng = np.random.default_rng(seed)
        support = support_case(80, 0.05, seed % 2, True, rng)
        got = _perfect_matching(support)
        assert got == reference_matching(support)
        found[got is not None] += 1
    assert found[True] and found[False]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 80])
def test_row_bitmasks_hold_the_support(n):
    support = np.random.default_rng(n).random((n, n)) < 0.4
    adj = _support_rows(support)
    assert [[bool(row >> j & 1) for j in range(n)] for row in adj] == support.tolist()
    assert all(0 <= row < 1 << n for row in adj)


def outcome(decompose, c):
    """The terms as ``(weight.hex(), perm)`` pairs, or the type and message of the refusal."""
    try:
        return [(w.hex(), perm) for w, perm in decompose(c)]
    except CopulaGridError as exc:
        return type(exc), str(exc)


def assert_same_terms(c):
    got = outcome(birkhoff_decompose, c)
    assert got == outcome(reference_decompose, c)
    assert isinstance(got, list)


@pytest.mark.parametrize("n, seed", [(1, 0), (2, 1), (7, 2), (17, 3), (33, 4), (40, 5)])
def test_random_copulas_match_reference(n, seed):
    assert_same_terms(random_copula((0, 1), n, np.random.default_rng(seed)))


@pytest.mark.parametrize("n", [1, 2, 13, 31, 40])
def test_comonotone_and_independence_match_reference(n):
    assert_same_terms(make_comonotone((0, 1), n))
    assert_same_terms(make_independence((0, 1), n))


mixtures = st.tuples(st.integers(1, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mixtures)
@example((40, 6, 0))
@example((40, 1, 1))
@example((33, 3, 2))
def test_sparse_mixtures_match_reference(case):
    n, k, seed = case
    rng = np.random.default_rng(seed)
    weights = rng.random(k) + 0.05
    mass = np.zeros((n, n))
    for w in weights / weights.sum():
        mass[np.arange(n), rng.permutation(n)] += w / n
    assert_same_terms(CheckerboardCopula((0, 1), n, mass))
