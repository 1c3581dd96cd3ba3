"""The extremal fast paths agree bit for bit with the slow reference paths."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    DomainError,
    birkhoff_decompose,
    make_comonotone,
    make_independence,
    permutation_copula,
    random_copula,
)
from copulagrid.extremal import _perfect_matching
from reference_extremal import _perfect_matching as reference_matching
from reference_extremal import birkhoff_decompose as reference_decompose
from reference_extremal import permutation_copula as reference_permutation


def has_perfect_matching(support):
    """Independent oracle: a maximum assignment on the support reaches ``n``."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    if support.size == 0:
        return True
    rows, cols = linear_sum_assignment(-support.astype(float))
    return int(support[rows, cols].sum()) == support.shape[0]


def without(support, i0, j0):
    return np.delete(np.delete(support, i0, axis=0), j0, axis=1)


supports = st.tuples(
    st.integers(1, 8),
    st.sampled_from([0.15, 0.3, 0.5, 0.8, 1.0]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(supports)
@example((8, 0.3, True, 0))
@example((8, 0.15, False, 1))
@example((1, 1.0, True, 2))
def test_matching_matches_reference_and_assignment_oracle(case):
    n, density, use_forced, seed = case
    rng = np.random.default_rng(seed)
    support = rng.random((n, n)) < density
    forced = (-1, -1)
    if use_forced and support.any():
        cells = np.argwhere(support)
        forced = tuple(int(k) for k in cells[rng.integers(len(cells))])
    got = _perfect_matching(support, forced)
    assert got == reference_matching(support, forced)
    if forced == (-1, -1):
        assert (got is not None) == has_perfect_matching(support)
    else:
        assert (got is not None) == has_perfect_matching(without(support, *forced))
    if got is not None:
        assert sorted(got) == list(range(n))
        assert all(support[i, j] for i, j in enumerate(got))
        if forced != (-1, -1):
            assert got[forced[0]] == forced[1]


def sparse_mixture(order, rng):
    """A random convex combination of a few random permutation copulas."""
    weights = rng.random(int(rng.integers(1, 5)))
    weights /= weights.sum()
    mass = np.zeros((order, order))
    for w in weights:
        mass[range(order), rng.permutation(order)] += w / order
    return CheckerboardCopula((0, 1), order, mass)


def draw(kind, order, rng):
    if kind == "random":
        return random_copula((0, 1), order, rng)
    if kind == "mixture":
        return sparse_mixture(order, rng)
    if kind == "independence":
        return make_independence((0, 1), order)
    return make_comonotone((0, 1), order)


copulas = st.tuples(
    st.integers(1, 30),
    st.sampled_from(["random", "mixture", "independence", "comonotone"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(copulas)
@example((30, "random", 0))
@example((30, "mixture", 1))
@example((12, "independence", 2))
def test_birkhoff_terms_match_reference(case):
    order, kind, seed = case
    c = draw(kind, order, np.random.default_rng(seed))
    got = birkhoff_decompose(c)
    want = reference_decompose(c)
    assert [perm for _, perm in got] == [perm for _, perm in want]
    assert [w.hex() for w, _ in got] == [w.hex() for w, _ in want]


@pytest.mark.parametrize("n", range(1, 6))
def test_permutation_masses_match_reference(n):
    for perm in itertools.permutations(range(n)):
        got = permutation_copula(perm).mass
        assert got.tobytes() == reference_permutation(perm).mass.tobytes()
        assert permutation_copula(np.array(perm)) == permutation_copula(perm)


@pytest.mark.parametrize(
    "perm",
    [
        (True, False),
        (False, True),
        (1.0, 0.0),
        (0, 1.0),
        np.array([1.0, 0.0]),
        (np.True_, np.False_),
        ("1", "0"),
    ],
    ids=["bools", "bools-identity", "floats", "mixed", "float-array", "numpy-bools", "strings"],
)
def test_permutation_entries_must_be_integers(perm):
    with pytest.raises(DomainError, match="is not a permutation"):
        permutation_copula(perm)


def test_numpy_integer_entries_are_accepted():
    want = permutation_copula((2, 0, 1))
    assert permutation_copula(np.array([2, 0, 1])) == want
    assert permutation_copula(tuple(np.array([2, 0, 1], dtype=np.int32))) == want
    assert permutation_copula(np.array([2, 0, 1], dtype=np.uint8)) == want
