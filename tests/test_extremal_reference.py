"""The extremal fast paths agree bit for bit with the slow reference paths.

Birkhoff terms are the exception: each round extends the last one's
permutation, so they pass the replay gate of ``helpers.replay_birkhoff``.
"""

import copy
import functools
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    DomainError,
    EvaluationError,
    birkhoff_decompose,
    make_comonotone,
    make_independence,
    maximize_convex,
    permutation_copula,
    random_copula,
    validate_copula,
)
from copulagrid.cli import _FUNCTIONALS
from copulagrid.extremal import ConvexSearchResult
from helpers import has_perfect_matching, replay_birkhoff, without
from helpers import perfect_matching as _perfect_matching
from reference_extremal import _perfect_matching as reference_matching
from reference_extremal import permutation_copula as reference_permutation


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
def test_birkhoff_terms_pass_the_replay_gate(case):
    order, kind, seed = case
    c = draw(kind, order, np.random.default_rng(seed))
    replay_birkhoff(c, birkhoff_decompose(c))


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


@functools.lru_cache(maxsize=None)
def reference_permutations(n):
    """Every order-``n`` permutation copula of the reference, in lexicographic order."""
    return tuple(reference_permutation(perm) for perm in itertools.permutations(range(n)))


def reference_maximize_convex(functional, n, interior_samples, seed, midpoint_checks=16):
    """``maximize_convex`` as one loop over constructor-built permutation copulas."""
    best_val = best_perm = None
    for perm, c in zip(itertools.permutations(range(n)), reference_permutations(n)):
        val = float(functional(c))
        if best_val is None or val > best_val:
            best_val, best_perm = val, perm
    rng = np.random.default_rng(seed)
    interior = [random_copula((0, 1), n, rng) for _ in range(interior_samples)]
    values = [float(functional(c)) for c in interior]
    violations = 0
    if len(interior) >= 2:
        for _ in range(midpoint_checks):
            i, j = rng.integers(0, len(interior), size=2)
            mid = CheckerboardCopula((0, 1), n, 0.5 * (interior[i].mass + interior[j].mass))
            if float(functional(mid)) > 0.5 * (values[i] + values[j]) + 1e-9:
                violations += 1
    interior_best = max(values, default=-math.inf)
    return ConvexSearchResult(
        extremal_value=best_val,
        extremal_permutation=best_perm,
        interior_value=interior_best,
        interior_samples=len(interior),
        interior_within_bound=interior_best <= best_val + 1e-9,
        midpoint_violations=violations,
    )


@pytest.mark.parametrize(
    "n, seeds", [(n, range(20)) for n in range(1, 8)] + [(8, range(2))], ids=lambda v: str(v)
)
@pytest.mark.parametrize("name", sorted(_FUNCTIONALS))
def test_search_matches_reference_loop(name, n, seeds):
    for seed in seeds:
        functional = _FUNCTIONALS[name](np.random.default_rng(seed), n)
        kwargs = dict(interior_samples=4, seed=seed, midpoint_checks=4)
        got = maximize_convex(functional, n, **kwargs)
        want = reference_maximize_convex(functional, n, **kwargs)
        assert got == want, seed
        assert got.extremal_value.hex() == want.extremal_value.hex(), seed


def record(seen):
    def functional(c):
        seen.append(c)
        return 0.0

    return functional


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7])
def test_functional_sees_reference_copulas_in_lexicographic_order(n):
    seen = []
    result = maximize_convex(record(seen), n, interior_samples=0)
    want = reference_permutations(n)
    assert len(seen) == len(want) == math.factorial(n)
    for got, ref in zip(seen, want):
        assert type(got) is CheckerboardCopula
        assert (got.labels, got.order) == (ref.labels, ref.order)
        assert got.mass.tobytes() == ref.mass.tobytes()
        assert got.mass.shape == (n, n) and got.mass.flags.c_contiguous
    # every value ties, so the lexicographically smallest permutation wins
    assert result.extremal_permutation == tuple(range(n))


@pytest.mark.parametrize("n, at", [(6, 719), (7, 720), (7, 5039), (8, 721)])
def test_refusal_names_the_permutation_it_was_on(n, at):
    """Positions on both sides of a 720-permutation block boundary."""
    perm = next(itertools.islice(itertools.permutations(range(n)), at, None))
    calls = []

    def functional(c):
        calls.append(c)
        return math.nan if len(calls) == at + 1 else 0.0

    message = f"^functional returned nan on {re.escape(repr(perm))}$"
    with pytest.raises(EvaluationError, match=message):
        maximize_convex(functional, n, interior_samples=0)
    assert calls[-1].mass.tobytes() == reference_permutation(perm).mass.tobytes()


def test_a_later_block_does_not_win_a_tie():
    n = 7
    # the same maximum on one permutation of the first block and one of the last
    first, last = (0, 1, 2, 3, 4, 6, 5), (6, 5, 4, 3, 2, 1, 0)
    targets = {reference_permutation(perm).mass.tobytes() for perm in (first, last)}
    result = maximize_convex(
        lambda c: 1.0 if c.mass.tobytes() in targets else 0.0, n, interior_samples=0
    )
    assert result.extremal_permutation == first
    assert result.extremal_value == 1.0


@pytest.mark.parametrize("n", [6, 7])
def test_kept_copulas_are_distinct_read_only_and_unchanged(n):
    seen = []
    maximize_convex(record(seen), n, interior_samples=0)
    assert len({id(c) for c in seen}) == len(seen)
    assert len({id(c.mass) for c in seen}) == len(seen)
    for c, ref in zip(seen, reference_permutations(n)):
        assert validate_copula(c).passed
        assert c.mass.tobytes() == ref.mass.tobytes()
        assert not c.mass.flags.writeable
        with pytest.raises(ValueError):
            c.mass[0, 0] = 0.5
        with pytest.raises(ValueError):
            c.mass.setflags(write=True)
        assert c == CheckerboardCopula((0, 1), n, ref.mass)
        assert c == CheckerboardCopula._of((0, 1), ref.mass, n)
    # copulas of different blocks never share memory
    blocks = [c.mass.base for c in seen[::720]]
    assert len({id(b) for b in blocks}) == len(blocks) == math.ceil(len(seen) / 720)
    assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(blocks, 2))


@pytest.mark.parametrize(
    "how",
    [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
    ids=["deepcopy", "pickle"],
)
def test_copies_of_kept_copulas_are_equal_and_read_only(how):
    seen = []
    maximize_convex(record(seen), 7, interior_samples=0)
    for c in seen[::97] + seen[-1:]:
        twin = how(c)
        assert type(twin) is CheckerboardCopula
        assert twin == c and twin.mass.tobytes() == c.mass.tobytes()
        assert (twin.labels, twin.order) == (c.labels, c.order)
        assert not twin.mass.flags.writeable
        with pytest.raises(ValueError):
            twin.mass[0, 0] = 0.5


def test_of_fills_the_slots_of_the_whole_hierarchy():
    mass = reference_permutation((2, 0, 1)).mass
    c = CheckerboardCopula._of((0, 1), mass, 3)
    assert c.labels == (0, 1) and c.mass is mass and c.order == 3
    assert c == permutation_copula((2, 0, 1)) == reference_permutation((2, 0, 1))
    assert repr(c) == "CheckerboardCopula(labels=(0, 1), order=3)"
