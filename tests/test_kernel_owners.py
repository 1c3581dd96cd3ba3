"""The one contraction kernel, the one block hand-out and the clustering loop, bit for bit.

``copulas._contract`` contracts the first axis of a mass with a vector or a
matrix, on the operands ``np.tensordot`` hands to ``np.dot``; the eager Sklar
pushforward now runs through it.  ``compactness_probe`` reads the distances
of all unassigned masses to an anchor at once.  ``tests/reference_kernels.py``
holds both as they were; outputs and refusals must not change.
"""

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from copulagrid import (
    CompatibilityError,
    ConfigurationError,
    DomainError,
    ValidationError,
    compactness_probe,
    compose,
    discretize_joint,
    family_from_copula,
    make_comonotone,
    make_countermonotone,
    make_independence,
    permutation_copula,
    quantile,
    random_copula,
)
from copulagrid.copulas import CheckerboardCopula, _contract
from helpers import random_atomic, random_continuous

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def same_array(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(1, 16),
    st.integers(1, 70),
    st.sampled_from([0.0, 0.5, 0.9]),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(3, 16, 70, 0.9, True, 0)
@example(1, 1, 1, 0.0, False, 1)
def test_contract_with_a_matrix_is_tensordot_bit_for_bit(d, n, m, sparsity, transposed, seed):
    rng = np.random.default_rng(seed)
    val = rng.uniform(size=(n,) * d) * (rng.uniform(size=(n,) * d) >= sparsity)
    if transposed:
        # the pushforward passes the transpose of a C-ordered transfer matrix
        w = (rng.uniform(size=(m, n)) * (rng.uniform(size=(m, n)) >= sparsity)).T
    else:
        w = rng.uniform(size=(n, m)) * (rng.uniform(size=(n, m)) >= sparsity)
    assert same_array(_contract(val, w), np.tensordot(val, w, axes=([0], [0])))
    vector = w[:, 0]
    assert same_array(_contract(val, vector), np.tensordot(val, vector, axes=([0], [0])))


def build_copula(kind, d, n, rng):
    labels = tuple(range(d))
    if kind == "comonotone":
        return make_comonotone(labels, n)
    if kind == "independence":
        return make_independence(labels, n)
    if kind == "countermonotone" and d == 2:
        return make_countermonotone(labels, n)
    if kind == "permutation" and d == 2:
        return permutation_copula(rng.permutation(n).tolist())
    return random_copula(labels, n, rng)


def random_composition(d, n, kind, grid_kind, rng):
    """A composed joint over ``range(d)`` with atomic (±inf atoms) and continuous axes."""
    copula = build_copula(kind, d, n, rng)
    marginals, grids = {}, {}
    for lab in range(d):
        if rng.random() < 0.5:
            marginals[lab] = random_atomic(rng, max_atoms=6, allow_inf=True)
            continue
        m = marginals[lab] = random_continuous(rng, max_knots=8)
        if grid_kind == "knots":
            grids[lab] = m.xs.tolist()
        else:
            grids[lab] = [quantile(m, (k + 1) / n) for k in range(n)]
    return compose(family_from_copula(copula), marginals), grids


kinds = st.sampled_from(["random", "comonotone", "independence", "countermonotone", "permutation"])


@SETTINGS
@given(
    st.integers(1, 3),
    st.integers(1, 16),
    kinds,
    st.sampled_from(["knots", "quantiles"]),
    st.integers(0, 2**32 - 1),
)
@example(3, 8, "random", "quantiles", 0)
@example(2, 16, "permutation", "knots", 1)
@example(1, 1, "comonotone", "knots", 2)
def test_discretize_joint_is_the_tensordot_pushforward_bit_for_bit(d, n, kind, grid_kind, seed):
    rng = np.random.default_rng(seed)
    n = min(n, 8) if d == 3 else n
    jm, grids = random_composition(d, n, kind, grid_kind, rng)
    subsets = [tuple(range(d))] + [(lab,) for lab in range(d)]
    for subset in subsets:
        got = discretize_joint(jm, subset, grids)
        want = ref.discretize_joint(jm, subset, grids)
        assert got.labels == want.labels
        assert all(same_array(a, b) for a, b in zip(got.grid, want.grid))
        assert same_array(got.mass, want.mass)


def test_discretize_joint_refuses_as_the_reference_does():
    rng = np.random.default_rng(5)
    continuous = random_continuous(rng)
    jm = compose(family_from_copula(make_independence((0, 1), 3)), {0: continuous, 1: continuous})
    knots = continuous.xs.tolist()
    for grids in (None, {0: knots}, {0: knots, 1: knots[:-1]}):
        with pytest.raises(ConfigurationError) as want:
            ref.discretize_joint(jm, (0, 1), grids)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(want.value))}$"):
            discretize_joint(jm, (0, 1), grids)


def blend(a, b, t):
    return CheckerboardCopula(a.labels, a.order, (1 - t) * a.mass + t * b.mass)


def same_result(got, want):
    assert got.indices == want.indices
    assert got.representative_index == want.representative_index
    assert got.representative is want.representative
    assert got.num_clusters == want.num_clusters


@SETTINGS
@given(st.integers(2, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(3, 40, 0)
def test_compactness_probe_is_the_reference_loop(n, count, seed):
    rng = np.random.default_rng(seed)
    pool = [random_copula((0, 1), n, rng) for _ in range(3)] + [make_independence((0, 1), n)]
    seq = [
        blend(pool[int(rng.integers(len(pool)))], pool[-1], float(rng.choice([0.0, 0.1, 0.5])))
        for _ in range(count)
    ]
    # radii exactly at a distance that occurs, just below it, and as a Fraction
    dist = float(np.max(np.abs(seq[0].mass - seq[-1].mass))) or 0.05
    radii = [dist, float(np.nextafter(dist, 0.0)), Fraction(dist), Fraction(1, 7), 1e-12, 10**400]
    for eps in radii:
        same_result(compactness_probe(seq, eps), ref.compactness_probe(seq, eps))


def test_distances_exactly_at_eps_join_the_cluster_in_every_type_of_eps():
    base = make_independence((0, 1), 2)
    near = CheckerboardCopula((0, 1), 2, [[0.3, 0.2], [0.2, 0.3]])
    seq = [base, near, base, near]
    dist = float(np.max(np.abs(near.mass - base.mass)))
    for eps in (dist, Fraction(dist), np.float64(dist)):
        same_result(compactness_probe(seq, eps), ref.compactness_probe(seq, eps))
        assert compactness_probe(seq, eps).num_clusters == 1
    below = float(np.nextafter(dist, 0.0))
    for eps in (below, Fraction(dist) - Fraction(1, 10**30)):
        same_result(compactness_probe(seq, eps), ref.compactness_probe(seq, eps))
        assert compactness_probe(seq, eps).indices == (0, 2)


def test_a_float32_eps_meets_the_distances_as_the_scalar_loop_did():
    # a Python float meets a numpy float32 in float32, so a distance of about
    # 0.300000012 lies within np.float32(0.3), though in float64 it would not
    x = 0.300000012
    a = CheckerboardCopula((0, 1), 2, [[0.5, 0.0], [0.0, 0.5]])
    b = CheckerboardCopula((0, 1), 2, [[0.5 - x, x], [x, 0.5 - x]])
    seq = [a, b, a]
    for eps in (np.float32(0.3), 0.3, Fraction(3, 10)):
        same_result(compactness_probe(seq, eps), ref.compactness_probe(seq, eps))
    assert compactness_probe(seq, np.float32(0.3)).num_clusters == 1
    assert compactness_probe(seq, 0.3).num_clusters == 2


@pytest.mark.parametrize(
    "seq, eps, error",
    [
        ([], 0.1, DomainError),
        ([make_independence((0, 1), 2)], 0.0, DomainError),
        ([make_independence((0, 1), 2), make_independence((0, 1), 3)], 0.1, CompatibilityError),
    ],
)
def test_compactness_probe_refuses_as_the_reference_does(seq, eps, error):
    with pytest.raises(error) as want:
        ref.compactness_probe(seq, eps)
    with pytest.raises(error, match=f"^{re.escape(str(want.value))}$"):
        compactness_probe(seq, eps)


@pytest.mark.parametrize("labels", [None, (0, 1)])
def test_an_empty_permutation_is_refused_for_its_order(labels):
    args = ([],) if labels is None else ([], labels)
    with pytest.raises(DomainError, match=r"^order must be >= 1, got 0$"):
        permutation_copula(*args)


def test_an_empty_permutation_over_unsorted_labels_is_refused_for_its_labels_first():
    with pytest.raises(ValidationError, match=r"^labels must be strictly increasing, got \(1, 0\)$"):
        permutation_copula([], (1, 0))
