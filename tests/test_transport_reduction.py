"""Transport on the mass difference against the full problem solved directly.

``transport_plan`` leaves the mass two measures share at a point in place and
solves only between the positive and negative parts of ``a - b``.  The slow
path it replaces, the reference solver on the unreduced supports, must give
the same value to 1e-12, and the full plan and potentials must certify the
full problem on every call.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import TensorMeasure, to_tensor_measure, topology, transport_plan
from reference_transport import _solve_transport as reference_solve
from test_measure_core import draw_copula

#: lattice points shared between draws, and far points that phi maps to 0 or 1
POOL = np.array([-np.inf, -1e18, -2.0, -1.0, 0.0, 1.0, 2.0, 1e17, 1e18, np.inf])


def unreduced(a, b):
    """The full problem solved by the reference solver, unreduced, with its cost and masses."""
    pa, ma = topology._support(a)
    pb, mb = topology._support(b)
    cost = np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)
    return reference_solve(ma, mb, cost, a.ndim > 1), {"cost": cost, "row_masses": ma, "col_masses": mb}


def check_reduction(a, b):
    res = transport_plan(a, b)
    slow, problem = unreduced(a, b)
    assert abs(res.value - slow.value) <= 1e-12
    for name in ("cost", "row_masses", "col_masses"):
        assert getattr(res, name).tobytes() == problem[name].tobytes(), name
    assert res.feasibility_deviation() <= topology._FEASIBILITY_TOL
    assert res.slackness_deviation() <= topology._SLACKNESS_TOL
    assert res.plan.min() >= 0.0
    # under the metric cost the potentials are f on rows and -f on columns
    rows, cols = np.nonzero(res.cost == 0.0)
    assert np.array_equal(res.row_potentials[rows], -res.col_potentials[cols])
    return res


def pool_tensor(rng, dims, shift):
    """Tensor on axes drawn from ``POOL`` (moved off it by ``shift``), some cells empty."""
    grid = []
    for _ in range(dims):
        k = int(rng.integers(1, 5))
        grid.append(np.sort(rng.choice(POOL, size=k, replace=False)) + shift)
    shape = tuple(len(axis) for axis in grid)
    while True:
        weights = rng.integers(0, 4, size=shape).astype(float)
        if weights.sum() > 0:
            return TensorMeasure(tuple(range(dims)), tuple(grid), weights / weights.sum())


kinds = st.sampled_from(["random", "comonotone", "independence"])
copula_pairs = st.one_of(
    st.tuples(st.just(2), st.integers(1, 10), kinds, kinds, st.integers(0, 2**32 - 1)),
    st.tuples(st.just(3), st.integers(1, 5), kinds, kinds, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(copula_pairs)
@example((2, 10, "random", "random", 7))
@example((3, 5, "random", "independence", 29))
def test_copula_pairs_match_the_unreduced_solve(case):
    d, order, kind_a, kind_b, seed = case
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    check_reduction(
        draw_copula(kind_a, labels, order, rng), draw_copula(kind_b, labels, order, rng)
    )


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2), st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1))
def test_tensor_pairs_on_different_grids_match_the_unreduced_solve(dims, shift, seed):
    # a shift of 0.5 moves every finite point of b off the lattice of a
    rng = np.random.default_rng(seed)
    a, b = pool_tensor(rng, dims, 0.0), pool_tensor(rng, dims, shift)
    res = check_reduction(a, b)
    assert res.cost.shape == (np.count_nonzero(a.mass), np.count_nonzero(b.mass))


def test_disjoint_supports_solve_everything():
    a = TensorMeasure((0,), ([-1.0, 1.0],), [0.5, 0.5])
    b = TensorMeasure((0,), ([0.0, 2.0],), [0.25, 0.75])
    assert not (check_reduction(a, b).cost == 0.0).any()


@pytest.mark.parametrize("kind", ["random", "comonotone", "independence"])
@pytest.mark.parametrize("d, order", [(2, 1), (2, 9), (3, 4)])
def test_identical_measures_need_no_solve(kind, d, order):
    rng = np.random.default_rng(order)
    c = draw_copula(kind, tuple(range(d)), order, rng)
    t = pool_tensor(rng, d, 0.0)
    for a, b in ((c, c), (c, to_tensor_measure(c)), (t, t)):
        res = check_reduction(a, b)
        assert res.value == 0.0 and res.pivots == 0


def test_one_sided_rounding_residual_is_not_solved():
    # b exceeds a by one ulp at one point, within MASS_TOL of total one
    a = TensorMeasure((0,), ([0.0, 1.0, 2.0],), [0.25, 0.25, 0.5])
    b = TensorMeasure((0,), ([0.0, 1.0, 2.0],), [0.25, 0.25, np.nextafter(0.5, 1.0)])
    for x, y in ((a, b), (b, a)):
        res = check_reduction(x, y)
        assert res.value == 0.0 and res.pivots == 0
        assert 0.0 < res.feasibility_deviation() <= topology._FEASIBILITY_TOL


def test_points_that_phi_merges_share_their_mass():
    # 1e17, 1e18 and +inf all map to phi = 1.0: one point of the compactified line
    a = TensorMeasure((0,), ([0.0, 1e17, 1e18],), [0.5, 0.25, 0.25])
    b = TensorMeasure((0,), ([0.0, np.inf],), [0.5, 0.5])
    res = check_reduction(a, b)
    assert res.value == 0.0 and res.pivots == 0

