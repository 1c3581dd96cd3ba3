"""The transport cost matrix, built axis by axis, against the one-shot max-norm formula.

``transport_plan`` takes the max over axes of ``|phi(x_a) - phi(x_b)|`` one
axis at a time.  A maximum is exact, so its cost must equal
``np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)`` on the supports
bit for bit: in one to three dimensions, on unequal grids, with atoms at
``-inf`` and ``+inf``, and beyond ``|x| = 1e16``, where ``phi`` sends
distinct points to one coordinate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulagrid import TensorMeasure, make_comonotone, topology, transport_plan

#: infinite atoms, points phi merges with them (|x| >= 1e16), and points it keeps apart
SPECIAL = [-np.inf, -1e300, -2e16, -1e16, -1e15, 1e15, 1e16, 2e16, 1e300, np.inf, 0.0, -0.0]

points = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=True),
)


@st.composite
def tensors(draw, dims, max_points):
    grid = []
    for _ in range(dims):
        axis = draw(st.lists(points, min_size=1, max_size=max_points, unique_by=float))
        grid.append(sorted(set(axis)))
    shape = tuple(len(axis) for axis in grid)
    size = int(np.prod(shape))
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    weights = weights.reshape(shape)
    if not weights.any():
        weights.flat[0] = 1
    return TensorMeasure(tuple(range(dims)), grid, weights / weights.sum())


@st.composite
def pairs(draw):
    dims = draw(st.integers(1, 3))
    max_points = (6, 4, 3)[dims - 1]
    return draw(tensors(dims, max_points)), draw(tensors(dims, max_points))


def one_shot_cost(a, b):
    pa, _ = topology._support(a)
    pb, _ = topology._support(b)
    return np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)


def check(a, b):
    want = one_shot_cost(a, b)
    for x, y, cost in ((a, b, want), (b, a, want.T)):
        got = transport_plan(x, y).cost
        assert got.shape == cost.shape and got.tobytes() == np.ascontiguousarray(cost).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pairs())
def test_cost_equals_the_one_shot_formula(pair):
    check(*pair)


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_infinite_and_merged_points_on_every_axis(dims):
    # -inf, -2e16 and -1e16 share phi = 0.0, 1e17, 1e300 and +inf share phi = 1.0, -1e15 does not
    grids = [[-np.inf, -2e16, 0.5, 1e17], [-1e16, -1e15, 1e300, np.inf]]
    a = TensorMeasure(tuple(range(dims)), [grids[0]] * dims, np.full((4,) * dims, 4.0**-dims))
    b = TensorMeasure(tuple(range(dims)), [grids[1]] * dims, np.full((4,) * dims, 4.0**-dims))
    check(a, b)


def test_copula_against_a_tensor_on_its_corners():
    c = make_comonotone((0, 1, 2), 3)
    t = TensorMeasure((0, 1, 2), [[1 / 3, 1.0, np.inf]] * 3, np.full((3, 3, 3), 1 / 27))
    check(c, t)
