"""Transport supports and the 1-d oracle against their former forms, bit for bit.

``_support`` now maps each axis value through ``phi`` once and crosses the
mapped axes; it used to cross the raw axes and map every coordinate of every
kept node with ``np.vectorize(phi)``.  ``w1_one_dim`` cuts the line at
``-inf``, the finite points and ``+inf`` in one list; it used to build the
pieces with a separate case for no finite points.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import Marginal, TensorMeasure, random_copula, w1_one_dim
from copulagrid.topology import _piece_integral, _segment_line, _support, phi
from helpers import random_atomic, random_continuous

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def reference_support(t):
    mesh = np.meshgrid(*t.grid, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    masses = t.mass.ravel()
    keep = masses > 0.0
    phi_coords = np.vectorize(phi)(coords[keep])
    return phi_coords.reshape(-1, t.ndim), masses[keep]


def reference_w1(a, b):
    points = set()
    for m in (a, b):
        points.update(float(x) for x in m.xs if math.isfinite(x))
    cuts = sorted(points)
    segments = []
    if not cuts:
        segments.append((float("-inf"), float("inf")))
    else:
        segments.append((float("-inf"), cuts[0]))
        segments.extend(zip(cuts[:-1], cuts[1:]))
        segments.append((cuts[-1], float("inf")))
    total = 0.0
    for lo, hi in segments:
        aa, ba = _segment_line(a, lo, hi)
        ab, bb = _segment_line(b, lo, hi)
        total += _piece_integral(lo, hi, aa - ab, ba - bb)
    return total


def _tensor(rng, d):
    grid = []
    for _ in range(d):
        scale = 10.0 ** rng.integers(-3, 4)
        axis = np.round(rng.normal(size=int(rng.integers(1, 6))) * scale, 3)
        extra = [x for x in (-np.inf, np.inf, 0.0, -0.0) if rng.random() < 0.3]
        grid.append(np.unique(np.concatenate((axis, extra))))
    shape = tuple(len(axis) for axis in grid)
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    mass[rng.random(shape) < 0.3] = 0.0
    if mass.sum() == 0.0:
        mass.flat[0] = 1.0
    return TensorMeasure(tuple(range(d)), tuple(grid), mass / mass.sum())


@SETTINGS
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
@example(3, 0)
def test_support_matches_per_node_phi(d, seed):
    rng = np.random.default_rng(seed)
    for t in (_tensor(rng, d), random_copula(tuple(range(d)), int(rng.integers(1, 6)), rng)):
        got, want = _support(t), reference_support(t)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


def test_support_of_a_long_axis_matches_per_node_phi():
    # math.atan and np.arctan differ on about one value in a thousand; a long
    # axis over many magnitudes makes sure such values are present
    rng = np.random.default_rng(7)
    axis = np.unique(rng.normal(size=20000) * 10.0 ** rng.integers(-6, 7, size=20000))
    t = TensorMeasure((0,), (axis,), rng.dirichlet(np.ones(axis.size)))
    for g, w in zip(_support(t), reference_support(t)):
        assert g.tobytes() == w.tobytes()


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_w1_matches_separate_pieces(seed):
    rng = np.random.default_rng(seed)
    make = (lambda: random_atomic(rng, allow_inf=True), lambda: random_continuous(rng))
    a, b = make[int(rng.integers(0, 2))](), make[int(rng.integers(0, 2))]()
    assert w1_one_dim(a, b).hex() == reference_w1(a, b).hex()


def test_w1_without_finite_points():
    a = Marginal.atomic([(-math.inf, 0.25), (math.inf, 0.75)])
    b = Marginal.atomic([(-math.inf, 1.0)])
    assert w1_one_dim(a, b).hex() == reference_w1(a, b).hex()
    assert w1_one_dim(a, b) == 0.75
