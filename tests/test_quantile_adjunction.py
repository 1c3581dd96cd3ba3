"""``quantile`` is the lower adjoint of ``cdf_eval`` on adversarial marginals.

For every level ``u`` in ``(0, 1]`` the quantile ``x`` reaches it,
``cdf_eval(x) >= u``, and nothing smaller does: for a continuous law the
next float below ``x`` stays under ``u``, and for an atomic law the atom
before ``x`` does.  The laws stress the float arithmetic: knots a few
subnormals apart, knots spread over about +-1e300, and atoms at +-inf or of
zero weight.  Levels are probed at random, at every CDF level and at the
floats next to each level.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from copulagrid import Marginal, cdf_eval, quantile

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

TINY = 5e-324


def levels_for(rng, k):
    """``k`` strictly increasing CDF levels from exactly 0 to exactly 1."""
    while True:
        inner = np.sort(rng.uniform(0.0, 1.0, size=k - 2))
        fs = np.concatenate(([0.0], inner, [1.0]))
        if (fs[1:] > fs[:-1]).all():
            return fs


def subnormal_knots(rng):
    k = int(rng.integers(2, 9))
    start = int(rng.integers(-20, 20))
    xs = (start + np.cumsum(rng.integers(1, 4, size=k))) * TINY
    return Marginal.continuous(list(zip(xs, levels_for(rng, k))))


def huge_knots(rng):
    k = int(rng.integers(2, 9))
    while True:
        xs = np.sort(rng.uniform(-1.0, 1.0, size=k) * 1e300)
        if (xs[1:] > xs[:-1]).all():
            return Marginal.continuous(list(zip(xs, levels_for(rng, k))))


def infinite_atoms(rng):
    k = int(rng.integers(1, 7))
    xs = list(np.unique(np.round(rng.normal(size=k) * 3.0, 1)))
    xs = [-math.inf] * (rng.random() < 0.6) + xs + [math.inf] * (rng.random() < 0.6)
    ws = rng.dirichlet(np.ones(len(xs))) * (rng.random(len(xs)) < 0.6)
    if ws.sum() == 0.0:
        ws[-1] = 1.0
    return Marginal.atomic(list(zip(xs, ws / ws.sum())))


LAWS = {"subnormal": subnormal_knots, "huge": huge_knots, "atomic": infinite_atoms}


def probe_levels(rng, m):
    levels = list(rng.uniform(0.0, 1.0, size=16)) + [1.0, TINY]
    for x in m.xs:
        f = cdf_eval(m, x)
        levels += [f, math.nextafter(f, 0.0), math.nextafter(f, 1.0)]
    return sorted({u for u in levels if 0.0 < u <= 1.0})


@SETTINGS
@given(st.sampled_from(sorted(LAWS)), st.integers(0, 2**32 - 1))
def test_quantile_is_the_smallest_point_reaching_the_level(kind, seed):
    rng = np.random.default_rng(seed)
    m = LAWS[kind](rng)
    for u in probe_levels(rng, m):
        x = quantile(m, u)
        assert cdf_eval(m, x) >= u, (u, x)
        if m.kind == "atomic":
            i = int(np.searchsorted(m.xs, x))
            assert m.xs[i] == x
            assert i == 0 or cdf_eval(m, m.xs[i - 1]) < u, (u, x)
        else:
            assert cdf_eval(m, math.nextafter(x, -math.inf)) < u, (u, x)
