"""The marginal readers against their two-store forms, bit for bit.

Atomic laws used to keep their CDF in a ``cum`` slot and continuous laws in
``fs``, and every reader branched on the kind before finding its point;
``sklar._axis_transfer`` cut the unit interval at the union of cell
boundaries and CDF levels and scattered the pieces with ``np.add.at``.
Both kinds now keep one ``(xs, fs)`` table, each reader looks its point up
once, and ``_axis_transfer`` writes every overlap in closed form.
``tests/reference_marginals.py`` keeps the former readers; on every law,
point, level and order below both give the same bits, or the same error.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_marginals as ref
from copulagrid import Marginal, cdf_eval, quantile
from copulagrid.sklar import _axis_transfer
from copulagrid.topology import _segment_line

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def atomic_law(rng):
    """Up to 8 atoms, possibly at +-inf, some of zero weight, levels often on a coarse lattice."""
    k = int(rng.integers(1, 9))
    xs = np.unique(np.round(rng.normal(size=k) * 10.0 ** rng.integers(-2, 3), 2))
    xs = list(xs)
    if rng.random() < 0.4:
        xs = [-math.inf] + xs
    if rng.random() < 0.4:
        xs = xs + [math.inf]
    if rng.random() < 0.5:
        ws = rng.integers(0, 4, size=len(xs)).astype(float)
    else:
        ws = rng.dirichlet(np.ones(len(xs))) * (rng.random(len(xs)) < 0.7)
    if ws.sum() == 0.0:
        ws[int(rng.integers(0, len(xs)))] = 1.0
    return Marginal.atomic(list(zip(xs, ws / ws.sum())))


def continuous_law(rng):
    """2 to 8 knots, with levels at random or on a lattice j/q that cell boundaries may hit."""
    k = int(rng.integers(2, 9))
    xs = np.unique(np.round(rng.normal(size=k + 2) * 10.0 ** rng.integers(-2, 3), 3))[:k]
    if xs.size < 2:
        xs = np.array([0.0, 1.0])
    if rng.random() < 0.5:
        q = int(rng.integers(xs.size - 1, 3 * xs.size))
        levels = np.sort(rng.choice(np.arange(1, q), size=xs.size - 2, replace=False)) / q
    else:
        levels = np.sort(rng.uniform(0.0, 1.0, size=xs.size - 2))
    fs = np.concatenate(([0.0], levels, [1.0]))
    if not (fs[1:] > fs[:-1]).all():
        fs = np.linspace(0.0, 1.0, xs.size)
    return Marginal.continuous(list(zip(xs, fs)))


def law(kind, rng):
    return atomic_law(rng) if kind == "atomic" else continuous_law(rng)


def outcome(fn, *args):
    """Bits of a reader's result, or the type and message of what it raised."""
    try:
        result = fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple) and isinstance(result[1], np.ndarray):
        return tuple((a.dtype.str, a.shape, a.tobytes()) for a in result)
    return tuple(float(v).hex() for v in result)


def neighbours(values):
    out = []
    for v in values:
        v = float(v)
        out += [v, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)]
    return out


@SETTINGS
@given(st.sampled_from(["atomic", "continuous"]), st.integers(0, 2**32 - 1))
@example("atomic", 0)
@example("continuous", 0)
def test_cdf_and_quantile_match_the_reference(kind, seed):
    rng = np.random.default_rng(seed)
    m = law(kind, rng)
    xs = neighbours(m.xs) + [-math.inf, math.inf, 0.0, -0.0] + list(rng.normal(size=8) * 10.0)
    for x in xs:
        assert outcome(cdf_eval, m, x) == outcome(ref.cdf_eval, m, x), x
    levels = neighbours(cdf_eval(m, x) for x in m.xs) + list(rng.uniform(0.0, 1.0, size=8))
    levels += [1.0, 5e-324] + [k / n for n in (2, 3, 7, 40) for k in range(1, n + 1)]
    for u in levels:
        if 0.0 < u <= 1.0:
            assert outcome(quantile, m, u) == outcome(ref.quantile, m, u), u


@SETTINGS
@given(
    st.sampled_from(["atomic", "continuous"]),
    st.sampled_from(["atomic", "continuous"]),
    st.integers(0, 2**32 - 1),
)
def test_segment_lines_match_the_reference(kind, other, seed):
    # w1_one_dim cuts the line at -inf, the finite points of both laws and +inf
    rng = np.random.default_rng(seed)
    a, b = law(kind, rng), law(other, rng)
    points = {float(x) for m in (a, b) for x in m.xs if math.isfinite(x)}
    cuts = [-math.inf] + sorted(points) + [math.inf]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        assert outcome(_segment_line, a, lo, hi) == outcome(ref._segment_line, a, lo, hi)


@SETTINGS
@given(
    st.sampled_from(["atomic", "quantile grid", "random grid", "short grid", "no grid"]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
@example("atomic", 4, 0)
@example("quantile grid", 40, 0)
def test_axis_transfer_matches_the_reference(case, order, seed):
    rng = np.random.default_rng(seed)
    if case == "atomic":
        m, grid = atomic_law(rng), None
    else:
        m = continuous_law(rng)
        top = float(m.xs[-1])
        if case == "quantile grid":
            grid = sorted({quantile(m, (k + 1) / order) for k in range(order)})
        elif case == "random grid":
            inner = rng.uniform(float(m.xs[0]) - 1.0, top, size=int(rng.integers(0, 12)))
            grid = sorted(set(inner.tolist()) | {top + float(rng.uniform(0.0, 1.0))})
        elif case == "short grid":
            grid = sorted({float(m.xs[0]), 0.5 * (float(m.xs[0]) + top)})
        else:
            grid = None
    assert outcome(_axis_transfer, m, order, grid) == outcome(ref._axis_transfer, m, order, grid)
