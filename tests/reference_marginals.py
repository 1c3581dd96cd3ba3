"""The marginal readers as they were when atomic laws kept their CDF in a ``cum`` slot.

``cdf_eval``, ``quantile`` (with ``_smallest_reaching``), ``topology._segment_line``
and ``sklar._axis_transfer`` are copied verbatim from before every reader
looked its point up once in the one ``(xs, fs)`` table, with two exceptions:
``m.cum`` is now ``_cum(m)``, the clipped cumulative the atomic constructor
used to store, and ``cdf_eval`` and ``quantile`` refuse an argument that is
not a real number, or lies beyond the float range, with the library's
``DomainError``.  ``_axis_transfer`` then cut the unit interval at the union
of cell boundaries and CDF levels and scattered the pieces with
``np.add.at``.  The library must agree with them bit for bit.
"""

import math
import numbers

import numpy as np

from copulagrid.errors import ConfigurationError, DomainError
from copulagrid.measures import ATOMIC, Marginal, _checked_axis


def _cum(m: Marginal) -> np.ndarray:
    """The clipped cumulative of an atomic law's weights, forced to end at exactly 1.0."""
    cum = np.minimum(np.cumsum(m.ws), 1.0)
    cum[-1] = 1.0
    return cum


def cdf_eval(m: Marginal, x: float) -> float:
    """Evaluate ``F(x)``, the mass of the closed lower ray up to ``x``.

    Right-continuous in ``x``; ``F(+inf) = 1`` exactly.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"cdf argument must be a real number, got {x!r}")
    try:
        x = float(x)
    except OverflowError:
        raise DomainError("cdf argument lies beyond the float range") from None
    if math.isnan(x):
        raise DomainError("cdf argument must not be NaN")
    if m.kind == ATOMIC:
        i = int(np.searchsorted(m.xs, x, side="right"))
        return 0.0 if i == 0 else float(_cum(m)[i - 1])
    xs, fs = m.xs, m.fs
    if x < xs[0]:
        return 0.0
    if x >= xs[-1]:
        return 1.0
    k = int(np.searchsorted(xs, x, side="right")) - 1
    raw = fs[k] + (x - xs[k]) * (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
    # clamping keeps the float CDF monotone across knot boundaries
    return float(min(max(raw, fs[k]), fs[k + 1]))


def quantile(m: Marginal, u: float) -> float:
    """Generalized inverse ``inf { x : F(x) >= u }`` on the extended line.

    ``quantile(m, 0)`` returns the smallest support point (first atom or first
    knot) rather than ``-inf``.  For continuous marginals the result is the
    smallest float whose CDF reaches ``u``, so ``quantile(u) <= x`` holds if
    and only if ``u <= cdf_eval(x)`` for every ``u`` in ``(0, 1]``, with no
    floating-point exceptions.
    """
    if isinstance(u, bool) or not isinstance(u, numbers.Real):
        raise DomainError(f"quantile level must be a real number, got {u!r}")
    try:
        u = float(u)
    except OverflowError:
        raise DomainError("quantile level lies beyond the float range") from None
    if math.isnan(u) or u < 0.0 or u > 1.0:
        raise DomainError(f"quantile level {u!r} outside [0, 1]")
    if u == 0.0:
        return float(m.xs[0])
    if m.kind == ATOMIC:
        i = int(np.searchsorted(_cum(m), u, side="left"))
        return float(m.xs[i])
    xs, fs = m.xs, m.fs
    # fs[0] == 0 < u <= 1 == fs[-1], so 1 <= k <= len(fs) - 1
    k = int(np.searchsorted(fs, u, side="left"))
    lo, hi = float(xs[k - 1]), float(xs[k])
    f_lo, f_hi = float(fs[k - 1]), float(fs[k])
    y = lo + (u - f_lo) * (hi - lo) / (f_hi - f_lo)
    y = min(max(y, lo), hi)
    return _smallest_reaching(m, u, lo, y, hi)


def _smallest_reaching(m: Marginal, u: float, lo: float, y: float, hi: float) -> float:
    # Invariant: F(lo) < u <= F(hi); walk from the interpolated candidate,
    # falling back to bisection when the local walk does not settle.
    if cdf_eval(m, y) >= u:
        for _ in range(64):
            y2 = math.nextafter(y, lo)
            if y2 < lo or cdf_eval(m, y2) < u:
                return y
            y = y2
        lo_b, hi_b = lo, y
    else:
        for _ in range(64):
            y = math.nextafter(y, hi)
            if cdf_eval(m, y) >= u:
                return y
        lo_b, hi_b = y, hi
    while True:
        mid = 0.5 * (lo_b + hi_b)
        if not (lo_b < mid < hi_b):
            return hi_b
        if cdf_eval(m, mid) >= u:
            hi_b = mid
        else:
            lo_b = mid


def _segment_line(m: Marginal, lo: float, hi: float):
    """Slope and intercept of the CDF on the open interval (lo, hi)."""
    if m.kind == ATOMIC:
        return 0.0, cdf_eval(m, lo)
    xs, fs = m.xs, m.fs
    if hi <= xs[0]:
        return 0.0, 0.0
    if lo >= xs[-1]:
        return 0.0, 1.0
    k = int(np.searchsorted(xs, lo, side="right")) - 1
    k = max(k, 0)
    alpha = (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
    return float(alpha), float(fs[k] - alpha * xs[k])


def _axis_transfer(m: Marginal, order: int, grid):
    """Transfer matrix from copula cells to target points along one axis.

    The unit interval is cut at every cell boundary ``k/n`` and at every
    reachable CDF level of the marginal.  Each refined piece lies inside a
    single cell and maps to a single target point (an atom, or the smallest
    grid point whose CDF level covers the piece), so pushing mass through the
    quantile map reduces to one matrix per axis.

    Returns ``(targets, T)`` where ``T[a, k]`` is the fraction of cell ``k``
    sent to ``targets[a]``.
    """
    n = order
    bounds = np.arange(n + 1) / n
    if m.kind == ATOMIC:
        targets = np.asarray(m.xs, dtype=float)
        levels = np.asarray(_cum(m), dtype=float)
    else:
        if grid is None:
            raise ConfigurationError(
                "a discretization grid is required for continuous marginals"
            )
        targets = _checked_axis(grid, "discretization grid", ConfigurationError)
        levels = np.asarray([cdf_eval(m, g) for g in targets])
        if levels[-1] != 1.0:
            raise ConfigurationError(
                "discretization grid must cover the marginal support "
                f"(CDF at last grid point is {levels[-1]!r}, expected 1.0)"
            )
    breaks = np.union1d(bounds, levels)
    breaks = np.concatenate(([0.0], breaks[(breaks > 0.0) & (breaks <= 1.0)]))
    lo, hi = breaks[:-1], breaks[1:]
    T = np.zeros((targets.size, n))
    np.add.at(T, (np.searchsorted(levels, hi), np.searchsorted(bounds, hi) - 1), (hi - lo) * n)
    return targets, T
