"""Checkerboard copula measures on the unit cube.

A checkerboard copula of order ``n`` over a d-element index subset stores one
mass per cell of the uniform n^d grid; cell ``(k_1, ..., k_d)`` (zero-based)
covers the half-open box ``prod_j (k_j/n, (k_j+1)/n]``.  Mass is uniform
within each cell, which makes every operation here exact at grid nodes.

A copula is a measure on the grid of cell upper corners ``(k+1)/n``: it
shares construction checks (shape, nonnegativity, total mass), equality and
axis reduction with tensor measures through
:class:`~copulagrid.measures.GridMeasure`.  The uniform-margin requirement is
checked by :func:`validate_copula`, which reports instead of raising so that
broken inputs can be diagnosed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CompatibilityError, DomainError, InternalError, ValidationError
from .measures import GridMeasure, TensorMeasure, canonical_labels, checked_mass, sum_out

#: margin deviation accepted by validate_copula
MARGIN_TOL = 1e-12

#: fit_uniform_margins stops at this margin deviation, or after this many sweeps
_FIT_MAX_DEV = 5e-15
_FIT_MAX_ITER = 20000


class CheckerboardCopula(GridMeasure):
    """Order-``n`` checkerboard measure over an ordered index subset."""

    __slots__ = ("order",)

    def __init__(self, labels, order: int, mass):
        labels = canonical_labels(labels)
        order = _checked_order(order)
        object.__setattr__(self, "mass", checked_mass(mass, (order,) * len(labels)))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "order", order)

    @property
    def grid(self) -> tuple:
        """Cell upper corners ``(k+1)/n`` on every axis, computed on access."""
        axis = np.arange(1, self.order + 1) / self.order
        axis.setflags(write=False)
        return (axis,) * self.ndim

    def __repr__(self):
        return f"CheckerboardCopula(labels={self.labels!r}, order={self.order})"


def _whole_number(value, name: str) -> int:
    """``value`` as an int; anything but a whole number (``"3"`` and ``3.0``
    are, ``True``, ``2.9`` and ``nan`` are not) raises :class:`DomainError`."""
    try:
        n = int(value)
        whole = n == float(value) and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return n


def _checked_order(order, name: str = "order") -> int:
    """``order`` as an int, refused unless a whole number >= 1."""
    n = _whole_number(order, name)
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")
    return n


def make_independence(labels: Iterable, order: int) -> CheckerboardCopula:
    """Product copula: every cell carries ``n**(-d)``."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    mass = np.full((n,) * d, float(n) ** (-d))
    return CheckerboardCopula(labels, n, mass)


def make_comonotone(labels: Iterable, order: int) -> CheckerboardCopula:
    """Diagonal copula: cells ``(k, ..., k)`` carry ``1/n`` each."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    mass = np.zeros((n,) * d)
    for k in range(n):
        mass[(k,) * d] = 1.0 / n
    return CheckerboardCopula(labels, n, mass)


def make_countermonotone(labels: Iterable, order: int) -> CheckerboardCopula:
    """Antidiagonal copula; only defined for two-element index subsets."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise CompatibilityError(
            f"countermonotone copula needs exactly 2 labels, got {len(labels)}"
        )
    n = _checked_order(order)
    mass = np.zeros((n, n))
    for k in range(n):
        mass[k, n - 1 - k] = 1.0 / n
    return CheckerboardCopula(labels, n, mass)


@dataclass(frozen=True)
class ValidationIssue:
    where: str
    deviation: float
    message: str


@dataclass(frozen=True)
class CopulaValidationReport:
    passed: bool
    issues: tuple
    max_deviation: float

    def __bool__(self):
        return self.passed


def validate_copula(c: CheckerboardCopula) -> CopulaValidationReport:
    """Check uniform margins; never raises.  The constructor checked sign and total.

    Each failed axis is reported with its worst margin cell and deviation.
    """
    issues = []
    max_dev = 0.0
    n = c.order
    target = 1.0 / n
    for axis, label in enumerate(c.labels):
        margin = _margin(c.mass, axis)
        dev = float(np.max(np.abs(margin - target)))
        if dev > MARGIN_TOL:
            k = int(np.argmax(np.abs(margin - target)))
            issues.append(
                ValidationIssue(
                    f"axis {label!r}",
                    dev,
                    f"margin cell {k} has mass {float(margin[k])!r}, expected {target!r}",
                )
            )
        max_dev = max(max_dev, dev)
    return CopulaValidationReport(passed=not issues, issues=tuple(issues), max_deviation=max_dev)


def marginalize_copula(c: CheckerboardCopula, labels: Iterable) -> CheckerboardCopula:
    """Sum out the axes not in ``labels``; the result is again a copula.

    Axes are dropped in the order of :func:`~copulagrid.measures.sum_out`.
    """
    target, mass = sum_out(c, labels)
    return CheckerboardCopula(target, c.order, mass)


def _cell_weights(bounds: np.ndarray, u_j: float) -> np.ndarray:
    """Share of each cell ``[bounds[k], bounds[k+1]]`` that lies below ``u_j``.

    Cells wholly below count 1, the cell holding ``u_j`` its covered
    fraction, cells above 0.
    """
    u_j = float(u_j)
    if math.isnan(u_j) or u_j < 0.0 or u_j > 1.0:
        raise DomainError(f"copula CDF argument {u_j!r} outside [0, 1]")
    n = len(bounds) - 1
    w = np.zeros(n)
    if u_j == 1.0:
        w[:] = 1.0
    else:
        cell = int(np.searchsorted(bounds, u_j, side="right")) - 1
        w[:cell] = 1.0
        frac = (u_j - bounds[cell]) * n
        w[cell] = min(max(frac, 0.0), 1.0)
    return w


def _contract(val: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Contract the first axis of ``val`` with the weights ``w``.

    The same ``np.dot`` on the same operands as
    ``np.tensordot(val, w, axes=([0], [0]))``, so the same bits, without
    tensordot's bookkeeping.
    """
    n = w.shape[0]
    at = val.transpose(tuple(range(1, val.ndim)) + (0,)).reshape(-1, n)
    return np.dot(at, w.reshape(n, 1)).reshape(val.shape[1:])


def cdf_eval_copula(c: CheckerboardCopula, u: Sequence[float]) -> float:
    """CDF of the copula at ``u``: full cells plus multilinear boundary parts.

    Exact at grid nodes ``k/n`` (the value is then a plain partial sum of cell
    masses); continuous and 1-Lipschitz in each coordinate in between.
    """
    if len(u) != c.ndim:
        raise CompatibilityError(f"point has {len(u)} coordinates, copula has {c.ndim}")
    n = c.order
    bounds = np.arange(n + 1) / n
    val = c.mass
    for u_j in u:
        val = _contract(val, _cell_weights(bounds, u_j))
    return float(min(max(float(val), 0.0), 1.0))


def to_tensor_measure(c: CheckerboardCopula) -> TensorMeasure:
    """Atomize at cell upper corners ``(k+1)/n``; CDFs agree at grid nodes."""
    return TensorMeasure(c.labels, c.grid, c.mass)


def _margin(arr: np.ndarray, axis: int) -> np.ndarray:
    """Slice masses along ``axis``; 1-d ``arr`` is its own margin (``sum`` drops ``-0.0``)."""
    others = tuple(i for i in range(arr.ndim) if i != axis)
    return arr.sum(axis=others) if others else arr


def fit_uniform_margins(mass) -> np.ndarray:
    """Rescale axis slices until every margin is uniform (proportional fitting).

    Requires a nonnegative tensor whose support admits uniform margins; a
    strictly positive tensor always does.  Convergence is geometric, so the
    returned margins deviate from ``1/n`` by far less than the validation
    tolerance.
    """
    arr = np.array(mass, dtype=float)
    if arr.ndim < 1 or len(set(arr.shape)) != 1:
        raise ValidationError(f"tensor must be hypercubic, got shape {arr.shape}")
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValidationError("tensor entries must be finite and nonnegative")
    if arr.sum() <= 0:
        raise ValidationError("tensor must carry positive mass")
    n = arr.shape[0]
    target = 1.0 / n
    for _ in range(_FIT_MAX_ITER):
        worst = 0.0
        for axis in range(arr.ndim):
            margin = _margin(arr, axis)
            if np.any(margin <= 0):
                raise ValidationError("a zero margin slice cannot be rescaled")
            shape = [1] * arr.ndim
            shape[axis] = n
            arr = arr * (target / margin).reshape(shape)
        for axis in range(arr.ndim):
            margin = _margin(arr, axis)
            worst = max(worst, float(np.max(np.abs(margin - target))))
        if worst <= _FIT_MAX_DEV:
            return arr
    if worst <= MARGIN_TOL / 10:
        return arr
    raise InternalError(f"margin fitting stalled at deviation {worst!r}")


def random_copula(labels: Iterable, order: int, rng: np.random.Generator) -> CheckerboardCopula:
    """Draw a generic copula by fitting uniform margins to a positive tensor."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    raw = rng.uniform(0.5, 1.5, size=(n,) * d)
    return CheckerboardCopula(labels, n, fit_uniform_margins(raw))
