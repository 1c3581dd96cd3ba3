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

import bisect
import functools
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CompatibilityError, DomainError, InternalError, ValidationError
from .measures import GridMeasure, TensorMeasure, _as_float, _canonical_only, _frozen, _frozen_mass
from .measures import canonical_labels, checked_mass, sum_out

#: margin deviation accepted by validate_copula
MARGIN_TOL = 1e-12

#: fit_uniform_margins stops at this margin deviation, or after this many sweeps
_FIT_MAX_DEV = 5e-15
_FIT_MAX_ITER = 20000


class CheckerboardCopula(GridMeasure):
    """Order-``n`` checkerboard measure over an index subset, its labels canonical."""

    __slots__ = ("order",)

    def __init__(self, labels, order: int, mass):
        labels = _canonical_only(labels)
        order = _checked_order(order)
        self._fill(labels, checked_mass(mass, (order,) * len(labels)), order)

    @property
    def grid(self) -> tuple:
        """Cell upper corners ``(k+1)/n`` on every axis, read-only."""
        return (_bounds(self.order)[1:],) * self.ndim

    def __repr__(self):
        return f"CheckerboardCopula(labels={self.labels!r}, order={self.order})"


def _whole_number(value, name: str) -> int:
    """``value`` as an int; anything but a whole number (``"3"``, ``3.0`` and
    ``2**53 + 1`` are, ``True``, ``np.True_``, ``2.9``, ``"3.0"`` and ``nan`` are
    not) raises :class:`DomainError`."""
    try:
        n = int(value)
        # int() reads a string exactly or raises; a number must equal its int
        exact = n == value or isinstance(value, (str, bytes))
        whole = exact and not isinstance(value, (bool, np.bool_))
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


def _checked_seed(seed) -> int:
    """``seed`` as an int for ``np.random.default_rng``, refused unless a whole number >= 0."""
    n = _whole_number(seed, "seed")
    if n < 0:
        raise DomainError(f"seed must be >= 0, got {n}")
    return n


def make_independence(labels: Iterable, order: int) -> CheckerboardCopula:
    """Product copula: every cell carries ``n**(-d)``; its labels are sorted."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    mass = np.full((n,) * d, float(n) ** (-d))
    return CheckerboardCopula(canonical_labels(labels), n, mass)


def make_comonotone(labels: Iterable, order: int) -> CheckerboardCopula:
    """Diagonal copula: cells ``(k, ..., k)`` carry ``1/n`` each; its labels are sorted."""
    labels = tuple(labels)
    n, d = _checked_order(order), len(labels)
    mass = np.zeros((n,) * d)
    for k in range(n):
        mass[(k,) * d] = 1.0 / n
    return CheckerboardCopula(canonical_labels(labels), n, mass)


def make_countermonotone(labels: Iterable, order: int) -> CheckerboardCopula:
    """Antidiagonal copula over two labels, which are sorted."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise CompatibilityError(
            f"countermonotone copula needs exactly 2 labels, got {len(labels)}"
        )
    n = _checked_order(order)
    mass = np.zeros((n, n))
    for k in range(n):
        mass[k, n - 1 - k] = 1.0 / n
    return CheckerboardCopula(canonical_labels(labels), n, mass)


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
    The labels, order and shape are those of ``c``, so only the mass is checked.
    """
    target, mass = sum_out(c, labels)
    return CheckerboardCopula._of(target, _frozen_mass(mass), c.order)


@functools.lru_cache(maxsize=64)
def _bounds(n: int) -> np.ndarray:
    """Frozen cell boundaries ``k/n``, ``k = 0, ..., n``, of order ``n``."""
    return _frozen(np.arange(n + 1) / n)


@functools.lru_cache(maxsize=64)
def _cell_rows(n: int) -> tuple:
    """:func:`_bounds` as floats, and rows ``k = 0, ..., n`` holding ``k`` ones, then zeros."""
    return tuple(_bounds(n).tolist()), tuple(_frozen(np.tri(n + 1, n, -1)))


def _cell_weights(n: int, u_j) -> np.ndarray:
    """Share of each order-``n`` cell ``[k/n, (k+1)/n]`` that lies below ``u_j``.

    Cells wholly below count 1, the cell holding ``u_j`` its covered
    fraction, cells above 0.
    """
    u_j = _as_float(u_j, "copula CDF argument")
    if not 0.0 <= u_j <= 1.0:  # false at NaN too
        raise DomainError(f"copula CDF argument {u_j!r} outside [0, 1]")
    bounds, rows = _cell_rows(n)
    cell = bisect.bisect_right(bounds, u_j) - 1
    w = rows[cell].copy()
    if cell < n:  # at u_j = 1 every cell counts 1
        w[cell] = min(max((u_j - bounds[cell]) * n, 0.0), 1.0)
    return w


def _contract(val: np.ndarray, w: np.ndarray) -> np.ndarray | np.float64:
    """Contract the first axis of C-ordered ``val`` with the first axis of a vector or matrix ``w``.

    The same ``np.dot`` on the same operands as
    ``np.tensordot(val, w, axes=([0], [0]))``, so the same bits, without
    tensordot's bookkeeping: the transposed ``val.reshape(n, -1).T`` is the
    view that tensordot's transpose and reshape of a C-ordered ``val`` give.
    numpy hands a vector ``w``, like an ``(n, 1)`` column, to one BLAS
    ``dgemv``, and two vectors, like a ``(1, n)`` row and a column, to one
    ``ddot``, which returns a numpy scalar.  ``ndarray.dot`` is ``np.dot``
    without its dispatch.
    """
    if val.ndim == 1 and w.ndim == 1:
        return val.dot(w)
    return val.reshape(w.shape[0], -1).T.dot(w).reshape(val.shape[1:] + w.shape[1:])


def cdf_eval_copula(c: CheckerboardCopula, u: Sequence[float]) -> float:
    """CDF of the copula at ``u``: full cells plus multilinear boundary parts.

    Exact at grid nodes ``k/n`` (the value is then a plain partial sum of cell
    masses); continuous and 1-Lipschitz in each coordinate in between.
    """
    if len(u) != c.ndim:
        raise CompatibilityError(f"point has {len(u)} coordinates, copula has {c.ndim}")
    val = c.mass
    for u_j in u:
        val = _contract(val, _cell_weights(c.order, u_j))
    return min(max(float(val), 0.0), 1.0)


def to_tensor_measure(c: CheckerboardCopula) -> TensorMeasure:
    """Atomize at cell upper corners ``(k+1)/n``; CDFs agree at grid nodes."""
    return TensorMeasure(c.labels, c.grid, c.mass)


def _margin(arr: np.ndarray, axis: int) -> np.ndarray:
    """Slice masses along ``axis``; 1-d ``arr`` is its own margin (``sum`` drops ``-0.0``)."""
    others = tuple(i for i in range(arr.ndim) if i != axis)
    return arr.sum(axis=others) if others else arr


def _hypercubic(shape: tuple) -> None:
    """Refuse a tensor shape unless it has at least one axis and all axes are equally long."""
    if not shape or len(set(shape)) != 1:
        raise ValidationError(f"tensor must be hypercubic, got shape {shape}")


def fit_uniform_margins(mass) -> np.ndarray:
    """Rescale axis slices until every margin is uniform (proportional fitting).

    Requires a nonnegative tensor whose support admits uniform margins; a
    strictly positive tensor always does.  Convergence is geometric, so the
    returned margins deviate from ``1/n`` by far less than the validation
    tolerance.
    """
    arr = np.array(mass, dtype=float)
    _hypercubic(arr.shape)
    if np.any(arr < 0) or np.any(~np.isfinite(arr)):
        raise ValidationError("tensor entries must be finite and nonnegative")
    if arr.sum() <= 0:
        raise ValidationError("tensor must carry positive mass")
    return _fit_stack(arr[np.newaxis])[0]


def _fit_stack(stack: np.ndarray) -> np.ndarray:
    """Fit uniform margins to every slice of a ``(k,) + (n,) * d`` stack, in place.

    Each slice is fitted exactly as it would be alone, so bit for bit: per
    sweep, each axis in turn is scaled by ``1/n`` over its margin (the slice
    masses summed over the other axes), and the slice leaves the stack at the
    sweep where the largest deviation of its margins from ``1/n`` is at most
    ``_FIT_MAX_DEV``.  A margin with a NaN entry counts as no deviation, as
    Python's ``max`` counts it.  Slices still in the stack after
    ``_FIT_MAX_ITER`` sweeps are accepted within ``MARGIN_TOL / 10``.  The
    stack raises the first error any of its slices meets.
    """
    dims = range(1, stack.ndim)
    n = stack.shape[-1]
    target = 1.0 / n
    # per axis: the axes its margin sums over, and the shape its scale factors broadcast in
    sums = [tuple(i for i in dims if i != axis) for axis in dims]
    shapes = [(-1,) + tuple(n if i == axis else 1 for i in dims) for axis in dims]
    arr, rows = stack, np.arange(len(stack))
    for _ in range(_FIT_MAX_ITER):
        if not len(rows):
            return stack
        for axes, shape in zip(sums, shapes):
            margin = arr.sum(axis=axes) if axes else arr
            if (margin <= 0).any():
                raise ValidationError("a zero margin slice cannot be rescaled")
            arr *= (target / margin).reshape(shape)
        devs = [abs((arr.sum(axis=axes) if axes else arr) - target).max(axis=-1) for axes in sums]
        worst = np.fmax.reduce(devs, initial=0.0)
        unfit = worst > _FIT_MAX_DEV
        if not unfit.all():
            done = ~unfit
            stack[rows[done]] = arr[done]
            arr, rows, worst = arr[unfit], rows[unfit], worst[unfit]
    stalled = worst > MARGIN_TOL / 10
    if stalled.any():
        raise InternalError(f"margin fitting stalled at deviation {worst[stalled][0].item()!r}")
    stack[rows] = arr
    return stack


def random_copula(labels: Iterable, order: int, rng: np.random.Generator) -> CheckerboardCopula:
    """Draw a generic copula by fitting uniform margins to a positive tensor; labels are sorted."""
    return _random_copulas(labels, order, rng, 1)[0]


def _random_copulas(labels: Iterable, order: int, rng: np.random.Generator, count: int) -> list:
    """``count`` draws of :func:`random_copula`, read-only views of one checked block.

    One ``rng.uniform`` call fills a ``(count,) + (n,) * d`` stack, which
    leaves ``rng`` as ``count`` single draws would.  The stack is fitted in
    one pass of :func:`_fit_stack`, each slice bit for bit as alone, and
    handed out by :func:`_views`.  Labels are sorted after the draw, so a
    bad label still uses it up.
    """
    labels = tuple(labels)
    n = _checked_order(order)
    block = rng.uniform(0.5, 1.5, size=(count,) + (n,) * len(labels))
    _hypercubic(block.shape[1:])  # no labels: refused as fit_uniform_margins refuses a 0-d tensor
    if not count:
        return []
    block = _fit_stack(block)
    return list(_views(canonical_labels(labels), n, block))


def _views(labels, order, block: np.ndarray) -> Iterator:
    """Copulas over ``labels`` of order ``order``, read-only views of the slices of ``block``.

    The block passes every check the constructor makes once, with one mass
    total per slice of the shape ``(order,) * len(labels)``.  The copulas of
    the whole block are then made at once, by one
    :meth:`~copulagrid.measures._Immutable._batch`, and handed out as an
    iterator.
    """
    labels = _canonical_only(labels)
    n = _checked_order(order)
    masses = _frozen_mass(block, tuple(range(1, block.ndim)))
    return iter(CheckerboardCopula._batch(len(masses), repeat(labels), masses, repeat(n)))
