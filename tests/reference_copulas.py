"""Proportional fitting and copula validation, kept as a test-only oracle.

``fit_uniform_margins`` and ``validate_copula`` as they were before the
margin sum moved into ``copulas._margin`` and the fitting limits became
module constants: each sums out the other axes inline, and a 1-d tensor is
its own margin.  The library must agree with them bit for bit.
"""

import numpy as np

from copulagrid.copulas import (
    MARGIN_TOL,
    CheckerboardCopula,
    CopulaValidationReport,
    ValidationIssue,
)
from copulagrid.errors import InternalError, ValidationError
from copulagrid.measures import MASS_TOL


def validate_copula(c: CheckerboardCopula) -> CopulaValidationReport:
    """Check nonnegativity, total mass, and uniform margins; never raises.

    Each failed check is reported with the offending axis or cell and the
    numeric deviation.
    """
    issues = []
    max_dev = 0.0
    neg = np.argwhere(c.mass < 0)
    for cell in neg[:8]:
        val = float(c.mass[tuple(cell)])
        issues.append(
            ValidationIssue(f"cell {tuple(int(i) for i in cell)}", -val, "negative mass")
        )
        max_dev = max(max_dev, -val)
    total = float(c.mass.sum())
    if abs(total - 1.0) > MASS_TOL:
        issues.append(ValidationIssue("total", abs(total - 1.0), f"total mass {total!r}"))
        max_dev = max(max_dev, abs(total - 1.0))
    n = c.order
    target = 1.0 / n
    for axis, label in enumerate(c.labels):
        others = tuple(i for i in range(c.ndim) if i != axis)
        margin = c.mass.sum(axis=others) if others else c.mass
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


def fit_uniform_margins(mass, max_dev: float = 5e-15, max_iter: int = 20000) -> np.ndarray:
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
    for _ in range(max_iter):
        worst = 0.0
        for axis in range(arr.ndim):
            others = tuple(i for i in range(arr.ndim) if i != axis)
            margin = arr.sum(axis=others) if others else arr
            if np.any(margin <= 0):
                raise ValidationError("a zero margin slice cannot be rescaled")
            shape = [1] * arr.ndim
            shape[axis] = n
            arr = arr * (target / margin).reshape(shape)
        for axis in range(arr.ndim):
            others = tuple(i for i in range(arr.ndim) if i != axis)
            margin = arr.sum(axis=others) if others else arr
            worst = max(worst, float(np.max(np.abs(margin - target))))
        if worst <= max_dev:
            return arr
    if worst <= MARGIN_TOL / 10:
        return arr
    raise InternalError(f"margin fitting stalled at deviation {worst!r}")
