"""The pointwise Sklar layer and the two-loop ``decompose``, kept as test-only oracles.

``cdf_eval_copula``, ``joint_cdf`` and ``verify_sklar`` as they were before
``verify_sklar`` swept its probes and the copula CDF contracted through
``copulas._contract``: one ``np.tensordot`` per axis, and one ``joint_cdf``
and one ``cdf_eval_tensor`` call per probe.  ``check_tensor`` is that probe
loop against a given tensor, as the CLI's ``decompose`` ran it.
``decompose`` keeps the form it had before one loop per axis snapped and
binned the CDF images under one boundary rule: a snapping loop, a binning
loop, and a third copy of the snap test in the boundary check.  The later
edits are in error branches: ``cdf_eval_copula`` refuses an argument that is
not a real number, or lies beyond the float range, with the library's
``DomainError``; and a refused order names as "smallest compatible order" the
first order whose boundaries the CDF levels all hit and whose two-loop
binning ``validate_copula`` accepts, or says that every boundary of the
refused order is hit.  The library must agree with them bit for bit.
"""

import math
import numbers
from typing import Iterable, Mapping, Sequence

import numpy as np

from copulagrid.copulas import MARGIN_TOL, CheckerboardCopula, _checked_order, validate_copula
from copulagrid.errors import (
    CompatibilityError,
    ConfigurationError,
    DomainError,
    UnsupportedError,
    ValidationError,
)
from copulagrid.measures import (
    CONTINUOUS,
    TensorMeasure,
    cdf_eval,
    cdf_eval_tensor,
    marginalize_tensor,
)
from copulagrid.projective import family_member
from copulagrid.sklar import (
    _BOUNDARY_SNAP,
    DECOMPOSE_CONSISTENCY_TOL,
    JointMeasure,
    SklarCheck,
    discretize_joint,
)


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
    for uj in u:
        if isinstance(uj, bool) or not isinstance(uj, numbers.Real):
            raise DomainError(f"copula CDF argument must be a real number, got {uj!r}")
        try:
            uj = float(uj)
        except OverflowError:
            raise DomainError("copula CDF argument lies beyond the float range") from None
        if math.isnan(uj) or uj < 0.0 or uj > 1.0:
            raise DomainError(f"copula CDF argument {uj!r} outside [0, 1]")
        w = np.zeros(n)
        if uj == 1.0:
            w[:] = 1.0
        else:
            cell = int(np.searchsorted(bounds, uj, side="right")) - 1
            w[:cell] = 1.0
            frac = (uj - bounds[cell]) * n
            w[cell] = min(max(frac, 0.0), 1.0)
        val = np.tensordot(val, w, axes=([0], [0]))
    return float(min(max(float(val), 0.0), 1.0))


def joint_cdf(jm: JointMeasure, labels: Iterable, point: Sequence[float]) -> float:
    """Joint CDF over ``labels``: copula CDF of the marginal CDF values.

    Coordinates in ``point`` follow the order of ``labels`` as given, which
    need not be sorted.
    """
    given = tuple(labels)
    subset = jm.family.universe.validate_subset(given)
    if len(point) != len(given):
        raise CompatibilityError(
            f"point has {len(point)} coordinates for subset of size {len(given)}"
        )
    coords = dict(zip(given, point))
    u = [cdf_eval(jm.marginal(lab), coords[lab]) for lab in subset]
    return cdf_eval_copula(family_member(jm.family, subset), u)


def verify_sklar(
    jm: JointMeasure,
    labels: Iterable,
    probes: Iterable[Sequence[float]],
    grids: Mapping | None = None,
) -> SklarCheck:
    """Compare the lazy CDF path against the eager pushforward at each probe."""
    subset = jm.family.universe.validate_subset(labels)
    return check_tensor(jm, discretize_joint(jm, subset, grids=grids), probes)


def check_tensor(jm: JointMeasure, eager, probes: Iterable[Sequence[float]]) -> SklarCheck:
    """The probe loop of ``verify_sklar`` against a given tensor over ``eager.labels``."""
    worst = 0.0
    worst_probe = None
    count = 0
    for probe in probes:
        a = joint_cdf(jm, eager.labels, probe)
        b = cdf_eval_tensor(eager, probe)
        dev = abs(a - b)
        if dev > worst:
            worst, worst_probe = dev, tuple(float(x) for x in probe)
        count += 1
    return SklarCheck(worst, count, worst_probe)


def decompose(t: TensorMeasure, marginals: Mapping, order: int) -> CheckerboardCopula:
    """Recover the checkerboard copula of a joint with continuous marginals.

    Pushes the measure through the coordinatewise CDF maps into the unit cube
    and bins onto an order-``n`` checkerboard.  Every supplied marginal must
    be continuous (atomic marginals make the copula non-unique and are
    rejected) and must match the tensor's own margins at the grid points.

    The order must be compatible with the CDF levels of the grid points: mass
    cut by a cell boundary that no level hits cannot produce uniform margins,
    in which case the error names the smallest order that is accepted.
    """
    n = _checked_order(order)
    levels = []
    for lab, axis in zip(t.labels, t.grid):
        try:
            m = marginals[lab]
        except KeyError:
            raise ConfigurationError(f"no marginal supplied for label {lab!r}") from None
        if m.kind != CONTINUOUS:
            raise UnsupportedError(
                f"marginal for {lab!r} is atomic; the copula of a joint with "
                "atomic marginals is not unique, so no canonical decomposition exists"
            )
        margin = marginalize_tensor(t, (lab,))
        own_cdf = np.cumsum(margin.mass)
        stated = np.asarray([cdf_eval(m, x) for x in axis])
        dev = float(np.max(np.abs(own_cdf - stated)))
        if dev > DECOMPOSE_CONSISTENCY_TOL:
            raise CompatibilityError(
                f"marginal for {lab!r} deviates from the tensor margin by {dev!r}"
            )
        levels.append(stated)
    copula = _two_loop_binned(t, levels, n)
    report = validate_copula(copula)
    if not report.passed:
        if _boundaries_hit(levels, n):
            detail = (
                "; every cell boundary is hit, and the margin deviation exceeds "
                f"the tolerance {MARGIN_TOL!r}"
            )
        else:
            hint = _minimal_compatible_order(t, levels)
            detail = f"; smallest compatible order is {hint}" if hint else ""
        raise ValidationError(
            f"order {n} is incompatible with the CDF images "
            f"(margin deviation {report.max_deviation!r}){detail}"
        )
    return copula


def _two_loop_binned(t: TensorMeasure, levels, n: int) -> CheckerboardCopula:
    """The mass of ``t`` on an order-``n`` checkerboard: one loop snaps, a second bins."""
    image_axes = []
    for stated in levels:
        snapped = stated.copy()
        scaled = snapped * n
        near = np.abs(scaled - np.rint(scaled)) <= _BOUNDARY_SNAP * n
        snapped[near] = np.rint(scaled[near]) / n
        image_axes.append(snapped)
    bounds = np.arange(n + 1) / n
    index_arrays = []
    for img in image_axes:
        idx = np.searchsorted(bounds, img, side="left") - 1
        idx = np.clip(idx, 0, n - 1)
        index_arrays.append(idx)
    out = np.zeros((n,) * t.ndim)
    mesh = np.meshgrid(*index_arrays, indexing="ij")
    np.add.at(out, tuple(mesh), t.mass)
    return CheckerboardCopula(t.labels, n, out)


def _boundaries_hit(levels, cand: int) -> bool:
    """Whether the CDF levels hit every interior cell boundary of order ``cand``."""
    for img in levels:
        scaled = img * cand
        hits = np.abs(scaled - np.rint(scaled)) <= _BOUNDARY_SNAP * cand
        achieved = set(np.rint(scaled[hits]).astype(int))
        if not all(k in achieved for k in range(1, cand)):
            return False
    return True


def _minimal_compatible_order(t: TensorMeasure, levels, limit: int = 4096):
    """Smallest order >= 2 whose boundaries the levels all hit and whose binning is a copula."""
    for cand in range(2, limit + 1):
        if _boundaries_hit(levels, cand) and validate_copula(
            _two_loop_binned(t, levels, cand)
        ).passed:
            return cand
    return None
