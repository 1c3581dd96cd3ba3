"""Quantile composition of copula families with marginals, and its inverse.

A joint law is represented lazily as a pair (copula family, marginals): its
finite-dimensional CDFs are evaluated by feeding marginal CDF values into the
copula CDF.  The eager counterpart, :func:`discretize_joint`, pushes copula
cell mass through the per-axis quantile maps and yields a tensor measure on
the marginal supports.  The two paths are computed independently, so
:func:`verify_sklar` is a genuine cross-check and not a tautology.

Decomposition goes the other way: a tensor measure with strictly increasing
continuous marginals is pushed through the coordinatewise CDF maps into the
unit cube and binned onto a checkerboard of a caller-chosen order.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .copulas import (
    MARGIN_TOL,
    CheckerboardCopula,
    _bounds,
    _cell_weights,
    _checked_order,
    _contract,
    cdf_eval_copula,
    validate_copula,
)
from .errors import (
    CompatibilityError,
    ConfigurationError,
    UnsupportedError,
    ValidationError,
)
from .measures import (
    ATOMIC,
    CONTINUOUS,
    Marginal,
    TensorMeasure,
    _as_float,
    _Immutable,
    _checked_axis,
    _mass_below,
    cdf_eval,
    sum_out,
)
from .projective import COPULA, IndexUniverse, ProjectiveFamily, _member, family_member


def _marginal_for(marginals: Mapping, label) -> Marginal:
    try:
        return marginals[label]
    except KeyError:
        raise ConfigurationError(f"no marginal supplied for label {label!r}") from None


class JointMeasure(_Immutable):
    """Lazily evaluated joint law given by a copula family and marginals; read-only.

    Every label of a finite universe needs a marginal; a countable one is checked per request.
    """

    __slots__ = ("family", "marginals")

    def __init__(self, family: ProjectiveFamily, marginals: Mapping):
        if family.kind != COPULA:
            raise CompatibilityError("joint measures need a copula-kind family")
        marginals = MappingProxyType(dict(marginals))
        if family.universe.kind == IndexUniverse.FINITE:
            missing = [lab for lab in family.universe.labels if lab not in marginals]
            if missing:
                raise ConfigurationError(f"marginals missing for labels {missing!r}")
        for lab, m in marginals.items():
            if not isinstance(m, Marginal):
                raise ConfigurationError(f"marginal for {lab!r} is not a Marginal")
        self._fill(family, marginals)

    def marginal(self, label) -> Marginal:
        return _marginal_for(self.marginals, label)


def compose(family: ProjectiveFamily, marginals: Mapping) -> JointMeasure:
    """Pair a copula family with marginals into a joint law (see :class:`JointMeasure`)."""
    return JointMeasure(family, marginals)


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
    if subset != given:
        coords = dict(zip(given, point))
        point = [coords[lab] for lab in subset]
    u = [cdf_eval(jm.marginal(lab), x) for lab, x in zip(subset, point)]
    return cdf_eval_copula(_member(jm.family, subset), u)


def _axis_transfer(m: Marginal, order: int, grid):
    """Transfer matrix from copula cells to target points along one axis.

    The quantile map sends the levels ``(F_{a-1}, F_a]``, with ``F_{-1} = 0``,
    to target ``a``: an atom, or a point of the covering grid.  Pushing mass
    through it thus reduces to one matrix per axis.

    Returns ``(targets, T)`` where ``T[a, k]``, the fraction of cell ``k``
    sent to ``targets[a]``, is the overlap of those levels with the cell,
    ``n * max(0, min(F_a, (k+1)/n) - max(F_{a-1}, k/n))``.
    """
    n = order
    bounds = _bounds(n)
    if m.kind == ATOMIC:
        targets, levels = m.xs, m.fs
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
    below = np.concatenate(([0.0], levels[:-1]))
    hi = np.minimum(levels[:, None], bounds[1:])
    lo = np.maximum(below[:, None], bounds[:-1])
    return targets, np.maximum(hi - lo, 0.0) * n


def discretize_joint(
    jm: JointMeasure, labels: Iterable, grids: Mapping | None = None
) -> TensorMeasure:
    """Eager pushforward of the copula member through per-axis quantile maps.

    Atomic marginals are handled exactly; continuous marginals need a covering
    per-axis grid in ``grids`` (keyed by label) onto which mass is binned by
    rounding quantile values up to the next grid point.  The output agrees
    with :func:`joint_cdf` at every grid node.
    """
    subset = jm.family.universe.validate_subset(labels)
    member = _member(jm.family, subset)
    target_grid = []
    mass = member.mass
    for lab in subset:
        m = jm.marginal(lab)
        axis_grid = None if grids is None else grids.get(lab)
        targets, T = _axis_transfer(m, member.order, axis_grid)
        target_grid.append(targets)
        mass = _contract(mass, T.T)
    return TensorMeasure(subset, tuple(target_grid), mass)


@dataclass(frozen=True)
class SklarCheck:
    max_deviation: float
    probes_checked: int
    worst_probe: tuple | None

    def __bool__(self):
        return self.probes_checked > 0


def verify_sklar(
    jm: JointMeasure,
    labels: Iterable,
    probes: Iterable[Sequence[float]],
    grids: Mapping | None = None,
) -> SklarCheck:
    """Compare the lazy CDF path against the eager pushforward at each probe.

    Probe coordinates follow the canonical order of ``labels``.  At each
    probe the lazy value is the copula CDF of the marginal CDF levels, as in
    :func:`joint_cdf`, and the eager value is the mass of the discretized
    joint below the probe, :func:`~copulagrid.measures.cdf_eval_tensor`;
    the lazy side never reads the eager tensor.  The probes are swept in one
    pass (``_sweep``); every value is bitwise the one the pointwise calls
    give, and errors keep their type, message and order.
    """
    return _sweep(jm, discretize_joint(jm, labels, grids=grids), probes)


def _sweep(jm: JointMeasure, eager: TensorMeasure, probes: Iterable) -> SklarCheck:
    """:func:`verify_sklar` against a given eager tensor over ``eager.labels``.

    The CLI passes the joint that ``compose`` writes or ``decompose`` reads,
    so every Sklar cross-check runs here.  Each axis reads a distinct
    coordinate once: its marginal CDF level and cell weights on the lazy
    side, and on the eager side the end of the grid slice below it.  A stack
    holds the copula mass contracted along each prefix of the last probe's
    coordinates, so a probe contracts only the axes after the prefix it
    shares with the previous one; on a product grid that is the last axis.
    The eager value stays the slice's own sum, as in
    :func:`~copulagrid.measures.cdf_eval_tensor`, for its bits.
    """
    subset = eager.labels
    member = family_member(jm.family, subset)
    marginals = [jm.marginal(lab) for lab in subset]
    d = len(subset)
    memo = [{} for _ in subset]  # per axis: coordinate -> (cell weights, eager slice below it)
    prefix = []  # the last probe's cell weights
    stack = [member.mass]  # stack[j]: the mass contracted along prefix[:j]
    worst = 0.0
    worst_probe = None
    count = 0
    for probe in probes:
        if len(probe) != d:
            raise CompatibilityError(f"point has {len(probe)} coordinates for subset of size {d}")
        weights, below = [], []
        for j, x in enumerate(probe):
            x = _as_float(x, "cdf argument")
            seen = memo[j].get(x)
            if seen is None:
                w = _cell_weights(member.order, cdf_eval(marginals[j], x))
                seen = memo[j][x] = (w, slice(int(eager.grid[j].searchsorted(x, side="right"))))
            weights.append(seen[0])
            below.append(seen[1])
        keep = 0
        while keep < len(prefix) and weights[keep] is prefix[keep]:
            keep += 1
        del stack[keep + 1 :]
        for j in range(keep, d):
            stack.append(_contract(stack[j], weights[j]))
        prefix = weights
        a = min(max(float(stack[d]), 0.0), 1.0)
        b = _mass_below(eager.mass, below)
        dev = abs(a - b)
        if dev > worst:
            worst, worst_probe = dev, tuple(float(x) for x in probe)
        count += 1
    return SklarCheck(worst, count, worst_probe)


#: agreement required between a tensor's own margins and supplied marginals
DECOMPOSE_CONSISTENCY_TOL = 1e-9

#: CDF images this close to a cell boundary are snapped onto it
_BOUNDARY_SNAP = 1e-9

#: largest order the "smallest compatible order" hint searches
_HINT_MAX_ORDER = 4096


def _boundaries(levels: np.ndarray, n: int):
    """Nearest order-``n`` boundary index of each level, and whether the level snaps onto it."""
    scaled = levels * n
    k = np.rint(scaled)
    return k, np.abs(scaled - k) <= _BOUNDARY_SNAP * n


def _hits_every_boundary(levels, n: int) -> bool:
    """Whether the CDF levels hit every interior order-``n`` cell boundary on every axis."""
    boundaries = (_boundaries(level, n) for level in levels)
    return all(set(k[near].tolist()) >= set(range(1, n)) for k, near in boundaries)


def _binned(t: TensorMeasure, levels, n: int) -> CheckerboardCopula:
    """The mass of ``t`` binned onto an order-``n`` checkerboard by its snapped CDF levels."""
    bounds = _bounds(n)
    cells = []
    for level in levels:
        k, near = _boundaries(level, n)
        cells.append(np.clip(np.searchsorted(bounds, np.where(near, k / n, level)) - 1, 0, n - 1))
    out = np.zeros((n,) * t.ndim)
    np.add.at(out, tuple(np.meshgrid(*cells, indexing="ij")), t.mass)
    return CheckerboardCopula(t.labels, n, out)


def decompose(t: TensorMeasure, marginals: Mapping, order: int) -> CheckerboardCopula:
    """Recover the checkerboard copula of a joint with continuous marginals.

    Pushes the measure through the coordinatewise CDF maps into the unit cube
    and bins onto an order-``n`` checkerboard.  Every supplied marginal must
    be continuous (atomic marginals make the copula non-unique and are
    rejected) and must match the tensor's own margins at the grid points.

    The order must be compatible with the CDF levels of the grid points: mass
    cut by a cell boundary that no level hits cannot produce uniform margins.
    The error then names as "smallest compatible order" the smallest order
    >= 2 whose interior boundaries the levels all hit and that is accepted, if
    any.  Where every boundary is hit and the margins still miss uniform by
    more than the tolerance, the error says so and names no order.
    """
    n = _checked_order(order)
    levels = []
    for lab, axis in zip(t.labels, t.grid):
        m = _marginal_for(marginals, lab)
        if m.kind != CONTINUOUS:
            raise UnsupportedError(
                f"marginal for {lab!r} is atomic; the copula of a joint with "
                "atomic marginals is not unique, so no canonical decomposition exists"
            )
        own_cdf = np.cumsum(sum_out(t, (lab,))[1])
        stated = np.asarray([cdf_eval(m, x) for x in axis])
        dev = float(np.max(np.abs(own_cdf - stated)))
        if dev > DECOMPOSE_CONSISTENCY_TOL:
            raise CompatibilityError(
                f"marginal for {lab!r} deviates from the tensor margin by {dev!r}"
            )
        levels.append(stated)
    copula = _binned(t, levels, n)
    report = validate_copula(copula)
    if report.passed:
        return copula
    if _hits_every_boundary(levels, n):
        detail = (
            "; every cell boundary is hit, and the margin deviation exceeds "
            f"the tolerance {MARGIN_TOL!r}"
        )
    else:
        # each of an order's c - 1 interior boundaries needs its own level inside (0, 1)
        fewest = min(np.unique(lv[(lv > 0.0) & (lv < 1.0)]).size for lv in levels)
        orders = range(2, min(_HINT_MAX_ORDER, fewest + 1) + 1)
        fits = (c for c in orders if _hits_every_boundary(levels, c))
        hint = next((c for c in fits if validate_copula(_binned(t, levels, c)).passed), None)
        detail = f"; smallest compatible order is {hint}" if hint else ""
    raise ValidationError(
        f"order {n} is incompatible with the CDF images "
        f"(margin deviation {report.max_deviation!r}){detail}"
    )
