"""The pointwise Sklar layer, kept as a test-only oracle.

``cdf_eval_copula``, ``joint_cdf`` and ``verify_sklar`` as they were before
``verify_sklar`` swept its probes and the copula CDF contracted through
``copulas._contract``: one ``np.tensordot`` per axis, and one ``joint_cdf``
and one ``cdf_eval_tensor`` call per probe.  ``check_tensor`` is that probe
loop against a given tensor, as the CLI's ``decompose`` ran it.  The library
must agree with them bit for bit.
"""

import math
from typing import Iterable, Mapping, Sequence

import numpy as np

from copulagrid.copulas import CheckerboardCopula
from copulagrid.errors import CompatibilityError, DomainError
from copulagrid.measures import cdf_eval, cdf_eval_tensor
from copulagrid.projective import family_member
from copulagrid.sklar import JointMeasure, SklarCheck, discretize_joint


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
        uj = float(uj)
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
