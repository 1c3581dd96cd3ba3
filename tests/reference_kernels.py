"""The eager Sklar pushforward and the compactness probe's loop, kept as test-only oracles.

``discretize_joint`` is copied verbatim from before it contracted through
``copulas._contract``: one ``np.tensordot`` per axis.  ``compactness_probe``
is copied verbatim from before it stacked the masses: one ``np.max`` over one
pair of masses per comparison, read as a Python float and compared with
``eps``.  The library must agree with them bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from copulagrid.copulas import CheckerboardCopula
from copulagrid.errors import CompatibilityError, DomainError
from copulagrid.measures import TensorMeasure
from copulagrid.projective import _member
from copulagrid.sklar import JointMeasure, _axis_transfer
from copulagrid.topology import CompactnessResult, _checked_eps


def discretize_joint(
    jm: JointMeasure, labels: Iterable, grids: Mapping | None = None
) -> TensorMeasure:
    subset = jm.family.universe.validate_subset(labels)
    member = _member(jm.family, subset)
    target_grid = []
    mass = member.mass
    for lab in subset:
        m = jm.marginal(lab)
        axis_grid = None if grids is None else grids.get(lab)
        targets, T = _axis_transfer(m, member.order, axis_grid)
        target_grid.append(targets)
        mass = np.tensordot(mass, T, axes=([0], [1]))
    return TensorMeasure(subset, tuple(target_grid), mass)


def compactness_probe(seq: Sequence[CheckerboardCopula], eps: float) -> CompactnessResult:
    if not seq:
        raise DomainError("compactness probe needs a nonempty sequence")
    _checked_eps(eps)
    first = seq[0]
    for c in seq[1:]:
        if c.labels != first.labels or c.order != first.order:
            raise CompatibilityError("sequence members must share labels and order")
    masses = [c.mass for c in seq]
    assigned = [False] * len(seq)
    clusters = []
    for i in range(len(seq)):
        if assigned[i]:
            continue
        members = [
            k
            for k in range(i, len(seq))
            if not assigned[k] and float(np.max(np.abs(masses[k] - masses[i]))) <= eps
        ]
        for k in members:
            assigned[k] = True
        clusters.append((i, members))
    anchor, members = max(clusters, key=lambda item: len(item[1]))
    return CompactnessResult(
        indices=tuple(members),
        representative_index=anchor,
        representative=seq[anchor],
        num_clusters=len(clusters),
    )
