"""The tensor CDF reader as it was before the point readers did their arithmetic on Python floats.

``cdf_eval_tensor`` is copied verbatim from before it read every coordinate,
searched each axis through the array method and summed its slice through
``measures._mass_below``, the helper it now shares with ``sklar._sweep``.
It reads coordinates with an unguarded ``float()`` and stops at the first
axis that lies above its coordinate, so it is an oracle for values only.
The library must agree with it bit for bit.
"""

import math
from typing import Sequence

import numpy as np

from copulagrid.errors import CompatibilityError, DomainError
from copulagrid.measures import TensorMeasure


def cdf_eval_tensor(t: TensorMeasure, point: Sequence[float]) -> float:
    """Mass of the product of closed lower rays up to ``point``."""
    if len(point) != t.ndim:
        raise CompatibilityError(
            f"point has {len(point)} coordinates, measure has {t.ndim} axes"
        )
    slicer = []
    for x, axis in zip(point, t.grid):
        x = float(x)
        if math.isnan(x):
            raise DomainError("cdf argument must not be NaN")
        i = int(np.searchsorted(axis, x, side="right"))
        if i == 0:
            return 0.0
        slicer.append(slice(0, i))
    return float(t.mass[tuple(slicer)].sum())
