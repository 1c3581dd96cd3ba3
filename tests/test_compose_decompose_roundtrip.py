"""``decompose(compose(...))`` gives the copula back, the way the CLI runs it.

A random copula of dimension 1-3 and order 1-8 is composed with continuous
marginals, discretized on the CLI's quantile grid at the copula's order and
decomposed at that order.  The marginals stress the float arithmetic: 2-40
knots, knot and CDF gaps as small as a millionth of the largest, and spans
from 1e-8 to 1e8.

No float has exactly the CDF level a quantile point is meant to reach: on a
segment of slope ``s`` the level misses by up to ``s`` times the float
spacing at the point, and the joint's margins miss ``1/order`` by as much.
Where every point reaches its level to ``TOL / 8``, the recovered mass
equals the source copula's to ``TOL`` and the Sklar sweep of the CLI's
``decompose`` reads at most ``TOL``.  A larger miss ``m`` widens both bounds
to ``8 m`` and may be refused, but only with a ``ValidationError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulagrid import (
    Marginal,
    ValidationError,
    cdf_eval,
    compose,
    decompose,
    discretize_joint,
    random_copula,
)
from copulagrid.cli import _probe_points, _quantile_grids
from copulagrid.projective import family_from_copula
from copulagrid.sklar import _sweep

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

TOL = 1e-12


def increments(rng, k):
    """``k`` positive gaps summing to one, the smallest no less than 1e-6 of the largest."""
    gaps = 10.0 ** rng.uniform(-6.0, 0.0, size=k)
    return gaps / gaps.sum()


def stressed_continuous(rng):
    """A continuous law with 2-40 knots, uneven gaps and a span of 1e-8 to 1e8."""
    while True:
        k = int(rng.integers(2, 41))
        span = 10.0 ** rng.uniform(-8.0, 8.0)
        start = span * rng.uniform(-2.0, 1.0)
        xs = start + span * np.concatenate(([0.0], np.cumsum(increments(rng, k - 1))))
        fs = np.concatenate(([0.0], np.cumsum(increments(rng, k - 1))))
        fs[-1] = 1.0
        if (xs[1:] > xs[:-1]).all() and (fs[1:] > fs[:-1]).all():
            return Marginal.continuous(list(zip(xs, fs)))


@SETTINGS
@given(st.integers(1, 3), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_decompose_recovers_the_composed_copula(d, order, seed):
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    copula = random_copula(labels, order, rng)
    marginals = {lab: stressed_continuous(rng) for lab in labels}

    jm = compose(family_from_copula(copula), marginals)
    grids = _quantile_grids(jm, labels, order)
    joint = discretize_joint(jm, labels, grids=grids)
    miss = max(
        abs(cdf_eval(marginals[lab], x) - (k + 1) / order)
        for lab, axis in grids.items()
        for k, x in enumerate(axis)
    )
    bound = max(TOL, 8 * miss)
    try:
        recovered = decompose(joint, marginals, order)
    except ValidationError:
        assert bound > TOL, "a grid that reaches its levels must not be refused"
        return

    assert recovered.labels == copula.labels
    assert float(np.max(np.abs(recovered.mass - copula.mass))) <= bound
    round_trip = compose(family_from_copula(recovered), marginals)
    assert _sweep(round_trip, joint, _probe_points(joint)).max_deviation <= bound


@pytest.mark.parametrize("seed, order, refused", [(0, 7, (7,)), (9, 4, (4, 2))])
def test_a_refusal_with_every_boundary_hit_names_no_order(seed, order, refused):
    """A 1-d copula from the generator above, composed and refused at its own order.

    Every CDF image hits its cell boundary, yet the margins miss ``1/order`` by
    more than the tolerance, so no order is named as the fix.  Seed 0 (a
    39-knot marginal on [4, 9]) used to name order 7, the refused order
    itself; seed 9 named order 2, which is refused as well.
    """
    rng = np.random.default_rng(seed)
    copula = random_copula((0,), order, rng)
    marginals = {0: stressed_continuous(rng)}
    jm = compose(family_from_copula(copula), marginals)
    joint = discretize_joint(jm, (0,), grids=_quantile_grids(jm, (0,), order))
    for n in refused:
        with pytest.raises(ValidationError) as info:
            decompose(joint, marginals, n)
        message = str(info.value)
        assert message.startswith(f"order {n} is incompatible with the CDF images (margin ")
        assert message.endswith(
            "; every cell boundary is hit, and the margin deviation exceeds the tolerance 1e-12"
        )
