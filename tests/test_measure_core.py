"""Copulas and tensor measures share one core: transport, consistency, matching."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    FddMetricConfig,
    IndexUniverse,
    ProjectiveFamily,
    check_consistency,
    family_from_copula,
    family_from_joint,
    fdd_distance,
    make_comonotone,
    make_independence,
    random_copula,
    to_tensor_measure,
    transport_plan,
)
from helpers import perfect_matching as _perfect_matching


def same_bits(r1, r2):
    assert r1.value.hex() == r2.value.hex()
    for name in ("plan", "row_potentials", "col_potentials"):
        a, b = getattr(r1, name), getattr(r2, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert r1.pivots == r2.pivots


def draw_copula(kind, labels, order, rng):
    if kind == "comonotone":
        return make_comonotone(labels, order)
    if kind == "independence":
        return make_independence(labels, order)
    return random_copula(labels, order, rng)


copula_pairs = st.tuples(
    st.sampled_from([2, 3]),
    st.integers(1, 6),
    st.sampled_from(["random", "comonotone", "independence"]),
    st.sampled_from(["random", "comonotone", "independence"]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(copula_pairs)
@example((2, 6, "random", "random", 0))
@example((3, 6, "random", "random", 1))
def test_copulas_transport_as_their_tensor_measures(case):
    d, order, kind_a, kind_b, seed = case
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    c1 = draw_copula(kind_a, labels, order, rng)
    c2 = draw_copula(kind_b, labels, order, rng)
    t1, t2 = to_tensor_measure(c1), to_tensor_measure(c2)
    same_bits(transport_plan(c1, c2), transport_plan(t1, t2))
    # depth 6 stops before the full 3-d subset, whose solve is compared above
    config = FddMetricConfig(depth=6)
    direct = fdd_distance(family_from_copula(c1), family_from_copula(c2), config)
    via_tensor = fdd_distance(family_from_joint(t1), family_from_joint(t2), config)
    assert direct.hex() == via_tensor.hex()


def test_consistency_reports_mismatched_orders():
    family = ProjectiveFamily(
        IndexUniverse.finite([0, 1]),
        "copula",
        lambda subset: make_independence(subset, 2 if len(subset) == 1 else 3),
    )
    report = check_consistency(family, [(0,), (0, 1)])
    assert not report.passed
    (failed,) = [c for c in report.checks if not c.ok]
    assert (failed.inner, failed.outer) == ((0,), (0, 1))
    assert math.isinf(failed.deviation)


def test_matching_falls_back_without_the_forced_edge():
    support = np.array([[True, True], [False, True]])
    assert _perfect_matching(support, (0, 1)) is None
    assert _perfect_matching(support) == [0, 1]
    assert _perfect_matching(support, (0, 0)) == [0, 1]
