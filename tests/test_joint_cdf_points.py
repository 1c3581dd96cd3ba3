"""``joint_cdf`` and ``cdf_eval_copula`` against the pointwise references, bit for bit.

The copula CDF finds a level's cell by ``bisect`` over the order's boundaries
as floats, copies its cell weights from a cached row of ones, and hands two
vectors straight to ``np.dot``.  Whatever the probe order, the subsets asked
in between, the joints sharing one family or the calls refused midway, every
value is the one ``tests/reference_sklar`` gives, on boundaries ``k/n`` and
their float neighbours too, and every refusal keeps the type, message and
order of the plain evaluation: per axis in canonical label order the
marginal, then the coordinate, and the family rule only after them all.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_sklar
from copulagrid import (
    NEG_INF,
    POS_INF,
    CompatibilityError,
    ConfigurationError,
    DomainError,
    IndexUniverse,
    Marginal,
    ProjectiveFamily,
    cdf_eval_copula,
    compose,
    family_from_copula,
    independence_family,
    joint_cdf,
    random_copula,
)
from helpers import random_atomic, random_continuous

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

LABELS = ("a", "b", "c")


def bits(value):
    assert type(value) is float
    return value.hex()


def _axis_points(m: Marginal) -> list:
    """Support points, their float neighbours, midpoints, points off both ends and ``-0.0``."""
    xs = [x for x in m.xs.tolist() if math.isfinite(x)]
    out = {NEG_INF, POS_INF, -0.0, 0.0}
    for x in xs:
        out.update((x, math.nextafter(x, NEG_INF), math.nextafter(x, POS_INF)))
    out.update((a + b) / 2 for a, b in zip(xs, xs[1:]))
    if xs:
        out.update((xs[0] - 1.0, xs[-1] + 1.0))
    return sorted(out)


def _joint(seed: int, order: int = 4, labels=LABELS):
    rng = np.random.default_rng(seed)
    copula = random_copula(labels, order, rng)
    makers = (
        lambda: random_atomic(rng, allow_inf=True),
        lambda: random_continuous(rng),
        lambda: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
    )
    marginals = {lab: makers[k % 3]() for k, lab in enumerate(labels)}
    return compose(family_from_copula(copula), marginals)


def _grid(jm, labels, per_axis: int = 5, seed: int = 0) -> list:
    """A product grid over ``labels`` in product order, a few points per axis."""
    rng = random.Random(seed)
    axes = []
    for lab in sorted(labels):
        points = _axis_points(jm.marginal(lab))
        axes.append(sorted(rng.sample(points, min(per_axis, len(points)))))
    return list(itertools.product(*axes))


def _check(jm, labels, probes):
    for probe in probes:
        got = joint_cdf(jm, labels, probe)
        assert bits(got) == bits(reference_sklar.joint_cdf(jm, labels, probe)), probe


def _orders(grid, seed):
    rng = random.Random(seed)
    shuffled = grid[:]
    rng.shuffle(shuffled)
    repeated = [p for p in grid for _ in range(2)] + grid[:3] * 3
    lowest = grid[0]
    below = [q for p in grid for q in (p, lowest)]
    return {
        "grid": grid,
        "shuffled": shuffled,
        "reversed": grid[::-1],
        "repeated": repeated,
        "below": below,
    }


@pytest.mark.parametrize("kind", ["grid", "shuffled", "reversed", "repeated", "below"])
@pytest.mark.parametrize("seed", range(4))
def test_scan_orders_match_the_reference(kind, seed):
    jm = _joint(seed)
    probes = _orders(_grid(jm, LABELS, seed=seed), seed)[kind]
    _check(jm, LABELS, probes)


def test_probes_off_the_grid_on_every_axis():
    jm = _joint(7)
    for probe in [(NEG_INF,) * 3, (NEG_INF, POS_INF, POS_INF), (-50.0, -50.0, -50.0)]:
        _check(jm, LABELS, [probe, (POS_INF,) * 3, probe])


@given(st.data())
@SETTINGS
def test_random_probe_walks_match_the_reference(data):
    seed = data.draw(st.integers(0, 50))
    jm = _joint(seed, order=data.draw(st.integers(1, 5)))
    axes = [_axis_points(jm.marginal(lab)) for lab in LABELS]
    walk = data.draw(
        st.lists(st.tuples(*(st.sampled_from(axis) for axis in axes)), min_size=1, max_size=30)
    )
    _check(jm, LABELS, walk)


def test_interleaved_subsets_and_label_orders():
    jm = _joint(11)
    rng = random.Random(11)
    asks = []
    for size in (1, 2, 3):
        for subset in itertools.combinations(LABELS, size):
            for given_order in itertools.permutations(subset):
                grid = _grid(jm, subset, per_axis=3, seed=len(asks))
                # a probe's coordinates follow the labels as given
                perm = [sorted(subset).index(lab) for lab in given_order]
                asks += [(given_order, tuple(p[i] for i in perm)) for p in grid]
    rng.shuffle(asks)
    for given_order, probe in asks:
        _check(jm, given_order, [probe])


def test_joints_sharing_one_family():
    jm = _joint(3)
    ramp = Marginal.continuous([(-1.0, 0.0), (2.0, 1.0)])
    other = compose(jm.family, {lab: ramp for lab in LABELS})
    grid = _grid(jm, LABELS, seed=1)
    for probe in grid:
        _check(jm, LABELS, [probe])
        _check(other, LABELS, [probe])
        _check(other, ("c", "a", "b"), [probe[2:] + probe[:2]])


def test_a_refused_call_mid_scan_leaves_later_values_as_they_were():
    jm = _joint(5)
    grid = _grid(jm, LABELS, seed=5)
    bad = [
        (DomainError, "must not be NaN", lambda p: p[:2] + (math.nan,)),
        (DomainError, "must be a real number", lambda p: p[:2] + ("x",)),
        (DomainError, "must be a real number", lambda p: ("x",) + p[1:]),
        (DomainError, "beyond the float range", lambda p: p[:1] + (10**400,) + p[2:]),
        (CompatibilityError, "coordinates for subset", lambda p: p[:2]),
    ]
    for k, probe in enumerate(grid):
        _check(jm, LABELS, [probe])
        error, message, spoil = bad[k % len(bad)]
        with pytest.raises(error, match=message):
            joint_cdf(jm, LABELS, spoil(probe))
    _check(jm, LABELS, grid[::-1])


def test_negative_zero_shares_the_level_of_zero():
    jm = compose(
        family_from_copula(random_copula(LABELS, 3, np.random.default_rng(2))),
        {
            "a": Marginal.atomic([(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]),
            "b": Marginal.continuous([(-1.0, 0.0), (0.0, 0.4), (1.0, 1.0)]),
            "c": Marginal.continuous([(-2.0, 0.0), (2.0, 1.0)]),
        },
    )
    zeros = list(itertools.product((0.0, -0.0), repeat=3))
    _check(jm, LABELS, zeros + zeros[::-1] + [(0.0, 0.5, -0.0), (-0.0, 0.5, 0.0)])


def _levels(n: int) -> list:
    """Cell boundaries ``k/n``, their float neighbours inside ``[0, 1]``, and midpoints."""
    out = {-0.0, 0.0, 1.0}
    for k in range(n + 1):
        b = k / n
        out.update((math.nextafter(b, -1.0), b, math.nextafter(b, 2.0), (k + 0.5) / n))
    return sorted(x for x in out if 0.0 <= x <= 1.0)


@given(st.data())
@SETTINGS
def test_copula_cdf_on_cell_boundaries_matches_the_reference(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 40 if d < 3 else 12))
    c = random_copula(tuple(range(d)), n, np.random.default_rng(data.draw(st.integers(0, 99))))
    levels = _levels(n)
    points = data.draw(
        st.lists(st.tuples(*[st.sampled_from(levels)] * d), min_size=1, max_size=20)
    )
    for u in points:
        assert bits(cdf_eval_copula(c, u)) == bits(reference_sklar.cdf_eval_copula(c, u)), u


COIN = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])


@pytest.mark.parametrize("later", [math.nan, "x", 10**400])
def test_a_missing_marginal_on_an_earlier_axis_is_refused_first(later):
    jm = compose(independence_family(IndexUniverse.countable(), 2), {1: COIN, 2: COIN})
    for labels, point in [((0, 1), (0.5, later)), ((2, 0), (later, 0.5))]:
        with pytest.raises(ConfigurationError, match="^no marginal supplied for label 0$"):
            joint_cdf(jm, labels, point)
    # a subset evaluated in between changes nothing
    assert joint_cdf(jm, (1, 2), (0.5, 0.5)) == 0.25
    with pytest.raises(ConfigurationError, match="^no marginal supplied for label 0$"):
        joint_cdf(jm, (0, 1, 2), (0.5, 0.5, later))


@pytest.mark.parametrize(
    "bad, message",
    [(math.nan, "must not be NaN"), ("x", "must be a real number"), (10**400, "beyond the float")],
)
def test_a_bad_coordinate_on_an_earlier_axis_is_refused_before_a_missing_marginal(bad, message):
    jm = compose(independence_family(IndexUniverse.countable(), 2), {0: COIN})
    with pytest.raises(DomainError, match=message):
        joint_cdf(jm, (0, 1), (bad, 0.5))
    with pytest.raises(DomainError, match=message):
        joint_cdf(jm, (1, 0), (0.5, bad))


@pytest.mark.parametrize("bad", [math.nan, "x", 10**400])
def test_a_bad_coordinate_is_refused_before_a_failing_family_rule(bad):
    calls = []

    def rule(subset):
        calls.append(subset)
        raise RuntimeError("rule failed")

    family = ProjectiveFamily(IndexUniverse.finite([0, 1]), "copula", rule)
    jm = compose(family, {0: COIN, 1: COIN})
    with pytest.raises(DomainError):
        joint_cdf(jm, (0, 1), (0.5, bad))
    assert calls == []
    with pytest.raises(RuntimeError, match="rule failed"):
        joint_cdf(jm, (0, 1), (0.5, 0.5))
    assert calls == [(0, 1)]
