"""The one-label terms of ``fdd_distance``: the area between two CDFs, certified by duality.

``topology._line_distance`` replaces the simplex solve of a one-label term
by the area between the two CDFs on the phi scale.  It must lie within
1e-12 of ``transport_distance`` and of the ``w1_one_dim`` oracle on the same
atoms, ±inf atoms and points beyond ``|x| = 1e16``, where phi maps distinct
points to one coordinate, included; ``fdd_distance`` must not depend on the
argument order, bit for bit, and must stay within 1e-12 of the sum that
solves every term by simplex.  A term whose potential misses the value
raises ``InternalError`` on every call.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    FddMetricConfig,
    InternalError,
    Marginal,
    atomize,
    canonical_subsets,
    compose,
    discretize_joint,
    family_from_copula,
    family_from_joint,
    family_member,
    fdd_distance,
    random_copula,
    transport_distance,
    w1_one_dim,
)
from copulagrid import topology
from copulagrid.topology import _line_distance

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

#: points on both sides of the scale where phi rounds to exactly 0 or 1
POINTS = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([-math.inf, math.inf, -1e300, -2e17, -1e16, 3e16, 1e17, 5e307]),
)


@st.composite
def atomic(draw):
    xs = sorted(set(draw(st.lists(POINTS, min_size=1, max_size=7))))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(xs), max_size=len(xs)))
    weights[draw(st.integers(0, len(xs) - 1))] += 0.5  # some weight is positive
    total = sum(weights)
    return Marginal.atomic([(x, w / total) for x, w in zip(xs, weights)])


@SETTINGS
@given(atomic(), atomic())
@example(
    Marginal.atomic([(-math.inf, 0.2), (-1e17, 0.3), (-1e16, 0.1), (3.0, 0.4)]),
    Marginal.atomic([(-2e17, 0.5), (1e17, 0.25), (math.inf, 0.25)]),
)
@example(Marginal.atomic([(0.0, 1.0)]), Marginal.atomic([(0.0, 0.0), (1.0, 1.0)]))
def test_the_area_is_the_transport_distance_and_the_one_dimensional_oracle(a, b):
    ta, tb = atomize(a, 0), atomize(b, 0)
    value = _line_distance(ta, tb)
    assert value.hex() == _line_distance(tb, ta).hex()
    assert value == pytest.approx(transport_distance(ta, tb), abs=1e-12)
    assert value == pytest.approx(w1_one_dim(a, b), abs=1e-12)


@SETTINGS
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_the_area_between_copula_margins_is_their_transport_distance(n, seed):
    rng = np.random.default_rng(seed)
    f, g = (family_from_copula(random_copula((0, 1), n, rng)) for _ in range(2))
    for label in (0, 1):
        a, b = family_member(f, (label,)), family_member(g, (label,))
        assert _line_distance(a, b) == pytest.approx(transport_distance(a, b), abs=1e-12)


def joint_family(rng, labels, n, atoms):
    """The family of a composed joint with atomic marginals, ±inf atoms included."""
    marginals = {}
    for label in labels:
        xs = np.sort(rng.normal(size=atoms)) * 3.0
        xs[0], xs[-1] = -math.inf, math.inf
        marginals[label] = Marginal.atomic(list(zip(xs, rng.dirichlet(np.ones(atoms)))))
    jm = compose(family_from_copula(random_copula(labels, n, rng)), marginals)
    return family_from_joint(discretize_joint(jm, labels))


def simplex_sum(f, g, depth):
    """The capped geometric sum with every term, one-label terms included, solved by simplex."""
    subsets = itertools.islice(canonical_subsets(f.universe), depth)
    terms = (transport_distance(family_member(f, s), family_member(g, s)) for s in subsets)
    return sum(2.0 ** (-k) * min(1.0, d) for k, d in enumerate(terms, start=1))


@SETTINGS
@given(
    st.sampled_from(["copula", "joint"]),
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(0, 2**32 - 1),
)
@example("joint", 3, 4, 7, 0)
def test_fdd_distance_is_symmetric_bit_for_bit_and_near_the_simplex_sum(kind, d, n, depth, seed):
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    if kind == "copula":
        f, g = (family_from_copula(random_copula(labels, n, rng)) for _ in range(2))
    else:
        f, g = (joint_family(rng, labels, n, int(rng.integers(2, 6))) for _ in range(2))
    config = FddMetricConfig(depth=depth)
    value = fdd_distance(f, g, config)
    assert value.hex() == fdd_distance(g, f, config).hex()
    assert value == pytest.approx(simplex_sum(f, g, depth), abs=1e-12)


def test_a_potential_that_misses_the_value_is_an_internal_error(monkeypatch):
    rng = np.random.default_rng(3)
    f, g = (family_from_copula(random_copula((0, 1), 4, rng)) for _ in range(2))
    fdd_distance(f, g, FddMetricConfig(depth=1))
    # no float difference is below a negative tolerance: the check runs on every term
    monkeypatch.setattr(topology, "_SLACKNESS_TOL", -1.0)
    with pytest.raises(InternalError, match="one-label transport potential"):
        fdd_distance(f, g, FddMetricConfig(depth=1))
