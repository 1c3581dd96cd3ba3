"""Counts and radii that are not whole or not numbers are refused with typed errors.

A depth or a sample count is a whole number (``3``, ``3.0`` and ``"3"`` are;
``2.5``, ``nan``, ``True`` and ``"abc"`` are not) and is stored as an int; a
clustering radius and a perturbation size are real numbers.  Nothing is
truncated and no bare Python error escapes.
"""

import math
import re

import numpy as np
import pytest

from copulagrid import (
    ConfigurationError,
    DomainError,
    FddMetricConfig,
    IndexUniverse,
    Marginal,
    comonotone_family,
    compactness_probe,
    continuity_probe,
    fdd_distance,
    independence_family,
    make_independence,
    maximize_convex,
)


@pytest.mark.parametrize("depth", [2.5, math.nan, math.inf, True, "abc", None, "2.5"])
def test_a_depth_that_is_not_whole_is_refused(depth):
    with pytest.raises(DomainError, match=f"^depth must be a whole number, got {depth!r}$"):
        FddMetricConfig(depth=depth)


@pytest.mark.parametrize("depth", [3, 3.0, "3", np.int64(3)])
def test_a_whole_depth_is_stored_as_an_int(depth):
    config = FddMetricConfig(depth=depth)
    assert type(config.depth) is int and config.depth == 3
    universe = IndexUniverse.countable()
    f, g = independence_family(universe, 2), comonotone_family(universe, 2)
    assert fdd_distance(f, g, config) == fdd_distance(f, g, FddMetricConfig(depth=3))


def test_a_depth_below_one_keeps_its_message():
    with pytest.raises(DomainError, match=r"^depth must be >= 1, got 0$"):
        FddMetricConfig(depth=0)


def functional(c):
    return float(np.max(c.mass))


@pytest.mark.parametrize("name", ["interior_samples", "midpoint_checks"])
@pytest.mark.parametrize("count", [2.5, math.nan, True, "abc", None])
def test_a_sample_count_that_is_not_whole_is_refused(name, count):
    with pytest.raises(DomainError, match=f"^{name} must be a whole number, got {count!r}$"):
        maximize_convex(functional, 3, **{name: count})


def test_a_whole_sample_count_runs_that_many_samples():
    result = maximize_convex(functional, 3, interior_samples=3.0, midpoint_checks="2")
    assert result.interior_samples == 3


@pytest.mark.parametrize("eps", ["abc", None, "0.5", [0.5], math.nan, 0.0, -1.0])
def test_a_radius_that_is_not_a_positive_number_is_refused(eps):
    seq = [make_independence((0, 1), 2)] * 3
    with pytest.raises(DomainError, match="^eps must be positive$"):
        compactness_probe(seq, eps)


@pytest.mark.parametrize("eps", ["abc", None, "0.5", [0.5], math.nan, 1.0, -0.25])
def test_a_perturbation_size_that_is_not_in_the_unit_interval_is_refused(eps):
    marginals = {
        0: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
        1: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
    }
    with pytest.raises(ConfigurationError, match=f"^perturbation size {re.escape(repr(eps))} "):
        continuity_probe(make_independence((0, 1), 2), marginals, [0.5, eps])
