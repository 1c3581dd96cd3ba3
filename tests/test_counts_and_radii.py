"""Counts and radii that are not whole or not numbers are refused with typed errors.

A depth or a sample count is a whole number (``3``, ``3.0`` and ``"3"`` are;
``2.5``, ``nan``, ``True`` and ``"abc"`` are not) and is stored as an int; a
clustering radius, a perturbation size and a consistency tolerance are real
numbers, and ``phi`` refuses NaN as ``phi_inv`` does.  Nothing is truncated
and no bare Python error escapes.
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
    check_consistency,
    comonotone_family,
    compactness_probe,
    continuity_probe,
    fdd_distance,
    independence_family,
    make_independence,
    maximize_convex,
    phi,
    phi_inv,
    serialize,
)
from copulagrid.cli import main


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


def test_a_depth_beyond_sys_maxsize_takes_every_subset_of_a_finite_universe():
    # the two labels have three subsets, so depth 3 enumerates them all
    universe = IndexUniverse.finite((0, 1))
    f, g = independence_family(universe, 2), comonotone_family(universe, 2)
    for a, b in [(f, f), (f, g)]:
        huge = fdd_distance(a, b, FddMetricConfig(depth=2**70))
        assert huge.hex() == fdd_distance(a, b, FddMetricConfig(depth=3)).hex()


def test_distance_takes_a_depth_beyond_sys_maxsize(capsys, tmp_path):
    paths = []
    for rule in ("independence", "comonotone"):
        universe = {"type": "finite", "labels": [0, 1]}
        doc = {"kind": "family_spec", "rule": rule, "order": 2, "universe": universe}
        paths.append(tmp_path / f"{rule}.json")
        paths[-1].write_text(serialize.dumps(doc))
    for a, b in [(paths[0], paths[0]), tuple(paths)]:
        outputs = []
        for depth in ("1180591620717411303424", "3"):
            code = main(["distance", str(a), str(b), "--fdd", "--depth", depth])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and outputs[0][1].err == ""


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


SUBSETS = [(0,), (1,), (0, 1)]


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, "x", "0.5", None, [0.0]])
def test_a_tolerance_that_is_not_a_nonnegative_number_is_refused(tol):
    family = independence_family(IndexUniverse.finite((0, 1)), 2)
    message = f"^tol must be a real number >= 0, got {re.escape(repr(tol))}$"
    with pytest.raises(DomainError, match=message):
        check_consistency(family, SUBSETS, tol=tol)


@pytest.mark.parametrize("tol", [0, 0.0, np.float64(1e-12), math.inf])
def test_a_nonnegative_tolerance_checks_the_family(tol):
    family = independence_family(IndexUniverse.finite((0, 1)), 2)
    assert check_consistency(family, SUBSETS, tol=tol).passed


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_validate_refuses_a_tolerance_that_is_not_a_nonnegative_number(capsys, tmp_path, tol):
    path = tmp_path / "family.json"
    universe = {"type": "finite", "labels": [0, 1]}
    doc = {"kind": "family_spec", "rule": "independence", "order": 2, "universe": universe}
    path.write_text(serialize.dumps(doc))
    code = main(["validate", str(path), "--tol", tol])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"validation error: tol must be a real number >= 0, got {float(tol)}\n"


@pytest.mark.parametrize("f", [phi, phi_inv])
def test_phi_and_its_inverse_refuse_nan(f):
    with pytest.raises(DomainError):
        f(math.nan)


@pytest.mark.parametrize("f", [phi, phi_inv])
@pytest.mark.parametrize("x", ["abc", None, [0.5], {}])
def test_phi_and_its_inverse_refuse_what_is_not_a_number(f, x):
    message = f"^{f.__name__} argument must be a real number, got {re.escape(repr(x))}$"
    with pytest.raises(DomainError, match=message):
        f(x)


def test_phi_and_its_inverse_keep_their_nan_and_range_messages():
    with pytest.raises(DomainError, match=r"^phi argument must not be NaN$"):
        phi(math.nan)
    for t in (math.nan, -0.5, 1.5):
        with pytest.raises(DomainError, match=rf"^phi_inv argument {t!r} outside \[0, 1\]$"):
            phi_inv(t)


def test_a_radius_that_is_a_bool_is_refused():
    seq = [make_independence((0, 1), 2)] * 3
    with pytest.raises(DomainError, match="^eps must be positive$"):
        compactness_probe(seq, True)


@pytest.mark.parametrize("tol", [True, False])
def test_a_tolerance_that_is_a_bool_is_refused(tol):
    family = independence_family(IndexUniverse.finite((0, 1)), 2)
    with pytest.raises(DomainError, match=f"^tol must be a real number >= 0, got {tol!r}$"):
        check_consistency(family, SUBSETS, tol=tol)


def test_a_perturbation_size_that_is_a_bool_is_refused():
    coin = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(ConfigurationError, match="^perturbation size False outside"):
        continuity_probe(make_independence((0, 1), 2), {0: coin, 1: coin}, [False])
