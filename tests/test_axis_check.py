"""One axis rule: 1-d, nonempty, free of NaN, strictly increasing; knots span a finite interval.

Every case below was accepted, or failed with a bare numpy error, while the
rule was written as ``np.any(np.diff(x) <= 0)``: a NaN difference passes that
test, and repeated infinities difference to NaN.
"""

import math

import numpy as np
import pytest

from copulagrid import (
    ConfigurationError,
    Marginal,
    TensorMeasure,
    ValidationError,
    cdf_eval,
    compose,
    discretize_joint,
    independence_family,
)
from copulagrid.projective import IndexUniverse

INF = math.inf


@pytest.mark.parametrize(
    "atoms",
    [
        [(0.0, 0.5), (INF, 0.25), (INF, 0.25)],
        [(-INF, 0.25), (-INF, 0.25), (0.0, 0.5)],
        [(-INF, 0.5), (-INF, 0.5)],
    ],
    ids=["+inf twice", "-inf twice", "only -inf twice"],
)
def test_repeated_infinite_atoms_are_refused(atoms):
    with pytest.raises(ValidationError, match="^atom positions must be strictly increasing$"):
        Marginal.atomic(atoms)


@pytest.mark.parametrize(
    "axis", [[0.0, INF, INF], [-INF, -INF, 0.0]], ids=["+inf twice", "-inf twice"]
)
def test_repeated_infinite_grid_points_are_refused(axis):
    with pytest.raises(ValidationError, match="^axis 0 grid must be strictly increasing$"):
        TensorMeasure((0,), (axis,), [0.25, 0.25, 0.5])


def test_repeated_infinite_discretization_grid_is_a_configuration_error():
    m = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
    jm = compose(independence_family(IndexUniverse.finite([0]), 2), {0: m})
    with pytest.raises(
        ConfigurationError, match="^discretization grid must be strictly increasing$"
    ):
        discretize_joint(jm, (0,), grids={0: [0.5, INF, INF]})


def test_nan_cdf_level_is_refused():
    with pytest.raises(ValidationError, match="^CDF values must not be NaN$"):
        Marginal.continuous([(0.0, 0.0), (0.5, math.nan), (1.0, 1.0)])


def test_nan_atom_position_is_refused():
    with pytest.raises(ValidationError, match="^atom positions must not be NaN$"):
        Marginal.atomic([(math.nan, 1.0)])


@pytest.mark.parametrize(
    "axis, message",
    [
        ([[0.0, 1.0]], r"^axis 0 grid must be a nonempty 1-d array, got shape \(1, 2\)$"),
        (0.5, r"^axis 0 grid must be a nonempty 1-d array, got shape \(\)$"),
        ([], r"^axis 0 grid must be a nonempty 1-d array, got shape \(0,\)$"),
        (["a", "b"], "^axis 0 grid is not a float array: "),
        ([[0.0, 1.0], [2.0]], "^axis 0 grid is not a float array: "),
    ],
    ids=["2-d", "0-d", "empty", "non-numeric", "ragged"],
)
def test_malformed_grid_axes_are_validation_errors(axis, message):
    with pytest.raises(ValidationError, match=message):
        TensorMeasure((0,), (axis,), [0.5, 0.5])


@pytest.mark.parametrize(
    "knots",
    [
        [(-1e308, 0.0), (1e308, 1.0)],
        [(-1.5e308, 0.0), (-1e308, 0.25), (1e308, 1.0)],
        [(-1e308, 0.0), (0.0, 0.5), (1e308, 1.0)],
        [(-INF, 0.0), (0.0, 1.0)],
        [(0.0, 0.0), (INF, 1.0)],
    ],
    ids=["gap overflows", "second gap overflows", "span overflows", "-inf knot", "+inf knot"],
)
def test_knots_must_span_a_finite_interval(knots):
    with pytest.raises(ValidationError, match="^knot positions must span a finite interval$"):
        Marginal.continuous(knots)


def test_wide_finite_knots_still_build():
    m = Marginal.continuous([(-1e307, 0.0), (1e307, 1.0)])
    assert cdf_eval(m, 0.0) == 0.5


def test_atom_weights_go_through_the_mass_check():
    with pytest.raises(ValidationError, match="^masses must be finite and nonnegative$"):
        Marginal.atomic([(0.0, 1.5), (1.0, -0.5)])
    with pytest.raises(ValidationError, match=r"^total mass is 0\.75, expected 1$"):
        Marginal.atomic([(0.0, 0.5), (1.0, 0.25)])


def test_no_atoms_is_refused():
    with pytest.raises(ValidationError, match="^atom positions must be a nonempty 1-d array"):
        Marginal.atomic([])


def test_a_caller_array_is_copied_not_frozen():
    axis = np.array([0.0, 1.0])
    t = TensorMeasure((0,), (axis,), [0.5, 0.5])
    axis[0] = -5.0
    assert t.grid[0][0] == 0.0
    assert not t.grid[0].flags.writeable
