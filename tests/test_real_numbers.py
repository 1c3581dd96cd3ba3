"""One rule for real numbers: a ``numbers.Real`` that is not a bool.

``phi`` and ``phi_inv`` refuse anything else with ``DomainError``, as the
clustering radius, perturbation size and consistency tolerance already do.
``maximize_convex`` reads every value of its functional, on permutation,
interior and midpoint copulas alike, through the same rule and refuses any
value that is not a finite real number with ``EvaluationError``; real values
of other numeric types give the bits their ``float`` gives.
"""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from copulagrid import (
    DomainError,
    EvaluationError,
    IndexUniverse,
    check_consistency,
    compactness_probe,
    independence_family,
    make_independence,
    maximize_convex,
    phi,
    phi_inv,
)


@pytest.mark.parametrize("f", [phi, phi_inv])
@pytest.mark.parametrize("x", [True, False, np.True_, "0.5", "1", b"0.5"], ids=repr)
def test_phi_and_its_inverse_refuse_bools_and_strings(f, x):
    message = f"^{f.__name__} argument must be a real number, got {re.escape(repr(x))}$"
    with pytest.raises(DomainError, match=message):
        f(x)


@pytest.mark.parametrize("f", [phi, phi_inv])
@pytest.mark.parametrize(
    "x", [0, 1, np.int64(0), np.float32(0.25), np.float64(0.25), Fraction(1, 4)], ids=repr
)
def test_phi_and_its_inverse_read_real_numbers_as_their_float(f, x):
    assert f(x) == f(float(x))


BEYOND_FLOATS = [10**400, -(10**400), Fraction(10**400, 3)]
BEYOND_IDS = ["10**400", "-10**400", "Fraction(10**400, 3)"]


@pytest.mark.parametrize("f", [phi, phi_inv])
@pytest.mark.parametrize("x", BEYOND_FLOATS, ids=BEYOND_IDS)
def test_phi_and_its_inverse_refuse_real_numbers_beyond_the_float_range(f, x):
    # before, float() raised a bare OverflowError here
    with pytest.raises(DomainError, match=f"^{f.__name__} argument lies beyond the float range$"):
        f(x)


def test_the_rule_accepts_real_numbers_of_any_numeric_type_for_radii_and_tolerances():
    seq = [make_independence((0, 1), 2)] * 3
    assert compactness_probe(seq, Fraction(1, 10)).indices == compactness_probe(seq, 0.1).indices
    family = independence_family(IndexUniverse.finite((0, 1)), 2)
    assert check_consistency(family, [(0,), (0, 1)], tol=Fraction(0)).passed


def after(calls, value):
    """A functional returning 0.0 on its first ``calls`` calls and ``value`` from then on.

    At order 3 ``maximize_convex`` evaluates the 6 permutations first, then the
    interior samples, then the midpoints.
    """
    seen = []

    def functional(c):
        seen.append(c)
        return 0.0 if len(seen) <= calls else value

    return functional


NOT_REAL = ["0.25", True, False, None, np.array([1.0, 2.0]), np.array(0.5), [0.5], 1j]


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_a_value_that_is_not_a_real_number_is_refused_on_a_permutation(value):
    message = f"functional returned {value!r} on (0, 1, 2)"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        maximize_convex(after(0, value), 3, interior_samples=2)


@pytest.mark.parametrize("value", NOT_REAL, ids=repr)
def test_a_value_that_is_not_a_real_number_is_refused_on_an_interior_copula(value):
    message = f"functional returned {value!r} on an interior copula"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        maximize_convex(after(6, value), 3, interior_samples=2)


@pytest.mark.parametrize(
    "value", NOT_REAL + [math.nan, math.inf, -math.inf, np.float64(math.nan)], ids=repr
)
def test_a_value_that_is_not_a_finite_real_number_is_refused_on_a_midpoint(value):
    # before, a NaN here passed unnoticed and +inf only counted as a violation
    shown = repr(float(value)) if isinstance(value, float) else repr(value)
    message = f"functional returned {shown} on a midpoint copula"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        maximize_convex(after(6 + 10, value), 3, interior_samples=10)


@pytest.mark.parametrize("value", [np.float64(math.nan), np.float64(math.inf)], ids=repr)
def test_non_finite_numpy_values_are_shown_as_floats(value):
    for calls, where in ((0, "(0, 1, 2)"), (6, "an interior copula")):
        message = f"functional returned {float(value)!r} on {where}"
        with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
            maximize_convex(after(calls, value), 3, interior_samples=2)


@pytest.mark.parametrize("value", BEYOND_FLOATS, ids=BEYOND_IDS)
@pytest.mark.parametrize(
    "calls, where", [(0, "(0, 1, 2)"), (6, "an interior copula"), (16, "a midpoint copula")]
)
def test_a_value_beyond_the_float_range_is_refused(value, calls, where):
    message = f"functional returned a number beyond the float range on {where}"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        maximize_convex(after(calls, value), 3, interior_samples=10)
    with pytest.raises(EvaluationError, match="beyond the float range on \\(0, 1\\)$"):
        maximize_convex(lambda c: value, 2)


@pytest.mark.parametrize("kind", [np.float64, Fraction])
def test_real_values_of_other_numeric_types_read_as_their_float(kind):
    def functional(c):
        return float(np.sum(c.mass[0] * np.arange(c.order)))

    result = maximize_convex(lambda c: kind(functional(c)), 4, interior_samples=6, seed=3)
    assert result == maximize_convex(functional, 4, interior_samples=6, seed=3)
    assert type(result.extremal_value) is float and type(result.interior_value) is float


@pytest.mark.parametrize("one", [1, np.int64(1)], ids=repr)
def test_whole_values_read_as_their_float(one):
    assert maximize_convex(lambda c: one, 3) == maximize_convex(lambda c: 1.0, 3)


def test_maximize_convex_has_no_labels_parameter():
    assert "labels" not in inspect.signature(maximize_convex).parameters
    result = maximize_convex(lambda c: float(c.mass[0, 0]), 3, interior_samples=2)
    assert result.extremal_permutation == (0, 1, 2)
