"""The constructor's mass check: which error, with which text, in which order."""

import itertools

import numpy as np
import pytest

from copulagrid import CheckerboardCopula, TensorMeasure, ValidationError

BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf, "negative": -0.25}

COMBOS = [
    combo for r in range(1, len(BAD) + 1) for combo in itertools.combinations(BAD, r)
]


def copula(mass):
    return CheckerboardCopula((0, 1), 3, mass)


def tensor(mass):
    return TensorMeasure((0, 1), ([0.0, 1.0, 2.0], [-1.0, 0.0, 3.0]), mass)


BUILDERS = pytest.mark.parametrize("build", [copula, tensor], ids=["copula", "tensor"])


@BUILDERS
@pytest.mark.parametrize("combo", COMBOS, ids="+".join)
def test_bad_entries_raise_one_message(build, combo):
    mass = np.full((3, 3), 1.0 / 9)
    for cell, name in enumerate(combo):
        mass.flat[2 * cell] = BAD[name]
    with pytest.raises(ValidationError) as info:
        build(mass)
    assert str(info.value) == "masses must be finite and nonnegative"


@BUILDERS
def test_bad_total_of_good_entries_is_reported(build):
    with pytest.raises(ValidationError, match=r"^total mass is 1\.8, expected 1$"):
        build(np.full((3, 3), 0.2))


@BUILDERS
def test_overflowing_total_of_finite_entries_is_a_total_error(build):
    with np.errstate(over="ignore"), pytest.raises(ValidationError) as info:
        build(np.full((3, 3), 1e308))
    assert str(info.value) == "total mass is inf, expected 1"


@BUILDERS
def test_shape_mismatch_comes_first(build):
    with pytest.raises(ValidationError, match=r"^mass shape \(2, 3\) does not match \(3, 3\)$"):
        build(np.full((2, 3), np.nan))


@BUILDERS
def test_negative_zero_is_nonnegative(build):
    mass = np.full((3, 3), 1.0 / 9)
    mass[0, 0], mass[1, 1] = -0.0, 2.0 / 9
    assert build(mass).mass.tobytes() == mass.tobytes()
