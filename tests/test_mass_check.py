"""The constructor's mass check: which error, with which text, in which order."""

import itertools

import numpy as np
import pytest

from copulagrid import CheckerboardCopula, TensorMeasure, ValidationError
from copulagrid.measures import _frozen_mass, checked_mass

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


def bad_slice(fault):
    """A (3, 3) mass with one bad entry of ``BAD``, a total of 1.8, or an overflowing total."""
    mass = np.full((3, 3), {"bad total": 0.2, "overflowing total": 1e308}.get(fault, 1.0 / 9))
    if fault in BAD:
        mass[1, 1] = BAD[fault]
    return mass


@pytest.mark.parametrize("where", [0, 3, 5])
@pytest.mark.parametrize("fault", [*BAD, "bad total", "overflowing total"])
def test_a_stack_of_totals_is_refused_as_checked_mass_refuses_its_bad_slice(fault, where):
    # one total per (3, 3) slice: the path of permutation copulas checked as one block
    stack = np.stack([np.eye(3)[list(p)] / 3 for p in itertools.permutations(range(3))])
    stack[where] = bad_slice(fault)
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError) as single:
            checked_mass(stack[where], (3, 3))
        with pytest.raises(ValidationError) as stacked:
            _frozen_mass(stack, (1, 2))
    assert str(stacked.value) == str(single.value)


def test_a_good_stack_comes_back_frozen_and_equal():
    stack = np.stack([np.eye(4)[list(p)] / 4 for p in itertools.permutations(range(4))])
    frozen = _frozen_mass(stack, (1, 2))
    assert frozen.tobytes() == stack.tobytes() and frozen.shape == stack.shape
    with pytest.raises(ValueError):
        frozen.setflags(write=True)
