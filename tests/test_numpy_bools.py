"""A numpy bool is no whole number, as a Python bool is none.

``copulas._whole_number`` reads every order, depth, sample count and check
count; ``np.True_`` and ``np.False_`` are refused there with the message a
Python bool gets, instead of being read as 1 and 0.
"""

import re

import numpy as np
import pytest

from copulagrid import (
    DomainError,
    FddMetricConfig,
    make_comonotone,
    make_independence,
    maximize_convex,
    random_copula,
)

CALLS = {
    "make_independence order": (lambda b: make_independence((0, 1), b), "order"),
    "make_comonotone order": (lambda b: make_comonotone((0, 1), b), "order"),
    "random_copula order": (lambda b: random_copula((0, 1), b, np.random.default_rng(0)), "order"),
    "interior_samples": (
        lambda b: maximize_convex(lambda c: 0.0, 4, interior_samples=b),
        "interior_samples",
    ),
    "midpoint_checks": (
        lambda b: maximize_convex(lambda c: 0.0, 4, midpoint_checks=b),
        "midpoint_checks",
    ),
    "fdd depth": (lambda b: FddMetricConfig(depth=b), "depth"),
}


@pytest.mark.parametrize("value", [np.True_, np.False_, True, False], ids=repr)
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bools_of_either_kind_are_refused_as_whole_numbers(name, value):
    call, what = CALLS[name]
    message = f"{what} must be a whole number, got {value!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("value", [np.int64(2), np.uint8(2), np.float64(2.0), 2])
def test_numpy_numbers_stay_whole_numbers(value):
    assert make_independence((0, 1), value) == make_independence((0, 1), 2)
    assert FddMetricConfig(depth=value).depth == 2
