"""Proportional fitting and copula validation against their inline-margin reference.

``tests/reference_copulas.py`` sums out the other axes inline, with its own
1-d branch and its fitting limits as keyword defaults.  The library shares
one margin helper and keeps the limits as module constants; the fitted
arrays, the reports and the errors must not change by a single bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_copulas as ref
from copulagrid import (
    CheckerboardCopula,
    CopulaGridError,
    InternalError,
    fit_uniform_margins,
    validate_copula,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except CopulaGridError as exc:  # compared by type and message
        return None, repr(exc)


def _assert_same_report(got, want):
    assert got.passed == want.passed
    assert float(got.max_deviation).hex() == float(want.max_deviation).hex()
    assert got.issues == want.issues
    assert [float(i.deviation).hex() for i in got.issues] == [
        float(i.deviation).hex() for i in want.issues
    ]


def _raw(d, n, kind, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) * d
    if kind == "uniform":
        return rng.uniform(0.5, 1.5, size=shape)
    if kind == "lognormal":
        return np.exp(rng.normal(0.0, 1.5, size=shape))
    return rng.dirichlet(np.ones(n**d)).reshape(shape)


@SETTINGS
@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.sampled_from(("uniform", "lognormal", "dirichlet")),
    st.integers(0, 2**32 - 1),
)
@example(1, 1, "uniform", 0)
@example(1, 6, "lognormal", 3)
@example(4, 6, "uniform", 1)
def test_fit_matches_reference_bitwise(d, n, kind, seed):
    raw = _raw(d, n, kind, seed)
    got, got_error = _outcome(fit_uniform_margins, raw)
    want, want_error = _outcome(ref.fit_uniform_margins, raw)
    assert got_error == want_error
    if want is None:
        return
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    c = CheckerboardCopula(tuple(range(d)), n, got)
    _assert_same_report(validate_copula(c), ref.validate_copula(c))


@SETTINGS
@given(st.integers(1, 4), st.integers(1, 6), st.floats(0.0, 0.8), st.integers(0, 2**32 - 1))
@example(1, 2, 0.5, 0)
def test_validation_report_matches_reference(d, n, zero_share, seed):
    """Non-uniform masses, with some cells ``-0.0``: every issue and deviation agrees."""
    rng = np.random.default_rng(seed)
    mass = rng.dirichlet(np.ones(n**d))
    zero = rng.random(n**d) < zero_share
    zero[int(rng.integers(0, n**d))] = False
    mass[~zero] = rng.dirichlet(np.ones(int((~zero).sum())))
    mass[zero] = -0.0
    c = CheckerboardCopula(tuple(range(d)), n, mass.reshape((n,) * d))
    _assert_same_report(validate_copula(c), ref.validate_copula(c))


def test_one_dim_negative_zero_keeps_its_sign_in_the_report():
    c = CheckerboardCopula((0,), 2, [-0.0, 1.0])
    report = validate_copula(c)
    assert report.issues[0].message == "margin cell 0 has mass -0.0, expected 0.5"
    _assert_same_report(report, ref.validate_copula(c))


@pytest.mark.parametrize("raw", [[[0.0, 0.0], [0.5, 0.5]], [[1.0, -1.0], [1.0, 1.0]], [[]], 1.0])
def test_fit_errors_match_reference(raw):
    got, got_error = _outcome(fit_uniform_margins, raw)
    want, want_error = _outcome(ref.fit_uniform_margins, raw)
    assert got is None and want is None
    assert got_error == want_error


def test_fit_stalls_after_the_same_sweeps():
    # uniform margins exist only in the limit, reached at rate 1/k: both
    # implementations run out of sweeps at the same deviation
    raw = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(InternalError) as got:
        fit_uniform_margins(raw)
    with pytest.raises(InternalError) as want:
        ref.fit_uniform_margins(raw)
    assert str(got.value) == str(want.value)
