"""Fast paths of the float readers and writers against their per-item forms, bit for bit.

``measures._as_float`` returns a float, numpy's float64 among them, as a plain
``float`` without the real-number test, and ``serialize._encode_nested``
writes a finite array's entries with ``repr``, where ``encode_float`` checks
each one for an infinity or a NaN.  Both must give what the general path
gives, and an array holding an infinity or a NaN still goes through
``encode_float``, which spells the one and refuses the other.
``measures._mass_below`` sums a slice with ``np.add.reduce(slice, None)``,
the reduction ``slice.sum()`` calls, and must give its bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from copulagrid import ParseError
from copulagrid.measures import _as_float, _mass_below
from copulagrid.serialize import _encode_nested, encode_float

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class Half(float):
    """A float subclass whose ``float()`` is itself as a plain float."""


def _per_item(arr):
    if arr.ndim == 1:
        return [encode_float(x) for x in arr.tolist()]
    return [_per_item(sub) for sub in arr]


FLOATS = [0.5, -0.0, 5e-324, 1.7976931348623157e308, math.inf, -math.inf]


@pytest.mark.parametrize("x", FLOATS + [np.float64(-2.5), Half(0.25)])
def test_a_float_reads_as_a_plain_float_of_the_same_bits(x):
    got = _as_float(x, "cdf argument")
    assert type(got) is float
    assert got.hex() == float(x).hex()


def test_a_nan_float_reads_as_nan():
    assert math.isnan(_as_float(math.nan, "cdf argument"))
    assert type(_as_float(np.float64("nan"), "cdf argument")) is float


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
        elements=st.floats(allow_nan=False, allow_infinity=True),
    )
)
@SETTINGS
def test_nested_encoding_matches_encode_float_per_entry(arr):
    assert _encode_nested(arr) == _per_item(arr)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2)])
def test_an_array_with_a_nan_is_refused(shape):
    arr = np.zeros(shape)
    arr.flat[-1] = math.nan
    with pytest.raises(ParseError, match="NaN is not serializable"):
        _encode_nested(arr)


@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=8),
        elements=st.one_of(st.floats(0.0, 1.0), st.just(-0.0)),
    ),
    st.lists(st.integers(0, 8), min_size=3, max_size=3),
)
@SETTINGS
def test_the_mass_below_is_the_slice_sum_bit_for_bit(mass, ends):
    below = [slice(end) for end in ends[: mass.ndim]]
    assert _mass_below(mass, below).hex() == float(mass[tuple(below)].sum()).hex()
