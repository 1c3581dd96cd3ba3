"""Marginal constructors refuse entries that are not pairs with a typed error.

Both constructors used to unpack each entry as ``x, y`` before any check, so a
malformed entry escaped as a bare ``TypeError`` or ``ValueError``.
"""

import numpy as np
import pytest

from copulagrid import Marginal, ValidationError, cdf_eval

MALFORMED = {
    "scalar entry": [5],
    "triple": [(0.0, 0.5, 1.0)],
    "single": [(0.0,)],
    "one bad entry": [(0.0, 0.0), (1.0,)],
    "not iterable": 5,
}


@pytest.mark.parametrize("entries", MALFORMED.values(), ids=MALFORMED.keys())
def test_atoms_must_be_pairs(entries):
    with pytest.raises(ValidationError, match=r"^every atom must be an \(x, y\) pair$"):
        Marginal.atomic(entries)


@pytest.mark.parametrize("entries", MALFORMED.values(), ids=MALFORMED.keys())
def test_knots_must_be_pairs(entries):
    with pytest.raises(ValidationError, match=r"^every knot must be an \(x, y\) pair$"):
        Marginal.continuous(entries)


def test_pairs_may_be_lists_arrays_or_rows():
    atoms = Marginal.atomic(np.array([[0.0, 0.5], [1.0, 0.5]]))
    assert atoms == Marginal.atomic([[0.0, 0.5], (1.0, 0.5)])
    knots = Marginal.continuous([(0.0, 0.0), [2.0, 1.0]])
    assert cdf_eval(knots, 1.0) == 0.5
