"""Tensor measures and copulas refuse every attribute assignment after construction."""

import numpy as np
import pytest

from copulagrid import TensorMeasure, make_independence, validate_copula


CASES = [
    (lambda: make_independence((0, 1), 2), ("labels", "mass", "order", "grid", "ndim")),
    (
        lambda: TensorMeasure((0, 1), ([0.0, 1.0], [-1.0, 2.0]), np.full((2, 2), 0.25)),
        ("labels", "mass", "grid", "ndim"),
    ),
]


@pytest.mark.parametrize("build, names", CASES, ids=["copula", "tensor"])
def test_attributes_cannot_be_set_or_deleted(build, names):
    measure = build()
    before = {name: getattr(measure, name) for name in names}
    for name in names:
        with pytest.raises(AttributeError):
            setattr(measure, name, before[name])
        with pytest.raises(AttributeError):
            delattr(measure, name)
    with pytest.raises(AttributeError):
        measure.extra = 1
    assert not hasattr(measure, "extra")
    assert measure == build()


def test_negative_mass_cannot_be_smuggled_in():
    copula = make_independence((0, 1), 2)
    with pytest.raises(AttributeError):
        copula.mass = np.array([[2.0, -1.0], [0.0, 0.0]])
    assert validate_copula(copula).passed
