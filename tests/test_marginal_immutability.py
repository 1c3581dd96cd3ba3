"""Marginals refuse every attribute assignment after construction."""

import pytest

from copulagrid import Marginal, cdf_eval, quantile

SLOTS = ("kind", "xs", "ws", "fs", "cum")

CASES = [
    lambda: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
    lambda: Marginal.continuous([(0.0, 0.0), (1.0, 0.25), (2.0, 1.0)]),
]


@pytest.mark.parametrize("build", CASES, ids=["atomic", "continuous"])
def test_slots_cannot_be_set_or_deleted(build):
    m = build()
    before = (cdf_eval(m, 0.0), cdf_eval(m, 1.5), quantile(m, 0.5))
    for name in SLOTS:
        with pytest.raises(AttributeError):
            setattr(m, name, [2.0, -1.0])
        with pytest.raises(AttributeError):
            delattr(m, name)
    with pytest.raises(AttributeError):
        m.extra = 1
    assert not hasattr(m, "extra")
    assert m == build()
    assert (cdf_eval(m, 0.0), cdf_eval(m, 1.5), quantile(m, 0.5)) == before


def test_weights_cannot_be_smuggled_in():
    m = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(AttributeError):
        m.ws = [2.0, -1.0]
    with pytest.raises(AttributeError):
        m.cum = [2.0, 1.0]
    assert cdf_eval(m, 0.0) == 0.5
