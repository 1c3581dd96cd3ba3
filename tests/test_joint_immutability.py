"""Joint measures are read-only, and the constructor makes compose's checks."""

import pytest

from copulagrid import (
    CompatibilityError,
    ConfigurationError,
    IndexUniverse,
    JointMeasure,
    Marginal,
    TensorMeasure,
    atomize,
    comonotone_family,
    compose,
    decompose,
    discretize_joint,
    family_from_joint,
    family_member,
    independence_family,
    joint_cdf,
    make_independence,
)

COIN = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
DIRAC = Marginal.atomic([(0.0, 1.0)])


def _joint():
    return compose(independence_family(IndexUniverse.finite([0, 1]), 2), {0: COIN, 1: COIN})


def test_slots_cannot_be_set_or_deleted():
    jm = _joint()
    other = comonotone_family(IndexUniverse.finite([0, 1]), 2)
    for name, value in (("family", other), ("marginals", {0: DIRAC, 1: DIRAC})):
        with pytest.raises(AttributeError):
            setattr(jm, name, value)
        with pytest.raises(AttributeError):
            delattr(jm, name)
    with pytest.raises(AttributeError):
        jm.extra = 1
    assert joint_cdf(jm, (0, 1), (0.0, 0.0)) == 0.25


def test_marginals_refuse_item_assignment_and_deletion():
    jm = _joint()
    with pytest.raises(TypeError):
        jm.marginals[0] = DIRAC
    with pytest.raises(TypeError):
        del jm.marginals[0]
    assert jm.marginal(0) is COIN
    assert discretize_joint(jm, (0, 1)).mass.tolist() == [[0.25, 0.25], [0.25, 0.25]]


def test_marginals_are_a_copy_of_the_callers_mapping():
    given = {0: COIN, 1: COIN}
    jm = compose(independence_family(IndexUniverse.finite([0, 1]), 2), given)
    given[0] = DIRAC
    del given[1]
    assert jm.marginal(0) is COIN and jm.marginal(1) is COIN


def test_constructor_checks_as_compose_did():
    family = independence_family(IndexUniverse.finite([0, 1]), 2)
    for build in (JointMeasure, compose):
        with pytest.raises(ConfigurationError, match=r"^marginals missing for labels \[1\]$"):
            build(family, {0: COIN})
        with pytest.raises(ConfigurationError, match=r"^marginal for 1 is not a Marginal$"):
            build(family, {0: COIN, 1: "coin"})
        with pytest.raises(CompatibilityError, match="copula-kind family"):
            build(family_from_joint(atomize(COIN, 0)), {0: COIN})
    # a countable universe is checked per request, not at construction
    jm = JointMeasure(independence_family(IndexUniverse.countable(), 2), {5: COIN})
    assert jm.marginal(5) is COIN
    assert family_member(jm.family, (5,)) == make_independence((5,), 2)


def test_missing_marginal_is_refused_alike_by_both_directions():
    jm = compose(independence_family(IndexUniverse.countable(), 2), {0: COIN})
    with pytest.raises(ConfigurationError) as eager:
        discretize_joint(jm, (0, 1))
    with pytest.raises(ConfigurationError) as inverse:
        decompose(TensorMeasure((1,), ([0.0, 1.0],), [0.5, 0.5]), {0: COIN}, 2)
    assert str(eager.value) == str(inverse.value) == "no marginal supplied for label 1"
