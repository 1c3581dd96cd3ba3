"""Value types copy and pickle to equal, read-only objects; families and joints do not.

Immutable objects restore their slots through ``_Immutable.__setstate__``,
which refreezes every restored array, including each axis of a tensor grid.
A family holds a lock, its cache and its rule: ``copy.copy`` gives a second
handle on all three, while ``deepcopy`` and ``pickle`` raise.
"""

import copy
import pickle

import numpy as np
import pytest

from copulagrid import (
    IndexUniverse,
    Marginal,
    TensorMeasure,
    compose,
    family_member,
    independence_family,
    make_comonotone,
    make_independence,
    random_copula,
)

VALUES = {
    "atomic": lambda: Marginal.atomic([(-np.inf, 0.25), (0.0, 0.5), (np.inf, 0.25)]),
    "continuous": lambda: Marginal.continuous([(-1.0, 0.0), (0.5, 0.75), (2.0, 1.0)]),
    "tensor": lambda: TensorMeasure(
        (0, 2), ([0.0, 1.0], [-np.inf, 0.5, 3.0]), np.full((2, 3), 1 / 6)
    ),
    "copula": lambda: random_copula((0, 1, 2), 3, np.random.default_rng(1)),
    "finite universe": lambda: IndexUniverse.finite(["b", "a"]),
    "countable universe": IndexUniverse.countable,
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def _arrays(obj):
    """Every array in a slot of ``obj``, including those in a tuple slot."""
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            value = getattr(obj, name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, np.ndarray):
                    yield item


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_value_types_round_trip_equal_and_read_only(name, how):
    original = VALUES[name]()
    twin = COPIES[how](original)
    assert type(twin) is type(original)
    assert twin == original
    assert not any(a.flags.writeable for a in _arrays(twin))
    if name == "tensor":
        assert len(twin.grid) == 2 and not any(a.flags.writeable for a in twin.grid)
    with pytest.raises(AttributeError):
        twin.labels = ("x",)
    with pytest.raises(AttributeError):
        del twin.kind


def test_copy_of_a_family_shares_cache_and_lock():
    f = independence_family(IndexUniverse.finite([0, 1]), 2)
    twin = copy.copy(f)
    assert twin._cache is f._cache and twin._lock is f._lock
    member = family_member(twin, (0, 1))
    assert family_member(f, (0, 1)) is member
    assert member == make_independence((0, 1), 2)


def test_copy_of_a_joint_shares_family_and_marginals():
    f = independence_family(IndexUniverse.finite([0]), 2)
    jm = compose(f, {0: VALUES["continuous"]()})
    twin = copy.copy(jm)
    assert twin.family is f and twin.marginals is jm.marginals


def _module_rule(subset):
    return make_comonotone(subset, 2)


def test_families_and_joints_refuse_deepcopy():
    f = independence_family(IndexUniverse.finite([0]), 2)
    jm = compose(f, {0: VALUES["continuous"]()})
    for obj in (f, jm):
        with pytest.raises(TypeError, match="RLock"):
            copy.deepcopy(obj)


def test_families_and_joints_refuse_pickle():
    from copulagrid.projective import COPULA, ProjectiveFamily

    # a module-level rule pickles, so the lock is what refuses
    f = ProjectiveFamily(IndexUniverse.finite([0]), COPULA, _module_rule)
    with pytest.raises(TypeError, match="RLock"):
        pickle.dumps(f)
    # a lambda rule is refused by the pickler first; its error type varies by version
    lam = independence_family(IndexUniverse.finite([0]), 2)
    for obj in (lam, compose(lam, {0: VALUES["continuous"]()})):
        with pytest.raises((TypeError, AttributeError, pickle.PicklingError)):
            pickle.dumps(obj)
