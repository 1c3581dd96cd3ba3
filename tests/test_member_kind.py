"""A family's kind picks its member class and marginalizer at call time."""

import pytest

from copulagrid import (
    CompatibilityError,
    IndexUniverse,
    ProjectiveFamily,
    TensorMeasure,
    ValidationError,
    check_consistency,
    family_from_joint,
    independence_family,
    make_independence,
)
from copulagrid import projective


@pytest.mark.parametrize("name", ["marginalize_copula", "marginalize_tensor"])
def test_check_consistency_reads_the_rebound_marginalizer(monkeypatch, name):
    calls = []
    original = getattr(projective, name)

    def counting(member, labels):
        calls.append(tuple(labels))
        return original(member, labels)

    monkeypatch.setattr(projective, name, counting)
    subsets = [(0,), (1,), (0, 1)]
    # one projection per nested pair (j1, j2), onto j1
    pairs = [(0,), (0,), (1,), (1,), (0, 1)]
    if name == "marginalize_copula":
        f = independence_family(IndexUniverse.finite([0, 1]), 3)
        rule_calls = []
    else:
        f = family_from_joint(TensorMeasure((0, 1), ([0.0], [1.0, 2.0]), [[0.5, 0.5]]))
        # the joint's rule marginalizes too: once per subset, then once more
        rule_calls = subsets * 2
    assert check_consistency(f, subsets).passed
    assert sorted(calls) == sorted(pairs + rule_calls)


def test_member_class_follows_the_kind():
    universe = IndexUniverse.finite([0, 1])
    tensor = TensorMeasure((0,), ([0.0],), [1.0])
    wrong = {
        "copula": lambda subset: tensor,
        "general": lambda subset: make_independence(subset, 2),
    }
    for kind, rule in wrong.items():
        with pytest.raises(ValidationError, match=f"^{kind} family rule returned "):
            projective.family_member(ProjectiveFamily(universe, kind, rule), (0,))
    copulas = ProjectiveFamily(universe, "copula", lambda subset: make_independence((1,), 2))
    with pytest.raises(CompatibilityError):
        projective.family_member(copulas, (0,))
