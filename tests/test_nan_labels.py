"""Labels whose sorted order is not strict have no canonical order and are refused.

``sorted`` compares a NaN false both ways, so it used to leave one where it
was given: ``[nan, 1.0, 0.5]`` sorted to ``(nan, 0.5, 1.0)`` but
``[1.0, nan, 0.5]`` stayed as it was, and one label set built two differently
ordered copulas.  A tuple holding a NaN, or two sets neither of which holds
the other, compare false both ways too.  ``canonical_labels`` now refuses a
sorted result that is not strictly increasing with ``CompatibilityError``
naming the first such pair, and every constructor that reads labels through
it refuses it too; the measures' constructors report it as their
``ValidationError``.  A lone NaN label is its own order and stays accepted.
"""

import math

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    IndexUniverse,
    TensorMeasure,
    ValidationError,
    make_independence,
)
from copulagrid.measures import canonical_labels

NAN = math.nan


class Unequal:
    """A hashable label that equals nothing, itself included."""

    def __eq__(self, other):
        return False

    __hash__ = object.__hash__

    def __lt__(self, other):
        return False

    __gt__ = __lt__

    def __repr__(self):
        return "Unequal()"


MIXES = {
    "nan first": [NAN, 1.0, 0.5],
    "nan inside": [1.0, NAN, 0.5],
    "nan last": [0.5, 1.0, NAN],
    "numpy nan": [np.float64("nan"), 2.0],
    "two nan objects": [float("nan"), float("nan")],
    "unequal object": [Unequal(), 3],
    "tuple with nan first": [(NAN,), (1.0,)],
    "tuple with nan last": [(1.0,), (NAN,)],
    "disjoint sets": [frozenset({1}), frozenset({2})],
    "overlapping sets": [frozenset({1, 2}), frozenset({2, 3}), frozenset()],
}


@pytest.mark.parametrize("name", sorted(MIXES))
def test_canonical_labels_refuses_labels_without_a_strict_order(name):
    labels = MIXES[name]
    with pytest.raises(CompatibilityError, match=r"^labels .+ are not strictly ordered, so "):
        canonical_labels(labels)
    with pytest.raises(CompatibilityError, match="are not strictly ordered"):
        canonical_labels(labels[::-1])


def test_the_refusal_names_the_first_unordered_pair_and_the_labels():
    with pytest.raises(CompatibilityError) as err:
        canonical_labels([1.0, NAN, 0.5])
    assert str(err.value) == (
        "labels 1.0 and nan are not strictly ordered, so [1.0, nan, 0.5] has no sorted order"
    )


def test_a_repeated_nan_object_is_still_a_duplicate():
    with pytest.raises(CompatibilityError, match="^duplicate labels"):
        canonical_labels([NAN, NAN])


def test_a_lone_nan_label_is_its_own_order():
    assert canonical_labels([NAN])[0] is NAN
    assert canonical_labels([(NAN,)]) == ((NAN,),)
    assert IndexUniverse.finite([NAN]).labels[0] is NAN


@pytest.mark.parametrize("name", sorted(MIXES))
def test_factories_refuse_it(name):
    labels = MIXES[name]
    with pytest.raises(CompatibilityError, match="are not strictly ordered"):
        make_independence(labels, 2)
    with pytest.raises(CompatibilityError, match="are not strictly ordered"):
        IndexUniverse.finite(labels)


@pytest.mark.parametrize("labels", [(0.5, NAN), (NAN, 0.5)])
def test_measure_constructors_refuse_it(labels):
    with pytest.raises(ValidationError, match="are not strictly ordered"):
        TensorMeasure(labels, ([0.0], [0.0]), [[1.0]])
    with pytest.raises(ValidationError, match="are not strictly ordered"):
        CheckerboardCopula(labels, 1, [[1.0]])


def test_ordinary_labels_are_unchanged():
    assert canonical_labels(["b", "a", "c"]) == ("a", "b", "c")
    assert canonical_labels([2, 0.5, -1]) == (-1, 0.5, 2)
    assert canonical_labels([(1, NAN), (0, NAN)]) == ((0, NAN), (1, NAN))
    assert canonical_labels([frozenset({1, 2}), frozenset({1})]) == (
        frozenset({1}),
        frozenset({1, 2}),
    )
    assert make_independence([1.0, 0.5], 2).labels == (0.5, 1.0)
