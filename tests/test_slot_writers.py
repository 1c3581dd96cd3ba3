"""Slot writes through member descriptors, one instance at a time or a batch at once.

Every ``_Immutable`` type records its slots' own ``__set__`` methods in
``_slot_setters``, in the order of ``_slot_names``.  ``_of``, ``__init__``,
``_batch``, ``copy``, ``deepcopy`` and ``pickle`` must all build instances
with the same slots, and assigning or deleting a slot must still raise.
``copulas._views`` hands out each checked block through one ``_batch``: its
copulas are distinct objects over read-only masses, equal to those built
one at a time by ``_of``.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    IndexUniverse,
    JointMeasure,
    Marginal,
    ProjectiveFamily,
    TensorMeasure,
    compose,
    independence_family,
    maximize_convex,
    permutation_copula,
    random_copula,
)
from copulagrid.copulas import _views
from copulagrid.extremal import _permutation_copulas
from copulagrid.measures import _Immutable, _same, _Value
from reference_extremal import permutation_copula as reference_permutation


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


PACKAGE_TYPES = sorted(
    (cls for cls in set(subclasses(_Immutable)) if cls.__module__.startswith("copulagrid.")),
    key=lambda cls: cls.__name__,
)

SAMPLES = {
    Marginal: lambda: Marginal.atomic([(-np.inf, 0.25), (0.0, 0.5), (np.inf, 0.25)]),
    TensorMeasure: lambda: TensorMeasure(
        (0, 2), ([0.0, 1.0], [-np.inf, 0.5, 3.0]), np.full((2, 3), 1 / 6)
    ),
    CheckerboardCopula: lambda: random_copula((0, 1, 2), 3, np.random.default_rng(1)),
    IndexUniverse: lambda: IndexUniverse.finite(["b", "a"]),
    ProjectiveFamily: lambda: independence_family(IndexUniverse.countable(), 3),
    JointMeasure: lambda: compose(
        independence_family(IndexUniverse.finite([0, 1]), 2),
        {0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]), 1: Marginal.atomic([(2.0, 1.0)])},
    ),
}

#: ``__init__`` from an instance's public fields; Marginal and IndexUniverse refuse it
INIT = {
    TensorMeasure: lambda t: TensorMeasure(t.labels, t.grid, t.mass),
    CheckerboardCopula: lambda c: CheckerboardCopula(c.labels, c.order, c.mass),
    ProjectiveFamily: lambda f: ProjectiveFamily(f.universe, f.kind, f.rule),
    JointMeasure: lambda jm: JointMeasure(jm.family, jm.marginals),
}

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def slots(obj):
    return [getattr(obj, name) for name in obj._slot_names]


def assert_same_slots(a, b, fresh=()):
    """Slot by slot :func:`_same`; the slots in ``fresh`` need only hold equal types."""
    assert type(a) is type(b)
    for name, x, y in zip(a._slot_names, slots(a), slots(b)):
        if name in fresh:
            assert type(x) is type(y), name
        else:
            assert _same(x, y), name


def assert_refuses_writes(obj):
    for name in obj._slot_names:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(obj, name)


def test_the_package_types_are_found():
    leaves = {cls for cls in PACKAGE_TYPES if not any(True for _ in subclasses(cls))}
    assert leaves == set(SAMPLES)
    assert _Value in PACKAGE_TYPES


@pytest.mark.parametrize("cls", PACKAGE_TYPES, ids=lambda cls: cls.__name__)
def test_slot_setters_follow_the_slot_names(cls):
    assert len(cls._slot_setters) == len(cls._slot_names)
    for name, setter in zip(cls._slot_names, cls._slot_setters):
        assert setter.__name__ == "__set__"
        assert setter.__self__ is getattr(cls, name)
        assert setter.__self__.__name__ == name


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_every_builder_gives_the_same_slots(cls):
    original = SAMPLES[cls]()
    values = slots(original)
    built = cls._of(*values)
    assert_same_slots(built, original)
    batch = cls._batch(3, *([value] * 3 for value in values))
    assert len(set(map(id, batch))) == 3
    for item in batch:
        assert_same_slots(item, original)
    if cls in INIT:
        # a family made by __init__ holds a fresh lock
        assert_same_slots(INIT[cls](original), original, fresh=("_lock",))
    else:
        with pytest.raises(TypeError):
            cls(*values)
    assert_same_slots(copy.copy(original), original)
    if issubclass(cls, _Value):
        assert built == original and all(item == original for item in batch)
        for how in ("deepcopy", "pickle"):
            twin = COPIES[how](original)
            assert twin == original
            assert_refuses_writes(twin)
    for obj in (original, built, *batch):
        assert_refuses_writes(obj)


def test_a_batch_of_none_is_empty():
    assert CheckerboardCopula._batch(0, [], [], []) == []


@pytest.mark.parametrize("d, n, count", [(1, 5, 1), (2, 4, 7), (3, 3, 12)])
def test_views_are_distinct_read_only_and_equal_to_one_at_a_time(d, n, count):
    rng = np.random.default_rng(d * 100 + n)
    block = rng.random((count,) + (n,) * d)
    block /= block.sum(axis=tuple(range(1, d + 1)), keepdims=True)
    labels = tuple(range(d))
    views = _views(labels, n, block.copy())
    assert iter(views) is views
    copulas = list(views)
    assert len(copulas) == count and len(set(map(id, copulas))) == count
    for c, mass in zip(copulas, block):
        assert c == CheckerboardCopula._of(labels, mass, n)
        assert not c.mass.flags.writeable
        with pytest.raises(ValueError):
            c.mass.setflags(write=True)
        with pytest.raises(ValueError):
            c.mass[(0,) * d] = 0.5
        assert_refuses_writes(c)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_permutation_blocks_match_one_at_a_time(n):
    perms = list(itertools.permutations(range(n)))
    copulas = list(_permutation_copulas(perms, n))
    assert len(set(map(id, copulas))) == len(perms)
    for perm, c in zip(perms, copulas):
        reference = reference_permutation(perm)
        assert c == CheckerboardCopula._of((0, 1), reference.mass, n)
        assert c == permutation_copula(perm)
        assert not c.mass.flags.writeable


def test_a_functional_may_keep_the_copulas_it_is_given():
    kept = []

    def functional(c):
        kept.append(c)
        return float(c.mass[0, -1])

    maximize_convex(functional, 7, interior_samples=3, midpoint_checks=0)
    perms = list(itertools.permutations(range(7)))
    assert len(set(map(id, kept))) == len(kept) == len(perms) + 3
    # the first and last of each 720-permutation block, and the blocks' neighbours
    for k in (0, 1, 719, 720, 721, 1439, 1440, len(perms) - 1):
        assert kept[k] == reference_permutation(perms[k])
