"""Every array a value type hands out stays read-only: numpy cannot reopen it.

``setflags(write=True)`` must raise on the array itself and on its ``.base``
when that is an array (a view of a block, or of the cached cell boundaries),
for the original value and for its ``copy.copy``, ``copy.deepcopy`` and
``pickle`` twins.  A read-only flag on an array that owns its data is not
enough: numpy lets its owner set the flag back.
"""

import copy
import pickle

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    Marginal,
    TensorMeasure,
    make_comonotone,
    maximize_convex,
    permutation_copula,
    random_copula,
)
from copulagrid.copulas import _bounds
from helpers import sources


def searched_copulas():
    """The first and the last permutation copula ``maximize_convex`` hands its functional."""
    seen = []
    maximize_convex(lambda c: seen.append(c) or 0.0, 7, interior_samples=0)
    return seen[0], seen[-1]


VALUES = {
    "constructed copula": lambda: CheckerboardCopula((0, 1), 2, [[0.5, 0.0], [0.0, 0.5]]),
    "comonotone copula": lambda: make_comonotone((0, 1, 2), 3),
    "random copula": lambda: random_copula((0, 1), 4, np.random.default_rng(3)),
    "permutation copula": lambda: permutation_copula((2, 0, 1)),
    "first searched copula": lambda: searched_copulas()[0],
    "last searched copula": lambda: searched_copulas()[1],
    "tensor": lambda: TensorMeasure(
        (0, 2), ([0.0, 1.0], [-np.inf, 0.5, 3.0]), np.full((2, 3), 1 / 6)
    ),
    "atomic marginal": lambda: Marginal.atomic([(-np.inf, 0.25), (0.0, 0.5), (np.inf, 0.25)]),
    "continuous marginal": lambda: Marginal.continuous([(-1.0, 0.0), (0.5, 0.75), (2.0, 1.0)]),
}

COPIES = {
    "original": lambda obj: obj,
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def handed_out(obj):
    """Name and array of everything ``obj`` hands out."""
    if isinstance(obj, Marginal):
        arrays = {"xs": obj.xs, "fs": obj.fs, **({"ws": obj.ws} if obj.ws is not None else {})}
    else:
        arrays = {"mass": obj.mass, **{f"grid[{i}]": a for i, a in enumerate(obj.grid)}}
    assert all(isinstance(a, np.ndarray) for a in arrays.values())
    return arrays


def assert_frozen(arr):
    before = arr.tobytes()
    with pytest.raises(ValueError):
        arr.setflags(write=True)
    if isinstance(arr.base, np.ndarray):
        with pytest.raises(ValueError):
            arr.base.setflags(write=True)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr.reshape(-1)[0] = 0.75
    assert arr.tobytes() == before


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("name", list(VALUES))
def test_no_array_of_a_value_can_be_reopened(name, how):
    original = VALUES[name]()
    twin = COPIES[how](original)
    assert twin == original
    for arr in handed_out(twin).values():
        assert_frozen(arr)
    assert twin == original


def test_searched_copulas_view_a_block_that_cannot_be_reopened():
    first, last = searched_copulas()
    # 5040 order-7 permutations fill seven blocks: a view's base is its block
    for c in (first, last):
        assert isinstance(c.mass.base, np.ndarray) and c.mass.base.shape == (720, 7, 7)
        assert_frozen(c.mass)


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_cached_cell_boundaries_cannot_be_reopened(n):
    bounds = _bounds(n)
    assert_frozen(bounds)
    assert_frozen(bounds[1:])
    assert _bounds(n) is bounds and bounds.tolist() == [k / n for k in range(n + 1)]


def test_no_module_calls_setflags():
    # measures._frozen is the one freezer: a setflags call elsewhere may leave an array reopenable
    assert [name for name, text in sources().items() if "setflags(" in text] == []
