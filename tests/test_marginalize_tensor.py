"""``marginalize_tensor`` builds its result from checked parts, with the constructor's bits.

It keeps ``sum_out``'s canonical labels and the parent's frozen grid axes and
checks only the summed mass; the result must equal, bit for bit, the
``TensorMeasure`` the full constructor builds from the same parts.
"""

import itertools

import numpy as np
import pytest

from copulagrid import CompatibilityError, TensorMeasure, marginalize_tensor
from copulagrid.measures import sum_out
from helpers import random_tensor


def subsets(labels):
    return [s for r in range(1, len(labels) + 1) for s in itertools.combinations(labels, r)]


@pytest.mark.parametrize("seed", range(40))
def test_result_equals_the_constructor_built_measure(seed):
    rng = np.random.default_rng(seed)
    labels = ("a", "b", "c", "d")[: int(rng.integers(1, 5))]
    t = random_tensor(rng, labels)
    for subset in subsets(labels):
        got = marginalize_tensor(t, subset[::-1])
        target, mass = sum_out(t, subset)
        want = TensorMeasure(target, [t.grid[t.labels.index(lab)] for lab in target], mass)
        assert type(got) is TensorMeasure and got == want
        assert got.labels == want.labels == subset
        assert got.mass.tobytes() == want.mass.tobytes()
        assert [a.tobytes() for a in got.grid] == [a.tobytes() for a in want.grid]
        # the axes are the parent's own frozen arrays
        assert all(a is t.grid[t.labels.index(lab)] for a, lab in zip(got.grid, got.labels))
        for arr in (got.mass, *got.grid):
            with pytest.raises(ValueError):
                arr.setflags(write=True)


def test_negative_zero_cells_give_the_constructor_bits():
    t = TensorMeasure((0, 1), ([0.0, 1.0], [2.0, 3.0]), [[-0.0, 0.5], [-0.0, 0.5]])
    for subset in ((0,), (1,), (0, 1)):
        target, mass = sum_out(t, subset)
        want = TensorMeasure(target, [t.grid[t.labels.index(lab)] for lab in target], mass)
        assert marginalize_tensor(t, subset).mass.tobytes() == want.mass.tobytes()
    assert np.signbit(marginalize_tensor(t, (0, 1)).mass).any()


def test_refusals_are_unchanged():
    t = TensorMeasure((0, 1), ([0.0], [1.0]), [[1.0]])
    with pytest.raises(CompatibilityError, match=r"^\(2,\) is not a subset of \(0, 1\)$"):
        marginalize_tensor(t, (2,))
    with pytest.raises(CompatibilityError, match="^index subset must be nonempty$"):
        marginalize_tensor(t, ())
