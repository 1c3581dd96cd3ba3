"""Every value type compares by its slots, through the one ``measures._Value.__eq__``.

Marginals, tensor measures, copulas and index universes equal their copies,
deep copies, pickles and JSON round trips; they differ across types and
kinds; ``-0.0`` equals ``0.0`` in every array; and none of them hashes.
Families and joints keep identity equality.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    IndexUniverse,
    Marginal,
    TensorMeasure,
    compose,
    independence_family,
    make_independence,
    random_copula,
    serialize,
    to_tensor_measure,
)
from copulagrid.measures import _Value
from copulagrid.serialize import decode_universe


def _json_universe(u):
    doc = {"type": u.kind} if u.labels is None else {"type": u.kind, "labels": list(u.labels)}
    return decode_universe(json.loads(json.dumps(doc)))


def _json_marginal(m):
    return serialize.loads(serialize.dumps(serialize.encode_marginals({0: m})))[0]


def _json_tensor(t):
    return serialize.loads(serialize.dumps(serialize.encode_tensor(t)))


def _json_copula(c):
    return serialize.loads(serialize.dumps(serialize.encode_copula(c)))


VALUES = {
    "atomic": (
        lambda: Marginal.atomic([(-np.inf, 0.25), (0.0, 0.5), (np.inf, 0.25)]),
        _json_marginal,
    ),
    "continuous": (
        lambda: Marginal.continuous([(-1.0, 0.0), (0.5, 0.75), (2.0, 1.0)]),
        _json_marginal,
    ),
    "tensor": (
        lambda: TensorMeasure((0, 2), ([0.0, 1.0], [-np.inf, 0.5, 3.0]), np.full((2, 3), 1 / 6)),
        _json_tensor,
    ),
    "copula": (lambda: random_copula((0, 1, 2), 3, np.random.default_rng(1)), _json_copula),
    "finite universe": (lambda: IndexUniverse.finite(["b", "a"]), _json_universe),
    "countable universe": (IndexUniverse.countable, _json_universe),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
    "json": None,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_value_equals_its_round_trips(name, how):
    build, through_json = VALUES[name]
    original = build()
    twin = (ROUND_TRIPS[how] or through_json)(original)
    assert twin is not original
    assert twin == original and original == twin
    assert not twin != original


@pytest.mark.parametrize("name", sorted(VALUES))
def test_every_value_type_is_a_slot_value_and_unhashable(name):
    value = VALUES[name][0]()
    assert isinstance(value, _Value)
    assert type(value).__eq__ is _Value.__eq__
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)


def test_values_of_different_types_differ():
    c = make_independence((0, 1), 2)
    t = to_tensor_measure(c)
    assert c.labels == t.labels and c.grid[0].tolist() == t.grid[0].tolist()
    assert c.mass.tolist() == t.mass.tolist()
    assert c != t and t != c
    assert not c == t and not t == c
    for value in (c, t, Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]), IndexUniverse.countable()):
        assert value != 0.5 and value != None and value != "x"  # noqa: E711


def test_kinds_differ_on_the_same_points():
    atomic = Marginal.atomic([(0.0, 0.0), (1.0, 1.0)])
    continuous = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
    assert atomic.xs.tolist() == continuous.xs.tolist()
    assert atomic.fs.tolist() == continuous.fs.tolist()
    assert atomic != continuous and continuous != atomic


def test_finite_and_countable_universes_differ():
    assert IndexUniverse.finite([0, 1]) != IndexUniverse.countable()
    assert IndexUniverse.countable() != IndexUniverse.finite([0, 1])
    assert IndexUniverse.finite([0, 1]) != IndexUniverse.finite([0, 1, 2])
    assert IndexUniverse.finite([1, 0]) == IndexUniverse.finite([0, 1])


def test_negative_zero_equals_zero_in_every_array():
    assert Marginal.atomic([(-0.0, 0.5), (1.0, 0.5)]) == Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    assert Marginal.continuous([(-0.0, 0.0), (1.0, 1.0)]) == Marginal.continuous(
        [(0.0, -0.0), (1.0, 1.0)]
    )
    assert TensorMeasure((0,), ([-0.0, 1.0],), [-0.0, 1.0]) == TensorMeasure(
        (0,), ([0.0, 1.0],), [0.0, 1.0]
    )
    diagonal = [[0.5, 0.0], [0.0, 0.5]]
    signed = [[0.5, -0.0], [-0.0, 0.5]]
    assert CheckerboardCopula((0, 1), 2, signed) == CheckerboardCopula((0, 1), 2, diagonal)


def test_one_differing_slot_makes_values_unequal():
    c = make_independence((0, 1), 2)
    assert c != make_independence((0, 2), 2)
    assert c != make_independence((0, 1), 3)
    assert c != random_copula((0, 1), 2, np.random.default_rng(0))
    t = to_tensor_measure(c)
    moved = TensorMeasure(t.labels, (t.grid[0], [0.5, 2.0]), t.mass)
    assert t != moved
    assert Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]) != Marginal.atomic([(0.0, 0.5), (2.0, 0.5)])


def test_labels_compare_as_tuple_entries_do_identity_first():
    nan = math.nan
    u = IndexUniverse.finite([nan])
    assert u == copy.copy(u) and u == copy.deepcopy(u)


def test_families_and_joints_keep_identity_equality():
    f = independence_family(IndexUniverse.finite([0, 1]), 2)
    g = independence_family(IndexUniverse.finite([0, 1]), 2)
    assert f == f and f != g
    ramp = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
    jm = compose(f, {0: ramp, 1: ramp})
    assert jm == jm and jm != compose(f, {0: ramp, 1: ramp})
    assert hash(f) == hash(f) and hash(jm) == hash(jm)
