"""Marginals and index universes are built only by their factories.

Calling either class directly raises ``TypeError`` naming the factories,
whatever the arguments; the factories, ``copy``, ``deepcopy`` and ``pickle``
build equal, read-only objects without ``__init__``.
"""

import copy
import pickle

import pytest

from copulagrid import IndexUniverse, Marginal

MARGINAL = "^use Marginal\\.atomic\\(\\.\\.\\.\\) or Marginal\\.continuous\\(\\.\\.\\.\\)$"
UNIVERSE = "^use IndexUniverse\\.finite\\(\\.\\.\\.\\) or IndexUniverse\\.countable\\(\\)$"


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), (("atomic", [0.0]), {}), (("atomic", [0.0], [1.0], [1.0]), {"_token": None})],
)
def test_marginal_refuses_direct_construction(args, kwargs):
    with pytest.raises(TypeError, match=MARGINAL):
        Marginal(*args, **kwargs)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), (("finite", (0, 1)), {}), (("countable",), {"labels": None, "_token": None})],
)
def test_index_universe_refuses_direct_construction(args, kwargs):
    with pytest.raises(TypeError, match=UNIVERSE):
        IndexUniverse(*args, **kwargs)


VALUES = [
    Marginal.atomic([(float("-inf"), 0.25), (0.0, 0.75)]),
    Marginal.continuous([(0.0, 0.0), (2.0, 1.0)]),
    IndexUniverse.finite(["b", "a"]),
    IndexUniverse.countable(),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_factory_values_survive_copy_and_pickle(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value
        with pytest.raises(AttributeError, match="is immutable"):
            twin.kind = "other"


def test_factories_fill_every_slot():
    atomic = Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])
    assert (atomic.kind, atomic.ws.tolist(), atomic.fs.tolist()) == ("atomic", [0.5, 0.5], [0.5, 1.0])
    continuous = Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])
    assert (continuous.kind, continuous.ws) == ("continuous", None)
    assert IndexUniverse.finite([2, 0]).labels == (0, 2)
    assert (IndexUniverse.countable().kind, IndexUniverse.countable().labels) == ("countable", None)
