"""``transport_plan`` results hold the plan's support and the supports' coordinates.

A basic optimal plan has at most ``m + n - 1`` cells beyond the shared-mass
pairs, and the cost is a function of the two supports' phi coordinates, so a
result keeps O((m + n) d) numbers and builds ``plan`` and ``cost`` on each
access.  A fixed corpus, solved in both argument orders, hashes to the digests
the dense-storage solver gave, so the built arrays carry the same bytes.  A
result pickles and deep-copies to the same arrays, and what it stores stays
small.
"""

import copy
import hashlib
import pickle

import numpy as np
import pytest

from copulagrid import make_comonotone, make_countermonotone, random_copula, transport_plan
from test_transport_reduction import pool_tensor
from test_transport_solver import integer_grid_tensor


def copula_corpus(d, orders):
    pairs = []
    for order in orders:
        rng = np.random.default_rng(100 * d + order)
        labels = tuple(range(d))
        pairs.append((random_copula(labels, order, rng), random_copula(labels, order, rng)))
        pairs.append((make_comonotone(labels, order), random_copula(labels, order, rng)))
    if d == 2:
        pairs += [(make_comonotone((0, 1), k), make_countermonotone((0, 1), k)) for k in orders]
    return pairs


def tie_heavy_corpus():
    rng = np.random.default_rng(2501)
    return [
        (integer_grid_tensor(rng, dims), integer_grid_tensor(rng, dims))
        for dims in (1, 2, 3)
        for _ in range(15)
    ]


def different_grids_corpus():
    rng = np.random.default_rng(2502)
    return [
        (pool_tensor(rng, dims, 0.0), pool_tensor(rng, dims, shift))
        for dims in (1, 2)
        for shift in (0.0, 0.5)
        for _ in range(10)
    ]


CORPORA = {
    "2-d orders 1-16": lambda: copula_corpus(2, range(1, 17)),
    "3-d orders 1-8": lambda: copula_corpus(3, range(1, 9)),
    "tie-heavy integer grids": tie_heavy_corpus,
    "different grids": different_grids_corpus,
}

#: SHA-256 of each corpus's results, recorded from the solver that stored dense arrays
PINNED = {
    "2-d orders 1-16": "5f4ebacf4416b0eef60eb9b16c70e4a7c33e4466c8c49fa82ada1da4b78a73dc",
    "3-d orders 1-8": "f6e1295e4a027e752b64377e937b027b9119dcbd9cdc1ca32f8f26d98c85512f",
    "tie-heavy integer grids": "2b7c71d7c59ca73275f19a3ee1dbd6697339567df293101b1d4306102f763206",
    "different grids": "1e06a402570bfffa11ecf38d5b426965a53ce342b2eabc96b386fa3e242ab39a",
}

ARRAYS = ("plan", "cost", "row_potentials", "col_potentials", "row_masses", "col_masses")


def result_digest(pairs):
    h = hashlib.sha256()
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            res = transport_plan(x, y)
            h.update(res.value.hex().encode())
            for name in ARRAYS:
                arr = getattr(res, name)
                assert arr.dtype == np.float64 and arr.flags.c_contiguous, name
                h.update(repr(arr.shape).encode())
                h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_matches_the_dense_digests(name):
    assert result_digest(CORPORA[name]()) == PINNED[name]


def test_each_access_builds_a_fresh_array():
    rng = np.random.default_rng(7)
    res = transport_plan(random_copula((0, 1), 5, rng), random_copula((0, 1), 5, rng))
    plan, cost = res.plan, res.cost
    plan[...] = np.nan
    cost[...] = np.nan
    assert not np.isnan(res.plan).any() and not np.isnan(res.cost).any()
    assert res.feasibility_deviation() <= 1e-10 and res.slackness_deviation() <= 1e-8


@pytest.mark.parametrize(
    "how",
    [copy.deepcopy, lambda res: pickle.loads(pickle.dumps(res))],
    ids=["deepcopy", "pickle"],
)
@pytest.mark.parametrize("swap", [False, True])
def test_results_round_trip_with_the_same_bytes(how, swap):
    rng = np.random.default_rng(3)
    a, b = random_copula((0, 1, 2), 3, rng), make_comonotone((0, 1, 2), 3)
    res = transport_plan(*((b, a) if swap else (a, b)))
    twin = how(res)
    assert type(twin) is type(res) and twin.value.hex() == res.value.hex()
    assert (twin.pivots, twin.degenerate_pivots) == (res.pivots, res.degenerate_pivots)
    for name in ARRAYS:
        assert getattr(twin, name).tobytes() == getattr(res, name).tobytes(), name


def stored_arrays(res):
    """Every array an attribute of ``res`` holds, also inside a tuple or a list."""
    found, stack = [], list(vars(res).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (tuple, list)):
            stack += value
    return found


@pytest.mark.parametrize("d, order, bound", [(2, 16, 64 * 1024), (3, 8, 128 * 1024)])
def test_a_result_stores_no_dense_matrix(d, order, bound):
    rng = np.random.default_rng(order)
    labels = tuple(range(d))
    res = transport_plan(random_copula(labels, order, rng), random_copula(labels, order, rng))
    cells = res.row_masses.size * res.col_masses.size
    assert cells == order ** (2 * d)
    arrays = stored_arrays(res)
    assert all(arr.size < cells for arr in arrays)
    assert sum(arr.nbytes for arr in arrays) < bound
