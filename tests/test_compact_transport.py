"""``transport_plan`` results hold the plan's support and the supports' coordinates.

A basic optimal plan has at most ``m + n - 1`` cells beyond the shared-mass
pairs, and the cost is a function of the two supports' phi coordinates, so a
result keeps O((m + n) d) numbers and builds ``plan`` and ``cost`` on each
access.  A fixed corpus, solved in both argument orders, hashes to pinned
digests, so the built arrays carry the same bytes from one version to the next;
the 1-d pairs keep the digest of the north-west start, with no pivot.  A
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

#: SHA-256 of each corpus's results, recorded from the least-cost start with
#: candidate-list pricing on solves of 1,024 cells or more; every value is
#: within 1.4e-17 of full pricing's, which was within 2.3e-16 of the north-west start's
PINNED = {
    "2-d orders 1-16": "c1e92d0114f02701fcbdafa725f21d281b3e3d017b260fadb54ac3c0367722dd",
    "3-d orders 1-8": "57dd6d6f15673d359da2125565711f3b818dcbd15923136261d06073bb6eed2f",
    "tie-heavy integer grids": "fa205b3424b2506fad1d04f119ad670c2ca8b8ec103687c765ec0d476e0cddc8",
    "different grids": "5c85edc0a750116462909ad974f6a6d42a3fc8a97e35497425900fd9f56db1f0",
}

#: SHA-256 of the 1-d pairs of the tie-heavy and different-grids corpora,
#: recorded from the north-west start before the least-cost walk came in
ONE_DIM_PINNED = "315f5e124b8f16ba95415391032ab865fe79ab16f670d2818fdfa717144d4412"

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


def test_one_dimensional_solves_keep_the_north_west_bits_and_no_pivots():
    names = ("tie-heavy integer grids", "different grids")
    pairs = [(a, b) for name in names for a, b in CORPORA[name]() if a.ndim == 1]
    assert len(pairs) == 35
    assert all(transport_plan(x, y).pivots == 0 for a, b in pairs for x, y in ((a, b), (b, a)))
    assert result_digest(pairs) == ONE_DIM_PINNED


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
