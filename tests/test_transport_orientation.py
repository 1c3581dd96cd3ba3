"""``transport_plan`` in both argument orders, and its certificate check.

The solve runs in one canonical order; the other order gets the exact
transpose: ``plan`` and ``cost`` transposed bit for bit, row and column
potentials and masses exchanged, the same ``value`` and ``pivots``.  A solver
that hands back a broken plan or broken duals is caught by the feasibility or
the slackness check, whichever the argument order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    InternalError,
    TensorMeasure,
    make_comonotone,
    make_countermonotone,
    to_tensor_measure,
    topology,
    transport_plan,
)
from test_measure_core import copula_pairs, draw_copula
from test_transport_reduction import pool_tensor

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def same_array(x, y):
    assert x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_transposes(a, b):
    ab, ba = transport_plan(a, b), transport_plan(b, a)
    assert ab.value.hex() == ba.value.hex() and ab.pivots == ba.pivots
    same_array(ab.plan.T, ba.plan)
    same_array(ab.cost.T, ba.cost)
    same_array(ab.row_potentials, ba.col_potentials)
    same_array(ab.col_potentials, ba.row_potentials)
    same_array(ab.row_masses, ba.col_masses)
    same_array(ab.col_masses, ba.row_masses)
    for res in (ab, ba):
        assert res.plan.flags.c_contiguous and res.cost.flags.c_contiguous


@SETTINGS
@given(copula_pairs)
@example((2, 6, "comonotone", "random", 3))
@example((3, 4, "random", "independence", 11))
def test_copula_pairs_transpose_exactly(case):
    d, order, kind_a, kind_b, seed = case
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    a, b = draw_copula(kind_a, labels, order, rng), draw_copula(kind_b, labels, order, rng)
    assert_transposes(a, b)
    assert_transposes(a, to_tensor_measure(b))


@SETTINGS
@given(st.integers(1, 2), st.sampled_from([0.0, 0.5]), st.integers(0, 2**32 - 1))
def test_tensors_on_different_grids_transpose_exactly(dims, shift, seed):
    rng = np.random.default_rng(seed)
    assert_transposes(pool_tensor(rng, dims, 0.0), pool_tensor(rng, dims, shift))


def test_a_measure_against_itself_is_its_own_transpose():
    c = make_comonotone((0, 1), 5)
    assert_transposes(c, c)


#: the library's solver, held before any test patches the module global
SOLVE = topology._solve_transport


def broken_plan(a, b, cost, least_cost):
    res = SOLVE(a, b, cost, least_cost)
    res.plan[0, 0] += 0.25
    return res


def broken_duals(a, b, cost, least_cost):
    # one column's dual moved alone: the c-transform keeps the duals feasible,
    # so complementary slackness is what breaks (a uniform shift would cancel)
    res = SOLVE(a, b, cost, least_cost)
    res.col_potentials[0] -= 10.0
    return res


#: pairs whose reduced problem has at least two columns
PAIRS = [
    (make_comonotone((0, 1), 3), make_countermonotone((0, 1), 3)),
    (
        TensorMeasure((0,), ([0.0, 1.0],), [0.5, 0.5]),
        TensorMeasure((0,), ([0.5, 2.0],), [0.5, 0.5]),
    ),
    (
        TensorMeasure((0,), ([-1.0, 0.0, 1.0],), [0.25, 0.5, 0.25]),
        TensorMeasure((0,), ([0.0, 2.0, 3.0],), [0.25, 0.25, 0.5]),
    ),
]


@pytest.mark.parametrize(
    "solver, message",
    [
        (broken_plan, "^transport plan infeasible by "),
        (broken_duals, "^transport duals violate slackness by "),
    ],
)
@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_a_broken_solve_fails_its_certificate_in_both_orders(monkeypatch, solver, message, pair):
    a, b = PAIRS[pair]
    transport_plan(a, b), transport_plan(b, a)  # the unbroken solver passes
    monkeypatch.setattr(topology, "_solve_transport", solver)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(InternalError, match=message):
            transport_plan(x, y)
