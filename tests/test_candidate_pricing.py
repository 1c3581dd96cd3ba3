"""Candidate-list pricing in the transport simplex, against its reference and HiGHS.

A solve of at least ``topology._CELL_BLOCK`` (1,024) cells keeps the flat
indices of the cells its last full pricing found negative, in ascending
order, and re-prices only those until none is negative; then it prices every
cell again, so optimality is still decided on the full matrix.  Smaller
solves, and every pivot under the lowest-index rule, price every cell.
``full_pricings`` counts the pricings of every cell, the last one included, so
it is ``pivots + 1`` wherever the list is not used.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import make_comonotone, make_independence, random_copula, topology, transport_plan
from helpers import highs_optimum
from reference_transport import _solve_transport as reference_solve
from test_measure_core import draw_copula, same_bits
from test_transport_solver import integer_grid_tensor, permutation_copula


def check_solve(a, b, cost, least_cost=True):
    """One solve: HiGHS's value, both certificates, and the reference's bits and counters."""
    res = topology._solve_transport(a, b, cost, least_cost)
    assert abs(res.value - highs_optimum(cost, a, b)) <= 1e-9
    u, v = res.row_potentials, res.col_potentials
    assert topology._feasibility_deviation(res.plan, a, b) <= topology._FEASIBILITY_TOL
    assert topology._slackness_deviation(res.plan, cost, u, v) <= topology._SLACKNESS_TOL
    ref = reference_solve(a, b, cost, least_cost)
    same_bits(res, ref)
    assert (res.full_pricings, res.degenerate_pivots) == (ref.full_pricings, ref.degenerate_pivots)
    return res


def copula_problem(copula_a, copula_b):
    """The unreduced problem between two copulas' atoms: every positive cell a row or column."""
    pa, ma = topology._support(copula_a)
    pb, mb = topology._support(copula_b)
    return ma, mb, topology._max_cost(pa.T, pb.T)


def phi_points_problem(seed, m, n):
    """Random points of the unit square under the max-norm cost, with random masses."""
    rng = np.random.default_rng(seed)
    points_a, points_b = rng.uniform(size=(2, m)), rng.uniform(size=(2, n))
    a, b = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
    return a, b, topology._max_cost(points_a, points_b)


def zero_diagonal_problem(seed, n):
    """Equal masses, a zero diagonal and costs in ``{1/4, 1/2, 3/4, 1}`` elsewhere.

    The least-cost walk lays the diagonal first, whose plan costs 0 and so is
    optimal: the basis around it is not dual feasible, and every pivot from
    it is degenerate, the first one included.
    """
    rng = np.random.default_rng(seed)
    cost = rng.integers(1, 5, size=(n, n)) / 4.0
    np.fill_diagonal(cost, 0.0)
    return np.full(n, 1.0 / n), np.full(n, 1.0 / n), cost


def recorded_solves(pairs):
    """Each transport_plan result in both argument orders, with the solve it ran.

    A pair with no residual mass to move runs no solve and counts nothing.
    """
    solve, solves, out = topology._solve_transport, [], []

    def recording(a, b, cost, least_cost):
        solves.append((cost.size, solve(a, b, cost, least_cost)))
        return solves[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_solve_transport", recording)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                res = transport_plan(x, y)
                if solves:
                    out.append((res, *solves.pop()))
                else:
                    assert res.pivots == res.full_pricings == 0
    return out


def test_solves_under_1024_cells_price_every_cell_on_every_pivot():
    rng = np.random.default_rng(34)
    pairs = []
    for d, orders in ((2, range(1, 8)), (3, range(1, 4))):
        labels = tuple(range(d))
        for order in orders:
            pairs.append((random_copula(labels, order, rng), random_copula(labels, order, rng)))
            pairs.append((make_comonotone(labels, order), make_independence(labels, order)))
    pairs += [(integer_grid_tensor(rng, 2), integer_grid_tensor(rng, 2)) for _ in range(20)]
    pairs.append((permutation_copula([2, 0, 4, 1, 3]), make_independence((0, 1), 5)))
    solved = recorded_solves(pairs)
    assert sum(res.pivots for res, _, _ in solved) > 300
    for res, cells, inner in solved:
        assert cells < topology._CELL_BLOCK
        assert res.full_pricings == inner.full_pricings == res.pivots + 1
    # one cell short of the list: 31 x 33
    res = check_solve(*phi_points_problem(0, 31, 33))
    assert res.pivots > 10 and res.full_pricings == res.pivots + 1


def test_a_1024_cell_solve_runs_its_list_dry_with_a_negative_cell_outside_it():
    """32 x 32 cells take the list.  A full pricing that is neither the first
    nor the last found an entering cell after every listed cell had stopped
    being negative: stopping there would return a plan that is not optimal."""
    res = check_solve(*phi_points_problem(0, 32, 32))
    assert 3 <= res.full_pricings < res.pivots + 1
    assert res.full_pricings * 4 <= res.pivots


@pytest.mark.parametrize("n", [32, 36, 40])
def test_the_lowest_index_rule_prices_every_cell(monkeypatch, n):
    a, b, cost = zero_diagonal_problem(n, n)
    listed = check_solve(a, b, cost)
    assert listed.pivots > 0 and listed.full_pricings < listed.pivots + 1
    monkeypatch.setattr(topology, "_DEGENERATE_SLACK", -(10**6))
    res = topology._solve_transport(a, b, cost, True)
    # the first pivot is degenerate, and the lowest-index rule takes every later one
    assert res.value == 0.0 and res.degenerate_pivots == res.pivots > 0
    assert res.lowest_index_rule and res.full_pricings == res.pivots + 1
    u, v = res.row_potentials, res.col_potentials
    assert topology._slackness_deviation(res.plan, cost, u, v) <= topology._SLACKNESS_TOL


def test_order_14_to_16_copula_solves_price_in_full_at_most_once_in_four_pivots():
    pairs = []
    for order in (14, 15, 16):
        rng = np.random.default_rng([34, order])
        pairs.append((random_copula((0, 1), order, rng), random_copula((0, 1), order, rng)))
        pairs.append((make_comonotone((0, 1), order), random_copula((0, 1), order, rng)))
        pairs.append((make_independence((0, 1), order), random_copula((0, 1), order, rng)))
    for res, cells, inner in recorded_solves(pairs):
        assert cells >= topology._CELL_BLOCK
        assert res.full_pricings == inner.full_pricings
        assert 2 <= 4 * res.full_pricings <= res.pivots


kinds = st.sampled_from(["random", "independence"])
shapes = st.one_of(
    st.tuples(st.just(2), st.integers(8, 16)), st.tuples(st.just(3), st.integers(4, 6))
)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(shapes, kinds, kinds, st.integers(0, 2**32 - 1))
@example((2, 16), "random", "random", 0)
@example((3, 6), "random", "independence", 1)
def test_copula_problems_match_highs_and_the_reference(shape, kind_a, kind_b, seed):
    """2-d orders 8-16 and 3-d orders 4-6, unreduced: at least 4,096 cells."""
    d, order = shape
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    a, b, cost = copula_problem(
        draw_copula(kind_a, labels, order, rng), draw_copula(kind_b, labels, order, rng)
    )
    assert cost.size >= 4096
    check_solve(a, b, cost)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(32, 44), st.integers(32, 44), st.booleans(), st.integers(0, 2**32 - 1))
@example(32, 32, True, 2)
@example(44, 33, False, 3)
def test_tie_heavy_problems_match_highs_and_the_reference(m, n, least_cost, seed):
    """Integer costs in ``{0, 1/2, 1}`` and equal masses: zero flows in the
    first basis, and ties among the reduced costs, on 1,024 cells or more."""
    rng = np.random.default_rng(seed)
    cost = rng.integers(0, 3, size=(m, n)) / 2.0
    check_solve(np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost, least_cost)


def test_an_unreduced_256_by_256_copula_solve_matches_highs():
    """Two order-16 copulas' atoms, all 256 on each side: 65,536 cells, sparse constraints."""
    rng = np.random.default_rng(256)
    a, b, cost = copula_problem(random_copula((0, 1), 16, rng), make_independence((0, 1), 16))
    assert cost.shape == (256, 256)
    res = check_solve(a, b, cost)
    assert res.full_pricings < res.pivots + 1
