"""The spanning-tree transport solver against its slow reference and HiGHS."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CheckerboardCopula,
    CopulaGridError,
    InternalError,
    TensorMeasure,
    make_comonotone,
    make_countermonotone,
    make_independence,
    random_copula,
    topology,
    transport_plan,
)
from helpers import highs_optimum
from reference_transport import _solve_transport as reference_solve
from test_measure_core import draw_copula, same_bits


def check_against_reference(a, b):
    """Library and reference solver agree bit for bit, in both argument orders."""
    fast = [transport_plan(a, b), transport_plan(b, a)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(topology, "_solve_transport", reference_solve)
        slow = [transport_plan(a, b), transport_plan(b, a)]
    for r1, r2 in zip(fast, slow):
        same_bits(r1, r2)


def permutation_copula(perm):
    n = len(perm)
    mass = np.zeros((n, n))
    mass[np.arange(n), perm] = 1.0 / n
    return CheckerboardCopula((0, 1), n, mass)


def integer_grid_tensor(rng, dims):
    """Tie-heavy tensor: integer axis points, masses in ``{0, 1, 2} / sum``."""
    grid = []
    for _ in range(dims):
        k = int(rng.integers(1, 5))
        grid.append(np.sort(rng.choice(np.arange(-2, 3), size=k, replace=False)))
    shape = tuple(len(axis) for axis in grid)
    while True:
        weights = rng.integers(0, 3, size=shape).astype(float)
        if weights.sum() > 0:
            return TensorMeasure(tuple(range(dims)), tuple(grid), weights / weights.sum())


kinds = st.sampled_from(["random", "comonotone", "independence"])
copula_pairs = st.one_of(
    st.tuples(st.just(2), st.integers(1, 12), kinds, kinds, st.integers(0, 2**32 - 1)),
    st.tuples(st.just(3), st.integers(1, 5), kinds, kinds, st.integers(0, 2**32 - 1)),
)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(copula_pairs)
@example((2, 12, "random", "random", 0))
@example((3, 5, "random", "random", 1))
def test_copula_solves_match_reference_bitwise(case):
    d, order, kind_a, kind_b, seed = case
    rng = np.random.default_rng(seed)
    labels = tuple(range(d))
    check_against_reference(
        draw_copula(kind_a, labels, order, rng), draw_copula(kind_b, labels, order, rng)
    )


def test_tie_heavy_corpus_matches_reference_bitwise():
    rng = np.random.default_rng(3)
    labels = (0, 1)
    for order in range(1, 9):
        family = [
            make_independence(labels, order),
            make_comonotone(labels, order),
            make_countermonotone(labels, order),
            permutation_copula(rng.permutation(order)),
        ]
        for i, a in enumerate(family):
            for b in family[i + 1 :]:
                check_against_reference(a, b)
    for _ in range(60):
        dims = int(rng.integers(1, 3))
        check_against_reference(integer_grid_tensor(rng, dims), integer_grid_tensor(rng, dims))


@pytest.mark.parametrize("order", [14, 16])
def test_benchmark_order_copula_solves_match_reference_bitwise(order):
    """The 2-d orders the fdd-transport benchmark solves, past the corpus above."""
    for seed in range(2):
        rng = np.random.default_rng([order, seed])
        check_against_reference(
            random_copula((0, 1), order, rng), random_copula((0, 1), order, rng)
        )


def test_unreduced_problems_match_reference_bitwise():
    """The solver itself, without transport_plan's reduction, against its reference."""
    rng = np.random.default_rng(7)
    for k in range(400):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        m, n = (1 if k % 10 == 1 else m), (1 if k % 10 == 2 else n)
        rows = rng.integers(1, 4, size=m).astype(float)
        cols = rng.integers(1, 4, size=n).astype(float)
        if k % 3 == 0:
            rows[0] = 4.0 * n  # the staircase hangs several columns from row 0
        if k % 2:
            cost = rng.integers(0, 3, size=(m, n)) / 2.0
        else:
            cost = rng.uniform(size=(m, n))
        a, b = rows / rows.sum(), cols / cols.sum()
        for least_cost in (False, True):
            same_bits(
                topology._solve_transport(a, b, cost, least_cost),
                reference_solve(a, b, cost, least_cost),
            )


def assert_certified(res):
    assert res.feasibility_deviation() <= topology._FEASIBILITY_TOL
    assert res.slackness_deviation() <= topology._SLACKNESS_TOL


def test_tie_heavy_fuzz_corpus_matches_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(2024)
    for _ in range(400):
        dims = int(rng.integers(1, 3))
        res = transport_plan(integer_grid_tensor(rng, dims), integer_grid_tensor(rng, dims))
        highs = highs_optimum(res.cost, res.row_masses, res.col_masses)
        assert abs(res.value - highs) <= 1e-9
        assert_certified(res)


def test_pivot_budget_raises_typed_error(monkeypatch):
    rng = np.random.default_rng(11)
    a, b = random_copula((0, 1), 6, rng), random_copula((0, 1), 6, rng)
    assert transport_plan(a, b).pivots > 1
    monkeypatch.setattr(topology, "_PIVOT_BUDGET", 1)
    monkeypatch.setattr(topology, "_PIVOT_BUDGET_PER_NODE", 0)
    with pytest.raises(InternalError, match="pivot budget") as info:
        transport_plan(a, b)
    assert isinstance(info.value, CopulaGridError)


def test_lowest_index_rule_from_first_degenerate_pivot(monkeypatch):
    pytest.importorskip("scipy")
    a = permutation_copula([2, 0, 4, 1, 3])
    b = make_independence((0, 1), 5)
    default = transport_plan(a, b)
    monkeypatch.setattr(topology, "_DEGENERATE_SLACK", -(10**9))
    bland = transport_plan(a, b)
    assert bland.pivots != default.pivots
    assert bland.lowest_index_rule and not default.lowest_index_rule
    highs = highs_optimum(bland.cost, bland.row_masses, bland.col_masses)
    assert abs(bland.value - highs) <= 1e-9
    assert_certified(bland)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.booleans(), st.lists(st.integers(0, 2), min_size=1, max_size=12))
@example(True, [2, 0, 1, 0, 2, 1, 1])
@example(False, [0, 0, 0])
def test_a_single_line_takes_every_cell_in_any_order(one_row, costs):
    """One row or one column: the walk enters every cell, in the order the costs give.

    Tie-heavy integer costs in a random arrangement hand the walk a random cell
    order, and with equal masses on the long side the single line's residual
    ties with the last cell's mass, up to rounding.
    """
    pytest.importorskip("scipy")
    k = len(costs)
    cost = np.array(costs, dtype=float).reshape((1, k) if one_row else (k, 1)) / 2.0
    single, equal = np.ones(1), np.full(k, 1.0 / k)
    a, b = (single, equal) if one_row else (equal, single)
    res = topology._solve_transport(a, b, cost, True)
    assert topology._feasibility_deviation(res.plan, a, b) <= topology._FEASIBILITY_TOL
    u, v = res.row_potentials, res.col_potentials
    assert topology._slackness_deviation(res.plan, cost, u, v) <= topology._SLACKNESS_TOL
    assert abs(res.value - highs_optimum(cost, a, b)) <= 1e-9
    same_bits(res, reference_solve(a, b, cost, True))


def walk_corpus():
    """Random copula pairs at 2-d orders 6-16 and 3-d orders 3-6, one per order."""
    for d, orders in ((2, range(6, 17)), (3, range(3, 7))):
        for order in orders:
            rng = np.random.default_rng([d, order])
            labels = tuple(range(d))
            yield random_copula(labels, order, rng), random_copula(labels, order, rng)


#: total pivots of the corpus above from the north-west start, recorded before
#: the least-cost walk came in (the walk takes 1,756)
NORTH_WEST_PIVOTS = 3650


def test_the_least_cost_walk_saves_at_least_four_tenths_of_the_pivots():
    total = sum(transport_plan(a, b).pivots for a, b in walk_corpus())
    assert total <= 0.6 * NORTH_WEST_PIVOTS


def degenerate_square_problems():
    """Equal masses on square problems with costs in ``{0, 1/2, 1}``.

    Equal masses make the crossing-out walk put zero flows on the basis and
    ties are everywhere, so degenerate pivots come early: nine of the ten
    problems take one, and the lowest-index rule takes over there.
    """
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        cost = rng.integers(0, 3, size=(n, n)) / 2.0
        yield np.full(n, 1.0 / n), np.full(n, 1.0 / n), cost


# value and pivots of each problem above, and one SHA-256 over the plan and
# potential bytes of all ten, with the lowest-index rule from the first
# degenerate pivot on; from the least-cost start, with the values the
# north-west start gave bit for bit in 145 pivots
LOWEST_INDEX_PINS = [
    ("0x1.0000000000000p-4", 3),
    ("0x1.2492492492492p-4", 4),
    ("0x0.0p+0", 3),
    ("0x1.5555555555555p-1", 0),
    ("0x1.2492492492492p-3", 2),
    ("0x1.999999999999ap-3", 2),
    ("0x1.2492492492492p-3", 3),
    ("0x0.0p+0", 10),
    ("0x1.2492492492492p-3", 1),
    ("0x1.999999999999ap-4", 1),
]
LOWEST_INDEX_DIGEST = "9617b8599fddeb38dd32425e5acef7c273c5100c65bbf9e54416b13b0e35f517"


def test_lowest_index_path_keeps_its_pinned_bits(monkeypatch):
    # the reference hard-codes its degenerate slack and cannot take this path,
    # so pinned bits guard it instead
    monkeypatch.setattr(topology, "_DEGENERATE_SLACK", -(10**9))
    digest, seen, reached = hashlib.sha256(), [], 0
    for a, b, cost in degenerate_square_problems():
        res = topology._solve_transport(a, b, cost, True)
        for arr in (res.plan, res.row_potentials, res.col_potentials):
            digest.update(arr.tobytes())
        seen.append((res.value.hex(), res.pivots))
        assert res.lowest_index_rule == (res.degenerate_pivots > 0)
        reached += res.lowest_index_rule
        # the solver's record holds no masses or cost: certify it on the problem given
        u, v = res.row_potentials, res.col_potentials
        assert topology._feasibility_deviation(res.plan, a, b) <= topology._FEASIBILITY_TOL
        assert topology._slackness_deviation(res.plan, cost, u, v) <= topology._SLACKNESS_TOL
    assert seen == LOWEST_INDEX_PINS
    assert digest.hexdigest() == LOWEST_INDEX_DIGEST
    assert reached == 9


@pytest.mark.parametrize("slack", [topology._DEGENERATE_SLACK, -(10**9)])
def test_counters_come_from_the_reduced_solve_in_both_orders(monkeypatch, slack):
    solve, solves = topology._solve_transport, []

    def recording(a, b, cost, least_cost):
        solves.append(solve(a, b, cost, least_cost))
        return solves[-1]

    monkeypatch.setattr(topology, "_DEGENERATE_SLACK", slack)
    monkeypatch.setattr(topology, "_solve_transport", recording)
    a, b = permutation_copula([2, 0, 4, 1, 3]), make_independence((0, 1), 5)
    for res in (transport_plan(a, b), transport_plan(b, a)):
        inner = solves.pop()
        counters = (res.pivots, res.degenerate_pivots, res.lowest_index_rule)
        assert counters == (inner.pivots, inner.degenerate_pivots, inner.lowest_index_rule)
        assert 0 < res.degenerate_pivots < res.pivots
        assert res.lowest_index_rule == (slack < 0)


def test_results_do_not_share_potential_memory():
    rng = np.random.default_rng(17)
    a, b = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(7))
    cost = rng.uniform(size=(6, 7))
    first = topology._solve_transport(a, b, cost, True)
    cols = first.col_potentials.copy()
    first.row_potentials[:] = np.nan
    assert first.col_potentials.tobytes() == cols.tobytes()
    same_bits(topology._solve_transport(a, b, cost, True), reference_solve(a, b, cost, True))
