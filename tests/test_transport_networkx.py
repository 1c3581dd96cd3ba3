"""The transport solver against networkx's network simplex on the tie-heavy corpus."""

import numpy as np
import pytest

from copulagrid import transport_plan
from test_transport_solver import integer_grid_tensor

#: integer cost units per unit of the phi metric; rounding moves the value < 1e-12
COST_SCALE = 10**12


def integer_weights(mass):
    """Smallest-integer weights proportional to masses drawn from ``{0, 1, 2} / sum``."""
    q = mass / mass.min()
    assert np.array_equal(q, np.rint(q))
    return [int(x) for x in q]


def network_simplex_value(res):
    nx = pytest.importorskip("networkx")
    wa, wb = integer_weights(res.row_masses), integer_weights(res.col_masses)
    # scale each side by the other's total so both supply the same integer mass
    total = sum(wa) * sum(wb)
    g = nx.DiGraph()
    for i, w in enumerate(wa):
        g.add_node(("a", i), demand=-w * sum(wb))
    for j, w in enumerate(wb):
        g.add_node(("b", j), demand=w * sum(wa))
    for (i, j), c in np.ndenumerate(res.cost):
        g.add_edge(("a", i), ("b", j), weight=int(round(c * COST_SCALE)))
    flow_cost, _ = nx.network_simplex(g)
    return flow_cost / (COST_SCALE * total)


def test_tie_heavy_corpus_matches_network_simplex():
    pytest.importorskip("networkx")
    rng = np.random.default_rng(5)
    for _ in range(300):
        dims = int(rng.integers(1, 3))
        res = transport_plan(integer_grid_tensor(rng, dims), integer_grid_tensor(rng, dims))
        assert abs(res.value - network_simplex_value(res)) <= 1e-9
