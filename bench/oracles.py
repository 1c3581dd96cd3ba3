"""Independent oracles for the benchmark's correctness checks.

Only numpy and scipy are used here, never copulagrid, so a defect in the
library cannot hide in its own check.  scipy is imported when this module is
first imported, which the benchmark does only after its timed loops and its
memory reading.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog

VERSION = scipy.__version__


def phi(x):
    """The compactification ``1/2 + arctan(x)/pi`` of the extended line."""
    return 0.5 + np.arctan(np.asarray(x, dtype=float)) / np.pi


def support(grid, mass):
    """phi coordinates and masses of the strictly positive nodes of a grid measure."""
    mesh = np.meshgrid(*[np.asarray(axis, dtype=float) for axis in grid], indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    weights = np.asarray(mass, dtype=float).ravel()
    keep = weights > 0.0
    return phi(coords[keep]), weights[keep]


#: HiGHS's tightest feasibility tolerances, since at its defaults (1e-7) the
#: optimum it reports can be off by more than the 1e-9 the benchmark checks
#: to; presolve finds nothing to remove in a transport problem and doubles
#: the solve time
HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "presolve": False,
}


def transport_value(pa, ma, pb, mb) -> float:
    """Exact W1 under the max ground metric, solved as an LP by HiGHS."""
    cost = np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    res = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([ma, mb]),
        bounds=(0, None),
        method="highs",
        options=HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def tensor_distance(grid_a, mass_a, grid_b, mass_b) -> float:
    return transport_value(*support(grid_a, mass_a), *support(grid_b, mass_b))


def canonical_subsets(labels, depth: int) -> list[tuple]:
    """The first ``depth`` subsets ordered by max label, then size, then lex."""
    out = []
    for top in range(len(labels)):
        for size in range(1, top + 2):
            for combo in itertools.combinations(range(top), size - 1):
                out.append(tuple(labels[i] for i in combo) + (labels[top],))
    return out[:depth]


def copula_margin(mass, labels, subset):
    """Cell masses of a checkerboard copula summed onto ``subset``."""
    others = tuple(i for i, lab in enumerate(labels) if lab not in subset)
    return np.asarray(mass, dtype=float).sum(axis=others) if others else np.asarray(mass)


def fdd_value(mass_f, mass_g, labels, order: int, depth: int, cap: float = 1.0) -> float:
    """Capped geometric sum of member distances of two copula families."""
    axis = np.arange(1, order + 1) / order
    total = 0.0
    for k, subset in enumerate(canonical_subsets(labels, depth), start=1):
        grid = [axis] * len(subset)
        d = tensor_distance(
            grid, copula_margin(mass_f, labels, subset),
            grid, copula_margin(mass_g, labels, subset),
        )
        total += 2.0 ** (-k) * min(cap, d)
    return total


def permutation_mass(perm) -> np.ndarray:
    n = len(perm)
    mass = np.zeros((n, n))
    for i, j in enumerate(perm):
        mass[i, j] = 1.0 / n
    return mass


def assignment_optimum(cost) -> float:
    """Maximum of the linear functional over the polytope, at an optimal assignment."""
    _, cols = linear_sum_assignment(cost, maximize=True)
    return float(np.sum(cost * permutation_mass(cols)))


def birkhoff_residuals(terms, mass) -> tuple[float, float]:
    """Deviation of the weight sum from one and of the rebuilt mass from ``mass``."""
    rebuilt = sum(w * permutation_mass(p) for w, p in terms)
    weight_dev = abs(sum(w for w, _ in terms) - 1.0)
    return weight_dev, float(np.max(np.abs(rebuilt - mass)))
