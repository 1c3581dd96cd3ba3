"""Shared random generators, brute-force oracles and runners for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from copulagrid import Marginal, TensorMeasure, birkhoff_decompose
from copulagrid.errors import UnsupportedError
from copulagrid.extremal import _DUST, _kuhn, _support_rows

SRC = Path(__file__).resolve().parents[1] / "src" / "copulagrid"

NEG_INF = float("-inf")
POS_INF = float("inf")


def random_atomic(rng, max_atoms=5, allow_inf=False):
    """Random atomic marginal with distinct sorted positions and Dirichlet weights."""
    k = int(rng.integers(1, max_atoms + 1))
    while True:
        xs = np.sort(rng.normal(size=k) * 2.0)
        if k == 1 or np.all(np.diff(xs) > 0):
            break
    xs = list(xs)
    if allow_inf:
        if rng.random() < 0.25:
            xs = [NEG_INF] + xs
        if rng.random() < 0.25:
            xs = xs + [POS_INF]
    ws = rng.dirichlet(np.ones(len(xs)))
    return Marginal.atomic(list(zip(xs, ws)))


def random_continuous(rng, max_knots=6):
    """Random strictly increasing piecewise-linear CDF on a finite interval."""
    k = int(rng.integers(2, max_knots + 1))
    while True:
        xs = np.sort(rng.normal(size=k) * 2.0)
        if k == 1 or np.all(np.diff(xs) > 0):
            break
    gaps = rng.uniform(0.1, 1.0, size=k - 1)
    fs = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    fs[-1] = 1.0
    return Marginal.continuous(list(zip(xs, fs)))


def random_marginal(rng, allow_inf=False):
    if rng.random() < 0.5:
        return random_atomic(rng, allow_inf=allow_inf)
    return random_continuous(rng)


def random_tensor(rng, labels, max_points=4):
    """Random tensor measure with distinct sorted grid points per axis."""
    grid = []
    for _ in labels:
        k = int(rng.integers(1, max_points + 1))
        while True:
            axis = np.sort(rng.normal(size=k) * 2.0)
            if k == 1 or np.all(np.diff(axis) > 0):
                break
        grid.append(axis)
    shape = tuple(len(axis) for axis in grid)
    mass = rng.dirichlet(np.ones(int(np.prod(shape)))).reshape(shape)
    return TensorMeasure(tuple(labels), tuple(grid), mass)


def brute_quantile(m, u):
    """Scan the definition inf { x : F(x) >= u } over atom positions."""
    assert m.kind == "atomic"
    total = 0.0
    for x, w in zip(m.xs, m.ws):
        total += w
        if total >= u or math.isclose(total, u, rel_tol=0, abs_tol=0):
            return float(x)
    return float(m.xs[-1])


def brute_cdf_tensor(t, point):
    """Nested-loop summation of masses dominated coordinatewise by the point."""
    total = 0.0
    for idx in np.ndindex(t.mass.shape):
        if all(t.grid[ax][i] <= point[ax] for ax, i in enumerate(idx)):
            total += t.mass[idx]
    return total


def brute_marginalize(t, labels):
    """Nested-loop projection of a tensor measure onto a label subset."""
    keep = [t.labels.index(lab) for lab in sorted(labels)]
    shape = tuple(t.mass.shape[ax] for ax in keep)
    out = np.zeros(shape)
    for idx in np.ndindex(t.mass.shape):
        out[tuple(idx[ax] for ax in keep)] += t.mass[idx]
    return out


def sources():
    """Name and text of each module in ``src/copulagrid``."""
    found = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "measures.py" in found, SRC
    return found


def run_python(*argv, cwd, **env):
    """``python *argv`` in ``cwd`` on ``src``, with ``env`` added to the environment;
    a process that hangs fails its test after 60 s."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), **env}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, timeout=60)


def run_cli(*argv, cwd, **env):
    """``python -m copulagrid.cli *argv``, run by :func:`run_python`."""
    return run_python("-m", "copulagrid.cli", *argv, cwd=cwd, **env)


def has_perfect_matching(support):
    """Independent oracle: a maximum assignment on the support reaches ``n``."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    if support.size == 0:
        return True
    rows, cols = linear_sum_assignment(-support.astype(float))
    return int(support[rows, cols].sum()) == support.shape[0]


def highs_optimum(cost, a, b):
    """Optimal value of the transport problem by HiGHS at tight tolerances.

    The (m + n) x mn equality constraints are built sparse, so an unreduced
    256 x 256 problem stays a few megabytes.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    sparse = pytest.importorskip("scipy.sparse")
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    lp = linprog(
        cost.ravel(),
        A_eq=sparse.vstack([rows, cols]).tocsr(),
        b_eq=np.concatenate([a, b]),
        bounds=(0, None),
        method="highs",
        options={
            "primal_feasibility_tolerance": 1e-10,
            "dual_feasibility_tolerance": 1e-10,
            "presolve": False,
        },
    )
    assert lp.status == 0, lp.message
    return lp.fun


def kuhn(adj, match, blocked=-1):
    """``extremal._kuhn`` from the matching ``match`` (column to row, ``-1`` where free) alone.

    The permutation, its flat cells and the bitmasks of the free rows and
    free columns, which ``birkhoff_decompose`` keeps from round to round,
    are read from ``match``.
    """
    n = len(adj)
    perm, flat = [-1] * n, [0] * n
    for col, row in enumerate(match):
        if row >= 0:
            perm[row] = col
    rows = sum(1 << row for row in range(n) if perm[row] < 0)
    vacant = sum(1 << col for col in range(n) if match[col] < 0)
    return _kuhn(adj, match, blocked, perm, flat, rows, vacant)


def perfect_matching(support, forced=(-1, -1)):
    """Perfect matching of the support, containing the edge ``forced`` if given.

    :func:`kuhn` from the matching that holds ``forced`` alone; the support
    is read once, into row bitmasks, by ``extremal._support_rows``.
    """
    i0, j0 = forced
    match = [i0 if col == j0 else -1 for col in range(len(support))]
    return kuhn(_support_rows(support), match, j0)


def without(support, i0, j0):
    return np.delete(np.delete(support, i0, axis=0), j0, axis=1)


NO_PERMUTATION = (
    UnsupportedError,
    "no permutation left: cells at or below 1e-13 strand the rest of the support",
)


def replay_birkhoff(c, terms):
    """Check Birkhoff terms of ``c`` by replaying their rounds; return each round's dropped cells.

    A round's support is its remainder's cells above ``_DUST``, which must sum
    above ``1e-12``, and its term a permutation of support cells (so of input
    cells above ``_DUST``) that passes through the smallest support cell
    whenever a perfect matching through it exists, by
    :func:`has_perfect_matching`.  Subtracting the term's smallest cell
    ``theta`` is the decomposition's own float arithmetic, so each weight must
    be ``n * theta`` over the sum of them, bit for bit, and the support left
    after the last round must sum to at most ``1e-12``.  The weights are
    positive and sum to one within ``1e-12``, there are at most
    ``n**2 - 2*n + 2`` of them, and their permutation copulas rebuild the
    mass within ``1e-12``.
    """
    n = c.order
    assert 1 <= len(terms) <= max(1, n * n - 2 * n + 2)
    work, rows = c.mass.copy(), np.arange(n)
    thetas, dropped = [], []
    for _, perm in terms:
        assert sorted(perm) == list(range(n))
        assert (c.mass[rows, perm] > _DUST).all()
        support = work > _DUST
        assert float(work[support].sum()) > 1e-12
        assert support[rows, perm].all()
        i0, j0 = divmod(int(np.where(support, work, np.inf).argmin()), n)
        if has_perfect_matching(without(support, i0, j0)):
            assert perm[i0] == j0
        before = work[rows, perm]
        theta = float(before.min())
        work[rows, perm] -= theta
        thetas.append(theta * n)
        dropped.append(before[work[rows, perm] <= _DUST].tolist())
    assert float(work[work > _DUST].sum()) <= 1e-12
    total = sum(thetas)
    weights = [w for w, _ in terms]
    assert [w.hex() for w in weights] == [(t / total).hex() for t in thetas]
    assert min(weights) > 0 and abs(sum(weights) - 1.0) <= 1e-12
    rebuilt = np.zeros((n, n))
    for w, perm in terms:
        rebuilt[rows, perm] += w / n
    assert float(np.max(np.abs(rebuilt - c.mass))) <= 1e-12
    return dropped


def gated_birkhoff(c):
    """``birkhoff_decompose(c)`` through :func:`replay_birkhoff`, or its refusal.

    Returns the rounds' dropped cells, or ``NO_PERMUTATION`` (type and message),
    the one refusal a doubly stochastic input may meet.
    """
    try:
        terms = birkhoff_decompose(c)
    except UnsupportedError as exc:
        assert (type(exc), str(exc)) == NO_PERMUTATION
        return NO_PERMUTATION
    return replay_birkhoff(c, terms)
