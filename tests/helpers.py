"""Shared random generators, brute-force oracles and runners for the test suite."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from copulagrid import Marginal, TensorMeasure

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


def run_cli(*argv, cwd, **env):
    """``python -m copulagrid.cli *argv`` in ``cwd`` on ``src``, with ``env`` added to the
    environment; a process that hangs fails its test after 60 s."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), **env}
    cmd = [sys.executable, "-m", "copulagrid.cli", *argv]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=60)
