"""The transport solver as it stood before the spanning tree was kept between pivots.

A test-only oracle: it rebuilds the basis tree from scratch on every pivot, so
it is slow, but it follows the same initial basis, pivot rules and float
operations as :func:`copulagrid.topology._solve_transport`, and returns the
same record.  It lays out the initial basis with its own plain crossing-out
walk (sets of the lines left, a stable ``sorted`` of the cells by cost),
which shares no code with the library's blocked argsort, and prices every
cell on every pivot, reading the candidate list as a mask over them.  The
two must agree bit for bit in value, plan, both potentials and the counts
of pivots and full pricings.
"""

from collections import deque

import numpy as np

from copulagrid.errors import InternalError
from copulagrid.topology import (
    _FEASIBILITY_TOL,
    _PIVOT_TOL,
    _SLACKNESS_TOL,
    _feasibility_deviation,
    _slackness_deviation,
    _Solution,
)


def _tree_potentials(basis, cost, m, n):
    adj = [[] for _ in range(m + n)]
    for i, j in basis:
        adj[i].append((m + j, (i, j)))
        adj[m + j].append((i, (i, j)))
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack = [0]
    seen = [False] * (m + n)
    seen[0] = True
    while stack:
        node = stack.pop()
        for nxt, (i, j) in adj[node]:
            if seen[nxt]:
                continue
            seen[nxt] = True
            if nxt >= m:
                v[nxt - m] = cost[i, j] - u[i]
            else:
                u[nxt] = cost[i, j] - v[j]
            stack.append(nxt)
    if not all(seen):
        raise InternalError("transport basis is not a spanning tree")
    return u, v


def _tree_path(basis, start, goal, m):
    adj = {}
    for i, j in basis:
        adj.setdefault(i, []).append((m + j, (i, j)))
        adj.setdefault(m + j, []).append((i, (i, j)))
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for nxt, arc in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, arc)
                queue.append(nxt)
    if goal not in parent:
        raise InternalError("transport basis lost connectivity")
    arcs = []
    node = goal
    while parent[node] is not None:
        node, arc = parent[node]
        arcs.append(arc)
    arcs.reverse()
    return arcs


def _solve_transport(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, least_cost: bool
) -> _Solution:
    m, n = cost.shape
    plan = np.zeros((m, n))
    ra, rb = a.copy(), b.copy()
    # the crossing-out walk, plainly: the lines not crossed out, and the cells
    # by cost with ties to the lowest flat index (sorted is stable), read once
    rows, cols = set(range(m)), set(range(n))
    pending = iter(sorted(range(m * n), key=lambda k: cost[k // n, k % n]))
    basis = []
    while len(basis) < m + n - 1:
        if least_cost:
            i, j = next(divmod(k, n) for k in pending if k // n in rows and k % n in cols)
        else:
            i, j = min(rows), min(cols)
        amt = ra[i] if ra[i] <= rb[j] else rb[j]
        plan[i, j] = amt
        ra[i] -= amt
        rb[j] -= amt
        basis.append((i, j))
        if (ra[i] <= rb[j] and len(rows) > 1) or len(cols) == 1:
            rows.remove(i)
        else:
            cols.remove(j)
    basis_set = set(basis)
    basis = sorted(basis_set)
    max_pivots = 50000 + 100 * (m + n)
    pivots = 0
    degenerate = 0
    degenerate_run = 0
    full_pricings = 0
    blands_rule = False
    # the cells negative at the last full pricing, on problems of at least
    # 1,024 cells and outside the lowest-index rule; None prices in full
    listed = None
    while True:
        u, v = _tree_potentials(basis, cost, m, n)
        rc = cost - u[:, None] - v[None, :]
        negative = rc < -_PIVOT_TOL
        # most negative reduced cost enters, ties and the leaving arc resolved
        # by lowest index; a long degenerate run flips to the lowest-index
        # entering rule outright, which cannot cycle
        if listed is not None and (negative & listed).any():
            # the most negative listed cell; ties to the lowest flat index
            flat = int(np.argmin(np.where(listed, rc, np.inf)))
        else:
            full_pricings += 1
            if not negative.any():
                break
            if blands_rule:
                flat = int(np.argmax(negative))
            else:
                flat = int(np.argmin(rc))
            if not blands_rule and m * n >= 1024:
                listed = negative
        if pivots >= max_pivots:
            raise InternalError("transport solver exceeded its pivot budget")
        ei, ej = divmod(flat, n)
        path = _tree_path(basis, ei, m + ej, m)
        minus = path[0::2]
        theta = min(plan[arc] for arc in minus)
        leaving = min(arc for arc in minus if plan[arc] == theta)
        for k, arc in enumerate(path):
            if k % 2 == 0:
                plan[arc] -= theta
            else:
                plan[arc] += theta
        plan[ei, ej] += theta
        basis_set.remove(leaving)
        basis_set.add((ei, ej))
        basis = sorted(basis_set)
        pivots += 1
        if theta == 0.0:
            degenerate += 1
            degenerate_run += 1
            if degenerate_run > 50 + m + n:
                blands_rule = True
                listed = None
        else:
            degenerate_run = 0
    u, v = _tree_potentials(basis, cost, m, n)
    value = float(np.sum(cost * plan))
    deviation = _feasibility_deviation(plan, a, b)
    if deviation > _FEASIBILITY_TOL:
        raise InternalError(f"transport plan infeasible by {deviation!r}")
    deviation = _slackness_deviation(plan, cost, u, v)
    if deviation > _SLACKNESS_TOL:
        raise InternalError(f"transport duals violate slackness by {deviation!r}")
    return _Solution(value, plan, u, v, pivots, degenerate, blands_rule, full_pricings)
