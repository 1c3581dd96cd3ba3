"""Transport metrics and convergence probes for finite-dimensional laws.

The extended line is compactified by ``phi(x) = 1/2 + arctan(x)/pi`` and
distances between discrete measures are exact Wasserstein-1 values under the
ground metric ``max_j |phi(x_j) - phi(y_j)|``, solved as a minimum-cost
transportation problem with fully deterministic pivoting (most negative
reduced cost, lowest-index tie-breaks, lowest-index anti-cycling fallback).
The solver returns the plan together with dual potentials, and every call is
checked against its own feasibility and complementary-slackness certificate.

Families are compared by a capped, geometrically weighted sum of transport
distances over the canonical subset enumeration, which metrizes convergence
of the finite-dimensional members.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .copulas import CheckerboardCopula, fit_uniform_margins
from .errors import (
    CompatibilityError,
    ConfigurationError,
    DomainError,
    InternalError,
)
from .measures import ATOMIC, GridMeasure, Marginal, cdf_eval
from .projective import (
    ProjectiveFamily,
    canonical_subsets,
    family_from_copula,
    family_from_joint,
    family_member,
)
from .sklar import compose, discretize_joint


def phi(x: float) -> float:
    """Strictly increasing map of the extended line onto ``[0, 1]``."""
    return 0.5 + math.atan(float(x)) / math.pi


def phi_inv(t: float) -> float:
    """Inverse of :func:`phi`; the endpoints map to ``-inf`` and ``+inf``."""
    t = float(t)
    if math.isnan(t) or t < 0.0 or t > 1.0:
        raise DomainError(f"phi_inv argument {t!r} outside [0, 1]")
    if t == 0.0:
        return float("-inf")
    if t == 1.0:
        return float("inf")
    return math.tan(math.pi * (t - 0.5))


# ---------------------------------------------------------------------------
# exact transportation problem
# ---------------------------------------------------------------------------

_PIVOT_TOL = 1e-12
_FEASIBILITY_TOL = 1e-10
_SLACKNESS_TOL = 1e-8


@dataclass(eq=False)
class TransportResult:
    """Optimal plan, value, and dual certificate of one transport solve."""

    value: float
    plan: np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    cost: np.ndarray
    pivots: int

    def feasibility_deviation(self) -> float:
        row = float(np.max(np.abs(self.plan.sum(axis=1) - self.row_masses)))
        col = float(np.max(np.abs(self.plan.sum(axis=0) - self.col_masses)))
        return max(row, col)

    def slackness_deviation(self) -> float:
        rc = self.cost - self.row_potentials[:, None] - self.col_potentials[None, :]
        dual_feas = max(0.0, float(-rc.min()))
        on_support = np.abs(rc[self.plan > 1e-14])
        comp = float(on_support.max()) if on_support.size else 0.0
        return max(dual_feas, comp)


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


def _solve_transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> TransportResult:
    m, n = cost.shape
    plan = np.zeros((m, n))
    ra, rb = a.copy(), b.copy()
    basis = []
    i = j = 0
    while True:
        amt = ra[i] if ra[i] <= rb[j] else rb[j]
        plan[i, j] = amt
        ra[i] -= amt
        rb[j] -= amt
        basis.append((i, j))
        if i == m - 1 and j == n - 1:
            break
        if ra[i] == 0.0 and i < m - 1:
            i += 1
        elif j < n - 1:
            j += 1
        else:
            i += 1
    basis_set = set(basis)
    basis = sorted(basis_set)
    max_pivots = 50000 + 100 * (m + n)
    pivots = 0
    degenerate_run = 0
    blands_rule = False
    while True:
        u, v = _tree_potentials(basis, cost, m, n)
        rc = cost - u[:, None] - v[None, :]
        negative = rc < -_PIVOT_TOL
        if not negative.any():
            break
        if pivots >= max_pivots:
            raise InternalError("transport solver exceeded its pivot budget")
        # most negative reduced cost enters, ties and the leaving arc resolved
        # by lowest index; a long degenerate run flips to the lowest-index
        # entering rule outright, which cannot cycle
        if blands_rule:
            flat = int(np.argmax(negative))
        else:
            flat = int(np.argmin(rc))
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
            degenerate_run += 1
            if degenerate_run > 50 + m + n:
                blands_rule = True
        else:
            degenerate_run = 0
    u, v = _tree_potentials(basis, cost, m, n)
    value = float(np.sum(cost * plan))
    result = TransportResult(value, plan, u, v, a, b, cost, pivots)
    if result.feasibility_deviation() > _FEASIBILITY_TOL:
        raise InternalError(
            f"transport plan infeasible by {result.feasibility_deviation()!r}"
        )
    if result.slackness_deviation() > _SLACKNESS_TOL:
        raise InternalError(
            f"transport duals violate slackness by {result.slackness_deviation()!r}"
        )
    return result


def _support(t: GridMeasure):
    """Coordinates (in phi space) and masses of the strictly positive nodes."""
    mesh = np.meshgrid(*t.grid, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    masses = t.mass.ravel()
    keep = masses > 0.0
    phi_coords = np.vectorize(phi)(coords[keep])
    return phi_coords.reshape(-1, t.ndim), masses[keep]


def transport_plan(a: GridMeasure, b: GridMeasure) -> TransportResult:
    """Exact optimal transport between two measures on the same axes.

    Either side may be a tensor measure or a checkerboard copula; a copula
    is transported as atoms at its cell upper corners, exactly like its
    ``to_tensor_measure``.  The solve runs in a canonical argument order and
    is transposed back, so ``transport_distance(a, b)`` and
    ``transport_distance(b, a)`` are equal bit for bit.
    """
    if a.labels != b.labels:
        raise CompatibilityError(f"index subsets differ: {a.labels!r} vs {b.labels!r}")
    pa, ma = _support(a)
    pb, mb = _support(b)
    swap = (pb.tobytes(), mb.tobytes()) < (pa.tobytes(), ma.tobytes())
    if swap:
        pa, ma, pb, mb = pb, mb, pa, ma
    cost = np.max(np.abs(pa[:, None, :] - pb[None, :, :]), axis=2)
    result = _solve_transport(ma, mb, cost)
    if swap:
        result = TransportResult(
            value=result.value,
            plan=result.plan.T.copy(),
            row_potentials=result.col_potentials,
            col_potentials=result.row_potentials,
            row_masses=result.col_masses,
            col_masses=result.row_masses,
            cost=result.cost.T.copy(),
            pivots=result.pivots,
        )
    return result


def transport_distance(a: GridMeasure, b: GridMeasure) -> float:
    """Wasserstein-1 distance under the compactified max ground metric."""
    return transport_plan(a, b).value


# ---------------------------------------------------------------------------
# closed-form one-dimensional oracle
# ---------------------------------------------------------------------------


def _segment_line(m: Marginal, lo: float, hi: float):
    """Slope and intercept of the CDF on the open interval (lo, hi)."""
    if m.kind == ATOMIC:
        return 0.0, cdf_eval(m, lo)
    xs, fs = m.xs, m.fs
    if hi <= xs[0]:
        return 0.0, 0.0
    if lo >= xs[-1]:
        return 0.0, 1.0
    k = int(np.searchsorted(xs, lo, side="right")) - 1
    k = max(k, 0)
    alpha = (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
    return float(alpha), float(fs[k] - alpha * xs[k])


def _antiderivative(x: float, alpha: float, beta: float) -> float:
    # integral of (alpha*x + beta) * phi'(x) with phi'(x) = 1 / (pi (1 + x^2))
    return alpha * math.log1p(x * x) / (2.0 * math.pi) + beta * math.atan(x) / math.pi


def _piece_integral(lo: float, hi: float, alpha: float, beta: float) -> float:
    if alpha == 0.0:
        return abs(beta) * (phi(hi) - phi(lo))
    total = 0.0
    cuts = [lo]
    root = -beta / alpha
    if lo < root < hi:
        cuts.append(root)
    cuts.append(hi)
    for a_, b_ in zip(cuts[:-1], cuts[1:]):
        total += abs(_antiderivative(b_, alpha, beta) - _antiderivative(a_, alpha, beta))
    return total


def w1_one_dim(a: Marginal, b: Marginal) -> float:
    """Exact CDF-area form of the one-dimensional transport distance.

    Integrates ``|F_a - F_b|`` against the compactified length element, which
    equals the transport distance between the two laws under the phi ground
    metric.  Works for any mix of atomic and continuous marginals.
    """
    points = set()
    for m in (a, b):
        points.update(float(x) for x in m.xs if math.isfinite(x))
    cuts = sorted(points)
    segments = []
    if not cuts:
        segments.append((float("-inf"), float("inf")))
    else:
        segments.append((float("-inf"), cuts[0]))
        segments.extend(zip(cuts[:-1], cuts[1:]))
        segments.append((cuts[-1], float("inf")))
    total = 0.0
    for lo, hi in segments:
        aa, ba = _segment_line(a, lo, hi)
        ab, bb = _segment_line(b, lo, hi)
        total += _piece_integral(lo, hi, aa - ab, ba - bb)
    return total


# ---------------------------------------------------------------------------
# metrization of convergence of the finite-dimensional members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FddMetricConfig:
    """How many canonical subsets to compare and the per-term cap."""

    depth: int = 7
    term_cap: float = 1.0

    def __post_init__(self):
        if self.depth < 1:
            raise DomainError(f"depth must be >= 1, got {self.depth}")
        if not (self.term_cap > 0):
            raise DomainError("term cap must be positive")


def fdd_distance(
    f: ProjectiveFamily, g: ProjectiveFamily, config: FddMetricConfig = FddMetricConfig()
) -> float:
    """Capped geometric sum of member transport distances.

    Term ``k`` (one-based) contributes ``2**-k * min(cap, d_k)`` where ``d_k``
    is the transport distance between the members over the k-th canonical
    subset (copula members are transported directly, see
    :func:`transport_plan`), so the total is bounded by one and vanishes
    exactly when the compared members coincide.
    """
    if f.universe != g.universe:
        raise CompatibilityError("families live over different index universes")
    total = 0.0
    for k, subset in enumerate(
        itertools.islice(canonical_subsets(f.universe), config.depth), start=1
    ):
        d = transport_distance(family_member(f, subset), family_member(g, subset))
        total += 2.0 ** (-k) * min(config.term_cap, d)
    return total


# ---------------------------------------------------------------------------
# compactness and continuity probes
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CompactnessResult:
    indices: tuple
    representative_index: int
    representative: CheckerboardCopula
    num_clusters: int


def compactness_probe(seq: Sequence[CheckerboardCopula], eps: float) -> CompactnessResult:
    """Exhibit a near-constant subsequence by greedy max-norm clustering.

    Scans in order; each unassigned element anchors a cluster that absorbs all
    later unassigned elements within ``eps`` of it in max norm.  The largest
    cluster (first on ties) is returned as a strictly increasing index
    subsequence together with its anchor as the limit candidate.  With ``M``
    clusters found the subsequence has length at least ``ceil(N / M)``.
    """
    if not seq:
        raise DomainError("compactness probe needs a nonempty sequence")
    if not (eps > 0):
        raise DomainError("eps must be positive")
    first = seq[0]
    for c in seq[1:]:
        if c.labels != first.labels or c.order != first.order:
            raise CompatibilityError("sequence members must share labels and order")
    masses = [c.mass for c in seq]
    assigned = [False] * len(seq)
    clusters = []
    for i in range(len(seq)):
        if assigned[i]:
            continue
        members = [
            k
            for k in range(i, len(seq))
            if not assigned[k] and float(np.max(np.abs(masses[k] - masses[i]))) <= eps
        ]
        for k in members:
            assigned[k] = True
        clusters.append((i, members))
    anchor, members = max(clusters, key=lambda item: len(item[1]))
    return CompactnessResult(
        indices=tuple(members),
        representative_index=anchor,
        representative=seq[anchor],
        num_clusters=len(clusters),
    )


@dataclass(frozen=True)
class ContinuityStep:
    epsilon: float
    input_distance: float
    output_distance: float


@dataclass(frozen=True)
class ContinuityReport:
    steps: tuple

    def output_distances(self) -> tuple:
        return tuple(s.output_distance for s in self.steps)


def _perturb_marginal(m: Marginal, eps: float, direction: np.ndarray) -> Marginal:
    if m.kind == ATOMIC:
        ws = np.asarray(m.ws) * (1.0 + eps * direction)
        if np.any(ws < 0):
            raise ConfigurationError("perturbation drove an atom weight negative")
        ws = ws / ws.sum()
        return Marginal.atomic(list(zip(m.xs, ws)))
    gaps = np.diff(m.fs) * (1.0 + eps * direction)
    if np.any(gaps <= 0):
        raise ConfigurationError("perturbation broke strict monotonicity of the CDF")
    fs = np.concatenate(([0.0], np.cumsum(gaps / gaps.sum())))
    fs[-1] = 1.0
    return Marginal.continuous(list(zip(m.xs, fs)))


def _auto_grids(marginals: Mapping) -> dict:
    return {
        lab: np.asarray(m.xs)
        for lab, m in marginals.items()
        if m.kind != ATOMIC
    }


def continuity_probe(
    copula: CheckerboardCopula,
    marginals: Mapping,
    epsilons: Sequence[float],
    config: FddMetricConfig = FddMetricConfig(),
    seed: int = 0,
) -> ContinuityReport:
    """Measure how composed joints respond to shrinking input perturbations.

    A fixed random direction (from ``seed``) perturbs the copula tensor
    multiplicatively (then margins are refitted to uniform) and each
    marginal's masses; for every ``eps`` in the schedule the perturbed pair is
    composed and the distance between the perturbed and target joint families
    is reported next to the input-side distance.  Output distances shrink
    with the schedule and vanish at ``eps = 0``.
    """
    for eps in epsilons:
        if not (0.0 <= float(eps) < 1.0):
            raise ConfigurationError(
                f"perturbation size {eps!r} outside [0, 1); the copula tensor "
                "would lose positivity after renormalization"
            )
    rng = np.random.default_rng(seed)
    cop_dir = rng.uniform(-1.0, 1.0, size=copula.mass.shape)
    marg_dirs = {
        lab: rng.uniform(-1.0, 1.0, size=(len(m.xs) if m.kind == ATOMIC else len(m.xs) - 1))
        for lab, m in sorted(marginals.items(), key=lambda kv: str(kv[0]))
    }
    labels = copula.labels
    grids = _auto_grids(marginals)
    target_family = family_from_copula(copula)
    target_joint = discretize_joint(compose(target_family, marginals), labels, grids=grids)
    target_fdd = family_from_joint(target_joint)
    steps = []
    for eps in epsilons:
        eps = float(eps)
        if eps == 0.0:
            pert_copula = copula
            pert_marginals = dict(marginals)
        else:
            scaled = copula.mass * (1.0 + eps * cop_dir)
            pert_copula = CheckerboardCopula(
                labels, copula.order, fit_uniform_margins(scaled)
            )
            pert_marginals = {
                lab: _perturb_marginal(m, eps, marg_dirs[lab])
                for lab, m in marginals.items()
            }
        input_dist = transport_distance(pert_copula, copula)
        for lab, m in marginals.items():
            input_dist += w1_one_dim(pert_marginals[lab], m)
        pert_grids = _auto_grids(pert_marginals)
        pert_joint = discretize_joint(
            compose(family_from_copula(pert_copula), pert_marginals),
            labels,
            grids=pert_grids,
        )
        out = fdd_distance(family_from_joint(pert_joint), target_fdd, config)
        steps.append(ContinuityStep(eps, float(input_dist), float(out)))
    return ContinuityReport(tuple(steps))
