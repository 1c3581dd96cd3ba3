"""Transport metrics and convergence probes for finite-dimensional laws.

The extended line is compactified by ``phi(x) = 1/2 + arctan(x)/pi`` and
distances between discrete measures are exact Wasserstein-1 values under the
ground metric ``max_j |phi(x_j) - phi(y_j)|``, solved as a minimum-cost
transportation problem by the network simplex method with fully
deterministic pivoting (north-west corner start, most negative reduced cost,
lowest-index tie-breaks, lowest-index anti-cycling fallback).  The basis is a
spanning tree rooted at the first row, the solver's only state: each other
node carries its parent arc's flow, and a pivot moves the subtree cut off by
the leaving arc, flows and all, and re-prices only that subtree, writing its
potentials into the one buffer of doubles that numpy prices in place.  The
plan is written once, after the last pivot; the result counts the pivots,
the degenerate ones, and whether the lowest-index rule took over.
:func:`transport_plan` solves only the difference of the two measures and
returns the certified plan and dual potentials of the full problem.  In
floating point ``phi`` rounds every ``|x|`` above about ``1e16`` to 0 or 1,
so the distances are pseudometrics.

Families are compared by a capped, geometrically weighted sum of transport
distances over the canonical subset enumeration, which metrizes convergence
of the finite-dimensional members.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .copulas import CheckerboardCopula, _checked_order, _checked_seed, fit_uniform_margins
from .errors import (
    CompatibilityError,
    ConfigurationError,
    DomainError,
    InternalError,
)
from .measures import ATOMIC, GridMeasure, Marginal, _as_float, _real_number, canonical_labels
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
    x = _as_float(x, "phi argument")
    if math.isnan(x):
        raise DomainError("phi argument must not be NaN")
    return 0.5 + math.atan(x) / math.pi


def phi_inv(t: float) -> float:
    """Inverse of :func:`phi`; the endpoints map to ``-inf`` and ``+inf``."""
    t = _as_float(t, "phi_inv argument")
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
#: pivot budget of one solve: a base plus an allowance per row and column
_PIVOT_BUDGET = 50000
_PIVOT_BUDGET_PER_NODE = 100
#: degenerate pivots in a row, beyond one per row and column, before the
#: lowest-index entering rule takes over
_DEGENERATE_SLACK = 50


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
    #: pivots that moved no flow; whether the lowest-index entering rule took over
    degenerate_pivots: int = 0
    lowest_index_rule: bool = False

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


def _solve_transport(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> TransportResult:
    m, n = cost.shape
    # the basis is a spanning tree over rows 0..m-1 and columns m..m+n-1,
    # rooted at row 0 and kept between pivots; each other node carries the flow
    # of its arc to its parent, and the plan is written once after the last
    # pivot.  The north-west corner lays the tree out as a staircase, each new
    # node hanging from the previous one, the first (column 0) from row 0
    ra, rb = a.tolist(), b.tolist()
    parent = [0] * (m + n)
    flow = [0.0] * (m + n)
    children = [[] for _ in range(m + n)]
    children[0].append(m)
    node, i, j = m, 0, 0
    while True:
        flow[node] = amt = min(ra[i], rb[j])
        ra[i] -= amt
        rb[j] -= amt
        if i == m - 1 and j == n - 1:
            break
        if (ra[i] == 0.0 and i < m - 1) or j == n - 1:
            i += 1
            node, parent[i] = i, m + j
        else:
            j += 1
            node, parent[m + j] = m + j, i
        children[parent[node]].append(node)
    depth = [0] * (m + n)
    # the tree walk writes potentials into one buffer that pricing reads in place
    pot = array("d", [0.0] * (m + n))
    potential = np.frombuffer(pot)
    u, v, ucol = potential[:m], potential[m:], potential[:m, None]
    # arc_cost[k][p]: the cost of the arc between node k and its parent p
    arc_cost = [[0.0] * m + row for row in cost.tolist()] + cost.T.tolist()

    def arc(node):
        up = parent[node]
        return (node, up - m) if node < m else (up, node - m)

    def hang(stack):
        # a node's potential is its arc cost less its parent's potential, so
        # re-pricing a moved subtree top-down gives the same floats as
        # pricing the whole tree from the root
        for node in stack:
            up = parent[node]
            depth[node] = depth[up] + 1
            pot[node] = arc_cost[node][up] - pot[up]
            stack += children[node]

    # the staircase can hang several columns from row 0: price them all
    hang(list(children[0]))
    rc = np.empty((m, n))
    max_pivots = _PIVOT_BUDGET + _PIVOT_BUDGET_PER_NODE * (m + n)
    pivots = degenerate = degenerate_run = 0
    blands_rule = False
    while True:
        np.subtract(cost, ucol, out=rc)
        np.subtract(rc, v, out=rc)
        flat = int(rc.argmin())
        if not rc.item(flat) < -_PIVOT_TOL:
            break
        if pivots >= max_pivots:
            raise InternalError("transport solver exceeded its pivot budget")
        # most negative reduced cost enters, ties and the leaving arc resolved
        # by lowest index; a long degenerate run flips to the lowest-index
        # entering rule outright, which cannot cycle
        if blands_rule:
            flat = int(np.argmax(rc < -_PIVOT_TOL))
        ei, ej = divmod(flat, n)
        # the cycle closed by the entering arc: both ends climb to their
        # meeting node, each tree node standing for the arc to its parent;
        # flow leaves the arcs at even positions and joins those at odd ones
        x, y = ei, m + ej
        left, right = [], []
        while x != y:
            if depth[x] >= depth[y]:
                left.append(x)
                x = parent[x]
            else:
                right.append(y)
                y = parent[y]
        cycle = left + right[::-1]
        losing = cycle[0::2]
        least = min([flow[k] for k in losing])
        leaving = min([k for k in losing if flow[k] == least], key=arc)
        theta = flow[leaving]
        for k in losing:
            flow[k] -= theta
        for k in cycle[1::2]:
            flow[k] += theta
        # cut the subtree below the leaving arc, re-root it at the entering
        # end inside it, and hang it from the entering end outside it; down
        # the chain each node hands its flow to the next, the first takes theta
        at = cycle.index(leaving)
        if at < len(left):
            chain, outside = left[: at + 1], m + ej
        else:
            chain, outside = right[: len(cycle) - at], ei
        handed = theta
        for node in chain:
            children[parent[node]].remove(node)
            parent[node] = outside
            children[outside].append(node)
            flow[node], handed = handed, flow[node]
            outside = node
        hang([chain[0]])
        pivots += 1
        if theta == 0.0:
            degenerate += 1
            degenerate_run += 1
            if degenerate_run > _DEGENERATE_SLACK + m + n:
                blands_rule = True
        else:
            degenerate_run = 0
    plan = np.zeros((m, n))
    for node in range(1, m + n):
        plan[arc(node)] = flow[node]
    value = float(np.sum(cost * plan))
    return TransportResult(
        value, plan, u.copy(), v.copy(), a, b, cost, pivots, degenerate, blands_rule
    )


def _support(t: GridMeasure):
    """Coordinates (in phi space) and masses of the strictly positive nodes."""
    axes = [np.array([phi(x) for x in axis.tolist()]) for axis in t.grid]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=1)
    masses = t.mass.ravel()
    keep = masses > 0.0
    return coords[keep], masses[keep]


def transport_plan(a: GridMeasure, b: GridMeasure) -> TransportResult:
    """Exact optimal transport between two measures on the same axes.

    Either side may be a tensor measure or a checkerboard copula, which is
    transported as atoms at its cell upper corners (its ``to_tensor_measure``).
    The solve runs in a canonical argument order and is transposed back, so
    ``transport_distance(a, b) == transport_distance(b, a)`` bit for bit.

    Under a metric cost some optimal plan keeps ``min(a_x, b_x)`` at every
    common point (a zero-cost pair: equal phi coordinates) and the value
    depends on ``a - b`` alone (Kantorovich-Rubinstein), so only the rows and
    columns with mass left over are solved.  Rows take ``f``, the c-transform
    of the reduced column duals, and columns ``-f``: a reduced column already
    has ``f = -v``, every other column sits on a row point.  ``f`` is
    1-Lipschitz, so the returned plan, potentials, masses and cost certify
    the full problem; feasibility and complementary slackness are checked on
    every call.  :func:`phi` sends every ``|x|`` above about ``1e16`` to
    exactly 0 or 1, so distinct points can share a coordinate: the distance
    is a pseudometric.
    """
    if a.labels != b.labels:
        raise CompatibilityError(f"index subsets differ: {a.labels!r} vs {b.labels!r}")
    pa, ma = _support(a)
    pb, mb = _support(b)
    swap = (pb.tobytes(), mb.tobytes()) < (pa.tobytes(), ma.tobytes())
    if swap:
        pa, ma, pb, mb = pb, mb, pa, ma
    # the max-norm cost axis by axis: a maximum is exact, and no (m, n, d) temporary is made
    cols_a, cols_b = np.ascontiguousarray(pa.T), np.ascontiguousarray(pb.T)
    cost = np.abs(np.subtract.outer(cols_a[0], cols_b[0]))
    for xa, xb in zip(cols_a[1:], cols_b[1:]):
        np.maximum(cost, np.abs(np.subtract.outer(xa, xb)), out=cost)
    m, n = cost.shape
    plan = np.zeros((m, n))
    ra, rb = ma.tolist(), mb.tolist()
    twin = [0] * n
    # greedy over the pairs exhausts one side of every point, also where
    # phi maps distinct grid points to one coordinate
    for i, j in np.argwhere(cost == 0.0).tolist():
        shared = min(ra[i], rb[j])
        plan[i, j] = shared
        ra[i] -= shared
        rb[j] -= shared
        twin[j] = i
    ra, rb = np.array(ra), np.array(rb)
    rows, cols = np.flatnonzero(ra > 0.0), np.flatnonzero(rb > 0.0)
    u, v = np.zeros(m), np.zeros(n)
    value, pivots, degenerate, bland = 0.0, 0, 0, False
    # residual mass on one side only is rounding, below MASS_TOL: nothing to move
    if rows.size and cols.size:
        reduced = _solve_transport(ra[rows], rb[cols], cost[np.ix_(rows, cols)])
        plan[np.ix_(rows, cols)] += reduced.plan
        u = np.min(cost[:, cols] - reduced.col_potentials, axis=1)
        v = -u[twin]
        v[cols] = reduced.col_potentials
        value, pivots = reduced.value, reduced.pivots
        degenerate, bland = reduced.degenerate_pivots, reduced.lowest_index_rule
    if swap:
        plan, cost, u, v, ma, mb = plan.T.copy(), cost.T.copy(), v, u, mb, ma
    result = TransportResult(value, plan, u, v, ma, mb, cost, pivots, degenerate, bland)
    deviation = result.feasibility_deviation()
    if deviation > _FEASIBILITY_TOL:
        raise InternalError(f"transport plan infeasible by {deviation!r}")
    deviation = result.slackness_deviation()
    if deviation > _SLACKNESS_TOL:
        raise InternalError(f"transport duals violate slackness by {deviation!r}")
    return result


def transport_distance(a: GridMeasure, b: GridMeasure) -> float:
    """Wasserstein-1 distance under the compactified max ground metric."""
    return transport_plan(a, b).value


# ---------------------------------------------------------------------------
# closed-form one-dimensional oracle
# ---------------------------------------------------------------------------


def _segment_line(m: Marginal, lo: float, hi: float):
    """Slope and intercept of the CDF on the open interval (lo, hi)."""
    xs, fs = m.xs, m.fs
    k = int(np.searchsorted(xs, lo, side="right")) - 1
    if k < 0:
        return 0.0, 0.0
    if m.kind == ATOMIC or k == len(xs) - 1:
        return 0.0, float(fs[k])
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
    cuts = [float("-inf")] + sorted(points) + [float("inf")]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        aa, ba = _segment_line(a, lo, hi)
        ab, bb = _segment_line(b, lo, hi)
        total += _piece_integral(lo, hi, aa - ab, ba - bb)
    return total


# ---------------------------------------------------------------------------
# metrization of convergence of the finite-dimensional members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FddMetricConfig:
    """How many canonical subsets to compare."""

    depth: int = 7

    def __post_init__(self):
        object.__setattr__(self, "depth", _checked_order(self.depth, "depth"))


def fdd_distance(
    f: ProjectiveFamily, g: ProjectiveFamily, config: FddMetricConfig = FddMetricConfig()
) -> float:
    """Capped geometric sum of member transport distances.

    Term ``k`` (one-based) contributes ``2**-k * min(1, d_k)`` where ``d_k``
    is the transport distance between the members over the k-th canonical
    subset (copula members are transported directly, see
    :func:`transport_plan`), so the total is bounded by one; it vanishes when
    the members coincide and, being a pseudometric (see :func:`transport_plan`),
    may vanish when they differ.  The ground metric is bounded by one, so the
    cap only absorbs rounding above one.
    """
    if f.universe != g.universe:
        raise CompatibilityError("families live over different index universes")
    total = 0.0
    for k, subset in enumerate(
        itertools.islice(canonical_subsets(f.universe), config.depth), start=1
    ):
        d = transport_distance(family_member(f, subset), family_member(g, subset))
        total += 2.0 ** (-k) * min(1.0, d)
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


def _checked_eps(eps: float) -> None:
    """Refuse a clustering radius that is not a positive real number (NaN and bools included)."""
    if not (_real_number(eps) and eps > 0):
        raise DomainError("eps must be positive")


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
    _checked_eps(eps)
    first = seq[0]
    for c in seq[1:]:
        if c.labels != first.labels or c.order != first.order:
            raise CompatibilityError("sequence members must share labels and order")
    masses = np.stack([c.mass.ravel() for c in seq])
    free = list(range(len(seq)))  # the unassigned indices, in order
    clusters = []
    while free:
        # compared as Python floats: numpy overflows on a 10**400 eps and widens a float32 one
        near = np.abs(masses[free] - masses[free[0]]).max(axis=1).tolist()
        clusters.append((free[0], [k for k, d in zip(free, near) if d <= eps]))
        free = [k for k, d in zip(free, near) if not d <= eps]
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


def _joint_family(copula: CheckerboardCopula, marginals: Mapping) -> ProjectiveFamily:
    """Marginal family of ``copula`` composed with ``marginals``; continuous axes on knots."""
    grids = {lab: np.asarray(m.xs) for lab, m in marginals.items() if m.kind != ATOMIC}
    jm = compose(family_from_copula(copula), marginals)
    return family_from_joint(discretize_joint(jm, copula.labels, grids=grids))


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
    marginal's masses, drawn in :func:`canonical_labels` order, so relabeling
    that keeps the order keeps the report; for every ``eps`` in the schedule the
    perturbed pair is composed and the distance between the perturbed and target
    joint families is reported next to the input-side distance.  Output
    distances shrink with the schedule and vanish at ``eps = 0``.
    """
    for eps in epsilons:
        if not (_real_number(eps) and 0.0 <= eps < 1.0):
            raise ConfigurationError(
                f"perturbation size {eps!r} outside [0, 1); the copula tensor "
                "would lose positivity after renormalization"
            )
    seed = _checked_seed(seed)
    target_fdd = _joint_family(copula, marginals)
    rng = np.random.default_rng(seed)
    cop_dir = rng.uniform(-1.0, 1.0, size=copula.mass.shape)
    marg_dirs = {
        lab: rng.uniform(-1.0, 1.0, size=(len(m.xs) if m.kind == ATOMIC else len(m.xs) - 1))
        for lab, m in ((lab, marginals[lab]) for lab in canonical_labels(marginals))
    }
    steps = []
    for eps in epsilons:
        eps = float(eps)
        if eps == 0.0:
            pert_copula = copula
            pert_marginals = dict(marginals)
        else:
            scaled = copula.mass * (1.0 + eps * cop_dir)
            pert_copula = CheckerboardCopula(
                copula.labels, copula.order, fit_uniform_margins(scaled)
            )
            pert_marginals = {
                lab: _perturb_marginal(m, eps, marg_dirs[lab])
                for lab, m in marginals.items()
            }
        input_dist = transport_distance(pert_copula, copula)
        for lab, m in marginals.items():
            input_dist += w1_one_dim(pert_marginals[lab], m)
        out = fdd_distance(_joint_family(pert_copula, pert_marginals), target_fdd, config)
        steps.append(ContinuityStep(eps, float(input_dist), float(out)))
    return ContinuityReport(tuple(steps))
