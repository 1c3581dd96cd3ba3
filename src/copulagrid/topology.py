"""Transport metrics and convergence probes for finite-dimensional laws.

The extended line is compactified by ``phi(x) = 1/2 + arctan(x)/pi`` and
distances between discrete measures are exact Wasserstein-1 values under the
ground metric ``max_j |phi(x_j) - phi(y_j)|``, solved as a minimum-cost
transportation problem by the network simplex method with fully deterministic
pivoting (a least-cost start, north-west on one-dimensional supports, most
negative reduced cost, lowest-index tie-breaks, lowest-index anti-cycling
fallback).  The basis is a spanning tree rooted at the first row, the solver's
only state: each other node carries its parent arc's flat cell, cost and flow,
and a pivot moves the subtree cut off by the leaving arc, handing the arcs
down the re-rooted chain, and re-prices only that subtree, writing its
potentials into the one buffer of doubles that numpy prices in place.  A
solve of 1,024 cells or more prices by candidate list: between two full
pricings it re-prices only the cells the last one found negative.  Costs
are read once per node, then once per pivot, so outside its pivots a call
costs one pass over the nodes and a few numpy calls per step.  The solver
returns a plain record: the dense plan of the problem it was given, written
with one store after the last pivot, both potentials, the pivots, the
degenerate ones, whether the lowest-index rule took over, and the full
pricings.
:func:`transport_plan` solves only the difference of the two measures,
certifies the plan and potentials of the full problem, and builds its result
in one call, with one storage: the plan's support and the supports'
coordinates, from which ``plan`` and ``cost`` are rebuilt on each access.  In
floating point ``phi`` rounds every ``|x|`` above about ``1e16`` to 0 or 1, so
the distances are pseudometrics.

Families are compared by a capped, geometrically weighted sum of transport
distances over the canonical subset enumeration, which metrizes convergence
of the finite-dimensional members.  A one-label term needs no simplex: on
the line the monotone plan is optimal, so the term is the area between the
two CDFs on the phi scale, and the potential that climbs where one CDF leads
certifies it by weak duality on every call.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .copulas import CheckerboardCopula, _checked_order, _checked_seed, _fit_stack
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


def _phi(x: float) -> float:
    # the formula's one owner; callers with checked floats map through it directly
    return 0.5 + math.atan(x) / math.pi


def phi(x: float) -> float:
    """Strictly increasing map of the extended line onto ``[0, 1]``."""
    x = _as_float(x, "phi argument")
    if math.isnan(x):
        raise DomainError("phi argument must not be NaN")
    return _phi(x)


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
#: the least-cost walk reads its sorted cells in blocks of this size, and a
#: solve of at least this many cells prices by candidate list
_CELL_BLOCK = 1024


#: the solver's record: the dense plan of the problem it was given, its duals and counters
_Solution = namedtuple(
    "_Solution",
    "value plan row_potentials col_potentials pivots degenerate_pivots lowest_index_rule"
    " full_pricings",
)


@dataclass(eq=False)
class TransportResult:
    """Optimal plan, value, and dual certificate of one :func:`transport_plan` solve.

    Its one storage is the plan's support (the flat indices and values of the
    entries whose bits are not zero, so a ``-0.0`` survives) and the two
    supports' phi coordinates, O((m + n) d) numbers.  ``plan`` and ``cost``
    build fresh C-contiguous m x n arrays on each access, so a caller who
    reads them often should keep the array.
    """

    value: float
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    row_masses: np.ndarray
    col_masses: np.ndarray
    pivots: int
    #: pivots that moved no flow; whether the lowest-index entering rule took
    #: over; pricings of every cell, the last one included
    degenerate_pivots: int
    lowest_index_rule: bool
    full_pricings: int
    _support: np.ndarray
    _support_mass: np.ndarray
    _cols_a: np.ndarray
    _cols_b: np.ndarray

    @property
    def plan(self) -> np.ndarray:
        plan = np.zeros((self.row_masses.size, self.col_masses.size))
        plan.put(self._support, self._support_mass)
        return plan

    @property
    def cost(self) -> np.ndarray:
        return _max_cost(self._cols_a, self._cols_b)

    def feasibility_deviation(self) -> float:
        return _feasibility_deviation(self.plan, self.row_masses, self.col_masses)

    def slackness_deviation(self) -> float:
        return _slackness_deviation(self.plan, self.cost, self.row_potentials, self.col_potentials)


def _feasibility_deviation(plan: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    row = abs(plan.sum(axis=1) - a).max()
    col = abs(plan.sum(axis=0) - b).max()
    return float(max(row, col))


def _slackness_deviation(plan: np.ndarray, cost: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    rc = cost - u[:, None] - v
    # dual feasibility, then complementary slackness on the support
    return float(max(0.0, -rc.min(), abs(rc[plan > 1e-14]).max(initial=0.0)))


def _max_cost(cols_a: np.ndarray, cols_b: np.ndarray) -> np.ndarray:
    """Max-norm distances between the points of ``(d, m)`` and ``(d, n)`` coordinates.

    Built axis by axis: a maximum is exact, and no (m, n, d) temporary is made.
    """
    cost = np.abs(np.subtract.outer(cols_a[0], cols_b[0]))
    for xa, xb in zip(cols_a[1:], cols_b[1:]):
        np.maximum(cost, np.abs(np.subtract.outer(xa, xb)), out=cost)
    return cost


def _solve_transport(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray, least_cost: bool
) -> _Solution:
    m, n = cost.shape
    # the basis is a spanning tree over rows 0..m-1 and columns m..m+n-1,
    # rooted at row 0 and kept between pivots; each other node carries its arc
    # to its parent: the arc's flat cell i * n + j, its cost and its flow.
    # One crossing-out walk lays it out: a cell whose row and column are both
    # left enters with flow min(ra[i], rb[j]) and crosses out its row (if it
    # keeps no more than the column and is not the last row, or the column is
    # the last) or else its column, hung from the cell's other end; the line
    # left is the root, and the chain up from row 0 is reversed.  Cells come
    # cheapest first (ties to the lowest flat index) from the stable argsort
    # in blocks; sorted 1-d supports have a Monge cost, on which the
    # north-west corner (the lowest row and column left) is already optimal
    ra, rb = a.tolist(), b.tolist()
    out, rows, cols = bytearray(m + n), m, n  # the crossed-out lines, and those left

    def cheapest():
        crossed, order = np.frombuffer(out, np.bool_), cost.argsort(axis=None, kind="stable")
        for k in range(0, m * n, _CELL_BLOCK):
            i, j = np.divmod(order[k : k + _CELL_BLOCK], n)
            keep = ~(crossed[i] | crossed[m + j])  # lines crossed out before the block
            yield from zip(i[keep].tolist(), j[keep].tolist())

    parent, flow, cell = [0] * (m + n), [0.0] * (m + n), [0] * (m + n)
    for i, j in cheapest() if least_cost else iter(lambda: (m - rows, n - cols), None):
        if out[i] or out[m + j]:
            continue
        amt = min(ra[i], rb[j])
        ra[i], rb[j] = ra[i] - amt, rb[j] - amt
        row = (ra[i] <= rb[j] and rows > 1) or cols == 1
        node, other = (i, m + j) if row else (m + j, i)
        rows, cols = rows - row, cols - (not row)
        out[node], parent[node], cell[node], flow[node] = 1, other, i * n + j, amt
        if rows + cols == 1:
            break
    chain = [0]
    while out[chain[-1]]:
        chain.append(parent[chain[-1]])
    for up, node in zip(chain[-2::-1], chain[:0:-1]):
        parent[node], cell[node], flow[node] = up, cell[up], flow[up]
    children = [[] for _ in range(m + n)]
    for node in range(1, m + n):
        children[parent[node]].append(node)
    depth = [0] * (m + n)
    # the tree walk writes potentials into one buffer that pricing reads in place
    pot = array("d", [0.0] * (m + n))
    potential = np.frombuffer(pot)
    u, v, ucol = potential[:m], potential[m:], potential[:m, None]
    # the arcs' costs, read once; a pivot hands them down the re-rooted chain
    arc_cost = cost.take(cell).tolist()

    def hang(stack):
        # a node's potential is its arc cost less its parent's potential, so
        # re-pricing a moved subtree top-down gives the same floats as
        # pricing the whole tree from the root
        for node in stack:
            up = parent[node]
            depth[node] = depth[up] + 1
            pot[node] = arc_cost[node] - pot[up]
            stack += children[node]

    hang(list(children[0]))
    rc = np.empty((m, n))
    max_pivots = _PIVOT_BUDGET + _PIVOT_BUDGET_PER_NODE * (m + n)
    pivots = degenerate = degenerate_run = full = 0
    blands_rule, listed = False, None
    while True:
        # most negative reduced cost enters, ties and the leaving arc resolved
        # by lowest index; a long degenerate run flips to the lowest-index
        # entering rule outright, which cannot cycle.  A solve of at least
        # _CELL_BLOCK cells lists the cells its last full pricing found
        # negative, in flat order, and re-prices only those, with the same
        # (cost - u) - v, until none is negative; then it prices every cell
        # again.  The lowest-index rule and smaller solves price every cell
        flat = -1
        if listed is not None:
            cells, listed_cost, at_row, at_col = listed
            r = listed_cost - potential.take(at_row) - potential.take(at_col)
            k = int(r.argmin())
            if r.item(k) < -_PIVOT_TOL:
                flat = cells.item(k)
        if flat < 0:
            np.subtract(cost, ucol, out=rc)
            np.subtract(rc, v, out=rc)
            full += 1
            flat = int(rc.argmin())
            if not rc.item(flat) < -_PIVOT_TOL:
                break
            if blands_rule:
                flat = int(np.argmax(rc < -_PIVOT_TOL))
            elif m * n >= _CELL_BLOCK:
                cells = np.flatnonzero(rc < -_PIVOT_TOL)
                at_row, at_col = np.divmod(cells, n)
                listed = cells, cost.take(cells), at_row, at_col + m
        if pivots >= max_pivots:
            raise InternalError("transport solver exceeded its pivot budget")
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
        leaving = min([k for k in losing if flow[k] == least], key=cell.__getitem__)
        theta = flow[leaving]
        for k in losing:
            flow[k] -= theta
        for k in cycle[1::2]:
            flow[k] += theta
        # cut the subtree below the leaving arc, re-root it at the entering
        # end inside it, and hang it from the entering end outside it; down
        # the chain each node hands its arc (flow, cell and cost) to the next,
        # and the first takes the entering arc, with theta
        at = cycle.index(leaving)
        if at < len(left):
            chain, outside = left[: at + 1], m + ej
        else:
            chain, outside = right[: len(cycle) - at], ei
        handed, handed_cell, handed_cost = theta, flat, cost.item(flat)
        for node in chain:
            children[parent[node]].remove(node)
            parent[node] = outside
            children[outside].append(node)
            flow[node], handed = handed, flow[node]
            cell[node], handed_cell = handed_cell, cell[node]
            arc_cost[node], handed_cost = handed_cost, arc_cost[node]
            outside = node
        hang([chain[0]])
        pivots += 1
        if theta == 0.0:
            degenerate += 1
            degenerate_run += 1
            if degenerate_run > _DEGENERATE_SLACK + m + n:
                blands_rule, listed = True, None
        else:
            degenerate_run = 0
    plan = np.zeros((m, n))
    plan.put(cell[1:], flow[1:])
    value = float((cost * plan).sum())
    return _Solution(value, plan, u.copy(), v.copy(), pivots, degenerate, blands_rule, full)


def _support(t: GridMeasure):
    """Phi-space coordinates ``(k, d)``, a transposed C array, and masses of the positive nodes."""
    keep = t.mass > 0.0
    axes = [np.array(list(map(_phi, axis.tolist()))) for axis in t.grid]
    return np.array([axis[k] for axis, k in zip(axes, keep.nonzero())]).T, t.mass[keep]


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
    cols_a, cols_b = pa.T, pb.T
    cost = _max_cost(cols_a, cols_b)
    m, n = cost.shape
    plan = np.zeros((m, n))
    ra, rb = ma.tolist(), mb.tolist()
    twin = [0] * n
    # greedy over the pairs exhausts one side of every point, also where
    # phi maps distinct grid points to one coordinate
    zi, zj = (cost == 0.0).nonzero()
    shared = []
    for i, j in zip(zi.tolist(), zj.tolist()):
        amt = min(ra[i], rb[j])
        shared.append(amt)
        ra[i] -= amt
        rb[j] -= amt
        twin[j] = i
    plan[zi, zj] = shared
    ra, rb = np.array(ra), np.array(rb)
    (rows,), (cols,) = (ra > 0.0).nonzero(), (rb > 0.0).nonzero()
    u, v = np.zeros(m), np.zeros(n)
    value, pivots, degenerate, bland, full = 0.0, 0, 0, False, 0
    # residual mass on one side only is rounding, below MASS_TOL: nothing to move
    if rows.size and cols.size:
        block = rows[:, None], cols
        value, reduced, _, v_cols, pivots, degenerate, bland, full = _solve_transport(
            ra[rows], rb[cols], cost[block], len(cols_a) > 1
        )
        plan[block] += reduced
        u = (cost[:, cols] - v_cols).min(axis=1)
        v = -u[twin]
        v[cols] = v_cols
    # the certificate runs on the dense arrays of the solved orientation
    deviation = _feasibility_deviation(plan, ma, mb)
    if deviation > _FEASIBILITY_TOL:
        raise InternalError(f"transport plan infeasible by {deviation!r}")
    deviation = _slackness_deviation(plan, cost, u, v)
    if deviation > _SLACKNESS_TOL:
        raise InternalError(f"transport duals violate slackness by {deviation!r}")
    # the result keeps every entry whose bits are not zero and the coordinates;
    # |x - y| = |y - x| exactly, so a swapped call's cost is rebuilt with the
    # roles exchanged and is the exact transpose
    flat = plan.ravel()
    (support,) = flat.view(np.uint64).nonzero()
    support_mass = flat[support]
    if swap:
        support = support % n * m + support // n  # cell i * n + j moves to j * m + i
        cols_a, cols_b, u, v, ma, mb = cols_b, cols_a, v, u, mb, ma
    return TransportResult(
        value, u, v, ma, mb, pivots, degenerate, bland, full, support, support_mass, cols_a, cols_b
    )


def transport_distance(a: GridMeasure, b: GridMeasure) -> float:
    """Wasserstein-1 distance under the compactified max ground metric."""
    return transport_plan(a, b).value


def _line_distance(a: GridMeasure, b: GridMeasure) -> float:
    """:func:`transport_distance` of two one-label measures, in closed form, certified.

    On the line the monotone plan is optimal (Vallender 1973), so the value
    is the area between the two CDFs on the phi scale: the sum of
    ``|F_a(t) - F_b(t)| * (t' - t)`` over consecutive support points ``t <
    t'`` of either measure.  The certificate is weak duality: the potential
    that climbs with slope one where ``F_b`` leads, falls where ``F_a``
    leads and is flat elsewhere is 1-Lipschitz, and it must price the mass
    difference at the area within ``_SLACKNESS_TOL``.  Each CDF sums its
    own masses, sorted by point and mass, and the area is summed left to
    right, so the value does not depend on the argument order, bit for bit.
    """
    atoms = sorted(
        (_phi(x), side, m)
        for side, t in enumerate((a, b))
        for x, m in zip(t.grid[0].tolist(), t.mass.tolist())
        if m > 0.0
    )
    cdf, sign = [0.0, 0.0], (1.0, -1.0)
    value = potential = dual = 0.0
    at = atoms[0][0]
    for x, side, m in atoms:
        if x != at:
            gap, lead = x - at, cdf[1] - cdf[0]
            value += abs(lead) * gap
            potential += gap if lead > 0.0 else -gap if lead < 0.0 else 0.0
            at = x
        cdf[side] += m
        dual += sign[side] * potential * m
    if abs(dual - value) > _SLACKNESS_TOL:
        raise InternalError(f"one-label transport potential misses the value by {dual - value!r}")
    return value


# ---------------------------------------------------------------------------
# closed-form one-dimensional oracle
# ---------------------------------------------------------------------------


def _segment_line(m: Marginal, lo: float, hi: float):
    """Slope and intercept of the CDF on (lo, hi), read as :func:`cdf_eval` reads its tables."""
    xs, fs = m.xs.data, m.fs.data
    k = bisect.bisect_right(xs, lo) - 1
    if k < 0:
        return 0.0, 0.0
    if m.kind == ATOMIC or k == len(xs) - 1:
        return 0.0, fs[k]
    alpha = (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
    return alpha, fs[k] - alpha * xs[k]


def _antiderivative(x: float, alpha: float, beta: float) -> float:
    # integral of (alpha*x + beta) * phi'(x) with phi'(x) = 1 / (pi (1 + x^2))
    return alpha * math.log1p(x * x) / (2.0 * math.pi) + beta * math.atan(x) / math.pi


def _piece_integral(lo: float, hi: float, alpha: float, beta: float) -> float:
    if alpha == 0.0:
        return abs(beta) * (_phi(hi) - _phi(lo))
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
        points.update(x for x in m.xs.data if math.isfinite(x))
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
    cap only absorbs rounding above one.  A term over one label is the area
    between the two members' CDFs on the phi scale (:func:`_line_distance`),
    certified by a potential that must price the mass difference at the
    same value within ``_SLACKNESS_TOL``; a term over more labels is solved
    and certified by :func:`transport_plan`.  Either check that fails raises
    :class:`InternalError`.
    """
    if f.universe != g.universe:
        raise CompatibilityError("families live over different index universes")
    if not isinstance(config, FddMetricConfig):
        raise ConfigurationError(f"config must be an FddMetricConfig, not {config!r}")
    total = 0.0
    # range, unlike islice, takes a depth beyond sys.maxsize
    for k, subset in zip(range(1, config.depth + 1), canonical_subsets(f.universe)):
        fm, gm = family_member(f, subset), family_member(g, subset)
        d = _line_distance(fm, gm) if len(subset) == 1 else transport_distance(fm, gm)
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
    seq = list(seq)  # read once: an iterator gives what its list gives
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
    multiplicatively (margins refitted to uniform, all steps in one stack) and each
    marginal's masses, drawn in :func:`canonical_labels` order; the input
    distance adds the marginals' terms in that order too, so relabeling that
    keeps the order, or a mapping in another insertion order, keeps the
    report bit for bit.  For every ``eps`` in the schedule the
    perturbed pair is composed and the distance between the perturbed and target
    joint families is reported next to the input-side distance.  Output
    distances shrink with the schedule and vanish at ``eps = 0``.  A
    marginal for a label outside the copula's would only add to the input
    distance, so it is refused before the target family is built.
    """
    epsilons = list(epsilons)  # read once: a generator gives what its list gives
    for eps in epsilons:
        if not (_real_number(eps) and 0.0 <= eps < 1.0):
            raise ConfigurationError(
                f"perturbation size {eps!r} outside [0, 1); the copula tensor "
                "would lose positivity after renormalization"
            )
    epsilons = [float(eps) for eps in epsilons]
    seed = _checked_seed(seed)
    compose(family_from_copula(copula), marginals)  # refuses missing and non-Marginal values
    rng = np.random.default_rng(seed)
    cop_dir = rng.uniform(-1.0, 1.0, size=copula.mass.shape)
    labels = canonical_labels(marginals)
    unread = [lab for lab in labels if lab not in copula.labels]
    if unread:
        raise ConfigurationError(f"marginals for labels {unread!r} that the copula does not read")
    target_fdd = _joint_family(copula, marginals)
    marg_dirs = {
        lab: rng.uniform(-1.0, 1.0, size=(len(m.xs) if m.kind == ATOMIC else len(m.xs) - 1))
        for lab, m in ((lab, marginals[lab]) for lab in labels)
    }
    moved = [eps for eps in epsilons if eps != 0.0]
    fitted = iter(_fit_stack(copula.mass * (1.0 + np.multiply.outer(moved, cop_dir))))
    steps = []
    for eps in epsilons:
        if eps == 0.0:
            pert_copula = copula
            pert_marginals = dict(marginals)
        else:
            pert_copula = CheckerboardCopula(copula.labels, copula.order, next(fitted))
            pert_marginals = {
                lab: _perturb_marginal(m, eps, marg_dirs[lab])
                for lab, m in marginals.items()
            }
        input_dist = transport_distance(pert_copula, copula)
        for lab in labels:
            input_dist += w1_one_dim(pert_marginals[lab], marginals[lab])
        out = fdd_distance(_joint_family(pert_copula, pert_marginals), target_fdd, config)
        steps.append(ContinuityStep(eps, float(input_dist), float(out)))
    return ContinuityReport(tuple(steps))
