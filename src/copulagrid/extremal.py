"""Extremal structure of the two-dimensional checkerboard polytope.

An order-``n`` checkerboard copula over two labels is, up to the factor
``n``, a doubly stochastic matrix; its extreme points are the ``n!``
permutation copulas.  This module decomposes a copula into a convex
combination of permutation copulas and maximizes convex functionals, where
the maximum over the polytope is attained at a permutation.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .copulas import CheckerboardCopula, _checked_order, _whole_number, random_copula
from .errors import (
    CompatibilityError,
    DomainError,
    EvaluationError,
    InternalError,
    ValidationError,
)
from .measures import canonical_labels

#: row/column sums of the n-scaled mass may deviate from one by this much
DOUBLY_STOCHASTIC_TOL = 1e-10

#: entries at or below this are rounding debris, never pivoted on or matched
_DUST = 1e-13


def permutation_copula(perm: Sequence[int], labels: Iterable = (0, 1)) -> CheckerboardCopula:
    """The copula putting mass ``1/n`` on the cells ``(i, perm[i])``."""
    labels = tuple(labels)
    if len(labels) != 2:
        raise CompatibilityError("permutation copulas are two-dimensional")
    n = len(perm)
    # floats and bools compare equal to integers, so the sort alone admits them
    if any(t is bool or not issubclass(t, (int, np.integer)) for t in set(map(type, perm))) or (
        sorted(perm) != list(range(n))
    ):
        raise DomainError(f"{perm!r} is not a permutation of 0..{n - 1}")
    mass = np.zeros((n, n))
    for i, j in enumerate(perm):
        mass[i, j] = 1.0 / n
    return CheckerboardCopula(labels, n, mass)


def _perfect_matching(support: np.ndarray, forced: tuple = (-1, -1)):
    """Perfect matching of the support, containing the edge ``forced`` if given.

    Kuhn's augmenting-path search, visiting rows and columns in increasing
    index order so the result is deterministic.  The support is read once,
    by one ``np.nonzero``, into per-row lists of its columns in increasing
    order; the search walks those lists instead of testing every cell, and
    visits the same columns in the same order.  Returns ``None`` when no
    perfect matching exists.
    """
    n = support.shape[0]
    adj = [[] for _ in range(n)]  # row -> support columns, increasing
    rows, cols = np.nonzero(support)
    for row, col in zip(rows.tolist(), cols.tolist()):
        adj[row].append(col)
    match_col = [-1] * n  # column -> row
    i0, j0 = forced
    if j0 >= 0:
        match_col[j0] = i0

    def augment(row, seen):
        for col in adj[row]:
            if not seen[col]:
                seen[col] = True
                if match_col[col] == -1 or augment(match_col[col], seen):
                    match_col[col] = row
                    return True
        return False

    for row in range(n):
        if row == i0:
            continue
        if not augment(row, [col == j0 for col in range(n)]):
            return None
    perm = [-1] * n
    for col, row in enumerate(match_col):
        perm[row] = col
    return perm


def birkhoff_decompose(c: CheckerboardCopula):
    """Write a two-dimensional copula as a convex combination of permutations.

    Repeatedly finds a permutation in the support that passes through the
    smallest positive entry and subtracts it, so each round removes at least
    that entry from the support; at most ``n**2 - 2*n + 2`` terms are
    produced.  Returns ``(weight, permutation)`` pairs with nonnegative
    weights summing to one.
    """
    if c.ndim != 2:
        raise CompatibilityError("decomposition applies to two-dimensional copulas")
    n = c.order
    scaled = c.mass * n
    dev = max(float(np.max(np.abs(scaled.sum(axis=axis) - 1.0))) for axis in (1, 0))
    if dev > DOUBLY_STOCHASTIC_TOL:
        raise ValidationError(f"n * mass is not doubly stochastic (deviation {dev!r})")
    work = c.mass.copy()
    terms = []
    max_terms = max(1, n * n - 2 * n + 2)
    while True:
        support = work > _DUST
        if float(work[support].sum()) <= 1e-12:
            break
        if len(terms) >= max_terms:
            raise InternalError("decomposition exceeded its term budget")
        flat = np.where(support.ravel(), work.ravel(), np.inf)
        i0, j0 = divmod(int(np.argmin(flat)), n)
        perm = _perfect_matching(support, (i0, j0))
        if perm is None:
            # near-degenerate ties can make the smallest entry unmatchable;
            # any permutation of the support still zeroes its own minimum
            perm = _perfect_matching(support)
        if perm is None:
            raise InternalError("no permutation found in a doubly stochastic support")
        theta = min(float(work[i, perm[i]]) for i in range(n))
        for i in range(n):
            work[i, perm[i]] -= theta
        terms.append((theta * n, tuple(perm)))
    total = sum(w for w, _ in terms)
    return tuple((w / total, perm) for w, perm in terms)


@dataclass(frozen=True)
class ConvexSearchResult:
    extremal_value: float
    extremal_permutation: tuple
    interior_value: float
    interior_samples: int
    interior_within_bound: bool
    midpoint_violations: int


def maximize_convex(
    functional: Callable[[CheckerboardCopula], float],
    order: int,
    labels: Iterable = (0, 1),
    interior_samples: int = 200,
    seed: int = 0,
    midpoint_checks: int = 16,
) -> ConvexSearchResult:
    """Maximize a declared-convex functional over order-``n`` copulas.

    Enumerates all ``n!`` permutation copulas exhaustively (ties resolved
    toward the lexicographically smallest permutation) and evaluates the
    functional on randomly sampled interior copulas.  Convexity is taken on
    trust; midpoint convexity is spot-checked on sampled pairs and violations
    trigger a warning, since for a genuinely convex functional the interior
    values can never exceed the extremal maximum.
    """
    n = _checked_order(order)
    if n > 8:
        raise DomainError("exhaustive enumeration is limited to order <= 8")
    samples = _whole_number(interior_samples, "interior_samples")
    checks = _whole_number(midpoint_checks, "midpoint_checks")
    if min(samples, checks) < 0:
        raise DomainError(
            f"interior_samples and midpoint_checks must be >= 0, got {samples} and {checks}"
        )
    labels = canonical_labels(labels)
    best_val = None
    best_perm = None
    for perm in itertools.permutations(range(n)):
        val = float(functional(permutation_copula(perm, labels)))
        if not math.isfinite(val):
            raise EvaluationError(f"functional returned {val!r} on {perm!r}")
        if best_val is None or val > best_val:
            best_val, best_perm = val, perm
    rng = np.random.default_rng(seed)
    interior = [random_copula(labels, n, rng) for _ in range(samples)]
    interior_best = -math.inf
    values = []
    for c in interior:
        val = float(functional(c))
        if not math.isfinite(val):
            raise EvaluationError(f"functional returned {val!r} on an interior copula")
        interior_best = max(interior_best, val)
        values.append(val)
    violations = 0
    if len(interior) >= 2:
        for _ in range(checks):
            i, j = rng.integers(0, len(interior), size=2)
            mid = CheckerboardCopula(
                labels, n, 0.5 * (interior[i].mass + interior[j].mass)
            )
            lhs = float(functional(mid))
            rhs = 0.5 * (values[i] + values[j])
            if lhs > rhs + 1e-9:
                violations += 1
    if violations:
        warnings.warn(
            f"functional failed {violations} midpoint convexity spot-checks; "
            "the extremal maximum is only valid for convex functionals",
            stacklevel=2,
        )
    return ConvexSearchResult(
        extremal_value=best_val,
        extremal_permutation=best_perm,
        interior_value=interior_best if interior else -math.inf,
        interior_samples=len(interior),
        interior_within_bound=interior_best <= best_val + 1e-9,
        midpoint_violations=violations,
    )
