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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .copulas import CheckerboardCopula, _checked_order, _checked_seed, _random_copulas, _views
from .copulas import _whole_number
from .errors import (
    CompatibilityError,
    DomainError,
    EvaluationError,
    InternalError,
    ValidationError,
)
from .measures import _real_number

#: row/column sums of the n-scaled mass may deviate from one by this much
DOUBLY_STOCHASTIC_TOL = 1e-10

#: entries at or below this are rounding debris, never pivoted on or matched
_DUST = 1e-13

#: permutations per block in maximize_convex; 720 order-8 masses take 369 KB
_CHUNK = 720


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
    return next(_permutation_copulas([perm], n, labels))


def _permutation_copulas(perms: list, n: int, labels: tuple = (0, 1)) -> Iterator:
    """The permutation copulas of ``perms``, handed out by :func:`~copulagrid.copulas._views`.

    One indexed store puts ``1`` on the cells ``(k, i, perms[k][i])`` of a
    zeroed ``(len(perms), n, n)`` block, which is then divided by ``n``, the
    bits of storing ``1/n``: an order of 0 divides an empty block, so it is
    refused after the labels, as the constructor refuses it.  ``perms`` must
    hold permutations of ``0..n-1``.
    """
    rows = len(perms) * n
    cols = np.fromiter(itertools.chain.from_iterable(perms), dtype=np.intp, count=rows)
    block = np.zeros((len(perms), n, n))
    block.reshape(rows, n)[np.arange(rows), cols] = 1.0
    block /= n
    return _views(labels, n, block)


def _support_rows(support: np.ndarray) -> list:
    """Per-row bitmasks of the support: bit ``j`` of row ``i`` is set where ``support[i, j]`` is.

    Read by one ``np.packbits``, eight columns to a byte, lowest column in
    the lowest bit.
    """
    packed = np.packbits(np.asarray(support, dtype=bool), axis=1, bitorder="little")
    return [int.from_bytes(row, "little") for row in packed.tolist()]


def _perfect_matching(support: np.ndarray, forced: tuple = (-1, -1)):
    """Perfect matching of the support, containing the edge ``forced`` if given.

    See :func:`_kuhn`; the support is read once, into row bitmasks, by :func:`_support_rows`.
    """
    return _kuhn(_support_rows(support), forced)


def _kuhn(adj: list, forced: tuple = (-1, -1)):
    """Perfect matching of the support whose row ``i`` has the column bitmask ``adj[i]``.

    Kuhn's augmenting-path search, visiting rows and columns in increasing
    index order so the result is deterministic.  A row's candidates are the
    set bits of ``adj[row] & ~seen``, taken lowest first and read afresh
    after each failed recursion, which may have seen more columns: the
    columns a walk of the row's support in increasing order would try, in
    that order.  The edge ``forced`` is in the matching if given.  Returns
    ``None`` when no perfect matching exists.
    """
    n = len(adj)
    match_col = [-1] * n  # column -> row
    i0, j0 = forced
    if j0 >= 0:
        match_col[j0] = i0
    seen = 0

    def augment(row):
        nonlocal seen
        free = adj[row] & ~seen
        while free:
            bit = free & -free
            seen |= bit
            col = bit.bit_length() - 1
            if match_col[col] == -1 or augment(match_col[col]):
                match_col[col] = row
                return True
            free = adj[row] & ~seen
        return False

    for row in range(n):
        if row == i0:
            continue
        seen = 1 << j0 if j0 >= 0 else 0
        if not augment(row):
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
    weights summing to one.  Cells only ever leave the support, so its mask
    and per-row column bitmasks are built once and lose, after each round,
    the cells of the subtracted permutation that fell to ``_DUST`` or below.
    """
    if c.ndim != 2:
        raise CompatibilityError("decomposition applies to two-dimensional copulas")
    n = c.order
    scaled = c.mass * n
    dev = max(float(np.max(np.abs(scaled.sum(axis=axis) - 1.0))) for axis in (1, 0))
    if dev > DOUBLY_STOCHASTIC_TOL:
        raise ValidationError(f"n * mass is not doubly stochastic (deviation {dev!r})")
    work = c.mass.copy()
    support = work > _DUST
    adj = _support_rows(support)
    rows = np.arange(n)
    terms = []
    max_terms = n * n - 2 * n + 2
    while float(work[support].sum()) > 1e-12:
        if len(terms) >= max_terms:
            raise InternalError("decomposition exceeded its term budget")
        flat = np.where(support.ravel(), work.ravel(), np.inf)
        i0, j0 = divmod(int(np.argmin(flat)), n)
        perm = _kuhn(adj, (i0, j0))
        if perm is None:
            # near-degenerate ties can make the smallest entry unmatchable;
            # any permutation of the support still zeroes its own minimum
            perm = _kuhn(adj)
        if perm is None:
            raise InternalError("no permutation found in a doubly stochastic support")
        cells = work[rows, perm]
        theta = float(cells.min())
        cells -= theta
        work[rows, perm] = cells
        for i in np.flatnonzero(cells <= _DUST).tolist():
            support[i, perm[i]] = False
            adj[i] &= ~(1 << perm[i])
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


def _value(functional, c: CheckerboardCopula, where) -> float:
    """``functional(c)`` as a float; anything but a finite real number raises EvaluationError."""
    val = functional(c)
    try:
        if _real_number(val) and math.isfinite(val := float(val)):
            return val
    except OverflowError:
        raise EvaluationError(
            f"functional returned a number beyond the float range on {where}"
        ) from None
    raise EvaluationError(f"functional returned {val!r} on {where}")


def maximize_convex(
    functional: Callable[[CheckerboardCopula], float],
    order: int,
    interior_samples: int = 200,
    seed: int = 0,
    midpoint_checks: int = 16,
) -> ConvexSearchResult:
    """Maximize a declared-convex functional over order-``n`` copulas.

    Enumerates all ``n!`` permutation copulas exhaustively, in lexicographic
    order (ties resolved toward the lexicographically smallest permutation),
    and evaluates the functional on randomly sampled interior copulas.  The
    permutations are taken in chunks of at most ``720``; each chunk's masses
    fill one block, checked once with every check the constructor makes, and
    each copula handed to the functional holds a read-only view of its block,
    so a functional may keep the copulas it is given.  Convexity is taken on
    trust; midpoint convexity is spot-checked on sampled pairs and violations
    trigger a warning, since for a genuinely convex functional the interior
    values can never exceed the extremal maximum.  Copulas are over labels
    ``(0, 1)``; a value on a permutation, interior or midpoint copula that is
    not a finite real number (a bool is not) raises :class:`EvaluationError`.
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
    seed = _checked_seed(seed)
    best_val = None
    best_perm = None
    perms = itertools.permutations(range(n))
    while chunk := list(itertools.islice(perms, _CHUNK)):
        # the comprehension lets go of the block before the next one is filled
        values = [_value(functional, c, p) for p, c in zip(chunk, _permutation_copulas(chunk, n))]
        for perm, val in zip(chunk, values):
            if best_val is None or val > best_val:
                best_val, best_perm = val, perm
    rng = np.random.default_rng(seed)
    interior = _random_copulas((0, 1), n, rng, samples)
    values = [_value(functional, c, "an interior copula") for c in interior]
    interior_best = max(values, default=-math.inf)
    violations = 0
    if len(interior) >= 2:
        for _ in range(checks):
            i, j = rng.integers(0, len(interior), size=2)
            mid = CheckerboardCopula((0, 1), n, 0.5 * (interior[i].mass + interior[j].mass))
            lhs = _value(functional, mid, "a midpoint copula")
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
        interior_value=interior_best,
        interior_samples=len(interior),
        interior_within_bound=interior_best <= best_val + 1e-9,
        midpoint_violations=violations,
    )
