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
    UnsupportedError,
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


def _kuhn(adj: list, match: list, blocked: int, perm: list, flat, rows: int, vacant: int):
    """Extend ``match`` to a perfect matching of the support whose row ``i`` has bitmask ``adj[i]``.

    ``match`` maps columns to rows (``-1`` where free) inside the support and
    is extended in place; the column ``blocked`` keeps its row.  A path that
    moves a row also updates ``perm`` (row to column) and ``flat`` (row ``i``'s
    flat cell ``i * n + perm[i]``) in place; :func:`birkhoff_decompose` keeps
    them from round to round with the bitmasks ``rows`` and ``vacant`` of the
    free rows and free columns.  Kuhn's augmenting-path search seats the free
    rows in increasing order and re-seats matched rows recursively.  Each free
    row starts from one mask of unseen columns (all but the blocked one) and
    takes as candidates the set bits of ``adj[row] & unseen``, lowest first,
    narrowed after each failed recursion has cleared the bits it saw: the
    columns a walk of the row's support in increasing order would try, in that
    order.  A warm search, where a row besides the blocked column's is seated,
    looks ahead (Duff's MC21): a row first takes the lowest free column of its
    support, and re-seats rows only when it has none.  A cold search, from the
    empty matching or from one forced edge alone, does not: it is the
    from-scratch search.  Returns ``perm``, or ``None`` when no perfect
    matching keeps the blocked pair, from any start.
    """
    n = len(adj)
    if n - rows.bit_count() <= (blocked >= 0):
        vacant = 0  # a cold search does not look ahead
    fresh = ~(1 << blocked) if blocked >= 0 else -1

    def augment(row):
        nonlocal unseen, vacant
        free = adj[row] & vacant or adj[row] & unseen
        while free:
            bit = free & -free
            unseen ^= bit
            col = bit.bit_length() - 1
            if match[col] == -1 or augment(match[col]):
                vacant &= ~bit
                match[col], perm[row], flat[row] = row, col, row * n + col
                return True
            free &= unseen
        return False

    while rows:
        bit = rows & -rows
        rows ^= bit
        unseen = fresh
        if not augment(bit.bit_length() - 1):
            return None
    return perm


def birkhoff_decompose(c: CheckerboardCopula):
    """Write a two-dimensional copula as a convex combination of permutations.

    Repeatedly finds a permutation in the support that passes through the
    smallest positive entry and subtracts it, so each round removes at least
    that entry from the support; at most ``n**2 - 2*n + 2`` terms are
    produced.  Returns ``(weight, permutation)`` pairs with nonnegative
    weights summing to one.  The support (cells above ``_DUST``) only loses
    cells, so its row bitmasks, count and flat ``live`` array (support masses,
    ``inf`` elsewhere) are built once.  A round extends the last permutation,
    kept from round to round with its column-to-row map, its flat cells and
    the bitmasks of free rows and free columns: its cells that left the
    support free their rows, the smallest cell is seated in place of its
    row's and column's old partners, and :func:`_kuhn` seats the free rows,
    looking ahead to free columns, so a round touches only the rows its
    augmenting paths move; the terms depend on those paths.  The
    permutation's cells are read with one gather, reduced with numpy and
    stored with one store.  11 cells above ``_DUST`` sum above ``1e-12`` in
    any order, so the stop test sums the support only once 10 or fewer cells
    remain.  Cells at or below ``_DUST`` that strand the rest raise
    UnsupportedError.
    """
    if c.ndim != 2:
        raise CompatibilityError("decomposition applies to two-dimensional copulas")
    n = c.order
    scaled = c.mass * n
    dev = max(float(np.max(np.abs(scaled.sum(axis=axis) - 1.0))) for axis in (1, 0))
    if dev > DOUBLY_STOCHASTIC_TOL:
        raise ValidationError(f"n * mass is not doubly stochastic (deviation {dev!r})")
    support = c.mass > _DUST
    adj = _support_rows(support)
    live = np.where(support, c.mass, np.inf).ravel()
    count = int(np.count_nonzero(support))
    terms = []
    max_terms = n * n - 2 * n + 2
    match, perm, flat = [-1] * n, [-1] * n, np.zeros(n, dtype=np.intp)
    rows = vacant = full = (1 << n) - 1  # the free rows and the free columns
    while count > 10 or float(live[live < np.inf].sum()) > 1e-12:
        if len(terms) >= max_terms:
            raise InternalError("decomposition exceeded its term budget")
        k = int(live.argmin())
        i0, j0 = divmod(k, n)
        theta = live.item(k)  # the smallest cell of every permutation through (i0, j0)
        # the smallest cell's row and its column's row leave their seats for it
        if not rows >> i0 & 1:
            rows, vacant, match[perm[i0]] = rows | 1 << i0, vacant | 1 << perm[i0], -1
        if match[j0] >= 0:
            rows, vacant, match[j0] = rows | 1 << match[j0], vacant | 1 << j0, -1
        match[j0], perm[i0], flat[i0] = i0, j0, k
        if _kuhn(adj, match, j0, perm, flat, rows ^ 1 << i0, vacant ^ 1 << j0) is None:
            # near-degenerate ties can make the smallest entry unmatchable;
            # any permutation of the support still zeroes its own minimum
            match = [-1] * n
            if _kuhn(adj, match, -1, perm, flat, full, full) is None:
                raise UnsupportedError(
                    f"no permutation left: cells at or below {_DUST!r} strand the rest of the"
                    " support"
                )
            theta = float(live[flat].min())
        cells = live[flat]
        cells -= theta
        terms.append((theta * n, tuple(perm)))
        drops = (cells <= _DUST).nonzero()[0].tolist()
        count -= len(drops)
        rows = vacant = 0  # the matching is perfect; the dropped cells free their rows
        for i in drops:
            cells[i] = math.inf
            adj[i] ^= 1 << perm[i]
            match[perm[i]] = -1
            rows, vacant = rows | 1 << i, vacant | 1 << perm[i]
        live[flat] = cells
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
