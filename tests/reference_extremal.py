"""The extremal layer's slow paths, as they stood before the adjacency-list search.

A test-only oracle: :func:`_perfect_matching` tests ``support[row, col]`` for
every column, and :func:`permutation_copula` fills its mass one cell at a
time.  They visit the same cells in the same order as
:mod:`copulagrid.extremal`, so matchings, Birkhoff terms and permutation
masses must agree bit for bit.
"""

from typing import Iterable, Sequence

import numpy as np

from copulagrid.copulas import CheckerboardCopula
from copulagrid.errors import (
    CompatibilityError,
    DomainError,
    InternalError,
    UnsupportedError,
    ValidationError,
)
from copulagrid.extremal import _DUST, DOUBLY_STOCHASTIC_TOL
from copulagrid.measures import canonical_labels


def permutation_copula(perm: Sequence[int], labels: Iterable = (0, 1)) -> CheckerboardCopula:
    """The copula putting mass ``1/n`` on the cells ``(i, perm[i])``."""
    labels = canonical_labels(labels)
    if len(labels) != 2:
        raise CompatibilityError("permutation copulas are two-dimensional")
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise DomainError(f"{perm!r} is not a permutation of 0..{n - 1}")
    mass = np.zeros((n, n))
    for i, j in enumerate(perm):
        mass[i, j] = 1.0 / n
    return CheckerboardCopula(labels, n, mass)


def _perfect_matching(support: np.ndarray, forced: tuple = (-1, -1)):
    """Perfect matching of the support, containing the edge ``forced`` if given.

    Kuhn's augmenting-path search, visiting rows and columns in increasing
    index order so the result is deterministic.  Returns ``None`` when no
    perfect matching exists.
    """
    n = support.shape[0]
    match_col = [-1] * n  # column -> row
    i0, j0 = forced
    if j0 >= 0:
        match_col[j0] = i0

    def augment(row, seen):
        for col in range(n):
            if support[row, col] and not seen[col]:
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
    row_dev = float(np.max(np.abs(scaled.sum(axis=1) - 1.0)))
    col_dev = float(np.max(np.abs(scaled.sum(axis=0) - 1.0)))
    if max(row_dev, col_dev) > DOUBLY_STOCHASTIC_TOL:
        raise ValidationError(
            f"n * mass is not doubly stochastic (deviation {max(row_dev, col_dev)!r})"
        )
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
            raise UnsupportedError(
                "no permutation left: cells at or below 1e-13 strand the rest of the support"
            )
        theta = min(float(work[i, perm[i]]) for i in range(n))
        for i in range(n):
            work[i, perm[i]] -= theta
        terms.append((theta * n, tuple(perm)))
    total = sum(w for w, _ in terms)
    return tuple((w / total, perm) for w, perm in terms)

