"""Projective families of finite-dimensional measures over a poset of subsets.

A family assigns to every finite, nonempty index subset a measure over
exactly that subset.  Families are consistent when marginalizing the member
over a larger subset reproduces the member over a smaller one; this module
provides the consistency spot-check, the canonical enumeration of finite
subsets, and constructors that are consistent by construction.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .copulas import (
    CheckerboardCopula,
    make_comonotone,
    make_independence,
    marginalize_copula,
    validate_copula,
)
from .errors import CompatibilityError, DomainError, EvaluationError, ValidationError
from .measures import TensorMeasure, _Immutable, _Value, _real_number, _same, canonical_labels
from .measures import marginalize_tensor

COPULA = "copula"
GENERAL = "general"


class IndexUniverse(_Value):
    """Either an explicit finite label set or the nonnegative integers; read-only."""

    __slots__ = ("kind", "labels")

    FINITE = "finite"
    COUNTABLE = "countable"

    def __init__(self, *args, **kwargs):
        raise TypeError("use IndexUniverse.finite(...) or IndexUniverse.countable()")

    @classmethod
    def finite(cls, labels: Iterable) -> "IndexUniverse":
        return cls._of(cls.FINITE, canonical_labels(labels))

    @classmethod
    def countable(cls) -> "IndexUniverse":
        return cls._of(cls.COUNTABLE, None)

    def __contains__(self, label) -> bool:
        if self.kind == self.FINITE:
            return label in self.labels
        return isinstance(label, (int, np.integer)) and not isinstance(label, bool) and label >= 0

    def validate_subset(self, labels: Iterable) -> tuple:
        subset = canonical_labels(labels)
        for lab in subset:
            if lab not in self:
                raise CompatibilityError(f"label {lab!r} outside the index universe")
        return subset

    def __repr__(self):
        if self.kind == self.FINITE:
            return f"IndexUniverse.finite({list(self.labels)!r})"
        return "IndexUniverse.countable()"


def canonical_subsets(universe: IndexUniverse) -> Iterator[tuple]:
    """Enumerate nonempty finite subsets in the canonical order.

    For a countable universe the enumeration never ends; take what you need.
    """
    labels = universe.labels if universe.kind == IndexUniverse.FINITE else itertools.count()
    earlier = []
    for top in labels:
        for size in range(len(earlier) + 1):
            for combo in itertools.combinations(earlier, size):
                yield combo + (top,)
        earlier.append(top)


class ProjectiveFamily(_Immutable):
    """A rule from finite subsets to measures, cached with evaluate-once semantics.

    ``kind`` is ``"copula"`` (members are :class:`CheckerboardCopula`, required
    to pass validation) or ``"general"`` (members are :class:`TensorMeasure`).
    The cache and the list of subsets being evaluated are the only mutable
    state; assigning or deleting an attribute raises AttributeError.  Rules
    run under a reentrant lock, so a rule may evaluate its own family, and
    callers of a subset whose rule is running wait for that one evaluation.
    """

    __slots__ = ("universe", "kind", "rule", "_cache", "_lock", "_in_progress")

    def __init__(self, universe: IndexUniverse, kind: str, rule: Callable):
        if kind not in (COPULA, GENERAL):
            raise DomainError(f"unknown family kind {kind!r}")
        # _in_progress lists the subsets whose rules are running, outermost first
        self._fill(universe, kind, rule, {}, threading.RLock(), [])


def _check_member(f: ProjectiveFamily, subset: tuple, value):
    member_class = CheckerboardCopula if f.kind == COPULA else TensorMeasure
    if not isinstance(value, member_class):
        raise ValidationError(f"{f.kind} family rule returned {type(value).__name__}")
    if value.labels != subset:
        raise CompatibilityError(f"rule returned labels {value.labels!r} for subset {subset!r}")
    if f.kind == COPULA:
        report = validate_copula(value)
        if not report.passed:
            raise ValidationError(
                f"family member over {subset!r} is not a copula: {report.issues[0].message}"
            )
    return value


def family_member(f: ProjectiveFamily, labels: Iterable):
    """Evaluate the family at a subset, caching the validated member.

    Each subset's rule runs once; a rule that raises caches nothing.  A rule
    that asks, directly or through other subsets, for the subset it is
    computing raises :class:`EvaluationError` naming the cycle.
    """
    return _member(f, f.universe.validate_subset(labels))


def _member(f: ProjectiveFamily, subset: tuple):
    """:func:`family_member` at a subset that ``f.universe.validate_subset`` returned.

    The cache is read only with a validated subset: ``(True,)`` equals and
    hashes like ``(1,)``, so an unvalidated key could find a member.
    """
    value = f._cache.get(subset)
    if value is not None:
        return value
    # only the thread holding the lock runs rules, so every cycle, across
    # threads too, shows up in the one in-progress list
    with f._lock:
        value = f._cache.get(subset)
        if value is not None:
            return value
        chain = f._in_progress
        if subset in chain:
            cycle = chain[chain.index(subset) :] + [subset]
            raise EvaluationError("family rule cycle: " + " -> ".join(map(repr, cycle)))
        chain.append(subset)
        try:
            value = _check_member(f, subset, f.rule(subset))
        finally:
            chain.pop()
        f._cache[subset] = value
    return value


@dataclass(frozen=True)
class PairCheck:
    inner: tuple
    outer: tuple
    deviation: float
    ok: bool
    message: str = ""


@dataclass(frozen=True)
class ConsistencyReport:
    passed: bool
    checks: tuple
    max_deviation: float

    def __bool__(self):
        return self.passed


def _members_match(a, b, tol: float):
    """Entrywise comparison of two members of one family over the same subset."""
    if not _same(a.grid, b.grid):
        return float("inf"), "grids differ"
    dev = float(np.max(np.abs(a.mass - b.mass)))
    return dev, "" if dev <= tol else f"mass deviation {dev!r}"


def check_consistency(
    f: ProjectiveFamily, subsets: Iterable[Iterable], tol: float = 1e-12
) -> ConsistencyReport:
    """Verify the projection equations on every nested pair among ``subsets``, in one pass.

    Each listed subset's member is read once.  For each ordered pair of list
    entries with ``J1 <= J2`` the member over ``J2`` is marginalized onto
    ``J1`` and compared entrywise with the member over ``J1``, within ``tol``.
    An entry paired with itself instead re-runs its rule, under the family
    lock, and compares the result with the cached member bit for bit, so a
    nondeterministic rule is reported there rather than silently cached.
    Violations are collected, never raised.
    """
    if not (_real_number(tol) and tol >= 0):
        raise DomainError(f"tol must be a real number >= 0, got {tol!r}")
    canon = [f.universe.validate_subset(s) for s in subsets]
    if not canon:
        raise DomainError("check_consistency needs at least one subset")
    # read the module-level marginalizers per call, so rebinding them reaches here
    marginalize = marginalize_copula if f.kind == COPULA else marginalize_tensor
    listed = [(j, frozenset(j), _member(f, j)) for j in canon]
    checks = []
    for i, (j1, s1, m1) in enumerate(listed):
        for k, (j2, s2, m2) in enumerate(listed):
            if i == k:
                with f._lock:
                    other, bound = _check_member(f, j1, f.rule(j1)), 0.0
            elif s1 <= s2:
                other, bound = marginalize(m2, j1), tol
            else:
                continue
            dev, msg = _members_match(m1, other, bound)
            if msg and i == k:
                msg = f"rule is nondeterministic: {msg}"
            checks.append(PairCheck(j1, j2, dev, dev <= bound, msg))
    passed = all(c.ok for c in checks)
    dev_overall = max((c.deviation for c in checks if np.isfinite(c.deviation)), default=0.0)
    return ConsistencyReport(passed, tuple(checks), dev_overall)


def family_from_joint(t: TensorMeasure) -> ProjectiveFamily:
    """The family of all marginals of a fixed joint measure; always consistent."""
    universe = IndexUniverse.finite(t.labels)
    return ProjectiveFamily(universe, GENERAL, lambda subset: marginalize_tensor(t, subset))


def family_from_copula(c: CheckerboardCopula) -> ProjectiveFamily:
    """The family of all marginals of a fixed checkerboard copula."""
    universe = IndexUniverse.finite(c.labels)
    return ProjectiveFamily(universe, COPULA, lambda subset: marginalize_copula(c, subset))


def independence_family(universe: IndexUniverse, order: int) -> ProjectiveFamily:
    """Product copula of a given order over every finite subset."""
    return ProjectiveFamily(universe, COPULA, lambda subset: make_independence(subset, order))


def comonotone_family(universe: IndexUniverse, order: int) -> ProjectiveFamily:
    """Diagonal copula of a given order over every finite subset."""
    return ProjectiveFamily(universe, COPULA, lambda subset: make_comonotone(subset, order))
