"""The two-loop ``check_consistency``, kept as a test-only oracle.

This is the consistency check as it was before it walked the nested pairs
in one pass.  A first loop reads each listed subset's member through
``family_member``, re-runs its rule under the family lock and puts a
``rule is nondeterministic`` entry at the head of the report when the two
differ; a second loop then checks every ordered pair ``J1 <= J2``, each
subset's pair with itself included, by marginalizing the member over ``J2``
onto ``J1``, reading both members through ``family_member`` again.  For a
deterministic rule the library must give the same report entry for entry;
for a nondeterministic one, the same failing entries at the identity pairs.
"""

from typing import Iterable

import numpy as np

from copulagrid.copulas import marginalize_copula
from copulagrid.errors import DomainError
from copulagrid.measures import _real_number, _same, marginalize_tensor
from copulagrid.projective import (
    COPULA,
    ConsistencyReport,
    PairCheck,
    ProjectiveFamily,
    _check_member,
    family_member,
)


def _members_match(a, b, tol: float):
    """Entrywise comparison of two members of one family over the same subset."""
    if not _same(a.grid, b.grid):
        return float("inf"), "grids differ"
    dev = float(np.max(np.abs(a.mass - b.mass)))
    return dev, "" if dev <= tol else f"mass deviation {dev!r}"


def check_consistency(
    f: ProjectiveFamily, subsets: Iterable[Iterable], tol: float = 1e-12
) -> ConsistencyReport:
    if not (_real_number(tol) and tol >= 0):
        raise DomainError(f"tol must be a real number >= 0, got {tol!r}")
    canon = [f.universe.validate_subset(s) for s in subsets]
    if not canon:
        raise DomainError("check_consistency needs at least one subset")
    marginalize = marginalize_copula if f.kind == COPULA else marginalize_tensor
    checks = []
    for subset in canon:
        first = family_member(f, subset)
        with f._lock:
            again = _check_member(f, subset, f.rule(subset))
        dev, msg = _members_match(first, again, tol=0.0)
        if dev != 0.0:
            checks.append(
                PairCheck(subset, subset, dev, False, f"rule is nondeterministic: {msg}")
            )
    sets = [frozenset(j) for j in canon]
    for j1, s1 in zip(canon, sets):
        for j2, s2 in zip(canon, sets):
            if not s1 <= s2:
                continue
            projected = marginalize(family_member(f, j2), j1)
            dev, msg = _members_match(family_member(f, j1), projected, tol)
            checks.append(PairCheck(j1, j2, dev, dev <= tol, msg))
    passed = all(c.ok for c in checks)
    dev_overall = max((c.deviation for c in checks if np.isfinite(c.deviation)), default=0.0)
    return ConsistencyReport(passed, tuple(checks), dev_overall)
