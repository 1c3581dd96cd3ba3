"""``check_consistency`` in one pass against the two-loop check it replaced.

``tests/reference_projective.py`` re-runs every rule in a first loop and then
projects every nested pair, each subset onto itself included.  The library
reads each member once and re-runs a subset's rule at its pair with itself.
For deterministic rules the reports must agree entry for entry; for a
nondeterministic rule the failing entries must be the reference's, each at
its identity pair; and each rule must run as often as before.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_projective as ref
from copulagrid import (
    IndexUniverse,
    ProjectiveFamily,
    TensorMeasure,
    canonical_subsets,
    check_consistency,
    comonotone_family,
    family_from_copula,
    family_from_joint,
    independence_family,
    marginalize_tensor,
    random_copula,
)
from copulagrid.projective import PairCheck
from helpers import random_tensor

LABELS = (0, 1, 2)
SUBSETS = list(canonical_subsets(IndexUniverse.finite(LABELS)))
KINDS = ("independence", "comonotone", "copula", "joint", "perturbed", "grid", "order")


def _general(t: TensorMeasure, odd: tuple, change) -> ProjectiveFamily:
    """The marginals of ``t``, with ``change`` applied to the member over ``odd``."""

    def rule(subset):
        member = marginalize_tensor(t, subset)
        return change(member) if subset == odd else member

    return ProjectiveFamily(IndexUniverse.finite(t.labels), "general", rule)


def _family(kind: str, seed: int) -> ProjectiveFamily:
    """A fresh family of ``kind``; the same ``seed`` builds an equal family."""
    rng = np.random.default_rng(seed)
    order = int(rng.integers(1, 4))
    if kind == "independence":
        return independence_family(IndexUniverse.countable(), order)
    if kind == "comonotone":
        return comonotone_family(IndexUniverse.countable(), order)
    if kind == "copula":
        return family_from_copula(random_copula(LABELS, order, rng))
    t = random_tensor(rng, LABELS)
    if kind == "joint":
        return family_from_joint(t)
    odd = SUBSETS[int(rng.integers(len(SUBSETS)))]
    if kind == "perturbed":
        # some perturbations lie within tol = 1e-12, others do not
        eps = float(rng.choice([1e-15, 1e-13, 1e-9]))
        wiggle = rng.uniform(0.0, 1.0, size=marginalize_tensor(t, odd).mass.shape)

        def change(m):
            mass = m.mass * (1.0 + eps * wiggle)
            return TensorMeasure(m.labels, m.grid, mass / mass.sum())

    elif kind == "grid":
        shift = float(rng.uniform(0.5, 2.0))

        def change(m):
            return TensorMeasure(m.labels, (m.grid[0] + shift,) + m.grid[1:], m.mass)

    else:
        # one more grid point, carrying no mass: the member's shape no longer matches

        def change(m):
            first = np.append(m.grid[0], m.grid[0][-1] + 1.0)
            mass = np.concatenate((m.mass, np.zeros((1,) + m.mass.shape[1:])))
            return TensorMeasure(m.labels, (first,) + m.grid[1:], mass)

    return _general(t, odd, change)


# subsets with their labels in random order; the list may repeat a subset and
# need not follow the canonical order
subset_lists = st.lists(
    st.sets(st.sampled_from(LABELS), min_size=1).flatmap(lambda s: st.permutations(sorted(s))),
    min_size=1,
    max_size=6,
)
tols = st.sampled_from([0.0, 1e-12, Fraction(0), math.inf])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    subsets=subset_lists,
    tol=tols,
)
@example(kind="perturbed", seed=0, subsets=SUBSETS, tol=0.0)
@example(kind="order", seed=1, subsets=SUBSETS[::-1], tol=1e-12)
@example(kind="grid", seed=0, subsets=SUBSETS, tol=math.inf)
@example(kind="grid", seed=2, subsets=[(1, 0), (0,), (0, 1), (1,)], tol=Fraction(0))
def test_deterministic_rules_give_the_reference_report(kind, seed, subsets, tol):
    assert check_consistency(_family(kind, seed), subsets, tol) == ref.check_consistency(
        _family(kind, seed), subsets, tol
    )


def _flaky(seed: int, flaky: frozenset) -> ProjectiveFamily:
    """Marginals of a random joint whose rule, over ``flaky`` subsets, moves on every call."""
    rng = np.random.default_rng(seed)
    t = random_tensor(rng, LABELS)
    scale = float(rng.choice([1e-15, 1.0]))  # a move below 1e-12, or a large one
    calls = Counter()

    def rule(subset):
        calls[subset] += 1
        member = marginalize_tensor(t, subset)
        n = calls[subset]
        if subset not in flaky or n == 1:
            return member
        if n % 2:  # a shifted grid on odd re-runs, a moved mass on even ones
            return TensorMeasure(subset, (member.grid[0] + n,) + member.grid[1:], member.mass)
        ramp = np.arange(member.mass.size).reshape(member.mass.shape)
        mass = member.mass * (1.0 + scale * n * ramp)
        return TensorMeasure(subset, member.grid, mass / mass.sum())

    return ProjectiveFamily(IndexUniverse.finite(LABELS), "general", rule)


def _rerun_failure(check: PairCheck) -> bool:
    return check.message.startswith("rule is nondeterministic: ")


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    flaky=st.sets(st.sampled_from(SUBSETS), min_size=1).map(frozenset),
    subsets=subset_lists,
    tol=tols,
)
@example(seed=0, flaky=frozenset(SUBSETS), subsets=SUBSETS + SUBSETS[:2], tol=0.0)
def test_nondeterministic_rules_fail_at_their_identity_pairs(seed, flaky, subsets, tol):
    report = check_consistency(_flaky(seed, flaky), subsets, tol)
    expected = ref.check_consistency(_flaky(seed, flaky), subsets, tol)
    # the reference puts its re-run failures first, then every pair as if each rule
    # were deterministic; one pass puts each failure at its identity slot instead
    head = [c for c in expected.checks if _rerun_failure(c)]
    moved = [c for c in report.checks if _rerun_failure(c)]
    assert moved == head == list(expected.checks[: len(head)])
    assert all(c.inner == c.outer for c in moved)
    clean = [
        PairCheck(c.inner, c.inner, 0.0, True) if _rerun_failure(c) else c for c in report.checks
    ]
    assert clean == list(expected.checks[len(head) :])
    assert (report.passed, report.max_deviation) == (expected.passed, expected.max_deviation)


def _counted(kind: str, seed: int):
    """A fresh family of ``kind`` whose rule tallies its runs per subset."""
    f = _family(kind, seed)
    runs = Counter()

    def rule(subset):
        runs[subset] += 1
        return f.rule(subset)

    return ProjectiveFamily(f.universe, f.kind, rule), runs


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), subsets=subset_lists)
def test_each_rule_runs_as_often_as_in_the_reference(kind, seed, subsets):
    fam, runs = _counted(kind, seed)
    ref_fam, ref_runs = _counted(kind, seed)
    check_consistency(fam, subsets)
    ref.check_consistency(ref_fam, subsets)
    assert runs == ref_runs
    listed = {tuple(sorted(s)) for s in subsets}
    if len(listed) == len(subsets):
        # a fresh family and distinct subsets: one run to cache, one to compare
        assert runs == Counter(dict.fromkeys(listed, 2))
