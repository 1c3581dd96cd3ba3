import itertools
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from copulagrid import (
    CompatibilityError,
    IndexUniverse,
    Marginal,
    TensorMeasure,
    ValidationError,
    atomize,
    canonical_subsets,
    check_consistency,
    comonotone_family,
    family_from_copula,
    family_from_joint,
    family_member,
    independence_family,
    make_comonotone,
    make_independence,
    marginalize_copula,
    marginalize_tensor,
    random_copula,
    to_tensor_measure,
    validate_copula,
)
from copulagrid.projective import GENERAL, ProjectiveFamily
from helpers import brute_marginalize, random_tensor


def all_subsets(labels):
    return [
        combo
        for size in range(1, len(labels) + 1)
        for combo in itertools.combinations(labels, size)
    ]


def descending_chains(labels, target):
    """Every label-descending chain of subsets from ``labels`` down to ``target``.

    In such a chain each step drops only labels above every label a later step drops.
    """
    dropped = sorted(set(labels) - set(target), reverse=True)
    for cuts in itertools.product((False, True), repeat=len(dropped) - 1):
        kept, chain = list(labels), []
        for k, label in enumerate(dropped):
            kept.remove(label)
            if k == len(dropped) - 1 or cuts[k]:
                chain.append(tuple(kept))
        yield chain


class TestUniverse:
    def test_finite_membership(self):
        u = IndexUniverse.finite(("a", "b"))
        assert "a" in u and "c" not in u

    def test_countable_membership(self):
        u = IndexUniverse.countable()
        assert 0 in u and 17 in u
        assert -1 not in u and "x" not in u and True not in u

    def test_subset_outside_universe(self):
        u = IndexUniverse.finite((1, 2))
        with pytest.raises(CompatibilityError):
            u.validate_subset((1, 3))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CompatibilityError):
            IndexUniverse.finite((1, 1))


class TestCanonicalEnumeration:
    def test_countable_prefix(self):
        got = list(itertools.islice(canonical_subsets(IndexUniverse.countable()), 8))
        assert got == [
            (0,),
            (1,),
            (0, 1),
            (2,),
            (0, 2),
            (1, 2),
            (0, 1, 2),
            (3,),
        ]

    def test_finite_enumeration_is_exhaustive(self):
        u = IndexUniverse.finite(("a", "b", "c"))
        got = list(canonical_subsets(u))
        assert len(got) == 7
        assert set(got) == set(all_subsets(("a", "b", "c")))

    @pytest.mark.parametrize("k", range(1, 8))
    def test_order_is_largest_label_then_size_then_lexicographic(self, k):
        labels = [f"x{i}" for i in range(k)]
        masks = range(1, 2**k)
        positions = [tuple(i for i in range(k) if mask >> i & 1) for mask in masks]
        want = sorted(positions, key=lambda p: (p[-1], len(p), p))
        got = list(canonical_subsets(IndexUniverse.finite(labels)))
        assert got == [tuple(labels[i] for i in p) for p in want]
        countable = canonical_subsets(IndexUniverse.countable())
        assert list(itertools.islice(countable, len(want))) == want


class TestFamilyMember:
    def test_independence_singleton_is_uniform(self):
        f = independence_family(IndexUniverse.countable(), 4)
        member = family_member(f, (3,))
        assert np.array_equal(member.mass, [0.25, 0.25, 0.25, 0.25])

    def test_repeated_calls_return_identical_member(self):
        f = independence_family(IndexUniverse.countable(), 3)
        assert family_member(f, (1, 2)) is family_member(f, (2, 1))

    def test_joint_family_member_is_marginal(self):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, (1, 2, 3))
        f = family_from_joint(t)
        member = family_member(f, (2,))
        assert np.allclose(member.mass, brute_marginalize(t, (2,)), atol=1e-15)

    def test_label_outside_universe(self):
        f = independence_family(IndexUniverse.finite((0, 1)), 2)
        with pytest.raises(CompatibilityError):
            family_member(f, (2,))

    def test_rule_is_evaluated_once(self):
        calls = []

        def rule(subset):
            calls.append(subset)
            return make_independence(subset, 2)

        f = ProjectiveFamily(IndexUniverse.countable(), "copula", rule)
        for _ in range(5):
            family_member(f, (0, 1))
        assert calls == [(0, 1)]

    def test_concurrent_calls_observe_single_evaluation(self):
        calls = []

        def rule(subset):
            calls.append(subset)
            return make_independence(subset, 3)

        f = ProjectiveFamily(IndexUniverse.countable(), "copula", rule)
        results = []

        def worker():
            for _ in range(50):
                results.append(family_member(f, (0, 1)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)

    def test_copula_kind_rejects_invalid_member(self):
        from copulagrid import CheckerboardCopula

        broken = ProjectiveFamily(
            IndexUniverse.countable(),
            "copula",
            lambda s: CheckerboardCopula(s, 2, [[1.0, 0.0], [0.0, 0.0]]),
        )
        with pytest.raises(ValidationError):
            family_member(broken, (0, 1))

    def test_rule_must_return_matching_labels(self):
        f = ProjectiveFamily(
            IndexUniverse.countable(),
            "copula",
            lambda s: make_independence((0, 1), 2),
        )
        with pytest.raises(CompatibilityError):
            family_member(f, (2, 3))


class TestConsistency:
    def test_independence_family_consistent(self):
        f = independence_family(IndexUniverse.countable(), 2)
        report = check_consistency(f, [(1,), (2,), (1, 2)])
        assert report.passed
        assert report.max_deviation == 0.0

    def test_comonotone_family_consistent(self):
        f = comonotone_family(IndexUniverse.countable(), 5)
        report = check_consistency(f, all_subsets((0, 1, 2)))
        assert report.passed

    def test_constructed_counterexample_flagged(self):
        como = to_tensor_measure(make_comonotone((1, 2), 2))
        dirac = atomize(Marginal.atomic([(0.5, 1.0)]), 1)

        def rule(subset):
            if subset == (1, 2):
                return como
            if subset == (1,):
                return dirac
            return marginalize_tensor(como, subset)

        f = ProjectiveFamily(IndexUniverse.finite((1, 2)), GENERAL, rule)
        report = check_consistency(f, [(1,), (2,), (1, 2)])
        assert not report.passed
        bad = [c for c in report.checks if not c.ok]
        assert any(c.inner == (1,) and c.outer == (1, 2) for c in bad)

    def test_joint_family_consistent_on_all_pairs(self):
        rng = np.random.default_rng(2)
        for labels in ((1, 2), (1, 2, 3), (1, 2, 3, 4)):
            t = random_tensor(rng, labels, max_points=3)
            f = family_from_joint(t)
            report = check_consistency(f, all_subsets(labels), tol=1e-12)
            assert report.passed
            assert report.max_deviation <= 1e-12
            assert family_member(f, labels) == t

    def test_nondeterministic_rule_reported(self):
        counter = itertools.count()

        def rule(subset):
            mass = np.array([0.5, 0.5]) if next(counter) % 2 == 0 else np.array([0.4, 0.6])
            return TensorMeasure(subset, ([0.0, 1.0],), mass)

        f = ProjectiveFamily(IndexUniverse.finite((0,)), GENERAL, rule)
        report = check_consistency(f, [(0,)])
        assert not report.passed
        assert any("nondeterministic" in c.message for c in report.checks)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(st.integers(0, 9), min_size=2, max_size=4, unique=True),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @example([1, 2, 3], 2, 3)
    def test_poset_laws_exact_on_descending_chain(self, labels, order, seed):
        rng = np.random.default_rng(seed)
        labels = tuple(sorted(labels))
        for measure, marginalize in (
            (random_tensor(rng, labels), marginalize_tensor),
            (random_copula(labels, order, rng), marginalize_copula),
        ):
            assert marginalize(measure, labels) == measure
            for target in all_subsets(labels)[:-1]:
                one_step = marginalize(measure, target).mass.tobytes()
                for chain in descending_chains(labels, target):
                    step = measure
                    for subset in chain:
                        step = marginalize(step, subset)
                    assert step.labels == target and step.mass.tobytes() == one_step

    def test_copula_family_members_keep_uniform_margins(self):
        rng = np.random.default_rng(4)
        c = random_copula((0, 1, 2), 4, rng)
        f = family_from_copula(c)
        for subset in all_subsets((0, 1, 2)):
            assert validate_copula(family_member(f, subset)).passed
