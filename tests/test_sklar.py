import itertools
import re

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    ConfigurationError,
    IndexUniverse,
    Marginal,
    POS_INF,
    UnsupportedError,
    ValidationError,
    atomize,
    cdf_eval,
    compose,
    decompose,
    discretize_joint,
    family_from_copula,
    family_member,
    independence_family,
    joint_cdf,
    make_comonotone,
    make_independence,
    marginalize_tensor,
    quantile,
    random_copula,
    verify_sklar,
)
from helpers import random_atomic


def coin():
    return Marginal.atomic([(0.0, 0.5), (1.0, 0.5)])


def uniform01():
    return Marginal.continuous([(0.0, 0.0), (1.0, 1.0)])


def grid_probes(t):
    return list(itertools.product(*[list(axis) for axis in t.grid]))


def dyadic_atoms(n):
    """n equally weighted atoms at 1..n; the CDF levels are exact multiples of 1/n."""
    return Marginal.atomic([(float(k + 1), 1.0 / n) for k in range(n)])


class TestCompose:
    def test_missing_marginal_rejected(self):
        f = family_from_copula(make_independence((0, 1), 2))
        with pytest.raises(ConfigurationError):
            compose(f, {0: coin()})

    def test_independence_gives_product_cdf(self):
        rng = np.random.default_rng(1)
        f = family_from_copula(make_independence((0, 1), 4))
        marginals = {0: coin(), 1: uniform01()}
        jm = compose(f, marginals)
        for _ in range(25):
            x = rng.normal(size=2)
            want = cdf_eval(marginals[0], x[0]) * cdf_eval(marginals[1], x[1])
            assert joint_cdf(jm, (0, 1), x) == pytest.approx(want, abs=1e-12)

    def test_singleton_subset_reproduces_marginal(self):
        rng = np.random.default_rng(2)
        f = family_from_copula(random_copula((0, 1), 5, rng))
        m = random_atomic(rng)
        jm = compose(f, {0: m, 1: coin()})
        for x in list(m.xs) + list(rng.normal(size=5)):
            assert joint_cdf(jm, (0,), (x,)) == pytest.approx(cdf_eval(m, x), abs=1e-12)

    def test_comonotone_min_formula_at_grid_nodes(self):
        n = 8
        m = dyadic_atoms(n)
        f = family_from_copula(make_comonotone((0, 1), n))
        jm = compose(f, {0: m, 1: m})
        # oracle: push the n diagonal cells through the shared quantile map
        for x in m.xs:
            for y in m.xs:
                u, v = cdf_eval(m, x), cdf_eval(m, y)
                cells = sum(1 for k in range(n) if (k + 1) / n <= min(u, v))
                want = cells / n
                assert joint_cdf(jm, (0, 1), (x, y)) == pytest.approx(want, abs=1e-12)
                assert want == pytest.approx(min(u, v), abs=1e-12)


class TestJointCdf:
    def test_pos_inf_gives_total_mass(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: coin(), 1: coin()})
        assert joint_cdf(jm, (0, 1), (POS_INF, POS_INF)) == pytest.approx(1.0, abs=1e-12)

    def test_independent_coins_quarter(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: coin(), 1: coin()})
        assert joint_cdf(jm, (0, 1), (0.0, 0.0)) == pytest.approx(0.25, abs=1e-15)

    def test_comonotone_uniform_marginals_min(self):
        f = family_from_copula(make_comonotone((0, 1), 10))
        jm = compose(f, {0: uniform01(), 1: uniform01()})
        assert joint_cdf(jm, (0, 1), (0.3, 0.6)) == pytest.approx(0.3, abs=1e-12)

    # a subset the universe refuses -> the start of the refusal message
    SUBSET_REFUSALS = {
        (True,): "label True outside the index universe",
        (1, True): "duplicate labels in [1, True]",
        (0, "a"): "labels are not mutually orderable: [0, 'a']",
        (2, 2): "duplicate labels in [2, 2]",
        (-1,): "label -1 outside the index universe",
        ("a",): "label 'a' outside the index universe",
        (False, 1): "label False outside the index universe",
    }

    @pytest.mark.parametrize("labels", list(SUBSET_REFUSALS), ids=repr)
    def test_refusals_survive_a_warm_cache(self, labels):
        f = independence_family(IndexUniverse.countable(), 2)
        jm = compose(f, {k: coin() for k in range(3)})
        # (True,) == (1,) and (False,) == (0,), and they hash alike
        for warm in ((0,), (1,), (0, 1)):
            joint_cdf(jm, warm, (0.0,) * len(warm))
            family_member(f, warm)
        message = "^" + re.escape(self.SUBSET_REFUSALS[labels])
        with pytest.raises(CompatibilityError, match=message):
            joint_cdf(jm, labels, (0.0,) * len(labels))
        with pytest.raises(CompatibilityError, match=message):
            # a subset refusal comes before a point of the wrong length
            joint_cdf(jm, labels, (0.0,) * (len(labels) + 1))
        with pytest.raises(CompatibilityError, match=message):
            family_member(f, labels)
        assert sorted(f._cache) == [(0,), (0, 1), (1,)]
        assert not any(type(lab) is not int for key in f._cache for lab in key)

    def test_foreign_label_of_a_finite_universe_refused(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: coin(), 1: coin()})
        joint_cdf(jm, (0, 1), (0.0, 0.0))
        for labels in ((2,), (0, 2), (1.5,)):
            with pytest.raises(CompatibilityError, match="outside the index universe"):
                joint_cdf(jm, labels, (0.0,) * len(labels))
            with pytest.raises(CompatibilityError, match="outside the index universe"):
                family_member(f, labels)

    def test_unsorted_labels_read_coordinates_in_their_given_order(self):
        f = family_from_copula(make_comonotone((0, 1), 4))
        jm = compose(f, {0: uniform01(), 1: coin()})
        assert joint_cdf(jm, (1, 0), (0.0, 0.3)) == joint_cdf(jm, (0, 1), (0.3, 0.0))
        assert family_member(f, (1, 0)) is family_member(f, (0, 1))
        with pytest.raises(CompatibilityError, match="point has 3 coordinates"):
            joint_cdf(jm, (1, 0), (0.0, 0.3, 0.5))

class TestDiscretize:
    def test_independence_with_coins(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: coin(), 1: coin()})
        t = discretize_joint(jm, (0, 1))
        assert np.array_equal(t.grid[0], [0.0, 1.0])
        assert np.allclose(t.mass, 0.25, atol=1e-15)

    def test_single_atom_marginals_concentrate(self):
        rng = np.random.default_rng(3)
        f = family_from_copula(random_copula((0, 1), 6, rng))
        jm = compose(f, {0: Marginal.atomic([(2.0, 1.0)]), 1: Marginal.atomic([(-1.0, 1.0)])})
        t = discretize_joint(jm, (0, 1))
        assert t.mass.shape == (1, 1)
        assert t.mass[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_comonotone_diagonal_joint(self):
        n = 4
        m = dyadic_atoms(n)
        f = family_from_copula(make_comonotone((0, 1), n))
        jm = compose(f, {0: m, 1: m})
        t = discretize_joint(jm, (0, 1))
        want = np.diag([0.25] * 4)
        assert np.allclose(t.mass, want, atol=1e-12)

    def test_continuous_needs_grid(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: uniform01(), 1: coin()})
        with pytest.raises(ConfigurationError):
            discretize_joint(jm, (0, 1))

    def test_grid_must_cover_support(self):
        f = family_from_copula(make_independence((0,), 2))
        jm = compose(f, {0: uniform01()})
        with pytest.raises(ConfigurationError):
            discretize_joint(jm, (0,), grids={0: [0.25, 0.5]})

    def test_marginal_preservation(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            labels = tuple(range(d))
            f = family_from_copula(random_copula(labels, int(rng.integers(1, 7)), rng))
            marginals = {lab: random_atomic(rng, allow_inf=True) for lab in labels}
            jm = compose(f, marginals)
            t = discretize_joint(jm, labels)
            for lab in labels:
                got = marginalize_tensor(t, (lab,))
                want = atomize(marginals[lab], lab)
                assert np.array_equal(got.grid[0], want.grid[0])
                assert np.max(np.abs(got.mass - want.mass)) <= 1e-12

    def test_projectivity_of_composition(self):
        rng = np.random.default_rng(5)
        labels = (0, 1, 2)
        f = family_from_copula(random_copula(labels, 4, rng))
        marginals = {lab: random_atomic(rng) for lab in labels}
        jm = compose(f, marginals)
        subsets = [
            combo
            for size in range(1, 4)
            for combo in itertools.combinations(labels, size)
        ]
        for j2 in subsets:
            for j1 in subsets:
                if not set(j1) <= set(j2):
                    continue
                via = marginalize_tensor(discretize_joint(jm, j2), j1)
                direct = discretize_joint(jm, j1)
                assert np.max(np.abs(via.mass - direct.mass)) <= 1e-12


class TestVerifySklar:
    def test_independence_coins_zero_deviation(self):
        f = family_from_copula(make_independence((0, 1), 2))
        jm = compose(f, {0: coin(), 1: coin()})
        t = discretize_joint(jm, (0, 1))
        report = verify_sklar(jm, (0, 1), grid_probes(t))
        assert report.max_deviation == 0.0
        assert report.probes_checked == 4

    def test_random_corpus_within_tolerance(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            labels = tuple(range(d))
            f = family_from_copula(random_copula(labels, int(rng.integers(1, 9)), rng))
            marginals = {lab: random_atomic(rng, allow_inf=True) for lab in labels}
            jm = compose(f, marginals)
            t = discretize_joint(jm, labels)
            report = verify_sklar(jm, labels, grid_probes(t))
            assert report.max_deviation <= 1e-12

    def test_singleton_probes_zero(self):
        rng = np.random.default_rng(7)
        f = family_from_copula(random_copula((0,), 5, rng))
        m = random_atomic(rng)
        jm = compose(f, {0: m})
        report = verify_sklar(jm, (0,), [(x,) for x in m.xs])
        assert report.max_deviation <= 1e-12


class TestDecompose:
    def test_product_joint_gives_independence(self):
        n = 4
        f = family_from_copula(make_independence((0, 1), n))
        marginals = {0: uniform01(), 1: uniform01()}
        jm = compose(f, marginals)
        grids = {lab: [(k + 1) / n for k in range(n)] for lab in (0, 1)}
        t = discretize_joint(jm, (0, 1), grids=grids)
        c = decompose(t, marginals, n)
        assert c == make_independence((0, 1), n)

    def test_diagonal_joint_gives_comonotone(self):
        n = 5
        xs = [(k + 1) / n for k in range(n)]
        mass = np.diag([1.0 / n] * n)
        t = TensorMeasureFactory(xs, mass)
        marginals = {0: uniform01(), 1: uniform01()}
        c = decompose(t, marginals, n)
        assert np.allclose(c.mass, make_comonotone((0, 1), n).mass, atol=1e-15)

    def test_round_trip_recovers_random_copulas(self):
        rng = np.random.default_rng(8)
        m1 = uniform01()
        m2 = Marginal.continuous([(0.0, 0.0), (0.25, 0.4), (1.0, 1.0)])
        for _ in range(20):
            n = int(rng.integers(1, 9))
            C = random_copula((0, 1), n, rng)
            marginals = {0: m1, 1: m2}
            jm = compose(family_from_copula(C), marginals)
            grids = {
                lab: [quantile(m, (k + 1) / n) for k in range(n)]
                for lab, m in marginals.items()
            }
            t = discretize_joint(jm, (0, 1), grids=grids)
            back = decompose(t, marginals, n)
            assert np.max(np.abs(back.mass - C.mass)) <= 1e-9

    def test_atomic_marginal_rejected(self):
        t = discretize_joint(
            compose(family_from_copula(make_independence((0, 1), 2)), {0: coin(), 1: coin()}),
            (0, 1),
        )
        with pytest.raises(UnsupportedError):
            decompose(t, {0: coin(), 1: coin()}, 2)

    def test_inconsistent_marginal_rejected(self):
        f = family_from_copula(make_independence((0, 1), 2))
        marginals = {0: uniform01(), 1: uniform01()}
        jm = compose(f, marginals)
        grids = {lab: [0.5, 1.0] for lab in (0, 1)}
        t = discretize_joint(jm, (0, 1), grids=grids)
        skewed = Marginal.continuous([(0.0, 0.0), (0.5, 0.9), (1.0, 1.0)])
        with pytest.raises(CompatibilityError):
            decompose(t, {0: skewed, 1: skewed}, 2)

    def test_incompatible_order_reports_hint(self):
        f = family_from_copula(make_independence((0, 1), 2))
        marginals = {0: uniform01(), 1: uniform01()}
        jm = compose(f, marginals)
        grids = {lab: [0.5, 1.0] for lab in (0, 1)}
        t = discretize_joint(jm, (0, 1), grids=grids)
        with pytest.raises(ValidationError, match="compatible order is 2"):
            decompose(t, marginals, 3)


def TensorMeasureFactory(xs, mass):
    from copulagrid import TensorMeasure

    return TensorMeasure((0, 1), (xs, xs), mass)


class TestUniqueness:
    def block_diagonal_refinement(self):
        # refine each quadrant of the order-2 independence copula into an
        # order-4 diagonal block; quadrant totals stay 1/4 each
        mass = np.zeros((4, 4))
        for bi in range(2):
            for bj in range(2):
                for k in range(2):
                    mass[2 * bi + k, 2 * bj + k] = 0.125
        return CheckerboardCopula((0, 1), 4, mass)

    def test_non_uniqueness_with_coin_marginals(self):
        a = make_independence((0, 1), 4)
        b = self.block_diagonal_refinement()
        assert np.max(np.abs(a.mass - b.mass)) > 0.05
        marginals = {0: coin(), 1: coin()}
        jm_a = compose(family_from_copula(a), marginals)
        jm_b = compose(family_from_copula(b), marginals)
        ta = discretize_joint(jm_a, (0, 1))
        tb = discretize_joint(jm_b, (0, 1))
        assert np.max(np.abs(ta.mass - tb.mass)) == 0.0
        for probe in itertools.product([-1.0, 0.0, 0.5, 1.0, POS_INF], repeat=2):
            assert joint_cdf(jm_a, (0, 1), probe) == joint_cdf(jm_b, (0, 1), probe)

    def test_distinct_copulas_distinct_joints_with_continuous_marginals(self):
        rng = np.random.default_rng(9)
        marginals = {0: uniform01(), 1: uniform01()}
        for _ in range(10):
            n = int(rng.integers(2, 7))
            a = random_copula((0, 1), n, rng)
            b = random_copula((0, 1), n, rng)
            if np.max(np.abs(a.mass - b.mass)) < 1e-5:
                continue
            jm_a = compose(family_from_copula(a), marginals)
            jm_b = compose(family_from_copula(b), marginals)
            nodes = [(k + 1) / n for k in range(n)]
            diffs = [
                abs(joint_cdf(jm_a, (0, 1), p) - joint_cdf(jm_b, (0, 1), p))
                for p in itertools.product(nodes, repeat=2)
            ]
            assert max(diffs) > 1e-9
