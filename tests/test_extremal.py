import itertools
import math
import warnings

import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    DomainError,
    EvaluationError,
    ValidationError,
    birkhoff_decompose,
    make_comonotone,
    make_countermonotone,
    make_independence,
    maximize_convex,
    permutation_copula,
    random_copula,
    validate_copula,
)


def reconstruct(terms, order):
    total = np.zeros((order, order))
    for weight, perm in terms:
        total += weight * permutation_copula(perm).mass
    return total


class TestPermutationCopula:
    def test_is_valid_copula(self):
        for perm in itertools.permutations(range(4)):
            assert validate_copula(permutation_copula(perm)).passed

    def test_rejects_non_permutation(self):
        with pytest.raises(DomainError):
            permutation_copula((0, 0, 2))

    def test_two_dimensional_only(self):
        with pytest.raises(CompatibilityError):
            permutation_copula((0, 1), labels=(0, 1, 2))


class TestBirkhoffDecompose:
    def test_comonotone_is_identity_permutation(self):
        terms = birkhoff_decompose(make_comonotone((0, 1), 5))
        assert len(terms) == 1
        weight, perm = terms[0]
        assert weight == pytest.approx(1.0, abs=1e-12)
        assert perm == (0, 1, 2, 3, 4)

    def test_countermonotone_is_reversal(self):
        terms = birkhoff_decompose(make_countermonotone((0, 1), 4))
        assert len(terms) == 1
        assert terms[0][1] == (3, 2, 1, 0)

    def test_independence_order_two(self):
        terms = birkhoff_decompose(make_independence((0, 1), 2))
        got = {perm: weight for weight, perm in terms}
        assert got == {
            (0, 1): pytest.approx(0.5, abs=1e-12),
            (1, 0): pytest.approx(0.5, abs=1e-12),
        }

    def test_random_copulas_reconstruct(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            c = random_copula((0, 1), n, rng)
            terms = birkhoff_decompose(c)
            assert len(terms) <= n * n - 2 * n + 2
            weights = [w for w, _ in terms]
            assert all(w >= 0 for w in weights)
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(reconstruct(terms, n) - c.mass)) <= 1e-9

    def test_non_doubly_stochastic_rejected(self):
        c = CheckerboardCopula((0, 1), 2, [[0.5, 0.2], [0.2, 0.1]])
        with pytest.raises(ValidationError):
            birkhoff_decompose(c)

    def test_higher_dimensions_rejected(self):
        with pytest.raises(CompatibilityError):
            birkhoff_decompose(make_independence((0, 1, 2), 2))


class TestExtremePoints:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_permutations_are_not_convex_combinations_of_others(self, n):
        linprog = pytest.importorskip("scipy.optimize").linprog
        perms = list(itertools.permutations(range(n)))
        vectors = {p: permutation_copula(p).mass.ravel() for p in perms}
        for target in perms:
            others = [vectors[p] for p in perms if p != target]
            a_eq = np.vstack([np.column_stack(others), np.ones((1, len(others)))])
            b_eq = np.concatenate([vectors[target], [1.0]])
            lp = linprog(
                np.zeros(len(others)),
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=[(0, None)] * len(others),
                method="highs",
            )
            assert lp.status != 0 or np.max(
                np.abs(a_eq @ lp.x - b_eq)
            ) > 1e-9, f"{target} expressible by other permutations"


class TestMaximizeConvex:
    def test_linear_matches_assignment_oracle(self):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        rng = np.random.default_rng(2)
        for trial in range(10):
            n = int(rng.integers(2, 7))
            cost = rng.uniform(-1.0, 1.0, size=(n, n))
            g = lambda c: float(np.sum(cost * c.mass))
            result = maximize_convex(g, n, interior_samples=40, seed=trial)
            _, cols = linear_sum_assignment(cost, maximize=True)
            oracle = g(permutation_copula(tuple(int(x) for x in cols)))
            assert result.extremal_value == oracle
            assert result.interior_within_bound

    def test_max_cell_attains_one_over_n(self):
        for n in (1, 2, 5):
            result = maximize_convex(
                lambda c: float(np.max(c.mass)), n, interior_samples=20, seed=0
            )
            assert result.extremal_value == pytest.approx(1.0 / n, abs=1e-15)
            assert result.extremal_permutation == tuple(range(n))

    def test_constant_functional(self):
        result = maximize_convex(lambda c: 3.5, 3, interior_samples=10, seed=0)
        assert result.extremal_value == 3.5
        assert result.interior_value == 3.5
        assert result.interior_within_bound

    def test_non_finite_value_rejected(self):
        with pytest.raises(EvaluationError):
            maximize_convex(lambda c: float("nan"), 3, interior_samples=5, seed=0)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            maximize_convex(lambda c: 0.0, 9)

    def test_concave_functional_warns_on_midpoint_checks(self):
        concave = lambda c: -float(np.sum(c.mass**2))
        with pytest.warns(UserWarning, match="midpoint convexity"):
            result = maximize_convex(
                concave, 4, interior_samples=40, seed=3, midpoint_checks=40
            )
        assert result.midpoint_violations > 0

    def test_interior_never_beats_extremal_for_convex_functionals(self):
        functionals = [
            lambda c: float(np.max(c.mass)),
            lambda c: float(np.sum(c.mass**2)),
            lambda c: float(np.abs(c.mass - 0.1).sum()),
        ]
        for k, g in enumerate(functionals):
            result = maximize_convex(g, 4, interior_samples=150, seed=k)
            assert result.interior_value <= result.extremal_value + 1e-9

    @pytest.mark.parametrize(
        "order, samples, checks", [(3, 10, 16), (4, 25, 5), (2, 1, 16), (3, 0, 4)]
    )
    def test_each_copula_is_evaluated_once(self, order, samples, checks):
        calls = []

        def counted(c):
            calls.append(c)
            return -float(np.sum(c.mass**2))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the concave functional fails midpoint checks
            maximize_convex(
                counted, order, interior_samples=samples, seed=1, midpoint_checks=checks
            )
        midpoints = checks if samples >= 2 else 0
        assert len(calls) == math.factorial(order) + samples + midpoints
