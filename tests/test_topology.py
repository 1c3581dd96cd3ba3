import numpy as np
import pytest

from copulagrid import (
    CheckerboardCopula,
    CompatibilityError,
    ConfigurationError,
    DomainError,
    FddMetricConfig,
    IndexUniverse,
    Marginal,
    NEG_INF,
    POS_INF,
    atomize,
    comonotone_family,
    compactness_probe,
    continuity_probe,
    fdd_distance,
    independence_family,
    make_comonotone,
    make_independence,
    phi,
    phi_inv,
    random_copula,
    transport_distance,
    transport_plan,
    validate_copula,
    w1_one_dim,
)
from helpers import highs_optimum, random_atomic, random_continuous, random_marginal, random_tensor


class TestPhi:
    def test_exact_landmarks(self):
        assert phi(NEG_INF) == 0.0
        assert phi(0.0) == 0.5
        assert phi(1.0) == 0.75
        assert phi(POS_INF) == 1.0

    def test_strictly_increasing(self):
        xs = [-1e9, -5.0, -1.0, 0.0, 0.5, 3.0, 1e9]
        vals = [phi(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_round_trip(self):
        for t in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert phi(phi_inv(t)) == pytest.approx(t, abs=1e-12)
        with pytest.raises(DomainError):
            phi_inv(1.5)


def dirac(x):
    return atomize(Marginal.atomic([(x, 1.0)]), 0)


class TestTransport:
    def test_identity_of_indiscernibles_direction(self):
        rng = np.random.default_rng(1)
        t = random_tensor(rng, (0, 1))
        assert transport_distance(t, t) == 0.0

    def test_dirac_pair(self):
        for x, y in ((0.0, 1.0), (-2.0, 3.0), (0.0, POS_INF)):
            want = abs(phi(x) - phi(y))
            assert transport_distance(dirac(x), dirac(y)) == pytest.approx(want, abs=1e-15)

    def test_coin_versus_dirac_frozen(self):
        coin = atomize(Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]), 0)
        assert transport_distance(coin, dirac(0.0)) == pytest.approx(0.125, abs=1e-15)

    def test_index_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(CompatibilityError):
            transport_distance(random_tensor(rng, (0,)), random_tensor(rng, (1,)))

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a = random_tensor(rng, (0, 1))
            b = random_tensor(rng, (0, 1))
            assert transport_distance(a, b) == transport_distance(b, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            a, b, c = (random_tensor(rng, (0, 1)) for _ in range(3))
            dab = transport_distance(a, b)
            dbc = transport_distance(b, c)
            dac = transport_distance(a, c)
            assert dac <= dab + dbc + 1e-9

    def test_certificates_on_every_call(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            a = random_tensor(rng, tuple(range(d)))
            b = random_tensor(rng, tuple(range(d)))
            res = transport_plan(a, b)
            assert res.feasibility_deviation() <= 1e-10
            assert res.slackness_deviation() <= 1e-8
            assert np.all(res.plan >= 0.0)

    def test_one_dim_oracle_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            a = random_atomic(rng, allow_inf=True)
            b = random_atomic(rng, allow_inf=True)
            lp = transport_distance(atomize(a, 0), atomize(b, 0))
            area = w1_one_dim(a, b)
            assert lp == pytest.approx(area, abs=1e-9)

    def test_matches_scipy_linprog(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_tensor(rng, (0, 1), max_points=3)
            b = random_tensor(rng, (0, 1), max_points=3)
            res = transport_plan(a, b)
            optimum = highs_optimum(res.cost, res.row_masses, res.col_masses)
            assert res.value == pytest.approx(optimum, abs=1e-9)


class TestW1OneDim:
    def test_identical_marginals(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_marginal(rng, allow_inf=True)
            assert w1_one_dim(m, m) == 0.0

    def test_dirac_zero_versus_dirac_inf(self):
        a = Marginal.atomic([(0.0, 1.0)])
        b = Marginal.atomic([(POS_INF, 1.0)])
        assert w1_one_dim(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_quadrature_oracle_mixed_kinds(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 20001)
        mids = 0.5 * (grid[:-1] + grid[1:])
        from copulagrid import cdf_eval

        for _ in range(8):
            a = random_marginal(rng)
            b = random_marginal(rng)
            samples = [
                abs(cdf_eval(a, phi_inv(t)) - cdf_eval(b, phi_inv(t))) for t in mids
            ]
            quad = float(np.mean(samples))
            assert w1_one_dim(a, b) == pytest.approx(quad, abs=2e-3)

    def test_continuous_against_fine_atomization(self):
        from copulagrid import quantile

        rng = np.random.default_rng(10)
        k = 400
        for _ in range(5):
            a = random_continuous(rng)
            b = random_continuous(rng)
            fine = lambda m: atomize(
                Marginal.atomic(
                    [(quantile(m, (i + 0.5) / k), 1.0 / k) for i in range(k)]
                ),
                0,
            )
            lp = transport_distance(fine(a), fine(b))
            assert abs(lp - w1_one_dim(a, b)) <= 2.0 / k


class TestFddDistance:
    def test_equal_families_zero(self):
        f = independence_family(IndexUniverse.countable(), 2)
        g = independence_family(IndexUniverse.countable(), 2)
        assert fdd_distance(f, g, FddMetricConfig(depth=5)) == 0.0

    def test_independence_versus_comonotone(self):
        u = IndexUniverse.finite((0, 1))
        f = independence_family(u, 2)
        g = comonotone_family(u, 2)
        singles_only = fdd_distance(f, g, FddMetricConfig(depth=2))
        with_pair = fdd_distance(f, g, FddMetricConfig(depth=3))
        assert singles_only == 0.0
        assert with_pair > 0.0

    def test_bounded_by_one(self):
        u = IndexUniverse.finite((0, 1, 2))
        f = independence_family(u, 2)
        g = comonotone_family(u, 2)
        assert fdd_distance(f, g, FddMetricConfig(depth=7)) <= 1.0

    def test_monotone_in_depth(self):
        u = IndexUniverse.finite((0, 1, 2))
        f = independence_family(u, 3)
        g = comonotone_family(u, 3)
        values = [fdd_distance(f, g, FddMetricConfig(depth=k)) for k in range(1, 8)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_universe_mismatch(self):
        f = independence_family(IndexUniverse.finite((0, 1)), 2)
        g = independence_family(IndexUniverse.countable(), 2)
        with pytest.raises(CompatibilityError):
            fdd_distance(f, g)


class TestCompactnessProbe:
    def test_constant_sequence_full_subsequence(self):
        c = make_independence((0, 1), 3)
        result = compactness_probe([c] * 7, eps=1e-6)
        assert result.indices == tuple(range(7))
        assert result.num_clusters == 1
        assert result.representative is c

    def test_alternating_sequence_even_indices(self):
        seq = [make_independence((0, 1), 2), make_comonotone((0, 1), 2)] * 6
        result = compactness_probe(seq, eps=0.01)
        assert result.indices == (0, 2, 4, 6, 8, 10)
        assert result.num_clusters == 2

    def test_three_cluster_pigeonhole(self):
        rng = np.random.default_rng(11)
        eps = 0.05
        anchors = [
            make_independence((0, 1), 2),
            make_comonotone((0, 1), 2),
            CheckerboardCopula((0, 1), 2, [[0.0, 0.5], [0.5, 0.0]]),
        ]
        seq = []
        for _ in range(90):
            anchor = anchors[int(rng.integers(0, 3))]
            noise = random_copula((0, 1), 2, rng)
            blend = eps  # keeps each draw within eps/2 of its anchor
            seq.append(
                CheckerboardCopula(
                    (0, 1), 2, (1 - blend) * anchor.mass + blend * noise.mass
                )
            )
        result = compactness_probe(seq, eps)
        assert result.num_clusters == 3
        assert len(result.indices) >= 30
        assert validate_copula(result.representative).passed
        # strictly increasing indices, all within eps of the representative
        assert all(a < b for a, b in zip(result.indices, result.indices[1:]))
        rep = result.representative.mass
        for k in result.indices:
            assert np.max(np.abs(seq[k].mass - rep)) <= eps

    def test_shape_mismatch(self):
        with pytest.raises(CompatibilityError):
            compactness_probe(
                [make_independence((0, 1), 2), make_independence((0, 1), 3)], 0.1
            )


class TestContinuityProbe:
    def marginals(self):
        return {
            0: Marginal.atomic([(-1.0, 0.25), (0.0, 0.5), (2.0, 0.25)]),
            1: Marginal.atomic([(0.0, 0.5), (1.0, 0.5)]),
        }

    def test_zero_perturbation_gives_zero_distances(self):
        report = continuity_probe(
            make_independence((0, 1), 4), self.marginals(), [0.0, 0.0]
        )
        assert report.output_distances() == (0.0, 0.0)
        assert all(s.input_distance == 0.0 for s in report.steps)

    def test_halving_schedule_decreases_below_tolerance(self):
        report = continuity_probe(
            make_independence((0, 1), 4),
            self.marginals(),
            [2.0**-k for k in range(1, 13)],
        )
        outs = report.output_distances()
        assert all(outs[i + 1] <= outs[i] for i in range(2, len(outs) - 1))
        assert outs[-1] < 1e-3
        ins = [s.input_distance for s in report.steps]
        assert all(ins[i + 1] <= ins[i] for i in range(2, len(ins) - 1))

    def test_marginal_only_perturbation_tracks_one_dim_oracle(self):
        # freeze the copula direction by perturbing a copula-free quantity:
        # compare the singleton fdd terms against the w1 oracle directly
        from copulagrid.topology import _perturb_marginal

        rng = np.random.default_rng(12)
        m = self.marginals()[0]
        direction = rng.uniform(-1, 1, size=len(m.xs))
        dists = [
            w1_one_dim(_perturb_marginal(m, eps, direction), m)
            for eps in (0.5, 0.25, 0.125, 0.0625)
        ]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert dists[-1] < dists[0]

    def test_oversized_perturbation_rejected(self):
        with pytest.raises(ConfigurationError):
            continuity_probe(make_independence((0, 1), 2), self.marginals(), [1.5])

    def test_continuous_marginals_supported(self):
        marginals = {
            0: Marginal.continuous([(0.0, 0.0), (1.0, 1.0)]),
            1: Marginal.continuous([(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]),
        }
        report = continuity_probe(
            make_independence((0, 1), 2), marginals, [0.25, 0.125, 0.0625]
        )
        outs = report.output_distances()
        assert outs[-1] < outs[0]
