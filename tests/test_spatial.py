import itertools
import math

import numpy as np
import pytest

from emitternet import (
    ConfocalPsf,
    DomainError,
    EnsembleModel,
    NormalCenters,
    occupancy_stats,
    poisson_multi_occupancy,
    sample_scene,
    spectral_arrangement_rate,
    spot_volume,
)
from emitternet.spatial import MAX_SPATIAL_POINTS, _chain_exists


class TestSampleScene:
    def test_zero_density(self):
        scene = sample_scene(0.0, (5.0, 5.0, 5.0), 1)
        assert scene.count == 0

    def test_positions_inside_box(self):
        scene = sample_scene(2.0, (4.0, 3.0, 2.0), 7)
        assert scene.count > 0
        assert np.all(scene.positions >= 0.0)
        assert np.all(scene.positions <= np.array([4.0, 3.0, 2.0]))

    def test_mean_count_at_measured_density(self):
        # lambda = 0.43 * 4000 = 1720
        counts = [sample_scene(0.43, (20.0, 20.0, 10.0), seed).count for seed in range(1000)]
        assert np.mean(counts) == pytest.approx(1720.0, abs=13.0)

    def test_unit_intensity(self):
        counts = [sample_scene(1.0, (1.0, 1.0, 1.0), 3000 + s).count for s in range(3000)]
        assert np.mean(counts) == pytest.approx(1.0, abs=3.0 * math.sqrt(1.0 / 3000))

    def test_variance_matches_mean(self):
        lam = 0.43 * 4000.0
        counts = np.array(
            [sample_scene(0.43, (20.0, 20.0, 10.0), 5000 + s).count for s in range(1000)]
        )
        spread = 3.0 * math.sqrt((2.0 * lam**2 + lam) / len(counts))
        assert counts.var(ddof=1) == pytest.approx(lam, abs=spread)

    def test_deterministic(self):
        a = sample_scene(1.0, (3.0, 3.0, 3.0), 11)
        b = sample_scene(1.0, (3.0, 3.0, 3.0), 11)
        assert np.array_equal(a.positions, b.positions)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_scene(-1.0, (1.0, 1.0, 1.0), 1)
        with pytest.raises(DomainError):
            sample_scene(1.0, (0.0, 1.0, 1.0), 1)

    def test_expected_count_beyond_limit_refused(self):
        with pytest.raises(DomainError, match="expected emitter count"):
            sample_scene(1e4, (20.0, 20.0, 10.0), 1)


class TestSpotVolume:
    def test_unit_sphere_convention(self):
        assert spot_volume(ConfocalPsf(1.0, 1.0)) == pytest.approx(math.pi / 6.0, rel=1e-12)

    def test_measured_axial_width(self):
        # (pi/6) * 0.5^2 * 1.22
        assert spot_volume(ConfocalPsf(0.5)) == pytest.approx(0.159698, abs=1e-6)

    def test_lateral_scaling(self):
        assert spot_volume(ConfocalPsf(2.0, 1.0)) == pytest.approx(
            4.0 * spot_volume(ConfocalPsf(1.0, 1.0)), rel=1e-12
        )

    def test_default_axial(self):
        assert ConfocalPsf(0.5).axial_fwhm_um == 1.22

    def test_validation(self):
        with pytest.raises(DomainError):
            ConfocalPsf(0.0)
        with pytest.raises(DomainError):
            ConfocalPsf(1.0, -1.0)


class TestOccupancyStats:
    def test_zero_density(self):
        stats = occupancy_stats(0.0, ConfocalPsf(0.5), 2000, 1)
        assert stats.distribution == (1.0,)
        assert stats.multi_emitter_fraction == 0.0
        assert stats.mean_per_spot == 0.0

    @pytest.mark.parametrize("lam", [0.01, 0.1, 1.0])
    def test_matches_poisson_tail(self, lam):
        # closed-form oracle: P(k >= 2) = 1 - exp(-lam) (1 + lam)
        psf = ConfocalPsf(1.0, 1.0)
        density = lam / spot_volume(psf)
        trials = 100_000
        stats = occupancy_stats(density, psf, trials, seed=int(lam * 1000))
        expected = 1.0 - math.exp(-lam) * (1.0 + lam)
        assert stats.multi_emitter_fraction_poisson == pytest.approx(expected, rel=1e-9)
        sigma = math.sqrt(expected * (1.0 - expected) / trials)
        assert stats.multi_emitter_fraction == pytest.approx(expected, abs=3.0 * sigma)
        mean_sigma = math.sqrt(lam / trials)
        assert stats.mean_per_spot == pytest.approx(lam, abs=3.0 * mean_sigma)

    def test_measured_density_narrow_spot(self):
        # density 0.43, lateral 0.5 um (configured assumption), axial 1.22 um
        psf = ConfocalPsf(0.5, 1.22)
        stats = occupancy_stats(0.43, psf, 50_000, 9)
        assert stats.occupancy_mean_poisson == pytest.approx(0.068670, abs=1e-6)
        assert stats.multi_emitter_fraction_poisson == pytest.approx(0.0022526, abs=1e-7)

    def test_distribution_consistency(self):
        stats = occupancy_stats(1.5, ConfocalPsf(1.0, 1.0), 20_000, 4)
        assert sum(stats.distribution) == pytest.approx(1.0, abs=1e-12)
        mean = sum(k * p for k, p in enumerate(stats.distribution))
        assert mean == pytest.approx(stats.mean_per_spot, abs=1e-12)

    def test_needs_enough_trials(self):
        with pytest.raises(DomainError):
            occupancy_stats(0.43, ConfocalPsf(0.5), 999, 1)


class TestOccupancyLimit:
    def test_expected_points_beyond_limit_refused(self):
        with pytest.raises(DomainError, match="expected point count"):
            occupancy_stats(1e4, ConfocalPsf(2.0), 100_000, 1)

    def test_trials_beyond_limit_refused(self):
        with pytest.raises(DomainError, match="trial count"):
            occupancy_stats(0.0, ConfocalPsf(0.5), MAX_SPATIAL_POINTS + 1, 1)


class TestChainExists:
    def test_against_permutation_enumeration(self):
        # brute-force oracle: try every ordering explicitly
        rng = np.random.default_rng(15)
        for k in (2, 3, 4, 5):
            adjacency = rng.uniform(size=(300, k, k)) < 0.35
            idx = np.arange(k)
            adjacency[:, idx, idx] = False
            got = _chain_exists(adjacency)
            perms = list(itertools.permutations(range(k)))
            for t in range(adjacency.shape[0]):
                expected = any(
                    all(adjacency[t, order[i], order[i + 1]] for i in range(k - 1))
                    for order in perms
                )
                assert got[t] == expected


class TestSpectralArrangementRate:
    def test_infinite_window(self):
        assert spectral_arrangement_rate(EnsembleModel(), 3, math.inf, 10_000, 1) == 1.0

    def test_zero_spread_blocks_chains_below_zfs(self):
        model = EnsembleModel(centers=NormalCenters(sigma_ghz=0.0), zfs_sigma_ghz=0.0)
        assert spectral_arrangement_rate(model, 2, 1000.0, 10_000, 2) == 0.0
        assert spectral_arrangement_rate(model, 2, 1050.0, 10_000, 2) == 1.0

    def test_two_emitter_rate_matches_union_bound(self):
        # analytic oracle: two orderings of one A2-A1 coincidence, each
        # ~ 2 * window / (2 * half_width)
        rate = spectral_arrangement_rate(EnsembleModel(), 2, 29.0, 1_000_000, 5)
        analytic = 2.0 * (2.0 * 0.029 / 20.0)
        assert rate == pytest.approx(analytic, rel=0.10)

    def test_monotone_in_window(self):
        rates = [
            spectral_arrangement_rate(EnsembleModel(), 3, w, 20_000, 8)
            for w in (29.0, 300.0, 3000.0)
        ]
        assert rates[0] <= rates[1] <= rates[2]

    def test_non_increasing_in_chain_length(self):
        rates = [
            spectral_arrangement_rate(EnsembleModel(), k, 2000.0, 20_000, 9) for k in (2, 3, 4)
        ]
        assert rates[0] >= rates[1] >= rates[2]

    def test_deterministic(self):
        a = spectral_arrangement_rate(EnsembleModel(), 3, 500.0, 10_000, 12)
        b = spectral_arrangement_rate(EnsembleModel(), 3, 500.0, 10_000, 12)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            spectral_arrangement_rate(EnsembleModel(), 1, 29.0, 10_000, 1)
        with pytest.raises(DomainError):
            spectral_arrangement_rate(EnsembleModel(), 2, 29.0, 9_999, 1)


class TestPoissonTailHelper:
    def test_small_lambda_expansion(self):
        # 1 - e^-x (1+x) ~ x^2/2 for small x
        assert poisson_multi_occupancy(1e-4) == pytest.approx(5e-9, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_multi_occupancy(-0.1)
