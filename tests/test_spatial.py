import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    ConfocalPsf,
    DomainError,
    EnsembleModel,
    LineCombo,
    NormalCenters,
    SpatialScene,
    occupancy_stats,
    poisson_multi_occupancy,
    sample_scene,
    spectral_arrangement_rate,
    spot_volume,
)
from emitternet.seeding import as_seed
from emitternet.spatial import CHAIN_BLOCK_BYTES, MAX_SPATIAL_POINTS, _has_chain
from emitternet.spectral import sample_line_positions, separation_mhz


def _chain_exists(adjacency: np.ndarray) -> np.ndarray:
    """Vectorized Hamiltonian-path test over trials.

    ``adjacency[t, u, v]`` marks an allowed consecutive step u -> v in
    trial t. Subset dynamic programming, exact for any k (equivalent to
    enumerating all orderings).
    """
    trials, k, _ = adjacency.shape
    full = (1 << k) - 1
    dp = np.zeros((1 << k, k, trials), dtype=bool)
    for v in range(k):
        dp[1 << v, v, :] = True
    for mask in range(1, full + 1):
        for v in range(k):
            if not (mask >> v) & 1 or mask == (1 << v):
                continue
            prev = mask ^ (1 << v)
            reach = np.zeros(trials, dtype=bool)
            for u in range(k):
                if (prev >> u) & 1:
                    reach |= dp[prev, u, :] & adjacency[:, u, v]
            dp[mask, v, :] = reach
    return dp[full].any(axis=0)


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

    def test_nan_density_refused(self):
        with pytest.raises(DomainError, match="density must be non-negative, got nan"):
            sample_scene(math.nan, (1.0, 1.0, 1.0), 1)

    def test_nan_box_refused(self):
        with pytest.raises(DomainError, match="box must be three positive extents"):
            sample_scene(1.0, (math.nan, 1.0, 1.0), 1)
        with pytest.raises(DomainError, match="box extents must be positive"):
            SpatialScene((1.0, math.nan, 1.0), np.empty((0, 3)))


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

    @pytest.mark.parametrize(
        "lateral, axial",
        [(1e300, 1.22), (1e150, 1e300), (1e100, 2.5e108), (10**400, 1.0)],
        ids=["square-raises", "product-inf", "box-only", "int-beyond-double"],
    )
    def test_volume_beyond_double_refused(self, lateral, axial):
        with pytest.raises(DomainError, match="beyond the range of a double"):
            ConfocalPsf(lateral, axial)

    def test_largest_volumes_are_accepted(self):
        psf = ConfocalPsf(1e100, 1e108)
        assert math.isfinite(spot_volume(psf))
        assert occupancy_stats(0.0, psf, 1000, 1).distribution == (1.0,)


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

    def test_nan_density_refused(self):
        with pytest.raises(DomainError, match="density must be non-negative, got nan"):
            occupancy_stats(math.nan, ConfocalPsf(0.5), 1000, 1)


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
            got = _has_chain(adjacency)
            perms = list(itertools.permutations(range(k)))
            for t in range(adjacency.shape[0]):
                expected = any(
                    all(adjacency[t, order[i], order[i + 1]] for i in range(k - 1))
                    for order in perms
                )
                assert got[t] == expected

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.integers(2, 8),
        density=st.sampled_from([0.05, 0.15, 0.3, 0.5, 0.9]),
        trials=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        loops=st.booleans(),
    )
    def test_degree_filter_keeps_every_chain(self, k, density, trials, seed, loops):
        adjacency = np.random.default_rng(seed).uniform(size=(trials, k, k)) < density
        if not loops:
            idx = np.arange(k)
            adjacency[:, idx, idx] = False
        assert np.array_equal(_has_chain(adjacency), _chain_exists(adjacency))

    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(2, 10),
        density=st.sampled_from([0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0]),
        trials=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
        loops=st.booleans(),
    )
    def test_matches_subset_dp_oracle(self, k, density, trials, seed, loops):
        adjacency = np.random.default_rng(seed).uniform(size=(trials, k, k)) < density
        idx = np.arange(k)
        adjacency[:, idx, idx] = loops
        assert np.array_equal(_has_chain(adjacency), _chain_exists(adjacency))

    def test_sixteen_vertices(self):
        # one hidden path through all 16 vertices, so bit 15 of every mask is used
        order = np.random.default_rng(16).permutation(16)
        path = np.zeros((3, 16, 16), dtype=bool)
        path[:, order[:-1], order[1:]] = True
        path[1, order[7], order[8]] = False
        path[2, order[-1], order[0]] = True
        assert _has_chain(path).tolist() == [True, False, True]
        assert _has_chain(np.ones((2, 16, 16), dtype=bool)).all()


class TestSpectralArrangementRate:
    def test_infinite_window(self):
        assert spectral_arrangement_rate(EnsembleModel(), 3, math.inf, 10_000, 1) == 1.0

    def test_centers_beyond_double(self):
        # gaps that overflow when scaled to MHz are inf, with no overflow warning
        model = EnsembleModel(centers=NormalCenters(sigma_ghz=1e307))
        assert spectral_arrangement_rate(model, 3, 29.0, 10_000, 1) == 0.0

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

    @pytest.mark.parametrize("window_mhz", [0.0, -5.0, -math.inf, math.nan])
    def test_window_must_be_positive(self, window_mhz):
        with pytest.raises(DomainError, match="chain window must be positive"):
            spectral_arrangement_rate(EnsembleModel(), 3, window_mhz, 10_000, 1)


def _chunked_rate(model, k, window_mhz, trials, seed):
    """The chain rate as it was computed when each chunk held its float gaps
    in full: the loop of that spectral_arrangement_rate, verbatim."""
    rng = as_seed(seed).rng()
    chunk = max(1024, min(trials, 1 << 22 >> k))
    hits = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        lines = [x.reshape(m, k) for x in sample_line_positions(model, m * k, rng)]
        # adjacency[t, u, v]: the A2 line of u lies within the window of the A1 line of v
        u, v = [x[:, :, None] for x in lines], [x[:, None, :] for x in lines]
        adjacency = separation_mhz(u, v, [LineCombo.A2_A1]) < window_mhz
        idx = np.arange(k)
        adjacency[:, idx, idx] = False
        hits += int(np.count_nonzero(_has_chain(adjacency)))
        done += m
    return hits / trials


UNIFORM = EnsembleModel()
NORMAL = EnsembleModel(centers=NormalCenters(sigma_ghz=0.3))


def _block(k):
    return CHAIN_BLOCK_BYTES // (8 * k * k)


class TestChainRateByBlocks:
    """The rate filled a block of trials at a time equals the rate of the
    whole-chunk loop, ``==``."""

    # from no trial a hit, through rates in between, to every trial a hit
    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("window_mhz", [1e-3, 1000.0, 3000.0, math.inf])
    def test_equals_whole_chunk_loop(self, k, window_mhz):
        rate = spectral_arrangement_rate(UNIFORM, k, window_mhz, 10_000, k)
        assert rate == _chunked_rate(UNIFORM, k, window_mhz, 10_000, k)
        if window_mhz == 1e-3:
            assert rate == 0.0
        if window_mhz == math.inf:
            assert rate == 1.0

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 11])
    @pytest.mark.parametrize("window_mhz", [300.0, 1000.0, 3000.0])
    def test_normal_centers(self, k, window_mhz):
        rate = spectral_arrangement_rate(NORMAL, k, window_mhz, 10_000, 20 + k)
        assert rate == _chunked_rate(NORMAL, k, window_mhz, 10_000, 20 + k)

    # k = 2: one chunk of three blocks, the last of one trial; k = 8: two
    # whole chunks and a third that spills one trial past a block; k = 10
    # and 12: chunks whose size is not a multiple of the block
    @pytest.mark.parametrize(
        ("k", "trials"), [(2, 2 * _block(2) + 1), (8, 2 * 16384 + _block(8) + 1),
                          (10, 3 * 4096 + 1), (12, 10_001)],
    )
    @pytest.mark.parametrize("model", [UNIFORM, NORMAL], ids=["uniform", "normal"])
    def test_trial_counts_across_chunks_and_blocks(self, k, trials, model):
        rate = spectral_arrangement_rate(model, k, 1000.0, trials, 7)
        assert rate == _chunked_rate(model, k, 1000.0, trials, 7)

    def test_traced_peak_at_k8(self):
        model = EnsembleModel()
        tracemalloc.start()
        try:
            spectral_arrangement_rate(model, 8, model.gamma_mhz, 100_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 19 MB while a chunk's (16384, 8, 8) float gaps were held in full
        assert peak < 10e6

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
        st.sets(st.sampled_from(list(LineCombo)), min_size=1),
    )
    def test_separation_equals_two_temporary_form(self, n, m, seed, combos):
        rng = np.random.default_rng(seed)
        x = tuple(rng.normal(0.0, 10.0, size=(n, 1)) for _ in range(2))
        y = tuple(rng.normal(0.0, 10.0, size=(1, m)) for _ in range(2))
        # a zero gap between signed zeros
        x[0][0, 0], y[1][0, 0] = -0.0, 0.0
        sep = None
        for ci, cj in (c.value for c in combos):
            d = np.abs(x[ci] - y[cj])
            sep = d if sep is None else np.minimum(sep, d, out=sep)
        expected = np.multiply(sep, 1e3, out=sep)
        assert separation_mhz(x, y, combos).tobytes() == expected.tobytes()


class TestPoissonTailHelper:
    def test_small_lambda_expansion(self):
        # 1 - e^-x (1+x) ~ x^2/2 for small x
        assert poisson_multi_occupancy(1e-4) == pytest.approx(5e-9, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_multi_occupancy(-0.1)

    @pytest.mark.parametrize("mean", [math.nan, math.inf])
    def test_non_finite_mean_refused(self, mean):
        with pytest.raises(DomainError, match="non-negative and finite"):
            poisson_multi_occupancy(mean)
