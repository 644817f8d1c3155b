import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import truncnorm

from emitternet import (
    ALL_COMBOS,
    DomainError,
    EmitterLines,
    EnsembleModel,
    LineCombo,
    LineTable,
    NormalCenters,
    SeedSpec,
    UniformCenters,
    lifetime_limited_linewidth,
    sample_ensemble,
    summarize_ensemble,
)
from emitternet import spectral
from emitternet.spectral import MAX_ENSEMBLE_EMITTERS, separation_mhz
from conftest import ZFS_GHZ, lines_of, make_emitter, make_table


class TestLifetimeLimitedLinewidth:
    def test_measured_lifetime(self):
        # 5.5 ns excited-state lifetime gives ~29 MHz
        assert lifetime_limited_linewidth(5.5) == pytest.approx(28.94, abs=0.01)

    def test_unit_identity(self):
        # tau = 1/(2 pi) us makes the formula exactly 1 MHz
        assert lifetime_limited_linewidth(1000.0 / (2 * math.pi)) == pytest.approx(1.0, abs=1e-12)

    def test_halving_lifetime_doubles_width(self):
        assert lifetime_limited_linewidth(2.75) == pytest.approx(57.87, abs=0.01)
        assert lifetime_limited_linewidth(2.75) == pytest.approx(
            2.0 * lifetime_limited_linewidth(5.5), rel=1e-12
        )

    # from max / (2 pi), about 2.8611e307 ns, 2 pi tau overflows and the quotient read 0
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), 1e308, 2.87e307])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            lifetime_limited_linewidth(bad)

    def test_longest_lifetimes_keep_their_linewidth(self):
        assert lifetime_limited_linewidth(2.8e307) == pytest.approx(5.68e-306, rel=1e-3)
        assert lifetime_limited_linewidth(2.86e307) == pytest.approx(5.565e-306, rel=1e-3)

    def test_strictly_decreasing(self):
        taus = np.linspace(0.1, 50.0, 200)
        widths = [lifetime_limited_linewidth(t) for t in taus]
        assert all(a > b for a, b in zip(widths, widths[1:]))


class TestEmitterLines:
    def test_invariants(self):
        e = make_emitter(0, 0.0)
        assert e.zfs_ghz == pytest.approx(1.027)
        assert e.center_ghz == pytest.approx(0.0)

    def test_rejects_inverted_lines(self):
        with pytest.raises(DomainError):
            EmitterLines(id="x", a1_ghz=1.0, a2_ghz=0.5, fwhm_a1_mhz=300, fwhm_a2_mhz=300)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(DomainError):
            EmitterLines(id="x", a1_ghz=0.0, a2_ghz=1.0, fwhm_a1_mhz=0.0, fwhm_a2_mhz=300)


class TestSampleEnsemble:
    def test_size_and_invariants(self):
        emitters = sample_ensemble(EnsembleModel(), 50, 1)
        assert len(emitters) == 50
        for e in emitters:
            assert e.a2_ghz - e.a1_ghz > 0
            assert e.fwhm_a1_mhz > 0 and e.fwhm_a2_mhz > 0

    def test_determinism(self):
        a = sample_ensemble(EnsembleModel(), 200, SeedSpec(99, 4))
        b = sample_ensemble(EnsembleModel(), 200, SeedSpec(99, 4))
        assert a == b

    def test_streams_differ(self):
        a = sample_ensemble(EnsembleModel(), 20, SeedSpec(99, 0))
        b = sample_ensemble(EnsembleModel(), 20, SeedSpec(99, 1))
        assert a != b

    def test_zfs_sample_mean(self):
        # CLT bound: 3 sigma / sqrt(n) = 0.00225 GHz, rounded up to 0.003
        emitters = sample_ensemble(EnsembleModel(), 10000, 7)
        mean = np.mean([e.zfs_ghz for e in emitters])
        assert mean == pytest.approx(1.027, abs=0.003)

    def test_degenerate_zfs(self):
        model = EnsembleModel(zfs_sigma_ghz=0.0)
        emitters = sample_ensemble(model, 5, 3)
        for e in emitters:
            assert e.zfs_ghz == pytest.approx(1.027, abs=1e-12)

    def test_truncation_keeps_widths_positive(self):
        # mean close to zero relative to sigma forces heavy resampling
        model = EnsembleModel(fwhm_mean_mhz=50.0, fwhm_sigma_mhz=122.0)
        emitters = sample_ensemble(model, 2000, 11)
        assert all(e.fwhm_a1_mhz > 0 and e.fwhm_a2_mhz > 0 for e in emitters)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            sample_ensemble(EnsembleModel(), 0, 1)

    def test_size_beyond_limit_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"limit of {MAX_ENSEMBLE_EMITTERS}"):
                sample_ensemble(EnsembleModel(), 2_000_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the centers alone would take 14.9 GiB
        assert peak < 1e6

    def test_size_at_the_limit_is_sampled(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_ENSEMBLE_EMITTERS", 50)
        assert len(sample_ensemble(EnsembleModel(), 50, 1)) == 50
        with pytest.raises(DomainError, match="limit of 50"):
            sample_ensemble(EnsembleModel(), 51, 1)


def former_sample_line_positions(model, n, rng):
    """The former ``sample_line_positions``, verbatim, on numpy's own ``uniform`` and ``normal``."""
    if isinstance(model.centers, UniformCenters):
        centers = rng.uniform(-model.centers.half_width_ghz, model.centers.half_width_ghz, n)
    else:
        centers = rng.normal(0.0, model.centers.sigma_ghz, n)
    mean, sigma = model.zfs_mean_ghz, model.zfs_sigma_ghz
    if sigma == 0.0:
        zfs = np.full(n, mean)
    else:
        zfs = rng.normal(mean, sigma, n)
        bad = zfs <= 0.0
        while n_bad := np.count_nonzero(bad):
            zfs[bad] = rng.normal(mean, sigma, n_bad)
            bad = zfs <= 0.0
    half = 0.5 * zfs
    return centers - half, centers + half


class TestSampleLinePositions:
    # The raw draws and their maps must be the IEEE operations of numpy's C
    # uniform and normal: equal bits (signed zeros too) and the same stream.
    @pytest.mark.parametrize("model", [
        EnsembleModel(),
        EnsembleModel(centers=NormalCenters(0.5)),
        EnsembleModel(centers=NormalCenters(0.0)),
        EnsembleModel(centers=UniformCenters(2.0), zfs_sigma_ghz=0.0),
        EnsembleModel(zfs_mean_ghz=0.02, zfs_sigma_ghz=0.075),
        EnsembleModel(centers=UniformCenters(sys.float_info.max / 2)),
        EnsembleModel(centers=NormalCenters(1e-300), zfs_mean_ghz=1e-5, zfs_sigma_ghz=3.0),
    ])
    @pytest.mark.parametrize("n", [1, 7, 32, 1000])
    def test_equals_numpys_uniform_and_normal(self, model, n):
        for seed in range(5):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = spectral.sample_line_positions(model, n, got_rng)
            want = former_sample_line_positions(model, n, want_rng)
            for g, w in zip(got, want):
                assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestModelValidation:
    def test_center_distributions(self):
        with pytest.raises(DomainError):
            UniformCenters(half_width_ghz=0.0)
        with pytest.raises(DomainError):
            NormalCenters(sigma_ghz=-1.0)

    @pytest.mark.parametrize("half_width", [1e308, math.inf])
    def test_uniform_full_width_beyond_double_refused(self, half_width):
        with pytest.raises(DomainError, match="beyond the range of a double"):
            UniformCenters(half_width_ghz=half_width)

    def test_uniform_largest_half_width_is_sampled(self):
        half_width = sys.float_info.max / 2
        model = EnsembleModel(centers=UniformCenters(half_width))
        for lines in spectral.sample_line_positions(model, 3, np.random.default_rng(0)):
            assert np.all(np.abs(lines) <= half_width)

    @pytest.mark.parametrize("sigma", [1e308, sys.float_info.max / 13, math.inf])
    def test_normal_centers_beyond_double_refused(self, sigma):
        with pytest.raises(DomainError, match="beyond the range of a double"):
            NormalCenters(sigma_ghz=sigma)

    def test_normal_sigma_below_the_limit_is_sampled(self):
        # no standard normal draw reaches 14, so no center overflows
        model = EnsembleModel(centers=NormalCenters(sys.float_info.max / 15))
        for lines in spectral.sample_line_positions(model, 1000, np.random.default_rng(0)):
            assert np.isfinite(lines).all()

    @pytest.mark.parametrize("sigma", [-0.1, math.nan])
    @pytest.mark.parametrize("name", ["zfs_sigma_ghz", "fwhm_sigma_mhz"])
    def test_negative_or_nan_sigma_rejected(self, name, sigma):
        # a NaN FWHM sigma drew NaN widths, written as blank cells
        with pytest.raises(DomainError, match=f"sigma must be non-negative, got {sigma}"):
            EnsembleModel(**{name: sigma})

    @pytest.mark.parametrize(
        "mean, sigma",
        [(1.027, 1e308), (1.027, sys.float_info.max / 13), (1.027, math.inf),
         (1e308, 1e307), (math.inf, 0.0)],
    )
    def test_zfs_beyond_double_refused(self, mean, sigma):
        # the ZFS scaling overflowed in a RuntimeWarning before this refusal
        with pytest.raises(DomainError, match="ZFS mean .* beyond the range of a double"):
            EnsembleModel(zfs_mean_ghz=mean, zfs_sigma_ghz=sigma)

    def test_zfs_sigma_below_the_limit_is_sampled(self):
        # no standard normal draw reaches 14, so no ZFS value overflows
        model = EnsembleModel(zfs_mean_ghz=1.0, zfs_sigma_ghz=sys.float_info.max / 15)
        for lines in spectral.sample_line_positions(model, 1000, np.random.default_rng(0)):
            assert np.isfinite(lines).all()

    def test_nonpositive_lifetime_rejected(self):
        with pytest.raises(DomainError):
            EnsembleModel(lifetime_ns=0.0)

    def test_lifetime_whose_linewidth_overflows_rejected(self):
        # 1/(2 pi tau) of a subnormal lifetime is beyond the range of a double
        with pytest.raises(DomainError, match="linewidth beyond the range"):
            EnsembleModel(lifetime_ns=1e-320)
        with pytest.raises(DomainError, match="linewidth beyond the range"):
            lifetime_limited_linewidth(1e-320)
        with pytest.raises(DomainError, match="linewidth beyond the range"):
            EnsembleModel(lifetime_ns=1e308)


def one_emitter(a1_ghz: float, a2_ghz: float) -> tuple[np.ndarray, np.ndarray]:
    """One emitter's lines as the one-element arrays ``separation_mhz`` takes."""
    return np.array([a1_ghz]), np.array([a2_ghz])


class TestSeparationMhz:
    def test_identical_emitters(self):
        e = lines_of(make_table([3.0]), [0])
        assert separation_mhz(e, e, ALL_COMBOS).tolist() == [0.0]

    def test_constructed_coincidence(self):
        # A2 of the first emitter meets A1 of the second
        gap = separation_mhz(one_emitter(0.0, 1.0), one_emitter(1.0, 2.0), ALL_COMBOS)
        assert gap.tolist() == [0.0]

    def test_four_combo_enumeration(self):
        lines1, lines2 = (0.0, 1.0), (0.2, 1.25)
        # independent oracle: enumerate the four line distances explicitly
        expected = min(abs(x - y) for x in lines1 for y in lines2) * 1e3
        assert expected == pytest.approx(200.0, abs=1e-9)
        (gap,) = separation_mhz(one_emitter(*lines1), one_emitter(*lines2), ALL_COMBOS)
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_single_combo(self):
        (gap,) = separation_mhz(one_emitter(0.0, 1.0), one_emitter(0.2, 1.25), {LineCombo.A2_A1})
        assert gap == pytest.approx(800.0)

    def test_symmetry_under_swap_closed_combos(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            c1, c2 = rng.uniform(-10, 10, 2)
            z1, z2 = rng.uniform(0.8, 1.2, 2)
            table = make_table([c1, c2], [z1, z2])
            e1, e2 = lines_of(table, [0]), lines_of(table, [1])
            (forward,) = separation_mhz(e1, e2, ALL_COMBOS)
            (backward,) = separation_mhz(e2, e1, ALL_COMBOS)
            assert forward == pytest.approx(backward, rel=1e-12)

    def test_subset_never_below_full_set(self):
        rng = np.random.default_rng(13)
        subsets = [s for r in range(1, 5) for s in itertools.combinations(ALL_COMBOS, r)]
        for _ in range(20):
            c1, c2 = rng.uniform(-10, 10, 2)
            table = make_table([c1, c2], [ZFS_GHZ, 1.1])
            e1, e2 = lines_of(table, [0]), lines_of(table, [1])
            (full,) = separation_mhz(e1, e2, ALL_COMBOS)
            for subset in subsets:
                assert separation_mhz(e1, e2, subset)[0] >= full - 1e-12


class TestSummarizeEnsemble:
    def test_two_point_statistics(self):
        e1 = make_emitter(0, 0.0, zfs_ghz=1.0)
        e2 = make_emitter(1, 5.0, zfs_ghz=1.1)
        summary = summarize_ensemble(LineTable.from_rows([e1, e2]))
        assert summary.zfs_ghz.mean == pytest.approx(1.05)
        assert summary.zfs_ghz.std * 1e3 == pytest.approx(70.71, abs=0.01)

    def test_degenerate_model_gives_zero_spread(self):
        model = EnsembleModel(
            centers=NormalCenters(sigma_ghz=0.0), zfs_sigma_ghz=0.0, fwhm_sigma_mhz=0.0
        )
        summary = summarize_ensemble(sample_ensemble(model, 50, 2))
        assert summary.zfs_ghz.std == pytest.approx(0.0, abs=1e-9)
        assert summary.fwhm_mhz.std == pytest.approx(0.0, abs=1e-9)

    def test_fwhm_mean_matches_model(self):
        # CLT bound 3*122/sqrt(10000 widths) ~ 3.7 MHz; band widened to 6
        # because truncation at zero biases the mean by +1.7 MHz
        # (verified against the closed-form truncated normal below).
        emitters = sample_ensemble(EnsembleModel(), 5000, 3)
        summary = summarize_ensemble(emitters)
        assert summary.fwhm_mhz.mean == pytest.approx(316.0, abs=6.0)
        a = (0.0 - 316.0) / 122.0
        expected_mean = truncnorm(a, np.inf, loc=316.0, scale=122.0).mean()
        assert summary.fwhm_mhz.mean == pytest.approx(expected_mean, abs=5.5)

    def test_detuning_range(self):
        e1 = make_emitter(0, -2.0)
        e2 = make_emitter(1, 3.0)
        summary = summarize_ensemble(LineTable.from_rows([e1, e2]))
        assert summary.detuning_min_ghz == pytest.approx(e1.a1_ghz)
        assert summary.detuning_max_ghz == pytest.approx(e2.a2_ghz)

    def test_requires_two(self):
        with pytest.raises(DomainError):
            summarize_ensemble(LineTable.from_rows([make_emitter(0, 0.0)]))

    def test_overflowing_statistics_refused(self):
        # widths near 1e300 overflow the squared spread, ZFS near 1e308 the sum
        wide = [make_emitter(i, 0.0, fwhm_a1_mhz=1e300 * (i + 1)) for i in range(2)]
        with pytest.raises(DomainError, match="fwhm_mhz"):
            summarize_ensemble(LineTable.from_rows(wide))
        far = [make_emitter(i, 0.0, zfs_ghz=1.5e308) for i in range(2)]
        with pytest.raises(DomainError, match="zfs_ghz"):
            summarize_ensemble(LineTable.from_rows(far))
