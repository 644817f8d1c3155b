import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from emitternet import (
    ClassificationError,
    DomainError,
    FitResult,
    LorentzianPeak,
    PeakDetectionError,
    PleSpectrum,
    classify_pair_spectrum,
    fit_multi_lorentzian,
    initial_guess,
    lorentzian_value,
    synthesize,
)
from emitternet import ple
from emitternet import _trf
from emitternet.cli import main


def _fit_from_centers(centers_ghz):
    peaks = tuple(
        LorentzianPeak(center_ghz=c, fwhm_mhz=300.0, amplitude=100.0) for c in centers_ghz
    )
    return FitResult(peaks=peaks, background=0.0, residual_rms=0.0, converged=True, iterations=1)


class TestLorentzianValue:
    def test_peak_height_at_center(self):
        peak = LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=100.0)
        assert lorentzian_value(peak, 0.0) == pytest.approx(100.0)

    def test_half_maximum_at_half_width(self):
        peak = LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=100.0)
        assert lorentzian_value(peak, 0.15) == pytest.approx(50.0)
        assert lorentzian_value(peak, -0.15) == pytest.approx(50.0)

    def test_one_width_out(self):
        # A * (w/2)^2 / (w^2 + (w/2)^2) = A / 5
        peak = LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=100.0)
        assert lorentzian_value(peak, 0.3) == pytest.approx(20.0)

    def test_symmetric_and_decreasing(self):
        peak = LorentzianPeak(center_ghz=0.4, fwhm_mhz=250.0, amplitude=80.0)
        offsets = np.linspace(0.0, 3.0, 100)
        left = lorentzian_value(peak, peak.center_ghz - offsets)
        right = lorentzian_value(peak, peak.center_ghz + offsets)
        np.testing.assert_allclose(left, right, rtol=1e-12)
        assert all(a > b for a, b in zip(right, right[1:]))

    def test_validation(self):
        with pytest.raises(DomainError):
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=0.0, amplitude=10.0)
        with pytest.raises(DomainError):
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=100.0, amplitude=0.0)

    @pytest.mark.parametrize(
        ("fwhm_mhz", "amplitude"),
        [(1e300, 1.0), (1e157, 100.0), (3e5, 1e305)],
        ids=["squared-half-width", "height-times-squared-half-width", "tall"],
    )
    def test_overflowing_peak_is_a_domain_error(self, fwhm_mhz, amplitude):
        # the first raised OverflowError from a Python float's **, the others
        # gave an infinite value
        peak = LorentzianPeak(0.0, fwhm_mhz, amplitude)
        for frequency in (0.0, np.linspace(-1.0, 1.0, 5)):
            with pytest.raises(DomainError, match="beyond the range of a double"):
                lorentzian_value(peak, frequency)

    def test_widest_finite_peak_is_evaluated(self):
        # (w/2)^2 is the largest double below the overflow: A / 2 one half-width out
        half_ghz = math.sqrt(np.finfo(float).max) * 0.5
        peak = LorentzianPeak(0.0, 2.0 * half_ghz * 1e3, 1.0)
        assert lorentzian_value(peak, 0.0) == 1.0
        assert lorentzian_value(peak, half_ghz) == pytest.approx(0.5)

    def test_far_detuning_is_zero_without_a_warning(self):
        # (nu - nu0)^2 overflows beyond about 1.3e154 GHz; numpy warned,
        # which the tests' RuntimeWarning filter turns into an error
        peak = LorentzianPeak(0.0, 300.0, 1.0)
        assert lorentzian_value(peak, 1e160) == 0.0
        assert lorentzian_value(peak, -1.7e308) == 0.0
        far = np.array([-1e300, -1e160, 1e160, 1.7e308])
        np.testing.assert_array_equal(lorentzian_value(peak, far), np.zeros(4))

    def test_finite_values_unchanged_bit_for_bit(self):
        # the formula as written before the overflow was let through
        peak = LorentzianPeak(0.3, 250.0, 80.0)
        nu = np.concatenate([np.linspace(-3.0, 3.0, 101), [1e150, -1e153, 1e154]])
        half_sq = (peak.fwhm_mhz * 1e-3 / 2.0) ** 2
        want = peak.amplitude * half_sq / ((nu - peak.center_ghz) ** 2 + half_sq)
        assert lorentzian_value(peak, nu).tobytes() == want.tobytes()
        assert [lorentzian_value(peak, float(v)) for v in nu] == want.tolist()


class TestSynthesize:
    def test_background_only(self):
        grid = np.linspace(-1, 1, 51)
        spec = synthesize([], background=7.5, grid_ghz=grid)
        np.testing.assert_allclose(spec.counts, 7.5)

    def test_two_peak_maxima_at_centers(self):
        # peaks one ZFS apart; each local maximum sits at its center up to
        # the ~0.5 MHz pull of the other peak's tail
        from scipy.signal import argrelmax

        peaks = [
            LorentzianPeak(center_ghz=-0.5135, fwhm_mhz=300.0, amplitude=100.0),
            LorentzianPeak(center_ghz=0.5135, fwhm_mhz=300.0, amplitude=100.0),
        ]
        grid = np.arange(-2.0, 2.0001, 0.0005)
        spec = synthesize(peaks, background=0.0, grid_ghz=grid)
        maxima = grid[argrelmax(spec.counts)[0]]
        assert len(maxima) == 2
        assert maxima[0] == pytest.approx(-0.5135, abs=0.002)
        assert maxima[1] == pytest.approx(0.5135, abs=0.002)

    def test_poisson_zero_mean(self):
        grid = np.linspace(-1, 1, 20)
        spec = synthesize([], background=0.0, grid_ghz=grid, shot_noise=True, seed=4)
        np.testing.assert_array_equal(spec.counts, 0.0)

    def test_shot_noise_deterministic(self):
        peaks = [LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=50.0)]
        grid = np.linspace(-1, 1, 101)
        a = synthesize(peaks, 5.0, grid, shot_noise=True, seed=12)
        b = synthesize(peaks, 5.0, grid, shot_noise=True, seed=12)
        assert a == b

    @pytest.mark.parametrize("shot_noise", [False, True])
    def test_overflowing_peak_is_a_domain_error(self, shot_noise):
        # with shot noise this raised numpy's "lam value too large"
        peaks = [LorentzianPeak(0.0, 1e157, 100.0)]
        with pytest.raises(DomainError, match="beyond the range of a double"):
            synthesize(peaks, 5.0, np.linspace(-1, 1, 50), shot_noise=shot_noise, seed=1)

    def test_grid_spanning_beyond_a_double(self):
        with pytest.raises(DomainError, match="grid from .* span beyond the range of a double"):
            synthesize([], 5.0, [-1e308, 1e308])

    def test_expectation_beyond_a_poisson_draw(self):
        # finite counts, but above numpy's largest Poisson mean (about 9.2e18)
        peaks = [LorentzianPeak(0.0, 300.0, 1e19)]
        grid = np.linspace(-1, 1, 50)
        assert np.all(np.isfinite(synthesize(peaks, 5.0, grid).counts))
        with pytest.raises(DomainError, match="beyond the range of a Poisson draw"):
            synthesize(peaks, 5.0, grid, shot_noise=True, seed=1)
        peaks = [LorentzianPeak(0.0, 300.0, 1e18)]
        assert synthesize(peaks, 5.0, grid, shot_noise=True, seed=1).counts.max() > 9e17

    def test_validation(self):
        grid = np.linspace(-1, 1, 10)
        with pytest.raises(DomainError):
            synthesize([], background=-1.0, grid_ghz=grid)
        with pytest.raises(DomainError):
            synthesize([], background=1.0, grid_ghz=[0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            synthesize([], background=1.0, grid_ghz=grid, shot_noise=True)


def _float_bits(value):
    return np.float64(value).tobytes()


class TestMedian:
    """``ple._median`` is ``np.median`` bit for bit, without loading numpy.ma,
    where that is finite; a median that is not is refused."""

    @staticmethod
    def _check(x):
        with np.errstate(all="ignore"):  # the mean of inf and -inf, or of two near-max values
            expected = np.median(x)
        if np.isfinite(expected):
            assert _float_bits(ple._median(x)) == _float_bits(expected)
        else:
            with pytest.raises(DomainError, match="not a finite number"):
                ple._median(x)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 1e308, -1e308]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_np_median(self, values):
        self._check(np.array(values))

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0], [-0.0, 0.0], [-0.0], [1.0, math.nan, 2.0], [math.nan], [3.0, 1.0, 2.0, 4.0]],
    )
    def test_signed_zeros_and_nan(self, values):
        self._check(np.array(values))

    def test_mean_of_middle_values_that_overflows_is_refused(self):
        # the mean of 1e308 and 1e308 overflowed to inf, with a RuntimeWarning
        with pytest.raises(DomainError, match="the median of 20 values is inf"):
            ple._median(np.full(20, 1e308))
        assert ple._median(np.full(21, 1e308)) == 1e308

    def test_leaves_its_input_as_it_was(self):
        x = np.array([3.0, 1.0, 2.0])
        ple._median(x)
        np.testing.assert_array_equal(x, [3.0, 1.0, 2.0])


class TestInitialGuess:
    def test_clean_single_peak(self):
        peak = LorentzianPeak(center_ghz=0.2, fwhm_mhz=300.0, amplitude=100.0)
        grid = np.linspace(-2, 2, 401)
        spec = synthesize([peak], background=5.0, grid_ghz=grid)
        guess = initial_guess(spec, 1)
        assert len(guess) == 1
        assert abs(guess[0].center_ghz - 0.2) <= float(grid[1] - grid[0]) + 1e-12

    def test_two_separated_peaks_ordered(self):
        peaks = [
            LorentzianPeak(center_ghz=-1.0, fwhm_mhz=300.0, amplitude=80.0),
            LorentzianPeak(center_ghz=1.0, fwhm_mhz=300.0, amplitude=100.0),
        ]
        grid = np.linspace(-3, 3, 601)
        spec = synthesize(peaks, background=2.0, grid_ghz=grid)
        guess = initial_guess(spec, 2)
        assert guess[0].center_ghz == pytest.approx(-1.0, abs=0.02)
        assert guess[1].center_ghz == pytest.approx(1.0, abs=0.02)

    def test_grid_finer_than_an_index_reach(self):
        # half the seed width spans 1.6e19 steps of 1e-20 GHz, beyond an int64:
        # that reach overflowed in _find_peaks, and now keeps the tallest maximum
        i = np.arange(200)
        counts = 5.0 + 100.0 * np.exp(-(((i - 60) / 10.0) ** 2)) + 80.0 * np.exp(
            -(((i - 140) / 10.0) ** 2)
        )
        spec = PleSpectrum(frequencies_ghz=i * 1e-20, counts=counts)
        (guess,) = initial_guess(spec, 1)
        assert guess.center_ghz == 60 * 1e-20
        with pytest.raises(PeakDetectionError) as err:
            initial_guess(spec, 2)
        assert err.value.found == 1

    def test_flat_spectrum_detection_error(self):
        spec = PleSpectrum(frequencies_ghz=np.linspace(-1, 1, 50), counts=np.full(50, 3.0))
        with pytest.raises(PeakDetectionError) as err:
            initial_guess(spec, 1)
        assert err.value.requested == 1
        assert err.value.found == 0
        assert "0" in str(err.value)

    def test_too_few_points(self):
        spec = PleSpectrum(frequencies_ghz=np.linspace(-1, 1, 8), counts=np.full(8, 3.0))
        with pytest.raises(DomainError):
            initial_guess(spec, 2)


class TestFitMultiLorentzian:
    def test_noiseless_single_peak_exact_recovery(self):
        truth = LorentzianPeak(center_ghz=0.2, fwhm_mhz=300.0, amplitude=100.0)
        grid = np.linspace(-2, 2, 401)
        spec = synthesize([truth], background=5.0, grid_ghz=grid)
        fit = fit_multi_lorentzian(spec, 1)
        assert fit.converged
        peak = fit.peaks[0]
        assert peak.center_ghz == pytest.approx(0.2, rel=1e-6, abs=1e-9)
        assert peak.fwhm_mhz == pytest.approx(300.0, rel=1e-6)
        assert peak.amplitude == pytest.approx(100.0, rel=1e-6)
        assert fit.background == pytest.approx(5.0, rel=1e-6)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_noiseless_round_trip(self, k):
        truth = [
            LorentzianPeak(
                center_ghz=0.15 + 1.03 * i, fwhm_mhz=300.0 + 12 * i, amplitude=100.0 - 6 * i
            )
            for i in range(k)
        ]
        grid = np.linspace(-1.6, 1.0 + 1.03 * k, 900)
        spec = synthesize(truth, background=4.0, grid_ghz=grid)
        fit = fit_multi_lorentzian(spec, k)
        assert fit.converged
        assert fit.iterations <= 500
        for got, want in zip(fit.peaks, truth):
            assert got.center_ghz == pytest.approx(want.center_ghz, rel=1e-6, abs=1e-9)
            assert got.fwhm_mhz == pytest.approx(want.fwhm_mhz, rel=1e-6)
            assert got.amplitude == pytest.approx(want.amplitude, rel=1e-6)
        assert fit.background == pytest.approx(4.0, rel=1e-6)

    def test_noisy_double_centers_within_ten_mhz(self):
        truth = [
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=316.0, amplitude=100.0),
            LorentzianPeak(center_ghz=1.027, fwhm_mhz=316.0, amplitude=100.0),
        ]
        grid = np.linspace(-2.0, 3.0, 1001)
        hits = 0
        for s in range(100):
            spec = synthesize(truth, background=5.0, grid_ghz=grid, shot_noise=True, seed=s)
            fit = fit_multi_lorentzian(spec, 2)
            errs = [
                abs(fit.peaks[i].center_ghz - truth[i].center_ghz) * 1e3 for i in range(2)
            ]
            if max(errs) <= 10.0:
                hits += 1
        assert hits >= 95

    def test_three_peak_spectrum_adjacent_separations(self):
        # pair spectrum: three lines with ~1 GHz neighbor gaps
        truth = [
            LorentzianPeak(center_ghz=-1.03, fwhm_mhz=320.0, amplitude=90.0),
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=160.0),
            LorentzianPeak(center_ghz=1.02, fwhm_mhz=330.0, amplitude=85.0),
        ]
        grid = np.linspace(-3.0, 3.0, 1201)
        spec = synthesize(truth, background=3.0, grid_ghz=grid)
        fit = fit_multi_lorentzian(spec, 3)
        assert fit.converged
        centers = [p.center_ghz for p in fit.peaks]
        assert centers[1] - centers[0] == pytest.approx(1.03, abs=1e-3)
        assert centers[2] - centers[1] == pytest.approx(1.02, abs=1e-3)

    def test_residual_not_worse_with_true_peak_count(self):
        truth = [
            LorentzianPeak(center_ghz=-0.6, fwhm_mhz=300.0, amplitude=90.0),
            LorentzianPeak(center_ghz=0.6, fwhm_mhz=300.0, amplitude=100.0),
        ]
        grid = np.linspace(-2.5, 2.5, 701)
        spec = synthesize(truth, background=5.0, grid_ghz=grid, shot_noise=True, seed=6)
        rms_under = fit_multi_lorentzian(spec, 1).residual_rms
        rms_true = fit_multi_lorentzian(spec, 2).residual_rms
        assert rms_true <= rms_under + 1e-9

    def test_iteration_cap_flags_nonconvergence(self):
        truth = [LorentzianPeak(center_ghz=0.1, fwhm_mhz=300.0, amplitude=100.0)]
        grid = np.linspace(-2, 2, 401)
        spec = synthesize(truth, background=5.0, grid_ghz=grid, shot_noise=True, seed=1)
        fit = fit_multi_lorentzian(spec, 1, max_iterations=1)
        assert not fit.converged

    def test_undetectable_peak_count(self):
        truth = [LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=100.0)]
        grid = np.linspace(-2, 2, 401)
        spec = synthesize(truth, background=5.0, grid_ghz=grid)
        with pytest.raises(PeakDetectionError):
            fit_multi_lorentzian(spec, 4)

    def test_peaks_sorted_by_frequency(self):
        truth = [
            LorentzianPeak(center_ghz=0.9, fwhm_mhz=300.0, amplitude=70.0),
            LorentzianPeak(center_ghz=-0.9, fwhm_mhz=300.0, amplitude=100.0),
        ]
        grid = np.linspace(-3, 3, 601)
        spec = synthesize(truth, background=1.0, grid_ghz=grid)
        fit = fit_multi_lorentzian(spec, 2)
        assert fit.peaks[0].center_ghz < fit.peaks[1].center_ghz

    def test_jacobian_beyond_limit_refused_before_the_guess(self):
        # a flat spectrum: the initial guess would raise PeakDetectionError
        spec = PleSpectrum(np.linspace(-50.0, 50.0, 40_000), np.ones(40_000))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="Jacobian of 1.2e\\+07 entries"):
                fit_multi_lorentzian(spec, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (40000, 301) Jacobian alone would take 96 MB
        assert peak < 1e6

    def test_jacobian_at_the_limit_is_fitted(self, monkeypatch):
        truth = [LorentzianPeak(center_ghz=0.2, fwhm_mhz=300.0, amplitude=100.0)]
        spec = synthesize(truth, background=5.0, grid_ghz=np.linspace(-2, 2, 401))
        monkeypatch.setattr(ple, "MAX_FIT_JACOBIAN_ENTRIES", 401 * 4)
        assert fit_multi_lorentzian(spec, 1).converged
        monkeypatch.setattr(ple, "MAX_FIT_JACOBIAN_ENTRIES", 401 * 4 - 1)
        with pytest.raises(DomainError, match="Jacobian"):
            fit_multi_lorentzian(spec, 1)

    def test_overflowing_fit_is_a_domain_error(self):
        # the residuals overflow; scipy raised a bare ValueError after its
        # overflow warnings, which pytest here turns into errors
        spec = synthesize([LorentzianPeak(0.0, 300.0, 1e200)], 0.0, np.linspace(-2, 2, 200))
        with pytest.raises(DomainError, match="not finite"):
            fit_multi_lorentzian(spec, 1)

    def test_empty_spectrum_refused(self):
        spec = PleSpectrum(np.array([]), np.array([]))
        with pytest.raises(DomainError, match="empty spectrum"):
            fit_multi_lorentzian(spec, 1, guess=[LorentzianPeak(0.0, 300.0, 1.0)])

    def test_spectrum_too_narrow_for_the_fwhm_bounds(self):
        # the FWHM bounds [1e-9, 100 x span] GHz are empty below a 1e-11 GHz span
        counts = np.array([1.0, 2.0, 3.0, 4.0, 9.0, 4.0, 3.0, 2.0, 1.0, 1.0])
        spec = PleSpectrum(np.arange(10) * 1e-12, counts)
        with pytest.raises(DomainError, match="peak 0 FWHM bounds .* are empty"):
            fit_multi_lorentzian(spec, 1)


def _scipy_least_squares(fun, x0, lb, ub, **tolerances):
    """``_trf.least_squares`` through scipy, with the arguments the fit
    passed to scipy before the port: the residuals and the Jacobian that
    ``fun`` returns together, as scipy's separate ``fun`` and ``jac``."""
    from scipy.optimize import least_squares

    r = least_squares(
        lambda x: fun(x)[0], x0, jac=lambda x: fun(x)[1], bounds=(lb, ub), method="trf",
        **tolerances,
    )
    return _trf.TrfResult(r.x, r.fun, r.nfev, r.status)


def _fit_with(solver, spectrum, k, guess, max_iterations):
    """The fit, and the raw result of its one call to ``solver``."""
    raw = []

    def record(*args, **kwargs):
        raw.append(solver(*args, **kwargs))
        return raw[-1]

    with mock.patch.object(_trf, "least_squares", record):
        fit = fit_multi_lorentzian(spectrum, k, guess, max_iterations)
    (result,) = raw
    return fit, result


@st.composite
def fit_cases(draw):
    k = draw(st.integers(1, 5), label="k")
    n_points = draw(st.integers(40, 600), label="n_points")
    span = draw(st.floats(1.0, 6.0), label="span")
    peak = st.builds(
        LorentzianPeak,
        center_ghz=st.floats(-span, span),
        fwhm_mhz=st.floats(50.0, 800.0),
        amplitude=st.floats(5.0, 500.0),
    )
    truth = draw(st.lists(peak, min_size=k, max_size=k), label="truth")
    spectrum = synthesize(
        truth,
        draw(st.floats(0.0, 20.0), label="background"),
        np.linspace(-span, span, n_points),
        shot_noise=draw(st.booleans(), label="shot_noise"),
        seed=draw(st.integers(0, 2**32 - 1), label="seed"),
    )
    # None: the fit guesses from the spectrum, so hypothesis rejects the
    # draws where initial_guess finds fewer than k peaks
    guess = draw(st.one_of(st.none(), st.lists(peak, min_size=k, max_size=k)), label="guess")
    if guess is None:
        try:
            initial_guess(spectrum, k)
        except PeakDetectionError:
            assume(False)
    max_iterations = draw(st.one_of(st.integers(1, 10), st.integers(1, 500)), label="max_it")
    return spectrum, k, guess, max_iterations


@st.composite
def feasibility_cases(draw):
    """A point and box bounds, each variable on, near or beyond a bound,
    with upper bounds of inf and intervals only a few 1e-10 wide."""
    finite = st.floats(-1e3, 1e3)
    x, lb, ub = [], [], []
    for _ in range(draw(st.integers(1, 6), label="n")):
        lower = draw(st.one_of(st.just(-math.inf), finite), label="lower")
        if lower == -math.inf:
            upper = draw(st.one_of(st.just(math.inf), finite), label="upper")
        else:
            width = draw(
                st.one_of(st.just(math.inf), st.floats(0.0, 4e-10), st.floats(0.0, 1e3)),
                label="width",
            )
            upper = max(lower + width, math.nextafter(lower, math.inf))
        anchors = [b for b in (lower, upper) if math.isfinite(b)]
        if len(anchors) == 2:
            anchors.append(0.5 * (lower + upper))  # as far from one bound as the other
        anchor = draw(st.sampled_from(anchors) if anchors else finite, label="anchor")
        offset = draw(
            st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-10.0, 10.0)),
            label="offset",
        )
        x.append(anchor + offset)
        lb.append(lower)
        ub.append(upper)
    return np.array(x), np.array(lb), np.array(ub)


class TestTrfMatchesScipy:
    """The numpy port gives scipy's least_squares result bit for bit."""

    @pytest.mark.parametrize("rstep", [1e-10, 0.0])
    @settings(max_examples=300, deadline=None)
    @given(feasibility_cases())
    # 7.5e-11 is within 1e-10 of both bounds: the upper one wins, giving 5e-11
    @example((np.array([7.5e-11]), np.array([0.0]), np.array([1.5e-10])))
    def test_strictly_feasible_equals_scipy(self, rstep, case):
        from scipy.optimize._lsq.common import make_strictly_feasible

        got = _trf.make_strictly_feasible(*case, rstep=rstep)
        want = make_strictly_feasible(*case, rstep=rstep)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(fit_cases())
    def test_fit_equals_scipy_fit(self, case):
        got, port = _fit_with(_trf.least_squares, *case)
        want, oracle = _fit_with(_scipy_least_squares, *case)
        assert got == want
        assert np.array_equal(port.x, oracle.x)
        assert np.array_equal(port.fun, oracle.fun)
        assert (port.nfev, port.status) == (oracle.nfev, oracle.status)
        event(f"status {port.status}")

    def test_interactive_fit_is_pinned(self, tmp_path):
        # fit-ple --synthetic --k 3 --classify --seed 1, as scipy fitted it
        argv = ["fit-ple", "--synthetic", "--k", "3", "--classify", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "fit_ple_summary.json").read_text())["results"]
        assert (results["converged"], results["iterations"]) == (True, 7)
        assert results["background"] == float.fromhex("0x1.411867f45813ep+2")
        assert results["residual_rms"] == float.fromhex("0x1.1b35b221281a8p+2")
        want = [
            ("-0x1.0606ec2600d90p+0", "0x1.5960ecc11b0e4p+8", "0x1.74f8431b62669p+6"),
            ("-0x1.dc132947c7332p-10", "0x1.2cc0551f8c786p+8", "0x1.b4691775a06ecp+6"),
            ("0x1.0b35b8240ffc1p+0", "0x1.3751f12af6e25p+8", "0x1.967f40382ba06p+6"),
        ]
        got = [(p["center_ghz"], p["fwhm_mhz"], p["amplitude"]) for p in results["peaks"]]
        assert got == [tuple(float.fromhex(h) for h in peak) for peak in want]


class TestClassifyPairSpectrum:
    def test_accepts_consistent_triple(self):
        assignment = classify_pair_spectrum(_fit_from_centers([0.0, 1.03, 2.06]))
        assert assignment.zfs1_ghz == pytest.approx(1.03)
        assert assignment.zfs2_ghz == pytest.approx(1.03)
        assert assignment.shared_peak == 1
        assert assignment.emitter1 == (0, 1)
        assert assignment.emitter2 == (1, 2)

    def test_accepts_central_values(self):
        assignment = classify_pair_spectrum(_fit_from_centers([0.0, 1.027, 2.054]))
        assert assignment.zfs1_ghz == pytest.approx(1.027)
        assert assignment.zfs2_ghz == pytest.approx(1.027)

    def test_rejects_gross_violation(self):
        with pytest.raises(ClassificationError) as err:
            classify_pair_spectrum(_fit_from_centers([0.0, 0.3, 2.0]))
        assert err.value.zfs1_ghz == pytest.approx(0.3)
        assert err.value.zfs2_ghz == pytest.approx(1.7)
        assert "0.3" in str(err.value) and "1.7" in str(err.value)

    def test_shift_invariance(self):
        base = classify_pair_spectrum(_fit_from_centers([0.0, 1.0, 2.01]))
        shifted = classify_pair_spectrum(_fit_from_centers([5.5, 6.5, 7.51]))
        assert shifted.zfs1_ghz == pytest.approx(base.zfs1_ghz, abs=1e-12)
        assert shifted.zfs2_ghz == pytest.approx(base.zfs2_ghz, abs=1e-12)

    @pytest.mark.parametrize("n_sigma", [0.0, -1.0, math.nan])
    def test_n_sigma_must_be_positive(self, n_sigma):
        # a negative window was blamed on the spectrum, with a ClassificationError
        with pytest.raises(DomainError, match="n_sigma must be positive"):
            classify_pair_spectrum(_fit_from_centers([0.0, 1.03, 2.06]), n_sigma=n_sigma)

    def test_requires_three_peaks(self):
        with pytest.raises(DomainError):
            classify_pair_spectrum(_fit_from_centers([0.0, 1.0]))

    def test_prior_window_is_configurable(self):
        centers = [0.0, 0.8, 1.6]
        with pytest.raises(ClassificationError):
            classify_pair_spectrum(_fit_from_centers(centers))
        assignment = classify_pair_spectrum(_fit_from_centers(centers), n_sigma=4.0)
        assert assignment.zfs1_ghz == pytest.approx(0.8)


# Integer counts built from runs, so that plateaus are common, and the
# first and last runs are plateaus at either end.
plateaued_counts = (
    st.lists(st.tuples(st.integers(0, 8), st.integers(1, 6)), min_size=1, max_size=200)
    .map(lambda runs: np.repeat(*np.array(runs).T).astype(float)[:400])
    .filter(lambda x: len(x) >= 3)
)


class TestFindPeaks:
    @settings(max_examples=400, deadline=None)
    @given(plateaued_counts, st.data())
    def test_matches_scipy_find_peaks(self, x, data):
        from scipy.signal import find_peaks

        distance = data.draw(st.integers(1, len(x)), label="distance")
        height = np.nextafter(np.median(x), np.inf)
        want, _ = find_peaks(x, height=height, distance=distance)
        assert np.array_equal(ple._find_peaks(x, height, distance), want)

    def test_plateaus(self):
        x = np.array([3.0, 3.0, 1.0, 4.0, 4.0, 4.0, 4.0, 2.0, 5.0, 5.0])
        # the end plateaus are no maxima; the middle one is at (3 + 6) // 2
        assert ple._find_peaks(x, 0.0, 1).tolist() == [4]

    def test_taller_peak_drops_its_near_neighbours(self):
        x = np.array([0.0, 2.0, 0.0, 3.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0])
        assert ple._find_peaks(x, 0.5, 1).tolist() == [1, 3, 5, 8]
        assert ple._find_peaks(x, 0.5, 3).tolist() == [3, 8]
        assert ple._find_peaks(x, 1.5, 3).tolist() == [3]
        # a peak exactly at the height is kept
        assert ple._find_peaks(x, 2.0, 1).tolist() == [1, 3, 5]


class TestPleSpectrumValidation:
    def test_rejects_unsorted_frequencies(self):
        with pytest.raises(DomainError):
            PleSpectrum(frequencies_ghz=np.array([0.0, -1.0]), counts=np.array([1.0, 2.0]))

    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            PleSpectrum(frequencies_ghz=np.array([0.0, 1.0]), counts=np.array([1.0, -2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_counts(self, bad):
        with pytest.raises(DomainError, match="counts must be finite"):
            PleSpectrum(frequencies_ghz=np.array([0.0, 1.0, 2.0]), counts=np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_frequencies(self, bad):
        with pytest.raises(DomainError, match="frequencies must be finite"):
            PleSpectrum(frequencies_ghz=np.array([0.0, 1.0, bad]), counts=np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_dwell_time(self, bad):
        with pytest.raises(DomainError, match="dwell time"):
            PleSpectrum(np.array([0.0, 1.0]), np.array([1.0, 2.0]), dwell_time_s=bad)

    def test_rejects_a_span_beyond_a_double(self):
        # np.diff overflowed in a RuntimeWarning
        with pytest.raises(DomainError, match="span beyond the range of a double"):
            PleSpectrum(np.array([-1e308, 0.0, 1e308]), np.array([1.0, 2.0, 3.0]))

    def test_nan_count_is_refused_before_the_fit(self):
        # it reached scipy's least_squares as a bare ValueError
        grid = np.linspace(-2, 2, 401)
        counts = synthesize([LorentzianPeak(0.0, 300.0, 100.0)], 5.0, grid).counts
        counts[7] = math.nan
        with pytest.raises(DomainError):
            fit_multi_lorentzian(PleSpectrum(grid, counts), 1)


class TestLorentzianPeakValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_center(self, bad):
        with pytest.raises(DomainError, match="center"):
            LorentzianPeak(center_ghz=bad, fwhm_mhz=300.0, amplitude=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_fwhm(self, bad):
        with pytest.raises(DomainError, match="FWHM"):
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=bad, amplitude=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_bad_amplitude(self, bad):
        with pytest.raises(DomainError, match="amplitude"):
            LorentzianPeak(center_ghz=0.0, fwhm_mhz=300.0, amplitude=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_synthesize_rejects_non_finite_background(self, bad):
        with pytest.raises(DomainError, match="background"):
            synthesize([], bad, np.linspace(-1, 1, 11))
