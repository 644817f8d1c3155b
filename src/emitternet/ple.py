"""Photoluminescence-excitation spectra: synthesis, fitting, classification.

Spectra are modeled as sums of Lorentzian peaks over a constant
background, with optional Poisson (shot) noise on the expected counts.
The fitter is a bounded nonlinear least-squares over 3k+1 parameters
(center, FWHM, height per peak, plus one shared background): the Trust
Region Reflective method of ``scipy.optimize.least_squares``, ported to
numpy in :mod:`emitternet._trf` with the same results bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ClassificationError, DomainError, PeakDetectionError
from .seeding import SeedSpec, _index, as_seed
from .spectral import EnsembleModel

# Convergence contract for the fitter.
FIT_RELATIVE_TOLERANCE = 1e-8
FIT_MAX_ITERATIONS = 500
# Most Jacobian entries, points x (3k + 1), one fit may hold. The fit peaks at
# about 60 bytes an entry (traced), so the limit stands for about 0.6 GB; a
# larger fit is refused before the initial guess is made.
MAX_FIT_JACOBIAN_ENTRIES = 10_000_000


@dataclass(frozen=True)
class LorentzianPeak:
    """One absorption line: center detuning (GHz), FWHM (MHz), peak height."""

    center_ghz: float
    fwhm_mhz: float
    amplitude: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.center_ghz):
            raise DomainError("peak center must be finite")
        if not 0 < self.fwhm_mhz < math.inf:
            raise DomainError(f"FWHM must be positive and finite, got {self.fwhm_mhz}")
        if not 0 < self.amplitude < math.inf:
            raise DomainError(f"amplitude must be positive and finite, got {self.amplitude}")


def lorentzian_value(peak: LorentzianPeak, frequency_ghz):
    """L(nu) = A * (w/2)^2 / ((nu - nu0)^2 + (w/2)^2); A at center, A/2 at nu0 +- w/2.

    A peak whose A * (w/2)^2 is beyond the range of a double is refused
    with :class:`DomainError`.
    """
    nu = np.asarray(frequency_ghz, dtype=float)
    half_ghz = peak.fwhm_mhz * 1e-3 / 2.0
    try:
        half_sq = half_ghz**2
        scale = peak.amplitude * half_sq
    except OverflowError:  # a Python float's ** raises where * gives inf
        scale = math.inf
    if not math.isfinite(scale):
        raise DomainError(
            f"peak of FWHM {peak.fwhm_mhz} MHz and amplitude {peak.amplitude}: its "
            "amplitude times squared half-width is beyond the range of a double"
        )
    with np.errstate(over="ignore"):  # a detuning this far out squares to inf, and L to 0
        detuning_sq = (nu - peak.center_ghz) ** 2
    out = scale / (detuning_sq + half_sq)
    return float(out) if np.isscalar(frequency_ghz) else out


def _check_increasing(values: np.ndarray, name: str) -> None:
    """Refuse ``values`` unless they strictly increase over a span a double holds."""
    if len(values) < 2:
        return
    with np.errstate(over="ignore"):
        steps, span = np.diff(values), values[-1] - values[0]
    if not np.all(steps > 0):
        raise DomainError(f"{name} must be strictly increasing")
    if not np.isfinite(span):
        raise DomainError(
            f"{name} from {values[0]:g} to {values[-1]:g} GHz span beyond the range of a double"
        )


@dataclass(frozen=True)
class PleSpectrum:
    """Counts versus excitation detuning, with the dwell time per point."""

    frequencies_ghz: np.ndarray
    counts: np.ndarray
    dwell_time_s: float = 1.0

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies_ghz, dtype=float)
        cts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "frequencies_ghz", freq)
        object.__setattr__(self, "counts", cts)
        if freq.ndim != 1 or cts.shape != freq.shape:
            raise DomainError("frequencies and counts must be 1-d and the same length")
        if not np.all(np.isfinite(freq)):
            raise DomainError("frequencies must be finite")
        if not np.all(np.isfinite(cts)):
            raise DomainError("counts must be finite")
        _check_increasing(freq, "frequencies")
        if np.any(cts < 0):
            raise DomainError("counts must be non-negative")
        if not 0 < self.dwell_time_s < math.inf:
            raise DomainError(f"dwell time must be positive and finite, got {self.dwell_time_s}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, PleSpectrum):
            return NotImplemented
        return (
            np.array_equal(self.frequencies_ghz, other.frequencies_ghz)
            and np.array_equal(self.counts, other.counts)
            and self.dwell_time_s == other.dwell_time_s
        )


def synthesize(
    peaks: Sequence[LorentzianPeak],
    background: float,
    grid_ghz: Sequence[float],
    shot_noise: bool = False,
    seed: SeedSpec | int | None = None,
    dwell_time_s: float = 1.0,
) -> PleSpectrum:
    """Evaluate background + sum of Lorentzians on a grid.

    With ``shot_noise`` each point is replaced by a Poisson draw with that
    expectation (deterministic under ``seed``); an expectation beyond
    numpy's Poisson range (about 9.2e18) is refused with :class:`DomainError`.
    """
    if not 0 <= background < math.inf:
        raise DomainError(f"background must be non-negative and finite, got {background}")
    grid = np.asarray(grid_ghz, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise DomainError("grid must be a non-empty 1-d sequence")
    _check_increasing(grid, "grid")
    expected = np.full(len(grid), float(background))
    for peak in peaks:
        expected += lorentzian_value(peak, grid)
    if shot_noise:
        if seed is None:
            raise DomainError("shot noise requires a seed for reproducibility")
        rng = as_seed(seed).rng()
        try:
            counts = rng.poisson(expected).astype(float)
        except ValueError:  # the only ValueError an expectation of 0 or above raises
            raise DomainError(
                f"expected counts up to {expected.max():.3g} are beyond the range "
                "of a Poisson draw"
            ) from None
    else:
        counts = expected
    return PleSpectrum(frequencies_ghz=grid, counts=counts, dwell_time_s=dwell_time_s)


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a non-empty 1-d float array, bit for
    bit, where that is finite; a median that is not, such as the mean of two
    middle values near the largest double, is refused with :class:`DomainError`.

    np.median imports ``numpy.ma`` for its NaN check, 18 ms at start-up.
    This partitions at np.median's own kth list, the middle index or
    indices and then -1, so a NaN, which sorts last, is the last entry.
    """
    n = len(values)
    middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
    part = np.partition(values, middle + [-1])
    with np.errstate(over="ignore", invalid="ignore"):  # a mean of inf or NaN is refused below
        median = float(part[-1] if np.isnan(part[-1]) else np.mean(part[middle[0] : n // 2 + 1]))
    if not math.isfinite(median):
        raise DomainError(f"the median of {n} values is {median}, not a finite number")
    return median


def _find_peaks(x: np.ndarray, height: float, distance: int) -> np.ndarray:
    """Indices of the local maxima of ``x`` at least ``height`` tall, thinned
    to ``distance`` samples apart: those of
    ``scipy.signal.find_peaks(x, height=height, distance=distance)``.

    A maximum is a run of equal values whose neighbouring runs are both
    lower and which touches neither end of ``x``; its index is the middle of
    the run, rounded down. Peaks are then visited tallest first, in reverse
    ``np.argsort`` order so that ties break as in scipy, and each one still
    kept drops the peaks closer than ``distance`` to it.
    """
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:], len(x)] - 1
    rises = np.diff(x[starts]) > 0  # runs differ from their neighbours
    maxima = np.flatnonzero(rises[:-1] & ~rises[1:]) + 1
    peaks = (starts[maxima] + ends[maxima]) // 2
    peaks = peaks[x[peaks] >= height]
    lo = np.searchsorted(peaks, peaks - distance, side="right")
    hi = np.searchsorted(peaks, peaks + distance, side="left")
    order = np.argsort(x[peaks])[::-1]
    # a peak with no other peak in reach is always kept and drops none
    order = order[hi[order] - lo[order] > 1]
    keep = np.ones(len(peaks), dtype=bool)
    for j, left, right in zip(order.tolist(), lo[order].tolist(), hi[order].tolist()):
        if keep[j]:
            keep[left:j] = False
            keep[j + 1 : right] = False
    return peaks[keep]


def initial_guess(spectrum: PleSpectrum, k: int) -> list[LorentzianPeak]:
    """Seed peaks from the k tallest local maxima above the count median.

    Maxima closer than half the seed width collapse into their tallest
    member, so shot-noise spikes on one line do not register twice.
    Raises :class:`PeakDetectionError` (carrying the found count) when
    fewer than k candidates exist. Widths are seeded from the ensemble
    default FWHM mean.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if len(spectrum.counts) < 5 * k:
        raise DomainError(f"need at least {5 * k} points to guess {k} peaks")
    counts = spectrum.counts
    background = _median(counts)
    width = EnsembleModel().fwhm_mean_mhz
    step_ghz = _median(np.diff(spectrum.frequencies_ghz))
    # a reach of the spectrum's length drops what any longer one drops; the
    # cap keeps the reach of a very fine grid within an index
    distance = max(1, int(round(min(0.5 * width * 1e-3 / step_ghz, len(counts)))))
    idx = _find_peaks(counts, np.nextafter(background, np.inf), distance)
    if len(idx) < k:
        raise PeakDetectionError(requested=k, found=len(idx))
    chosen = idx[np.argsort(counts[idx])[::-1][:k]]
    chosen = np.sort(chosen)
    return [
        LorentzianPeak(
            center_ghz=float(spectrum.frequencies_ghz[i]),
            fwhm_mhz=width,
            amplitude=max(float(counts[i] - background), np.finfo(float).tiny),
        )
        for i in chosen
    ]


@dataclass(frozen=True)
class FitResult:
    """Fitted peaks (sorted by center), shared background, and fit diagnostics."""

    peaks: tuple[LorentzianPeak, ...]
    background: float
    residual_rms: float
    converged: bool
    iterations: int


def _model_and_jacobian(theta: np.ndarray, nu: np.ndarray, k: int):
    model = np.full(len(nu), theta[0])
    jac = np.zeros((len(nu), 1 + 3 * k))
    jac[:, 0] = 1.0
    for p in range(k):
        c, w, amp = theta[1 + 3 * p : 4 + 3 * p]
        half = w / 2.0
        d = nu - c
        denom = d * d + half * half
        shape = half * half / denom
        model += amp * shape
        jac[:, 1 + 3 * p] = amp * half * half * 2.0 * d / (denom * denom)
        jac[:, 2 + 3 * p] = amp * half * d * d / (denom * denom)
        jac[:, 3 + 3 * p] = shape
    return model, jac


def _check_fit_size(n_points: int, k: int) -> None:
    """Refuse k < 1 peaks, an empty spectrum, and a fit of ``n_points`` points
    whose Jacobian would hold more than :data:`MAX_FIT_JACOBIAN_ENTRIES` entries."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if n_points < 1:
        raise DomainError("cannot fit an empty spectrum")
    entries = n_points * (3 * k + 1)
    if entries > MAX_FIT_JACOBIAN_ENTRIES:
        # an int beyond the double range has no float for ".3g"
        size = f"{entries:.3g}" if entries < 1e300 else f"over {1e300:.0e}"
        raise DomainError(
            f"fit Jacobian of {size} entries exceeds the limit of "
            f"{MAX_FIT_JACOBIAN_ENTRIES:.0e}"
        )


def fit_multi_lorentzian(
    spectrum: PleSpectrum,
    k: int,
    guess: Sequence[LorentzianPeak] | None = None,
    max_iterations: int = FIT_MAX_ITERATIONS,
) -> FitResult:
    """Least-squares fit of k Lorentzians plus a constant background.

    Stops when the relative residual change falls below
    :data:`FIT_RELATIVE_TOLERANCE` or after ``max_iterations`` (an integer,
    at least 1) function evaluations; hitting the cap yields
    ``converged=False`` rather than an exception. With ``guess=None`` the
    initial peaks come from :func:`initial_guess`, so an undetectable k
    raises :class:`PeakDetectionError`. A fit whose Jacobian would hold
    more than :data:`MAX_FIT_JACOBIAN_ENTRIES` entries is refused, and so
    are a spectrum too narrow to bound the FWHM (under about 1e-11 GHz)
    and a fit whose arithmetic overflows, each with :class:`DomainError`.
    """
    _check_fit_size(len(spectrum.frequencies_ghz), k)
    max_iterations = _index(max_iterations, "max_iterations")
    if max_iterations < 1:
        raise DomainError(f"need max_iterations >= 1, got {max_iterations}")
    # imported here, not at module level: only this fit uses the solver, and
    # every other command would otherwise load it at start-up
    from . import _trf

    if guess is None:
        guess = initial_guess(spectrum, k)
    if len(guess) != k:
        raise DomainError(f"guess has {len(guess)} peaks, expected {k}")

    nu = spectrum.frequencies_ghz
    counts = spectrum.counts
    theta0 = np.empty(1 + 3 * k)
    theta0[0] = max(_median(counts), 0.0)
    for p, peak in enumerate(guess):
        theta0[1 + 3 * p] = peak.center_ghz
        theta0[2 + 3 * p] = peak.fwhm_mhz * 1e-3
        theta0[3 + 3 * p] = peak.amplitude

    span = float(nu[-1] - nu[0]) if len(nu) > 1 else 1.0
    with np.errstate(over="ignore"):  # a span near a double's range leaves bounds of inf
        center_bounds = nu[0] - span, nu[-1] + span
    lower = np.empty_like(theta0)
    upper = np.empty_like(theta0)
    lower[0], upper[0] = 0.0, np.inf
    for p in range(k):
        lower[1 + 3 * p], upper[1 + 3 * p] = center_bounds
        lower[2 + 3 * p], upper[2 + 3 * p] = 1e-9, 100.0 * span
        lower[3 + 3 * p], upper[3 + 3 * p] = np.finfo(float).tiny, np.inf
    empty = np.flatnonzero(lower >= upper)
    if len(empty):
        i = int(empty[0])
        name = "background" if i == 0 else (
            f"peak {(i - 1) // 3} " + ("center", "FWHM", "amplitude")[(i - 1) % 3]
        )
        raise DomainError(
            f"the {name} bounds [{lower[i]:g}, {upper[i]:g}] are empty: "
            f"a spectrum spanning {span:g} GHz is too narrow to fit"
        )
    theta0 = np.clip(theta0, lower, upper)

    def residuals_and_jacobian(theta):
        model, jac = _model_and_jacobian(theta, nu, k)
        return model - counts, jac

    result = _trf.least_squares(
        residuals_and_jacobian,
        theta0,
        lower,
        upper,
        ftol=FIT_RELATIVE_TOLERANCE,
        xtol=1e-14,
        gtol=1e-12,
        max_nfev=max_iterations,
    )
    theta = result.x
    peaks = sorted(
        (
            LorentzianPeak(
                center_ghz=float(theta[1 + 3 * p]),
                fwhm_mhz=float(theta[2 + 3 * p] * 1e3),
                amplitude=float(theta[3 + 3 * p]),
            )
            for p in range(k)
        ),
        key=lambda pk: pk.center_ghz,
    )
    return FitResult(
        peaks=tuple(peaks),
        background=float(theta[0]),
        residual_rms=float(np.sqrt(np.mean(result.fun**2))),
        converged=bool(result.status > 0),
        iterations=int(result.nfev),
    )


@dataclass(frozen=True)
class PairAssignment:
    """Three-peak spectrum decomposed into two emitters sharing the middle line."""

    emitter1: tuple[int, int]
    emitter2: tuple[int, int]
    shared_peak: int
    zfs1_ghz: float
    zfs2_ghz: float


def _check_classify_inputs(n_peaks: int, n_sigma: float) -> None:
    """Refuse what :func:`classify_pair_spectrum` cannot judge: a fit of other
    than 3 peaks, or an ``n_sigma`` not above 0."""
    if n_peaks != 3:
        raise DomainError(f"pair classification requires exactly 3 peaks, got {n_peaks}")
    if not n_sigma > 0:
        raise DomainError(f"n_sigma must be positive, got {n_sigma}")


def classify_pair_spectrum(
    fit: FitResult,
    prior_mean_ghz: float = 1.027,
    prior_sigma_ghz: float = 0.075,
    n_sigma: float = 3.0,
) -> PairAssignment:
    """Assign a three-peak fit to two emitters with one shared line.

    Lowest peak = A1 of emitter 1, middle = overlapping A2(1)/A1(2),
    highest = A2 of emitter 2. Accepted only if both implied splittings
    lie within ``prior_mean +- n_sigma * prior_sigma``.
    """
    _check_classify_inputs(len(fit.peaks), n_sigma)
    order = np.argsort([p.center_ghz for p in fit.peaks])
    lo, mid, hi = (fit.peaks[i] for i in order)
    zfs1 = mid.center_ghz - lo.center_ghz
    zfs2 = hi.center_ghz - mid.center_ghz
    window = n_sigma * prior_sigma_ghz
    if abs(zfs1 - prior_mean_ghz) > window or abs(zfs2 - prior_mean_ghz) > window:
        raise ClassificationError(
            zfs1,
            zfs2,
            f"implied splittings {zfs1:.4f} GHz and {zfs2:.4f} GHz are inconsistent "
            f"with the prior {prior_mean_ghz} +- {window:.4f} GHz",
        )
    i_lo, i_mid, i_hi = (int(i) for i in order)
    return PairAssignment(
        emitter1=(i_lo, i_mid),
        emitter2=(i_mid, i_hi),
        shared_peak=i_mid,
        zfs1_ghz=float(zfs1),
        zfs2_ghz=float(zfs2),
    )
