"""The exact pair-overlap probability of the model, as an oracle for the
sampled estimators.

Under the default :class:`EnsembleModel` an emitter has lines c - z/2 and
c + z/2, with its center c uniform over +-W and its ZFS z normal (its
truncation at 0 lies 13.7 sigma below the mean, so it is ignored). Two
emitters are closer than a window w when c1 - c2 lies within w of one of
+-D/2 (the a1-a1 and a2-a2 combos) or +-S/2 (the cross combos), where
D = z1 - z2 and S = z1 + z2 are independent normals. c1 - c2 is
triangular on [-2W, 2W], so its CDF measures the union of those four
intervals exactly; D is integrated on a fine grid and S on Gauss-Hermite
nodes. Under :class:`NormalCenters` of sigma s, c1 - c2 is normal of
standard deviation sqrt(2) s, and its normal CDF takes the triangular one's
place.
"""
from __future__ import annotations

import math
from functools import cache

import numpy as np
import pytest
from scipy.special import ndtr

from emitternet import EnsembleModel, NormalCenters, SeedSpec, UniformCenters
from emitternet import monte_carlo_threshold, overlap_curve, sample_ensemble

MODEL = EnsembleModel()
# normal centers of the config's default sigma, 5 GHz
NORMAL_MODEL = EnsembleModel(centers=NormalCenters(5.0))
GAMMA_MHZ = MODEL.gamma_mhz
MULTIPLES = (0.5, 1.0, 2.0, 5.0)  # windows, in units of the lifetime-limited linewidth

# Every sampled estimate below, of either model, must lie within Z_BOUND
# standard errors of the exact q, for the seeds named here.
Z_BOUND = 4.0
CURVE_SEEDS = range(1, 41)  # one ensemble of CURVE_EMITTERS per seed
CURVE_EMITTERS = 500
MC_SEEDS = range(1, 5)  # one monte_carlo_threshold run of MC_TRIALS per seed
MC_TRIALS = 1000
MC_PAIRS = max(MC_TRIALS, 20_000)  # the pairs of distinct emitters pairwise_q counts


def exact_pair_q(
    window_mhz: float,
    centers: UniformCenters | NormalCenters = MODEL.centers,
    zfs_mean_ghz: float = MODEL.zfs_mean_ghz,
    zfs_sigma_ghz: float = MODEL.zfs_sigma_ghz,
    d_nodes: int = 4001,
    s_nodes: int = 40,
) -> float:
    """The probability that two emitters of the given centers are closer
    than the window, over all four line combos."""
    w = window_mhz * 1e-3
    if isinstance(centers, NormalCenters):
        def cdf(x):  # of c1 - c2, normal of standard deviation sqrt(2) sigma
            return ndtr(x / (math.sqrt(2) * centers.sigma_ghz))
    else:
        span = 2 * centers.half_width_ghz

        def cdf(x):  # of c1 - c2, triangular on [-span, span]
            x = np.clip(x, -span, span)
            return np.where(x < 0, (span + x) ** 2, 2 * span**2 - (span - x) ** 2) / (2 * span**2)

    sd = math.sqrt(2) * zfs_sigma_ghz  # of D and of S
    # D: midpoints of a grid over +-10 sd, each weighted by its cell's mass
    edges = np.linspace(-10 * sd, 10 * sd, d_nodes + 1)
    d = (edges[1:] + edges[:-1]) / 2
    d_weight = np.diff([math.erf(x / (sd * math.sqrt(2))) for x in edges]) / 2
    # S: probabilists' Gauss-Hermite nodes around its mean 2 zfs_mean
    t, s_weight = np.polynomial.hermite_e.hermegauss(s_nodes)
    s, s_weight = 2 * zfs_mean_ghz + sd * t, s_weight / math.sqrt(2 * math.pi)
    D, S = np.meshgrid(d, s, indexing="ij")
    # the four intervals of equal width, in ascending order, and the mass of
    # their union: each adds what lies beyond the end of those before it
    lo = np.sort(np.stack([-D / 2, D / 2, -S / 2, S / 2]) - w, axis=0)
    covered, end = np.zeros_like(D), np.full_like(D, -np.inf)
    for k in range(4):
        covered += cdf(np.maximum(lo[k] + 2 * w, end)) - cdf(np.maximum(lo[k], end))
        end = np.maximum(end, lo[k] + 2 * w)
    return float(d_weight @ covered @ s_weight)


@cache
def exact_curve(centers: UniformCenters | NormalCenters = MODEL.centers) -> tuple[float, ...]:
    return tuple(exact_pair_q(m * GAMMA_MHZ, centers) for m in MULTIPLES)


def test_oracle_gives_the_prototype_values():
    # the values a first prototype of this quadrature printed, to their digits
    assert [round(q, 6) for q in exact_curve()] == [0.005476, 0.010650, 0.020232, 0.046051]


def test_oracle_is_converged():
    for m, q in zip(MULTIPLES, exact_curve()):
        finer = exact_pair_q(m * GAMMA_MHZ, d_nodes=8001, s_nodes=80)
        assert abs(finer - q) < 1e-5 * q


def test_oracle_counts_overlapping_intervals_once():
    # with one ZFS for all (D = 0, S = 2 zfs) and windows wider than the
    # splitting, the four intervals merge into [-zfs - w, zfs + w]
    zfs, w, span = 1.0, 3.0, 2 * MODEL.centers.half_width_ghz
    want = 1 - (span - zfs - w) ** 2 / span**2
    got = exact_pair_q(w * 1e3, zfs_mean_ghz=zfs, zfs_sigma_ghz=1e-12)
    assert got == pytest.approx(want, rel=1e-9)


def overlap_curve_z(model: EnsembleModel) -> np.ndarray:
    # The fraction of close pairs in one ensemble is an unbiased estimate of
    # q, but its pairs share emitters; the spread over independent ensembles
    # gives its standard error.
    windows = [m * GAMMA_MHZ for m in MULTIPLES]
    fractions = np.array([
        overlap_curve(sample_ensemble(model, CURVE_EMITTERS, SeedSpec(seed)), windows).probabilities
        for seed in CURVE_SEEDS
    ])
    mean = fractions.mean(axis=0)
    std_error = fractions.std(axis=0, ddof=1) / math.sqrt(len(CURVE_SEEDS))
    return (mean - np.array(exact_curve(model.centers))) / std_error


def monte_carlo_z(model: EnsembleModel, k: int) -> float:
    # no two of the pairs pairwise_q counts share an emitter, so the count
    # is binomial
    q = exact_curve(model.centers)[k]
    close = sum(
        round(monte_carlo_threshold(model, MULTIPLES[k] * GAMMA_MHZ, 0.5, MC_TRIALS, seed)
              .pairwise_q * MC_PAIRS)
        for seed in MC_SEEDS
    )
    pairs = MC_PAIRS * len(MC_SEEDS)
    return (close / pairs - q) / math.sqrt(q * (1 - q) / pairs)


def test_overlap_curve_estimates_the_exact_q():
    z = overlap_curve_z(MODEL)
    assert np.all(np.abs(z) < Z_BOUND), z


@pytest.mark.parametrize("k", range(len(MULTIPLES)), ids=[f"{m}gamma" for m in MULTIPLES])
def test_monte_carlo_pairwise_q_estimates_the_exact_q(k):
    z = monte_carlo_z(MODEL, k)
    assert abs(z) < Z_BOUND, z


def test_normal_oracle_is_converged():
    for m, q in zip(MULTIPLES, exact_curve(NORMAL_MODEL.centers)):
        finer = exact_pair_q(m * GAMMA_MHZ, NORMAL_MODEL.centers, d_nodes=8001, s_nodes=80)
        assert abs(finer - q) < 1e-5 * q


def test_normal_oracle_counts_overlapping_intervals_once():
    # with one ZFS for all and windows wider than the splitting, the four
    # intervals merge into [-zfs - w, zfs + w], whose mass under a normal of
    # standard deviation sqrt(2) sigma is erf((zfs + w) / (2 sigma))
    zfs, w, sigma = 1.0, 3.0, NORMAL_MODEL.centers.sigma_ghz
    got = exact_pair_q(w * 1e3, NORMAL_MODEL.centers, zfs_mean_ghz=zfs, zfs_sigma_ghz=1e-12)
    assert got == pytest.approx(math.erf((zfs + w) / (2 * sigma)), rel=1e-9)


def test_overlap_curve_estimates_the_exact_q_of_normal_centers():
    z = overlap_curve_z(NORMAL_MODEL)
    assert np.all(np.abs(z) < Z_BOUND), z


@pytest.mark.parametrize("k", range(len(MULTIPLES)), ids=[f"{m}gamma" for m in MULTIPLES])
def test_monte_carlo_pairwise_q_estimates_the_exact_q_of_normal_centers(k):
    z = monte_carlo_z(NORMAL_MODEL, k)
    assert abs(z) < Z_BOUND, z
