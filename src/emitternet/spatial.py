"""Spatial emitter placement and confocal-spot occupancy.

Emitters form a homogeneous 3D Poisson process. A confocal spot is the
FWHM ellipsoid of the point-spread function; occupancy per spot is
estimated geometrically by Monte Carlo and cross-checked against the
Poisson closed form. The lateral FWHM is a required configuration value
(only the axial width has a measured default).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError
from .seeding import SeedSpec, as_seed
from .spectral import EnsembleModel, LineCombo, sample_line_positions, separation_mhz

DEFAULT_AXIAL_FWHM_UM = 1.22
# Most points (or occupancy trials) one draw may hold; occupancy_stats takes ~57 bytes a point.
MAX_SPATIAL_POINTS = 10_000_000


def _check_point_count(what: str, count: float) -> None:
    if count > MAX_SPATIAL_POINTS:
        raise DomainError(
            f"{what} {count:.4g} exceeds the spatial draw limit of {MAX_SPATIAL_POINTS:.0e}"
        )


@dataclass(frozen=True)
class SpatialScene:
    """Emitter positions (um) inside a rectangular box anchored at the origin."""

    box_um: tuple[float, float, float]
    positions: np.ndarray

    def __post_init__(self) -> None:
        box = tuple(float(b) for b in self.box_um)
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        object.__setattr__(self, "box_um", box)
        object.__setattr__(self, "positions", pos)
        if any(b <= 0 for b in box):
            raise DomainError(f"box extents must be positive, got {box}")
        if pos.size and (np.any(pos < 0) or np.any(pos > np.asarray(box))):
            raise DomainError("all positions must lie inside the box")

    @property
    def count(self) -> int:
        return len(self.positions)


def sample_scene(
    density_per_um3: float, box_um: Sequence[float], seed: SeedSpec | int
) -> SpatialScene:
    """Poisson(density * volume) emitters placed uniformly in the box."""
    if density_per_um3 < 0:
        raise DomainError(f"density must be non-negative, got {density_per_um3}")
    box = tuple(float(b) for b in box_um)
    if len(box) != 3 or any(b <= 0 for b in box):
        raise DomainError(f"box must be three positive extents, got {box_um}")
    volume = box[0] * box[1] * box[2]
    _check_point_count("expected emitter count", density_per_um3 * volume)
    rng = as_seed(seed).rng()
    count = int(rng.poisson(density_per_um3 * volume))
    positions = rng.uniform(0.0, 1.0, size=(count, 3)) * np.asarray(box)
    return SpatialScene(box_um=box, positions=positions)


@dataclass(frozen=True)
class ConfocalPsf:
    """Point-spread function FWHM widths; lateral is isotropic in x and y."""

    lateral_fwhm_um: float
    axial_fwhm_um: float = DEFAULT_AXIAL_FWHM_UM

    def __post_init__(self) -> None:
        if not (self.lateral_fwhm_um > 0 and self.axial_fwhm_um > 0):
            raise DomainError("PSF widths must be positive")


def spot_volume(psf: ConfocalPsf) -> float:
    """FWHM-ellipsoid volume (pi/6) * lateral^2 * axial, in um^3."""
    return (math.pi / 6.0) * psf.lateral_fwhm_um**2 * psf.axial_fwhm_um


def poisson_multi_occupancy(occupancy_mean: float) -> float:
    """Closed-form P(k >= 2) = 1 - exp(-lambda) * (1 + lambda)."""
    if occupancy_mean < 0:
        raise DomainError("mean occupancy must be non-negative")
    return float(-np.expm1(-occupancy_mean) - occupancy_mean * math.exp(-occupancy_mean))


@dataclass(frozen=True)
class OccupancyStats:
    """Spot-occupancy distribution with its Poisson cross-check."""

    mean_per_spot: float
    distribution: tuple[float, ...]
    multi_emitter_fraction: float
    occupancy_mean_poisson: float
    multi_emitter_fraction_poisson: float
    trials: int

    def __post_init__(self) -> None:
        if abs(sum(self.distribution) - 1.0) > 1e-9:
            raise DomainError("occupancy distribution must sum to 1")
        mean = sum(k * p for k, p in enumerate(self.distribution))
        if abs(mean - self.mean_per_spot) > 1e-9:
            raise DomainError("mean occupancy inconsistent with the distribution")


def occupancy_stats(
    density_per_um3: float,
    psf: ConfocalPsf,
    trials: int,
    seed: SeedSpec | int,
) -> OccupancyStats:
    """Monte Carlo occupancy of one confocal spot.

    Each trial drops a Poisson point pattern in the ellipsoid's bounding
    box and counts points inside the FWHM ellipsoid; the resulting counts
    are Poisson(density * spot_volume), reported beside the closed form.
    """
    if trials < 1000:
        raise DomainError(f"need at least 1000 trials, got {trials}")
    if density_per_um3 < 0:
        raise DomainError(f"density must be non-negative, got {density_per_um3}")
    _check_point_count("trial count", trials)
    lam_spot = density_per_um3 * spot_volume(psf)

    half = np.array(
        [psf.lateral_fwhm_um / 2.0, psf.lateral_fwhm_um / 2.0, psf.axial_fwhm_um / 2.0]
    )
    box_volume = float(np.prod(2.0 * half))
    lam_box = density_per_um3 * box_volume
    _check_point_count("expected point count", lam_box * trials)

    rng = as_seed(seed).rng()
    counts_in_box = rng.poisson(lam_box, trials)
    total = int(counts_in_box.sum())
    if total:
        points = rng.uniform(-1.0, 1.0, size=(total, 3)) * half
        inside = np.sum((points / half) ** 2, axis=1) <= 1.0
        owner = np.repeat(np.arange(trials), counts_in_box)
        occupancy = np.bincount(owner[inside], minlength=trials)
    else:
        occupancy = np.zeros(trials, dtype=np.int64)

    hist = np.bincount(occupancy)
    distribution = tuple(float(c) / trials for c in hist)
    mean = float(np.dot(np.arange(len(hist)), hist)) / trials
    return OccupancyStats(
        mean_per_spot=mean,
        distribution=distribution,
        multi_emitter_fraction=float(np.count_nonzero(occupancy >= 2)) / trials,
        occupancy_mean_poisson=lam_spot,
        multi_emitter_fraction_poisson=poisson_multi_occupancy(lam_spot),
        trials=trials,
    )


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


def spectral_arrangement_rate(
    model: EnsembleModel,
    k: int,
    window_mhz: float,
    trials: int,
    seed: SeedSpec | int,
) -> float:
    """Probability that k co-located emitters form a pairwise-overlap chain.

    A chain is an ordering where every consecutive A2(i) to A1(i+1) gap is
    below the window. Per trial the existence check is exact (subset
    dynamic programming over all orderings).
    """
    if k < 2:
        raise DomainError(f"chain length must be >= 2, got {k}")
    if k > 16:
        raise DomainError(f"chain check is exact only up to k=16, got {k}")
    if trials < 10_000:
        raise DomainError(f"need at least 10000 trials, got {trials}")
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
        hits += int(np.count_nonzero(_chain_exists(adjacency)))
        done += m
    return hits / trials
