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
# Bytes of float gaps spectral_arrangement_rate holds at once: one block of trials.
CHAIN_BLOCK_BYTES = 1 << 20


def _check_point_count(what: str, count: float) -> None:
    if count > MAX_SPATIAL_POINTS:
        # an int beyond the double range has no float for ".4g"
        size = f"{count:.4g}" if count < 1e300 else f"over {1e300:.0e}"
        raise DomainError(
            f"{what} {size} exceeds the spatial draw limit of {MAX_SPATIAL_POINTS:.0e}"
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
        if any(not b > 0 for b in box):
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
    if not density_per_um3 >= 0:
        raise DomainError(f"density must be non-negative, got {density_per_um3}")
    box = tuple(float(b) for b in box_um)
    if len(box) != 3 or any(not b > 0 for b in box):
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
        # occupancy_stats draws in the bounding box lateral * lateral * axial,
        # which holds the spot: a finite box volume gives a finite spot volume
        try:
            lateral, axial = float(self.lateral_fwhm_um), float(self.axial_fwhm_um)
        except OverflowError:  # an int beyond the range of a double
            lateral = axial = math.inf
        if not math.isfinite(lateral * lateral * axial):
            raise DomainError(
                f"PSF of lateral FWHM {self.lateral_fwhm_um} um and axial FWHM "
                f"{self.axial_fwhm_um} um has a spot volume beyond the range of a double"
            )


def spot_volume(psf: ConfocalPsf) -> float:
    """FWHM-ellipsoid volume (pi/6) * lateral^2 * axial, in um^3."""
    return (math.pi / 6.0) * psf.lateral_fwhm_um**2 * psf.axial_fwhm_um


def poisson_multi_occupancy(occupancy_mean: float) -> float:
    """Closed-form P(k >= 2) = 1 - exp(-lambda) * (1 + lambda)."""
    if not 0 <= occupancy_mean < math.inf:
        raise DomainError(f"mean occupancy must be non-negative and finite, got {occupancy_mean}")
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
    if not density_per_um3 >= 0:
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


def _has_chain(adjacency: np.ndarray) -> np.ndarray:
    """Per trial, whether some ordering of the k vertices steps only along ``adjacency``.

    ``adjacency[t, u, v]`` marks an allowed step u -> v in trial t; k <= 16.
    ``pred[v, t]`` is the bitmask of the vertices with a step into v. A
    Hamiltonian path leaves k - 1 vertices and enters k - 1, so trials where
    fewer have a step out, or a step in, are ruled out first. On the rest,
    ``ends[mask, t]`` is the bitmask of the vertices where a path covering
    exactly ``mask`` can end (Bellman-Held-Karp subset dynamic programming),
    filled one mask size at a time; it is exact for any ordering.
    """
    trials, k, _ = adjacency.shape
    full = (1 << k) - 1
    bits = np.uint16(1) << np.arange(k, dtype=np.uint16)
    # trials last: numpy reduces the short u axis far faster there
    steps = np.ascontiguousarray(adjacency.transpose(1, 2, 0))
    pred = np.bitwise_or.reduce(steps * bits[:, None, None], axis=0)
    # at most one vertex without a step out: its bit is the only one missing
    missing = np.uint16(full) & ~np.bitwise_or.reduce(pred, axis=0)
    leaves = (missing & (missing - np.uint16(1))) == 0
    keep = np.flatnonzero(leaves & (np.count_nonzero(pred, axis=0) >= k - 1))
    pred = pred[:, keep]
    ends = np.zeros((1 << k, len(keep)), dtype=np.uint16)
    ends[bits] = bits[:, None]
    masks = np.arange(1 << k)
    size = sum(masks >> v & 1 for v in range(k))
    for p in range(2, k + 1):
        layer = masks[size == p]
        for v in range(k):
            m = layer[layer >> v & 1 == 1]
            ends[m] |= ((ends[m ^ 1 << v] & pred[v]) != 0) * bits[v]
    found = np.zeros(trials, dtype=bool)
    found[keep] = ends[full] != 0
    return found


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
    dynamic programming over all orderings, see :func:`_has_chain`).

    Trials are drawn a chunk at a time, and each chunk's ``(m, k, k)``
    boolean adjacency is filled a block of trials at a time, so the float
    gaps of one block only, :data:`CHAIN_BLOCK_BYTES` (1 MiB), are held at
    once. At k = 8 (a chunk of 16384 trials, a block of 2048) and the
    default window, 100k trials peak at 6.6 MB traced, against 19.9 MB
    when a chunk's gaps were held in full; the rate is the same bit for bit.
    """
    if k < 2:
        raise DomainError(f"chain length must be >= 2, got {k}")
    if not window_mhz > 0:
        raise DomainError(f"chain window must be positive, got {window_mhz}")
    if k > 16:
        raise DomainError(f"chain check is exact only up to k=16, got {k}")
    if trials < 10_000:
        raise DomainError(f"need at least 10000 trials, got {trials}")
    rng = as_seed(seed).rng()
    chunk = max(1024, min(trials, 1 << 22 >> k))
    block = CHAIN_BLOCK_BYTES // (8 * k * k)
    adjacency = np.empty((chunk, k, k), dtype=bool)
    idx = np.arange(k)
    hits = 0
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        lines = [x.reshape(m, k) for x in sample_line_positions(model, m * k, rng)]
        # adj[t, u, v]: the A2 line of u lies within the window of the A1 line of v
        adj = adjacency[:m]
        for s in range(0, m, block):
            rows = [x[s : s + block] for x in lines]
            u, v = [x[:, :, None] for x in rows], [x[:, None, :] for x in rows]
            np.less(separation_mhz(u, v, [LineCombo.A2_A1]), window_mhz, out=adj[s : s + block])
        adj[:, idx, idx] = False
        hits += int(np.count_nonzero(_has_chain(adj)))
        done += m
    return hits / trials
