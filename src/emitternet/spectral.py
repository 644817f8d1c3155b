"""Emitter line tables and the parametric ensemble they are drawn from.

Frequencies are detunings in GHz relative to one absolute reference
frequency (:data:`REFERENCE_FREQUENCY_THZ`); linewidths are in MHz. Each
emitter carries two absorption lines, A1 below A2, split by the
zero-field splitting (ZFS) of the excited state.
"""
from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError
from .seeding import SeedSpec, _index, as_seed

# Absolute frequency anchoring detuning 0. Stored once; everything else is
# relative, which keeps full double precision on MHz-scale differences.
REFERENCE_FREQUENCY_THZ = 347.94059


def lifetime_limited_linewidth(lifetime_ns: float) -> float:
    """Fourier-limited emission linewidth 1/(2*pi*tau), returned in MHz."""
    if not (lifetime_ns > 0) or not math.isfinite(lifetime_ns):
        raise DomainError(f"lifetime must be positive and finite, got {lifetime_ns}")
    # 2 pi tau overflows from about 2.86e307 ns, and the quotient reads 0
    linewidth = 1e3 / (2.0 * math.pi * lifetime_ns)
    if not 0 < linewidth < math.inf:
        raise DomainError(
            f"lifetime of {lifetime_ns} ns gives a linewidth beyond the range of a double"
        )
    return linewidth


@dataclass(frozen=True)
class EmitterLines:
    """One emitter's two absorption lines.

    ``a1_ghz`` and ``a2_ghz`` are detunings of the A1 (spin-1/2) and A2
    (spin-3/2) transitions; the two FWHM values are per-line widths in MHz,
    or None where not given. An ensemble is held as a :class:`LineTable`,
    whose rows are these values.
    """

    id: str
    a1_ghz: float
    a2_ghz: float
    fwhm_a1_mhz: float | None = None
    fwhm_a2_mhz: float | None = None

    def __post_init__(self) -> None:
        # The row is checked as a one-row table, where NaN means "not given".
        for name in ("fwhm_a1_mhz", "fwhm_a2_mhz"):
            width = getattr(self, name)
            if width is not None and math.isnan(width):
                raise DomainError(f"emitter {self.id!r}: {name} must be finite or None")
        LineTable.from_rows([self])

    @property
    def zfs_ghz(self) -> float:
        return self.a2_ghz - self.a1_ghz

    @property
    def center_ghz(self) -> float:
        return 0.5 * (self.a1_ghz + self.a2_ghz)


def _first_failure(masks: Sequence[np.ndarray]) -> tuple[int, int] | None:
    """(row, check) of the earliest row failing any of the equal-length
    ``masks``, with the first mask that row fails; None if no row fails."""
    bad = np.logical_or.reduce(masks)
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, next(k for k, mask in enumerate(masks) if mask[row])


_LINE_COLUMNS = ("a1_ghz", "a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz")


@dataclass(frozen=True, eq=False)
class LineTable:
    """An emitter ensemble as one struct of arrays, one row per emitter.

    ``ids`` holds the emitter ids and the float columns hold what
    :class:`EmitterLines` holds, with NaN for a linewidth not given
    (omitted widths are all NaN). The rows obey the rules of
    :class:`EmitterLines`, checked column-wise. ``len(table)`` counts the
    emitters, ``table[i]`` is row i as an :class:`EmitterLines`, and a slice
    or an index array selects a new table.
    """

    ids: np.ndarray
    a1_ghz: np.ndarray
    a2_ghz: np.ndarray
    fwhm_a1_mhz: np.ndarray | None = None
    fwhm_a2_mhz: np.ndarray | None = None

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=object)
        a1, a2, w1, w2 = columns = [
            np.full(ids.shape, np.nan) if value is None else np.asarray(value, dtype=float)
            for value in (getattr(self, name) for name in _LINE_COLUMNS)
        ]
        if ids.ndim != 1 or any(column.shape != ids.shape for column in columns):
            raise DomainError("line table columns must be 1-D and of equal length")
        for name, column in zip(("ids", *_LINE_COLUMNS), (ids, *columns)):
            object.__setattr__(self, name, column)
        not_finite = [~np.isfinite(a1), ~np.isfinite(a2), np.isinf(w1), np.isinf(w2)]
        failure = _first_failure([*not_finite, ~(a2 > a1), (w1 <= 0) | (w2 <= 0)])
        if failure is None:
            return
        row, check = failure
        who = f"emitter {ids[row]!r}"
        if check < 4:
            raise DomainError(f"{who}: {_LINE_COLUMNS[check]} must be finite")
        if check == 4:
            raise DomainError(
                f"{who}: a2 ({float(a2[row])} GHz) must lie above a1 ({float(a1[row])} GHz)"
            )
        raise DomainError(f"{who}: linewidths must be positive")

    @classmethod
    def from_rows(cls, rows: Iterable[EmitterLines]) -> "LineTable":
        """A table of the given emitters, in order."""
        rows = list(rows)
        # numpy reads a width of None as NaN
        columns = ([getattr(r, name) for r in rows] for name in _LINE_COLUMNS)
        return cls([r.id for r in rows], *columns)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            a1, a2, *widths = (float(getattr(self, name)[key]) for name in _LINE_COLUMNS)
            widths = (None if math.isnan(w) else w for w in widths)
            return EmitterLines(self.ids[key], a1, a2, *widths)
        return LineTable(self.ids[key], *(getattr(self, name)[key] for name in _LINE_COLUMNS))

    def __iter__(self) -> Iterator[EmitterLines]:
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LineTable):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in _LINE_COLUMNS
        )

    @property
    def zfs_ghz(self) -> np.ndarray:
        return self.a2_ghz - self.a1_ghz


def _check_normal(what: str, mean: float, sigma: float) -> None:
    """Refuse a normal law of a NaN or negative sigma, or one whose draws,
    up to 14 sigma from the mean, leave the range of a double.

    sigma 0 is the degenerate point mass and is allowed. numpy's standard
    normals stay below 13.8 in magnitude: the ziggurat tail of its
    random_standard_normal returns r + -log1p(-u) / r, with r = 3.654 and
    u <= 1 - 2**-53 (a scripted bit generator drove it to no draw above
    12.2), so sampling scales and shifts each to a double.
    """
    if not sigma >= 0:
        raise DomainError(f"{what} sigma must be non-negative, got {sigma}")
    if not math.isfinite(mean + 14 * sigma):
        raise DomainError(
            f"{what} mean {mean} and sigma {sigma} give draws of up to 14 sigma "
            "beyond the range of a double"
        )


@dataclass(frozen=True)
class UniformCenters:
    """Line centers uniform on [-half_width, +half_width] GHz."""

    half_width_ghz: float = 10.0

    def __post_init__(self) -> None:
        if not self.half_width_ghz > 0:
            raise DomainError("uniform center half width must be positive")
        # sample draws over the full width, 2 * half_width
        if not self.half_width_ghz <= sys.float_info.max / 2:
            raise DomainError(
                f"uniform center half width {self.half_width_ghz} GHz gives a full width "
                "beyond the range of a double"
            )


@dataclass(frozen=True)
class NormalCenters:
    """Line centers normal around detuning 0; reproduces spectral bunching.

    sigma 0 is the degenerate point mass (all emitters share one center).
    """

    sigma_ghz: float

    def __post_init__(self) -> None:
        _check_normal("normal center", 0.0, self.sigma_ghz)


CenterDistribution = UniformCenters | NormalCenters


@dataclass(frozen=True)
class EnsembleModel:
    """Parametric distributions an emitter ensemble is sampled from.

    ZFS and FWHM are truncated normals (resampled until > 0). Defaults are
    the measured ensemble parameters: ZFS 1.027(75) GHz, FWHM 316(122) MHz,
    excited-state lifetime 5.5 ns, centers uniform over +-10 GHz.
    """

    centers: CenterDistribution = field(default_factory=UniformCenters)
    zfs_mean_ghz: float = 1.027
    zfs_sigma_ghz: float = 0.075
    fwhm_mean_mhz: float = 316.0
    fwhm_sigma_mhz: float = 122.0
    lifetime_ns: float = 5.5

    def __post_init__(self) -> None:
        if not (self.zfs_mean_ghz > 0 and self.fwhm_mean_mhz > 0):
            raise DomainError("ZFS and FWHM means must be positive")
        _check_normal("ZFS", self.zfs_mean_ghz, self.zfs_sigma_ghz)
        _check_normal("FWHM", self.fwhm_mean_mhz, self.fwhm_sigma_mhz)
        lifetime_limited_linewidth(self.lifetime_ns)  # refuses one with no finite linewidth above 0

    @property
    def gamma_mhz(self) -> float:
        """Lifetime-limited linewidth implied by ``lifetime_ns``."""
        return lifetime_limited_linewidth(self.lifetime_ns)


def _truncated_normal(
    rng: np.random.Generator, mean: float, sigma: float, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Normal(mean, sigma) conditioned on > 0, by resampling violations.

    ``out``, if given, is the first draw of the n values, already taken
    from ``rng``; it is resampled in place.
    """
    if sigma == 0.0:
        return np.full(n, mean)
    if out is None:
        out = rng.normal(mean, sigma, n)
    bad = out <= 0.0
    while n_bad := np.count_nonzero(bad):
        out[bad] = rng.normal(mean, sigma, n_bad)
        bad = out <= 0.0
    return out


def _line_rows(
    model: EnsembleModel, n: int, rngs: Sequence[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """(a1, a2) as ``(len(rngs), n)`` arrays, one row a generator.

    Row k is, bit for bit, ``sample_line_positions(model, n, rngs[k])``,
    and ``rngs[k]`` ends where that call leaves it. Each generator draws
    its row's raw numbers in two C calls: the centers' standard uniforms
    (standard normals for :class:`NormalCenters`), then the ZFS standard
    normals, none when ``zfs_sigma_ghz`` is 0. All rows are then mapped at
    once with the IEEE operations of numpy's C ``random_uniform``
    (``low + range * u``) and ``random_normal`` (``loc + scale * z``), so
    each value equals what ``rng.uniform`` or ``rng.normal`` draws from the
    same stream. A row with a ZFS of 0 or below then takes the truncated
    normal's further draws from its own generator.
    """
    u, z = np.empty((len(rngs), n)), np.empty((len(rngs), n))
    centers = model.centers
    for rng, u_row, z_row in zip(rngs, u, z):
        if isinstance(centers, NormalCenters):
            rng.standard_normal(out=u_row)
        else:
            rng.random(out=u_row)
        if model.zfs_sigma_ghz != 0.0:
            rng.standard_normal(out=z_row)
    if isinstance(centers, NormalCenters):
        u *= centers.sigma_ghz
        u += 0.0  # as loc 0.0 does: -0.0 becomes 0.0
    else:
        low, high = -centers.half_width_ghz, centers.half_width_ghz
        u *= high - low
        u += low
    if model.zfs_sigma_ghz == 0.0:
        z.fill(model.zfs_mean_ghz)
    else:
        z *= model.zfs_sigma_ghz
        z += model.zfs_mean_ghz
        for k in np.flatnonzero((z <= 0.0).any(axis=1)):
            _truncated_normal(rngs[k], model.zfs_mean_ghz, model.zfs_sigma_ghz, n, z[k])
    # the lines ZFS/2 below and above each center
    z *= 0.5
    a1 = u - z
    u += z
    return a1, u


def sample_line_positions(
    model: EnsembleModel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n emitters' (a1, a2) detunings in GHz as arrays.

    Draw order is fixed (centers, then ZFS, then the ZFS resamples) so
    streams are reproducible; this is the one-row case of :func:`_line_rows`.
    """
    a1, a2 = _line_rows(model, n, [rng])
    return a1[0], a2[0]


# Most emitters :func:`sample_ensemble` draws. It peaks at about 160 bytes an
# emitter (traced), and the ``sample`` command's line-list writer at about
# twice that, so the limit stands for about 0.8 GB; a larger n is refused
# before any generator is made.
MAX_ENSEMBLE_EMITTERS = 5_000_000


def sample_ensemble(model: EnsembleModel, n: int, seed: SeedSpec | int) -> LineTable:
    """Sample n emitters; deterministic for a given (seed, stream_index).

    Per emitter: center ~ ``model.centers``, ZFS ~ truncated normal,
    lines at center -+ ZFS/2, and one FWHM draw per line. Ids are
    ``e000``, ``e001``, ..., zero-padded to the widest index. An n above
    :data:`MAX_ENSEMBLE_EMITTERS` is refused.
    """
    n = _index(n, "ensemble size")
    if n < 1:
        raise DomainError(f"ensemble size must be >= 1, got {n}")
    if n > MAX_ENSEMBLE_EMITTERS:
        raise DomainError(
            f"ensemble size {n} exceeds the limit of {MAX_ENSEMBLE_EMITTERS} emitters"
        )
    rng = as_seed(seed).rng()
    a1, a2 = sample_line_positions(model, n, rng)
    fwhm = _truncated_normal(rng, model.fwhm_mean_mhz, model.fwhm_sigma_mhz, 2 * n).reshape(n, 2)
    digits = np.char.zfill(np.arange(n).astype(str), max(len(str(n - 1)), 3))
    return LineTable(np.char.add("e", digits), a1, a2, fwhm[:, 0], fwhm[:, 1])


class LineCombo(enum.Enum):
    """Which line of the first emitter is compared with which of the second."""

    A1_A1 = (0, 0)
    A2_A2 = (1, 1)
    A1_A2 = (0, 1)
    A2_A1 = (1, 0)

    @classmethod
    def parse(cls, name: str) -> "LineCombo":
        key = name.strip().lower().replace("_", "").replace("-", "")
        for member in cls:
            if member.name.lower().replace("_", "") == key:
                return member
        raise DomainError(f"unknown line combination {name!r}")

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "")


ALL_COMBOS: frozenset[LineCombo] = frozenset(LineCombo)


def separation_mhz(
    x: tuple[np.ndarray, np.ndarray],
    y: tuple[np.ndarray, np.ndarray],
    combos: Iterable[LineCombo],
) -> np.ndarray:
    """Smallest |line - line| gap over ``combos`` between emitters x and y, in MHz.

    ``x`` and ``y`` are ``(a1, a2)`` pairs of GHz arrays that broadcast
    together. Every pair statistic compares this, strictly, with its
    window: two emitters overlap when ``separation_mhz(...) < window_mhz``.
    A gap beyond the range of a double is inf, which no window reaches.
    """
    sep = None
    with np.errstate(over="ignore"):
        for ci, cj in (c.value for c in combos):
            d = np.subtract(x[ci], y[cj])
            np.abs(d, out=d)
            sep = d if sep is None else np.minimum(sep, d, out=sep)
        return np.multiply(sep, 1e3, out=sep)


@dataclass(frozen=True)
class FieldStats:
    mean: float
    std: float
    min: float
    max: float


@dataclass(frozen=True)
class EnsembleSummary:
    """Sample statistics of an ensemble (unbiased standard deviations)."""

    n_emitters: int
    zfs_ghz: FieldStats
    center_ghz: FieldStats
    fwhm_mhz: FieldStats
    detuning_min_ghz: float
    detuning_max_ghz: float


def _field_stats(values: np.ndarray, name: str) -> FieldStats:
    # huge values overflow the sum or the squared spread to inf: both are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(values.mean()), float(values.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise DomainError(f"{name}: mean or standard deviation is beyond the range of a double")
    return FieldStats(mean=mean, std=std, min=float(values.min()), max=float(values.max()))


def summarize_ensemble(emitters: LineTable) -> EnsembleSummary:
    """Means, unbiased standard deviations, and ranges for an ensemble."""
    if len(emitters) < 2:
        raise DomainError(f"need at least 2 emitters to summarize, got {len(emitters)}")
    a1, a2 = emitters.a1_ghz, emitters.a2_ghz
    # Widths interleaved per emitter (a1, a2, a1, ...), the order they are drawn in.
    fwhm = np.column_stack([emitters.fwhm_a1_mhz, emitters.fwhm_a2_mhz]).ravel()
    return EnsembleSummary(
        n_emitters=len(emitters),
        zfs_ghz=_field_stats(emitters.zfs_ghz, "zfs_ghz"),
        center_ghz=_field_stats(0.5 * (a1 + a2), "center_ghz"),
        fwhm_mhz=_field_stats(fwhm, "fwhm_mhz"),
        detuning_min_ghz=float(a1.min()),
        detuning_max_ghz=float(a2.max()),
    )
