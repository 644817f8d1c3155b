import os

import numpy as np
import pytest
from hypothesis import settings

from emitternet import EmitterLines, LineTable

# Under CI (GitHub Actions sets CI) every run draws the same examples, and a
# failing property prints the blob that reproduces it.
settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

ZFS_GHZ = 1.027


def make_emitter(i: int, center_ghz: float, zfs_ghz: float = ZFS_GHZ,
                 fwhm_a1_mhz: float = 316.0, fwhm_a2_mhz: float = 310.0) -> EmitterLines:
    return EmitterLines(
        id=f"m{i:03d}",
        a1_ghz=center_ghz - zfs_ghz / 2.0,
        a2_ghz=center_ghz + zfs_ghz / 2.0,
        fwhm_a1_mhz=fwhm_a1_mhz,
        fwhm_a2_mhz=fwhm_a2_mhz,
    )


def make_table(centers_ghz, zfs_ghz=ZFS_GHZ) -> LineTable:
    """One row per center, equal to ``make_emitter(i, centers_ghz[i], zfs_ghz[i])``."""
    centers = np.asarray(centers_ghz, dtype=float)
    zfs = np.broadcast_to(np.asarray(zfs_ghz, dtype=float), centers.shape)
    n = len(centers)
    return LineTable(
        [f"m{i:03d}" for i in range(n)],
        centers - zfs / 2.0,
        centers + zfs / 2.0,
        np.full(n, 316.0),
        np.full(n, 310.0),
    )


def dense_separation_matrix_mhz(a1, a2, combos):
    """The n x n matrix of separations, in MHz, of the emitters with lines
    ``a1`` and ``a2``: the dense all-pairs form of the separation rule."""
    lines = (a1, a2)
    sep = None
    for i, j in (c.value for c in combos):
        d = np.abs(lines[i][:, None] - lines[j][None, :])
        sep = d if sep is None else np.minimum(sep, d)
    return sep * 1e3


def lines_of(table: LineTable, rows) -> tuple[np.ndarray, np.ndarray]:
    """The (a1, a2) arrays of the selected rows, as ``separation_mhz`` takes them."""
    return table.a1_ghz[rows], table.a2_ghz[rows]


@pytest.fixture(scope="session")
def fixture_50_12() -> LineTable:
    """50 emitters with exactly 12 pairs separated by less than 29 MHz.

    Base centers sit 5 GHz apart (no accidental overlaps, same ZFS for
    all); the first 12 even/odd couples are then pulled to 5..16 MHz
    apart, so those couples are the only qualifying pairs for any window
    between 17 MHz and ~1 GHz.
    """
    centers = [5.0 * i for i in range(50)]
    for j in range(12):
        centers[2 * j + 1] = centers[2 * j] + (5 + j) * 1e-3
    return make_table(centers)
