"""The sparse pair kernel against the dense all-pairs code it replaced.

The oracle below is the former dense implementation: an n x n separation
matrix per call and, for the bootstrap, an n x n submatrix gathered per
resample and window. The kernel must reproduce its probabilities, pair
counts and standard errors exactly (``==``), ties on a window included.
"""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import DomainError, EmitterLines, LineCombo, LineTable, overlap_curve
from emitternet.overlap import MAX_CANDIDATE_PAIRS
from emitternet.seeding import as_seed

from conftest import make_table


def dense_separation_matrix_mhz(a1, a2, combos):
    lines = (a1, a2)
    sep = None
    for i, j in (c.value for c in combos):
        d = np.abs(lines[i][:, None] - lines[j][None, :])
        sep = d if sep is None else np.minimum(sep, d)
    return sep * 1e3


def dense_probabilities(emitters, windows, combos):
    seps = dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, combos)
    seps = seps[np.triu_indices(len(emitters), k=1)]
    return tuple(float(np.count_nonzero(seps < w)) / len(seps) for w in windows), len(seps)


def dense_bootstrap_std_error(emitters, window_mhz, combos, resamples, seed):
    n = len(emitters)
    seps = dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, combos)
    overlap = seps < float(window_mhz)
    rng = as_seed(seed).rng(2)
    iu = np.triu_indices(n, k=1)
    values = np.empty(resamples)
    chunk = max(1, min(resamples, 2_000_000 // (n * n)))
    done = 0
    while done < resamples:
        m = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        hits = overlap[idx[:, :, None], idx[:, None, :]][:, iu[0], iu[1]]
        valid = (idx[:, :, None] != idx[:, None, :])[:, iu[0], iu[1]]
        n_valid = valid.sum(axis=1)
        n_hit = (hits & valid).sum(axis=1)
        with np.errstate(invalid="ignore"):
            p = np.where(n_valid > 0, n_hit / np.maximum(n_valid, 1), 0.0)
        values[done : done + m] = p
        done += m
    return float(values.std(ddof=1))


CLOSED_COMBO_SETS = [
    frozenset(s)
    for s in (
        {LineCombo.A1_A1},
        {LineCombo.A2_A2},
        {LineCombo.A1_A2, LineCombo.A2_A1},
        {LineCombo.A1_A1, LineCombo.A2_A2},
        {LineCombo.A1_A1, LineCombo.A1_A2, LineCombo.A2_A1},
        {LineCombo.A2_A2, LineCombo.A1_A2, LineCombo.A2_A1},
        set(LineCombo),
    )
]


@st.composite
def random_ensembles(draw):
    """Continuous centers and splittings, some emitters duplicated exactly."""
    n = draw(st.integers(2, 60))
    seed = draw(st.integers(0, 2**32 - 1))
    half_width = draw(st.sampled_from([0.05, 0.5, 3.0, 10.0]))
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-half_width, half_width, n)
    zfs = rng.uniform(0.9, 1.15, n)
    copies = draw(st.integers(0, n // 2))
    for _ in range(copies):
        src, dst = rng.integers(0, n, 2)
        centers[dst], zfs[dst] = centers[src], zfs[src]
    return make_table(centers, zfs)


@st.composite
def grid_ensembles(draw):
    """Lines on a dyadic 1/8 GHz grid, so separations are exact multiples of 125 MHz."""
    n = draw(st.integers(2, 60))
    steps = draw(st.lists(st.integers(-24, 24), min_size=n, max_size=n))
    splits = draw(st.lists(st.integers(1, 10), min_size=n, max_size=n))
    return LineTable.from_rows(
        EmitterLines(
            id=f"g{i:03d}",
            a1_ghz=s / 8,
            a2_ghz=(s + z) / 8,
            fwhm_a1_mhz=300.0,
            fwhm_a2_mhz=300.0,
        )
        for i, (s, z) in enumerate(zip(steps, splits))
    )


@st.composite
def cases(draw):
    emitters = draw(st.one_of(random_ensembles(), grid_ensembles()))
    combos = draw(st.sampled_from(CLOSED_COMBO_SETS))
    seps = np.unique(dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, combos))
    # Windows mix exact separations (boundary ties), the next float above
    # one (the pair must still be found) and arbitrary values.
    picks = draw(st.lists(st.integers(0, len(seps) - 1), max_size=10))
    above = draw(st.lists(st.integers(0, len(seps) - 1), max_size=3))
    free = draw(st.lists(st.floats(1e-3, 3e4), max_size=10))
    windows = sorted(
        {float(seps[k]) for k in picks if seps[k] > 0}
        | {float(np.nextafter(seps[k], np.inf)) for k in above}
        | set(free)
    )
    if not windows:
        windows = [draw(st.floats(1e-3, 3e4))]
    return emitters, windows[:10], combos


@settings(max_examples=150, deadline=None)
@given(cases())
def test_probabilities_and_pair_count_match_dense(case):
    emitters, windows, combos = case
    probs, n_pairs = dense_probabilities(emitters, windows, combos)
    curve = overlap_curve(emitters, windows, combos)
    assert curve.probabilities == probs
    assert curve.n_pairs == n_pairs


@settings(max_examples=60, deadline=None)
@given(cases(), st.integers(100, 140), st.integers(0, 2**32 - 1))
def test_bootstrap_errors_match_dense(case, resamples, seed):
    emitters, windows, combos = case
    curve = overlap_curve(emitters, windows, combos, bootstrap_resamples=resamples, seed=seed)
    expected = tuple(
        dense_bootstrap_std_error(emitters, w, combos, resamples, seed) for w in windows
    )
    assert curve.std_errors == expected


def test_bootstrap_matches_dense_across_draw_chunks():
    # n = 251 draws 31 resample rows per call, so 300 resamples span ten calls
    rng = np.random.default_rng(12)
    emitters = make_table(rng.uniform(-2.0, 2.0, 251))
    windows = [14.5, 29.0, 145.0]
    curve = overlap_curve(emitters, windows, bootstrap_resamples=300, seed=3)
    combos = frozenset(LineCombo)
    assert curve.std_errors == tuple(
        dense_bootstrap_std_error(emitters, w, combos, 300, 3) for w in windows
    )


def test_candidate_limit_refused_before_pairs_are_built():
    # 2e4 identical emitters under a huge window: C(4e4, 2) ~ 8e8 line pairs
    assert MAX_CANDIDATE_PAIRS >= 100_000_000
    emitters = make_table(np.zeros(20_000))
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=f"{MAX_CANDIDATE_PAIRS}"):
            overlap_curve(emitters, [1e6])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one int64 array of the refused pairs alone would be ~6.4 GB
    assert peak < 50e6
