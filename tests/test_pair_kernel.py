"""The sparse pair kernel against the dense all-pairs code it replaced.

The oracles below are the former dense implementations: an n x n
separation matrix per call; for the bootstrap, an n x n submatrix gathered
per resample and window; and for the sequential Monte Carlo, a dense matrix
per trial and block. The kernel must reproduce their probabilities, pair
counts, standard errors and stopping statistics exactly (``==``), ties on a
window included. Every pair statistic applies one separation rule, so a
window equal to a separation is no overlap in each of them.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    DomainError,
    EmitterLines,
    EnsembleModel,
    LineCombo,
    LineTable,
    NormalCenters,
    UniformCenters,
    min_pair_separation,
    monte_carlo_threshold,
    overlap_curve,
    sample_ensemble,
    spectral_arrangement_rate,
)
from emitternet.overlap import MAX_CANDIDATE_PAIRS, MonteCarloThreshold, _closed_combos
from emitternet.overlap import _close_pairs, _first_closing
from emitternet.seeding import SeedSpec, as_seed
from emitternet.spectral import sample_line_positions

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


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_first_closing_emitter_matches_dense(case, seed):
    # rows: the ensemble and three shuffles of it, as one Monte Carlo chunk
    emitters, windows, combos = case
    n = len(emitters)
    rng = np.random.default_rng(seed)
    order = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(3)])
    a1, a2 = emitters.a1_ghz[order], emitters.a2_ghz[order]
    for w in windows:
        want = []
        for r in range(len(order)):
            close = np.triu(dense_separation_matrix_mhz(a1[r], a2[r], combos) < w, k=1)
            want.append(int(np.nonzero(close)[1].min(initial=n)))
        assert _first_closing(a1, a2, combos, w).tolist() == want


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_close_pairs_match_dense_on_shuffled_rows(case, rows, seed):
    emitters, windows, combos = case
    n = len(emitters)
    rng = np.random.default_rng(seed)
    order = np.array([rng.permutation(n) for _ in range(rows)])
    a1, a2 = emitters.a1_ghz[order], emitters.a2_ghz[order]
    for w in windows:
        want = set()
        for r in range(rows):
            sep = dense_separation_matrix_mhz(a1[r], a2[r], combos)
            i, j = np.nonzero(np.triu(sep < w, k=1))
            want |= {(r, a, b, sep[a, b]) for a, b in zip(i.tolist(), j.tolist())}
        u, v, sep = _close_pairs(a1, a2, combos, w)
        # numbered r * n + i, ordered, each pair once
        assert np.all(u[1:] * n * rows + v[1:] > u[:-1] * n * rows + v[:-1])
        r, i = np.divmod(u, n)
        got = list(zip(r.tolist(), i.tolist(), (v - r * n).tolist(), sep.tolist()))
        assert len(got) == len(want) and set(got) == want


def test_close_pairs_span_several_exact_blocks():
    # 400 emitters within 1 GHz: the widest window closes all 79,800 pairs,
    # more than one block of 2^16 exact tests
    rng = np.random.default_rng(21)
    emitters = make_table(rng.uniform(-0.5, 0.5, 400))
    combos = frozenset(LineCombo)
    u, v, sep = _close_pairs(emitters.a1_ghz[None], emitters.a2_ghz[None], combos, 2e4)
    dense = dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, combos)
    i, j = np.triu_indices(400, k=1)
    assert np.array_equal(u, i) and np.array_equal(v, j) and np.array_equal(sep, dense[i, j])
    windows = [100.0, 300.0, 600.0, 2e4]
    assert overlap_curve(emitters, windows).probabilities == dense_probabilities(
        emitters, windows, combos
    )[0]


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


def dense_monte_carlo_threshold(
    model, window_mhz, target, trials, seed, combos, max_emitters=512
):
    """The former ``monte_carlo_threshold``, verbatim: a dense matrix per trial and block."""
    combos = _closed_combos(combos)
    spec = as_seed(seed)
    window_ghz = float(window_mhz) * 1e-3
    pairs_idx = [c.value for c in combos]

    stops = np.empty(trials, dtype=np.int64)
    censored = 0
    for t in range(trials):
        rng = spec.rng(0, t)
        block = 32
        a1 = np.empty(0)
        a2 = np.empty(0)
        stop = 0
        while stop == 0 and len(a1) < max_emitters:
            grow = min(block, max_emitters - len(a1))
            na1, na2 = sample_line_positions(model, grow, rng)
            a1 = np.concatenate([a1, na1])
            a2 = np.concatenate([a2, na2])
            lines = (a1, a2)
            sep = None
            for i, j in pairs_idx:
                d = np.abs(lines[i][:, None] - lines[j][None, :])
                sep = d if sep is None else np.minimum(sep, d)
            hit = sep < window_ghz
            iu = np.triu_indices(len(a1), k=1)
            mask = hit[iu]
            if mask.any():
                # stopping count = first emitter index that closes a pair
                stop = int((np.maximum(iu[0], iu[1])[mask]).min()) + 1
            block *= 2
        if stop == 0:
            censored += 1
            stop = max_emitters + 1
        stops[t] = stop

    # Independent pairwise-rate estimate over >= trials sampled pairs.
    rng_q = spec.rng(1)
    n_q = max(trials, 20_000)
    qa1, qa2 = sample_line_positions(model, 2 * n_q, rng_q)
    xa1, xa2 = qa1[:n_q], qa2[:n_q]
    ya1, ya2 = qa1[n_q:], qa2[n_q:]
    lines_x = (xa1, xa2)
    lines_y = (ya1, ya2)
    sep_q = None
    for i, j in pairs_idx:
        d = np.abs(lines_x[i] - lines_y[j])
        sep_q = d if sep_q is None else np.minimum(sep_q, d)
    pairwise_q = float(np.count_nonzero(sep_q < window_ghz)) / n_q

    n_max = int(stops[stops <= max_emitters].max(initial=2))
    ns = np.arange(2, n_max + 1)
    cum = np.array([(stops <= k).mean() for k in ns])
    curve = tuple((int(k), float(p)) for k, p in zip(ns, cum))
    reached = np.nonzero(cum >= target)[0]
    if len(reached) > 0:
        n_star = int(ns[reached[0]])
        p_at = float(cum[reached[0]])
        half = 1.96 * math.sqrt(max(p_at * (1 - p_at), 0.0) / trials)
        ci = (max(0.0, p_at - half), min(1.0, p_at + half))
    else:
        n_star, ci = None, None

    uncensored = stops[stops <= max_emitters]
    qs = {
        "q25": float(np.quantile(uncensored, 0.25)) if len(uncensored) else math.nan,
        "q50": float(np.quantile(uncensored, 0.50)) if len(uncensored) else math.nan,
        "q75": float(np.quantile(uncensored, 0.75)) if len(uncensored) else math.nan,
    }
    return MonteCarloThreshold(
        n_star=n_star,
        target_probability=target,
        pairwise_q=pairwise_q,
        curve=curve,
        median_stop=qs["q50"],
        quantiles=qs,
        ci95_at_n_star=ci,
        trials=trials,
        n_censored=censored,
    )


UNIFORM = EnsembleModel()
BUNCHED = EnsembleModel(centers=NormalCenters(0.5))
FIXED_ZFS = EnsembleModel(centers=UniformCenters(2.0), zfs_sigma_ghz=0.0)
A1A1, A2A2, A1A2, A2A1 = (LineCombo.A1_A1, LineCombo.A2_A2, LineCombo.A1_A2, LineCombo.A2_A1)


@pytest.mark.parametrize(
    "model, window_mhz, combos, max_emitters, seed",
    [
        (UNIFORM, 29.0, set(LineCombo), 512, 1),
        (UNIFORM, 2.0, {A1A1}, 40, 2),
        (UNIFORM, 300.0, {A1A1, A1A2, A2A1}, 40, 3),
        (BUNCHED, 2.0, {A1A1, A2A2}, 512, 4),
        (BUNCHED, 29.0, {A2A2, A1A2, A2A1}, 40, 5),
        (BUNCHED, 300.0, {A2A2}, 512, 6),
        (FIXED_ZFS, 29.0, {A1A2, A2A1}, 40, 7),
        (FIXED_ZFS, 300.0, set(LineCombo), 512, 8),
        (UNIFORM, 5.0, set(LineCombo), 45, 9),
        (UNIFORM, 0.5, {A1A1}, 100, 10),
        (UNIFORM, 1.5, {A1A1}, 300, 11),
        (BUNCHED, 29.0, set(LineCombo), 512, SeedSpec(12, stream_index=2**33 + 1)),
    ],
)
def test_monte_carlo_matches_dense_oracle(model, window_mhz, combos, max_emitters, seed):
    # max_emitters=40 censors trials and clips the second block to 8 emitters;
    # 45 clips it to 13, and 37% of the trials reach that part-filled block;
    # max_emitters=100 at 0.5 MHz censors about four trials in five; at
    # 1.5 MHz about half the trials reach the third block (128 emitters) and
    # 17 the fourth, so a trial's saved generator state is resumed up to three
    # times; a stream index above 2^32 is two words of the trials' spawn key
    got = monte_carlo_threshold(model, window_mhz, 0.5, 1000, seed, combos, max_emitters)
    want = dense_monte_carlo_threshold(model, window_mhz, 0.5, 1000, seed, combos, max_emitters)
    assert got.curve == want.curve
    assert got.quantiles == want.quantiles
    assert got.n_star == want.n_star
    assert got.n_censored == want.n_censored
    assert got.pairwise_q == want.pairwise_q
    assert got == want


CROSS = {A1A2, A2A1}


@pytest.mark.parametrize("zfs_ghz", [0.938, 0.75, 0.9, 0.95, 1.0, 1.027, 1.1, 1.2])
def test_window_equal_to_separation_is_no_overlap(zfs_ghz):
    # Every emitter has the same two lines, so each pair's cross separation
    # is exactly one value: a window equal to it counts no pair, the next
    # float above it counts every pair, in each pair statistic.
    model = EnsembleModel(centers=NormalCenters(0.0), zfs_mean_ghz=zfs_ghz, zfs_sigma_ghz=0.0)
    table = sample_ensemble(model, 3, 1)
    tie = min_pair_separation(table[0], table[1], CROSS)
    assert zfs_ghz != 0.938 or tie == 938.0
    for window, overlaps in ((tie, False), (float(np.nextafter(tie, math.inf)), True)):
        assert overlap_curve(table, [window], CROSS).probabilities == (float(overlaps),)
        assert spectral_arrangement_rate(model, 2, window, 10_000, 1) == float(overlaps)
        mc = monte_carlo_threshold(model, window, 0.5, 1000, 1, CROSS, max_emitters=2)
        assert mc.n_censored == (0 if overlaps else 1000)
        assert mc.pairwise_q == float(overlaps)

