"""Spectral-overlap collision statistics.

Quantifies how often randomly chosen emitters share an absorption line:
empirical pair-overlap probability curves with bootstrap errors, a
zero-intercept linear fit in units of the lifetime-limited linewidth, the
birthday-paradox collision law, and a sequential Monte Carlo estimate of
how many emitters must be inspected before two lines coincide.

Each statistic compares :func:`~emitternet.spectral.separation_mhz` strictly
with its window (``separation < window``); boundary ties count as non-overlap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError
from .seeding import SeedSpec, as_seed
from .spectral import ALL_COMBOS, EnsembleModel, LineCombo, LineTable
from .spectral import sample_line_positions, separation_mhz


@dataclass(frozen=True)
class OverlapCurve:
    """Pair-overlap probability as a function of the frequency window."""

    windows_mhz: tuple[float, ...]
    probabilities: tuple[float, ...]
    std_errors: tuple[float, ...]
    n_emitters: int
    n_pairs: int

    def __post_init__(self) -> None:
        if not (len(self.windows_mhz) == len(self.probabilities) == len(self.std_errors)):
            raise DomainError("curve sequences must have equal lengths")
        if any(not (0.0 <= p <= 1.0) for p in self.probabilities):
            raise DomainError("probabilities must lie in [0, 1]")
        if any(e < 0 for e in self.std_errors):
            raise DomainError("standard errors must be non-negative")
        if any(b < a for a, b in zip(self.windows_mhz, self.windows_mhz[1:])):
            raise DomainError("windows must be non-decreasing")
        if any(b < a for a, b in zip(self.probabilities, self.probabilities[1:])):
            raise DomainError("probabilities must be non-decreasing in the window")


# Most bootstrap values (windows x resamples) :func:`overlap_curve` computes.
# Each costs about 10 bytes at peak (traced), so the limit stands for about
# 1 GB; a larger request is refused before any index is drawn.
MAX_BOOTSTRAP_VALUES = 100_000_000

# Most candidate line pairs :func:`_close_pairs` may visit. Each costs about
# 32 bytes at peak (traced), so the limit stands for about 3 GB; a request
# above it is refused before any pair array is allocated.
MAX_CANDIDATE_PAIRS = 100_000_000


def _closed_combos(combos: Iterable[LineCombo]) -> frozenset[LineCombo]:
    """The combo set, checked to be non-empty and closed under swapping emitters.

    An open set (a1a2 without a2a1, or the reverse) makes the separation of
    an unordered pair depend on which emitter is listed first.
    """
    combos = frozenset(combos)
    if not combos:
        raise DomainError("combos must be non-empty")
    for combo in combos:
        partner = LineCombo(combo.value[::-1])
        if partner not in combos:
            raise DomainError(
                f"combos must be closed under swapping the two emitters: "
                f"{combo.label} needs its partner {partner.label}"
            )
    return combos


def _close_pairs(
    a1: np.ndarray, a2: np.ndarray, combos: frozenset[LineCombo], window_mhz: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every emitter pair closer than the window, in each row of ``(rows, n)`` line arrays.

    Emitter i of row r is numbered r * n + i. Returns ``(u, v, sep)``: each
    close pair once, as u < v in ascending order, with its
    :func:`~emitternet.spectral.separation_mhz`. Each row's 2n lines are
    sorted and the lines d places apart compared for d = 1, 2, ...; a line
    goes on to d + 1 while its gap stays below the window. Gaps are compared
    as :func:`separation_mhz` compares them and grow with d, so every line
    pair that makes two emitters close is met; each pair met is then tested.
    """
    rows, n = a1.shape
    # each row's lines, then an inf that ends every run of gaps below the window
    xs = np.concatenate([a1, a2, np.full((rows, 1), np.inf)], axis=1)
    order = np.argsort(xs, axis=1)
    xs = np.take_along_axis(xs, order, axis=1)
    if rows * n * (2 * n - 1) > MAX_CANDIDATE_PAIRS:  # a row has C(2n, 2) line pairs
        # count them with a reach widened for rounding, so the sweep meets no more
        reach = window_mhz * 1e-3 * (1 + 1e-9)
        reach += 8 * np.spacing(np.abs(xs[:, :-1]).max() + reach)
        total = sum(int(np.searchsorted(x, x + reach, "right").sum()) for x in xs[:, :-1])
        total -= rows * n * (2 * n + 1)
        if total > MAX_CANDIDATE_PAIRS:
            raise DomainError(
                f"overlap search needs {total} candidate line pairs, above the limit of "
                f"{MAX_CANDIDATE_PAIRS}; use fewer emitters or narrower windows"
            )
    # p: the flat positions whose line is within the window of the line d places on
    gap = np.diff(xs, axis=1)
    p = np.flatnonzero(np.multiply(gap, 1e3, out=gap) < window_mhz)
    p += p // (2 * n)  # from the (rows, 2n) gaps to the flat (rows, 2n + 1) lines
    xs, owner = xs.ravel(), (order % n + n * np.arange(rows)[:, None]).ravel()
    keys, d = [], 1
    while p.size:
        u, v = owner[p], owner[p + d]
        keys.append(np.minimum(u, v) * (rows * n) + np.maximum(u, v))
        d += 1
        gap = xs[p + d] - xs[p]
        p = p[np.multiply(gap, 1e3, out=gap) < window_mhz]
    keys = np.concatenate(keys) if keys else np.empty(0, dtype=np.int64)
    # One emitter pair can be met through up to four line pairs. Sort and
    # drop repeats; np.unique does the same but far slower on numpy 2.x.
    keys.sort()
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    u, v = np.divmod(keys[first], rows * n)
    del keys, first
    # Test in blocks, so the gathered lines stay small, and pack the close
    # pairs to the front of u, v and sep.
    a1, a2, sep, kept = a1.ravel(), a2.ravel(), np.empty(len(u)), 0
    for b in range(0, len(u), 1 << 16):
        x, y = u[b : b + (1 << 16)], v[b : b + (1 << 16)]
        sep_xy = separation_mhz((a1[x], a2[x]), (a1[y], a2[y]), combos)
        close = (x != y) & (sep_xy < window_mhz)
        end = kept + np.count_nonzero(close)
        u[kept:end], v[kept:end], sep[kept:end] = x[close], y[close], sep_xy[close]
        kept = end
    return u[:kept], v[:kept], sep[:kept]


def _bootstrap_std_errors(
    n: int,
    i: np.ndarray,
    j: np.ndarray,
    pair_counts: np.ndarray,
    resamples: int,
    seed: SeedSpec | int,
) -> list[float]:
    """Bootstrap standard errors for every window from one set of index draws.

    ``i, j`` are the close pairs ordered by window bucket and
    ``pair_counts[w]`` is how many of them are closer than window w. A
    resample with emitter multiplicities c has (n^2 - sum c^2) / 2 valid
    position pairs, and the pair (i, j) appears in c_i * c_j of them;
    prefix sums over the ordered pairs give the hits of every window at
    once. The counts are the same integers an explicit position-pair
    enumeration gives, so the errors match it exactly.
    """
    # Subkey 2 keeps index draws independent of the ensemble-sampling stream.
    rng = as_seed(seed).rng(2)
    values = np.empty((len(pair_counts), resamples))
    # The draws keep their original chunking: numpy does not promise that a
    # bounded-integer stream is independent of how it is split into calls.
    chunk = max(1, min(resamples, 2_000_000 // (n * n)))
    done = 0
    while done < resamples:
        m = min(chunk, resamples - done)
        idx = rng.integers(0, n, size=(m, n))
        rows = idx + n * np.arange(m)[:, None]
        counts = np.bincount(rows.ravel(), minlength=m * n).reshape(m, n)
        n_valid = (n * n - (counts * counts).sum(axis=1)) // 2
        prefix = np.zeros((m, len(i) + 1), dtype=np.int64)
        np.cumsum(counts[:, i] * counts[:, j], axis=1, out=prefix[:, 1:])
        n_hit = prefix[:, pair_counts]
        with np.errstate(invalid="ignore"):
            p = np.where(n_valid[:, None] > 0, n_hit / np.maximum(n_valid, 1)[:, None], 0.0)
        values[:, done : done + m] = p.T
        done += m
    return [float(row.std(ddof=1)) for row in values]


def overlap_curve(
    emitters: LineTable,
    windows_mhz: Sequence[float],
    combos: Iterable[LineCombo] = ALL_COMBOS,
    bootstrap_resamples: int | None = None,
    seed: SeedSpec | int = 0,
) -> OverlapCurve:
    """Fraction of unordered emitter pairs closer than each window.

    ``windows_mhz`` must be positive, finite and ascending; ``combos`` must
    be closed under swapping the two emitters. When ``bootstrap_resamples``
    is given, per-window standard errors come from one emitter-level
    bootstrap shared by all windows (see :func:`bootstrap_std_error`);
    otherwise they are zero.
    """
    combos = _closed_combos(combos)
    n = len(emitters)
    if n < 2:
        raise DomainError(f"need at least 2 emitters, got {n}")
    windows = [float(w) for w in windows_mhz]
    if not windows:
        raise DomainError("at least one window is required")
    if not all(0 < w < math.inf for w in windows):
        raise DomainError("windows must be positive and finite")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise DomainError("windows must be strictly ascending")
    if bootstrap_resamples is not None:
        if bootstrap_resamples < 100:
            raise DomainError(f"need at least 100 resamples, got {bootstrap_resamples}")
        if len(windows) * bootstrap_resamples > MAX_BOOTSTRAP_VALUES:
            raise DomainError(
                f"{len(windows)} windows x {bootstrap_resamples} resamples exceeds the "
                f"bootstrap limit of {MAX_BOOTSTRAP_VALUES:.0e} values"
            )

    i, j, sep = _close_pairs(emitters.a1_ghz[None], emitters.a2_ghz[None], combos, windows[-1])
    # Each pair goes to the bucket of the first window it satisfies; the
    # smallest integer type lets the bucket sort below run as a radix sort.
    bucket = np.searchsorted(windows, sep, side="right")
    bucket = bucket.astype(np.min_scalar_type(len(windows)))
    pair_counts = np.cumsum(np.bincount(bucket, minlength=len(windows)))
    n_pairs = n * (n - 1) // 2
    probs = tuple(float(k) / n_pairs for k in pair_counts)
    if bootstrap_resamples is None:
        errors = tuple(0.0 for _ in windows)
    else:
        order = np.argsort(bucket, kind="stable")
        errors = tuple(
            _bootstrap_std_errors(n, i[order], j[order], pair_counts, bootstrap_resamples, seed)
        )
    return OverlapCurve(
        windows_mhz=tuple(windows),
        probabilities=probs,
        std_errors=errors,
        n_emitters=n,
        n_pairs=n_pairs,
    )


def bootstrap_std_error(
    emitters: LineTable,
    window_mhz: float,
    combos: Iterable[LineCombo] = ALL_COMBOS,
    resamples: int = 1000,
    seed: SeedSpec | int = 0,
) -> float:
    """Bootstrap standard error of the pair-overlap probability at one window.

    Emitters are the resampling unit (drawn with replacement). Within a
    resample, position pairs that duplicate one source emitter are
    excluded from both counts; a resample with no valid pair contributes
    probability 0. Every window of one seed sees the same draws, so this
    equals the matching entry of ``overlap_curve(...).std_errors``.
    """
    curve = overlap_curve(emitters, [window_mhz], combos, resamples, seed)
    return curve.std_errors[0]


def fit_slope_through_origin(curve: OverlapCurve, gamma_mhz: float) -> float:
    """Least-squares slope of P(window) = s * window / gamma through zero.

    Unweighted ordinary least squares; returns s, the overlap probability
    per one lifetime-limited linewidth.
    """
    if len(curve.windows_mhz) == 0:
        raise DomainError("curve is empty")
    if not gamma_mhz > 0:
        raise DomainError("gamma must be positive")
    x = np.asarray(curve.windows_mhz) / float(gamma_mhz)
    y = np.asarray(curve.probabilities)
    sxx = float(np.dot(x, x))
    if sxx == 0.0:
        raise DomainError("all windows are zero; slope is undefined")
    return float(np.dot(x, y) / sxx)


def analytic_homogeneous_slope(half_width_ghz: float, gamma_mhz: float, n_combos: int = 4) -> float:
    """Small-window union-bound slope for uniformly distributed lines.

    For line centers uniform over +-half_width, each of the ``n_combos``
    line pairings contributes probability ~ 2*gamma/(2*half_width) per
    window of one gamma, so the slope per gamma is n_combos*gamma/half_width.
    """
    if not half_width_ghz > 0:
        raise DomainError("half width must be positive")
    if gamma_mhz < 0:
        raise DomainError("gamma must be non-negative")
    if n_combos < 1:
        raise DomainError("need at least one combination")
    gamma_ghz = gamma_mhz * 1e-3
    if gamma_ghz >= half_width_ghz:
        raise DomainError("slope approximation requires gamma well below the half width")
    return n_combos * gamma_ghz / half_width_ghz


def collision_probability(q: float, n: int) -> float:
    """P(at least one overlapping pair among n emitters), independent pairs.

    Birthday-paradox form 1 - (1-q)^C(n,2) for pairwise overlap
    probability q.
    """
    if not (0.0 <= q <= 1.0):
        raise DomainError(f"pairwise probability must lie in [0, 1], got {q}")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    pairs = n * (n - 1) // 2
    if pairs == 0 or q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0
    return float(-np.expm1(pairs * math.log1p(-q)))


@dataclass(frozen=True)
class ThresholdResult:
    """Smallest ensemble size whose collision probability reaches a target."""

    n_star: int
    target_probability: float
    pairwise_q: float
    curve: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if collision_probability(self.pairwise_q, self.n_star) < self.target_probability:
            raise DomainError("n_star does not reach the target probability")
        if self.n_star > 1 and collision_probability(
            self.pairwise_q, self.n_star - 1
        ) >= self.target_probability:
            raise DomainError("n_star - 1 already reaches the target probability")


# Largest threshold :func:`birthday_threshold` builds its curve up to, one point
# per ensemble size; a larger closed-form estimate is refused before any point.
MAX_BIRTHDAY_EMITTERS = 100_000


def birthday_threshold(q: float, target: float) -> ThresholdResult:
    """Minimal n with collision_probability(q, n) >= target.

    Closed-form seeded then verified, so it is O(n_star) overall. A
    threshold whose estimate exceeds :data:`MAX_BIRTHDAY_EMITTERS` is
    refused.
    """
    if not (0.0 < q <= 1.0):
        raise DomainError(f"pairwise probability must lie in (0, 1], got {q}")
    if not (0.0 < target < 1.0):
        raise DomainError(f"target must lie in (0, 1), got {target}")
    if q == 1.0:
        n = 2
    else:
        pairs_needed = math.log1p(-target) / math.log1p(-q)
        estimate = 0.5 * (1.0 + math.sqrt(1.0 + 8.0 * pairs_needed))
        if estimate > MAX_BIRTHDAY_EMITTERS:
            raise DomainError(
                f"birthday threshold needs about {estimate:.3g} emitters, above the limit "
                f"of {MAX_BIRTHDAY_EMITTERS} curve points; use a larger q or a smaller target"
            )
        n = max(2, math.ceil(estimate))
        while n > 2 and collision_probability(q, n - 1) >= target:
            n -= 1
        while collision_probability(q, n) < target:
            n += 1
    curve = tuple((k, collision_probability(q, k)) for k in range(1, n + 1))
    return ThresholdResult(n_star=n, target_probability=target, pairwise_q=q, curve=curve)


@dataclass(frozen=True)
class MonteCarloThreshold:
    """Empirical stopping statistics for sequential emitter inspection."""

    n_star: int | None
    target_probability: float
    pairwise_q: float
    curve: tuple[tuple[int, float], ...]
    median_stop: float
    quantiles: dict[str, float]
    ci95_at_n_star: tuple[float, float] | None
    trials: int
    n_censored: int


# Most trials :func:`monte_carlo_threshold` runs. The stopping times and the
# pairwise-rate sample take about 80 bytes a trial at peak (traced), so the
# limit stands for about 0.8 GB; more trials are refused before any generator
# is made.
MAX_MC_TRIALS = 10_000_000

# Most emitters one chunk of side-by-side trials in monte_carlo_threshold may
# hold: 512 trials at the default max_emitters of 512. A chunk whose trials
# all stay open peaks at about 75 bytes an emitter (20 MB).
_MC_CHUNK_EMITTERS = 1 << 18


def _first_closing(
    a1: np.ndarray, a2: np.ndarray, combos: frozenset[LineCombo], window_mhz: float
) -> np.ndarray:
    """Per row of ``(rows, n)`` line arrays, the least j with some i < j closer than the window.

    Rows without a close pair give n.
    """
    rows, n = a1.shape
    _, v, _ = _close_pairs(a1, a2, combos, window_mhz)
    first = np.full(rows, n)
    np.minimum.at(first, *np.divmod(v, n))
    return first


def monte_carlo_threshold(
    model: EnsembleModel,
    window_mhz: float,
    target: float,
    trials: int,
    seed: SeedSpec | int,
    combos: Iterable[LineCombo] = ALL_COMBOS,
    max_emitters: int = 512,
) -> MonteCarloThreshold:
    """Simulate drawing emitters until two lines fall within the window.

    Each trial uses its own sub-stream (subkeys ``(0, trial)``, derived in
    bulk by :meth:`~emitternet.seeding.SeedSpec.pcg64_states`) so trials
    are order-independent; the pairwise rate ``pairwise_q`` is estimated
    from an independent block of sampled pairs (subkey ``(1,)``).
    Pairs are found, and ``combos`` must be closed under swapping the two
    emitters, as for :func:`overlap_curve`.

    A trial draws blocks of 32, 64, 128, ... emitters, clipped at
    ``max_emitters``, until one of them closes a pair. Trials run side by
    side in chunks of ``_MC_CHUNK_EMITTERS // max_emitters``, one generator
    set to each trial's state in turn: after each block, one sorted sweep
    per trial (:func:`_first_closing`) finds the first emitter that closes
    a pair, and only the trials still open draw their next block.
    """
    if trials < 1000:
        raise DomainError(f"need at least 1000 trials, got {trials}")
    if trials > MAX_MC_TRIALS:
        raise DomainError(f"trial count {trials} exceeds the limit of {MAX_MC_TRIALS:.0e} trials")
    if not window_mhz > 0:
        raise DomainError(f"window must be positive, got {window_mhz}")
    if not (0.0 < target < 1.0):
        raise DomainError(f"target must lie in (0, 1), got {target}")
    if max_emitters < 2:
        raise DomainError(f"need max_emitters >= 2 to close a pair, got {max_emitters}")
    combos = _closed_combos(combos)
    spec = as_seed(seed)

    # stopping count = 1 + first emitter index that closes a pair (i < j);
    # max_emitters + 1 marks a censored trial
    stops = np.full(trials, max_emitters + 1, dtype=np.int64)
    chunk = max(1, _MC_CHUNK_EMITTERS // max_emitters)
    # One generator serves every trial: it is set to a trial's state before
    # the trial's block and the state is kept after it.
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for first in range(0, trials, chunk):
        states = spec.pcg64_states(range(first, min(first + chunk, trials)), 0)
        live = np.arange(len(states))
        a1 = a2 = np.empty((len(states), 0))
        block = 32
        while live.size and a1.shape[1] < max_emitters:
            grow, new = min(block, max_emitters - a1.shape[1]), []
            for r in live:
                bit_generator.state = states[r]
                new.append(sample_line_positions(model, grow, rng))
                states[r] = bit_generator.state
            a1 = np.concatenate([a1, np.stack([n1 for n1, _ in new])], axis=1)
            a2 = np.concatenate([a2, np.stack([n2 for _, n2 in new])], axis=1)
            j = _first_closing(a1, a2, combos, window_mhz)
            hit = j < a1.shape[1]
            stops[first + live[hit]] = j[hit] + 1
            live, a1, a2 = live[~hit], a1[~hit], a2[~hit]
            block *= 2

    # Independent pairwise-rate estimate over >= trials sampled pairs.
    rng_q = spec.rng(1)
    n_q = max(trials, 20_000)
    qa1, qa2 = sample_line_positions(model, 2 * n_q, rng_q)
    sep_q = separation_mhz((qa1[:n_q], qa2[:n_q]), (qa1[n_q:], qa2[n_q:]), combos)
    pairwise_q = float(np.count_nonzero(sep_q < window_mhz)) / n_q

    uncensored = stops[stops <= max_emitters]
    ns = np.arange(2, uncensored.max(initial=2) + 1)
    cum = np.cumsum(np.bincount(uncensored, minlength=len(ns) + 2))[2:] / trials
    curve = tuple((int(k), float(p)) for k, p in zip(ns, cum))
    reached = np.nonzero(cum >= target)[0]
    n_star, ci = None, None
    if len(reached) > 0:
        n_star, p_at = int(ns[reached[0]]), float(cum[reached[0]])
        half = 1.96 * math.sqrt(max(p_at * (1 - p_at), 0.0) / trials)
        ci = (max(0.0, p_at - half), min(1.0, p_at + half))
    qs = {
        f"q{p}": float(np.quantile(uncensored, p / 100)) if len(uncensored) else math.nan
        for p in (25, 50, 75)
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
        n_censored=trials - len(uncensored),
    )


@dataclass(frozen=True)
class HistogramResult:
    """Half-open bins [origin + k*w, origin + (k+1)*w) with counts."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


# Most bins :func:`histogram` builds; each costs about 50 bytes in the result.
MAX_HISTOGRAM_BINS = 1_000_000


def histogram(values: Sequence[float], bin_width: float, origin: float = 0.0) -> HistogramResult:
    """Histogram with half-open bins; edge values go to the upper bin.

    A span of more than about :data:`MAX_HISTOGRAM_BINS` bins is refused
    before any bin is allocated.
    """
    if not bin_width > 0:
        raise DomainError(f"bin width must be positive, got {bin_width}")
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        return HistogramResult(bin_edges=(), counts=())
    if not np.all(np.isfinite(vals)):
        raise DomainError("histogram values must be finite")
    # huge spans overflow to inf (or inf - inf = nan): both are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi = np.floor((np.array([vals.min(), vals.max()]) - origin) / bin_width)
        span = hi - lo
    if not span < MAX_HISTOGRAM_BINS:
        raise DomainError(
            f"histogram needs about {span + 1:.4g} bins of width {bin_width}, above the limit "
            f"of {MAX_HISTOGRAM_BINS}; use a wider bin or a narrower ensemble"
        )
    k = np.floor((vals - origin) / bin_width).astype(np.int64)
    # the division can round across an edge: place each value against the edges reported below
    k -= vals < origin + k * bin_width
    k += vals >= origin + (k + 1) * bin_width
    k_min, k_max = int(k.min()), int(k.max())
    counts = np.bincount(k - k_min, minlength=k_max - k_min + 1)
    edges = tuple(origin + (k_min + i) * bin_width for i in range(len(counts) + 1))
    return HistogramResult(bin_edges=edges, counts=tuple(int(c) for c in counts))
