import bisect
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    ALL_COMBOS,
    DomainError,
    EnsembleModel,
    LineCombo,
    LineTable,
    NormalCenters,
    OverlapCurve,
    birthday_threshold,
    bootstrap_std_error,
    collision_probability,
    fit_slope_through_origin,
    histogram,
    monte_carlo_threshold,
    overlap_curve,
    sample_ensemble,
)
from emitternet import overlap
from emitternet.overlap import MAX_BIRTHDAY_EMITTERS, MAX_HISTOGRAM_BINS
from emitternet.spectral import separation_mhz
from conftest import dense_separation_matrix_mhz, lines_of, make_table


class TestOverlapCurve:
    def test_identical_pair_always_overlaps(self):
        e_and_twin = make_table([1.0, 1.0])
        curve = overlap_curve(e_and_twin, [1e-6, 29.0, 1000.0])
        assert curve.probabilities == (1.0, 1.0, 1.0)

    def test_measured_like_fixture(self, fixture_50_12):
        curve = overlap_curve(fixture_50_12, [29.0])
        assert curve.n_pairs == 1225
        assert curve.probabilities[0] == 12 / 1225

    def test_three_emitter_enumeration(self):
        # same-ZFS emitters 10, 50 and 60 MHz apart: one pair under 29 MHz
        emitters = make_table([0.0, 0.010, 0.060])
        seps = dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, ALL_COMBOS)
        assert sorted(seps[np.triu_indices(3, k=1)]) == pytest.approx([10.0, 50.0, 60.0])
        curve = overlap_curve(emitters, [29.0])
        assert curve.probabilities[0] == pytest.approx(1 / 3)

    def test_matches_exhaustive_enumeration(self):
        # four-emitter toy sets against the dense all-pairs separations
        rng = np.random.default_rng(7)
        for _ in range(25):
            emitters = make_table(rng.uniform(-2, 2, 4), rng.uniform(0.9, 1.15, 4))
            seps = dense_separation_matrix_mhz(emitters.a1_ghz, emitters.a2_ghz, ALL_COMBOS)
            seps = seps[np.triu_indices(4, k=1)]
            for window in (10.0, 100.0, 600.0, 1100.0):
                expected = np.count_nonzero(seps < window) / 6
                curve = overlap_curve(emitters, [window])
                assert curve.probabilities[0] == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_reorder_invariant(self, fixture_50_12):
        windows = [5.0, 10.0, 20.0, 50.0, 300.0, 1050.0]
        curve = overlap_curve(fixture_50_12, windows)
        assert all(a <= b for a, b in zip(curve.probabilities, curve.probabilities[1:]))
        order = np.arange(len(fixture_50_12))
        np.random.default_rng(3).shuffle(order)
        assert overlap_curve(fixture_50_12[order], windows).probabilities == curve.probabilities

    def test_preconditions(self, fixture_50_12):
        with pytest.raises(DomainError):
            overlap_curve(fixture_50_12[:1], [29.0])
        with pytest.raises(DomainError):
            overlap_curve(fixture_50_12, [29.0, 10.0])
        with pytest.raises(DomainError):
            overlap_curve(fixture_50_12, [0.0, 29.0])
        with pytest.raises(DomainError):
            overlap_curve(fixture_50_12, [])

    def test_bootstrap_errors_filled_on_request(self, fixture_50_12):
        bare = overlap_curve(fixture_50_12, [29.0, 100.0])
        assert bare.std_errors == (0.0, 0.0)
        curve = overlap_curve(
            fixture_50_12, [29.0, 100.0], bootstrap_resamples=300, seed=4
        )
        assert all(e > 0 for e in curve.std_errors)
        assert curve.std_errors[0] == bootstrap_std_error(
            fixture_50_12, 29.0, resamples=300, seed=4
        )


class TestComboClosure:
    """Pair statistics need a combo set closed under swapping the two emitters.

    With only a1a2 (or only a2a1) the separation of a pair depends on which
    emitter comes first, so the curve changed when the rows were reversed.
    """

    @pytest.mark.parametrize(
        "combos, missing",
        [
            ({LineCombo.A1_A2}, "a2a1"),
            ({LineCombo.A2_A1}, "a1a2"),
            ({LineCombo.A1_A1, LineCombo.A2_A2, LineCombo.A2_A1}, "a1a2"),
        ],
    )
    def test_open_sets_are_refused(self, fixture_50_12, combos, missing):
        with pytest.raises(DomainError, match=missing):
            overlap_curve(fixture_50_12, [29.0], combos)
        with pytest.raises(DomainError, match=missing):
            overlap_curve(fixture_50_12, [29.0], combos, bootstrap_resamples=100)
        with pytest.raises(DomainError, match=missing):
            bootstrap_std_error(fixture_50_12, 29.0, combos, resamples=100)

    @pytest.mark.parametrize("combos", [{LineCombo.A1_A2}, {LineCombo.A2_A1}, ()])
    def test_monte_carlo_refuses_open_sets(self, combos):
        # its dense upper triangle compared only the earlier emitter's A1
        # with the later emitter's A2 for {a1a2}
        with pytest.raises(DomainError):
            monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1000, 1, combos)

    def test_empty_set_is_refused(self, fixture_50_12):
        with pytest.raises(DomainError):
            overlap_curve(fixture_50_12, [29.0], ())
        with pytest.raises(DomainError):
            bootstrap_std_error(fixture_50_12, 29.0, (), resamples=100)

    @pytest.mark.parametrize(
        "combos",
        [
            {LineCombo.A1_A1},
            {LineCombo.A2_A2},
            {LineCombo.A1_A2, LineCombo.A2_A1},
            {LineCombo.A1_A1, LineCombo.A1_A2, LineCombo.A2_A1},
        ],
    )
    def test_closed_sets_do_not_depend_on_row_order(self, combos):
        model = EnsembleModel()
        emitters = sample_ensemble(model, 250, 1)
        windows = [model.gamma_mhz * f for f in (1.0, 10.0, 50.0)]
        forward = overlap_curve(emitters, windows, combos)
        backward = overlap_curve(emitters[::-1], windows, combos)
        assert forward.probabilities == backward.probabilities
        assert forward.probabilities[-1] > 0


class TestBootstrapStdError:
    def test_identical_emitters_have_no_variability(self):
        emitters = make_table([2.0] * 12)
        assert bootstrap_std_error(emitters, 29.0, resamples=500, seed=1) == 0.0

    def test_two_emitter_enumeration(self):
        # Exhaustive oracle over the 2^2 equally likely index resamples:
        # (0,1) and (1,0) keep the overlapping pair (probability 1); (0,0)
        # and (1,1) have no distinct-source pair (probability 0). The
        # resample distribution is Bernoulli(1/2) with std 0.5.
        outcomes = []
        for idx in itertools.product((0, 1), repeat=2):
            outcomes.append(1.0 if idx[0] != idx[1] else 0.0)
        oracle = float(np.std(outcomes))
        assert oracle == 0.5
        emitters = make_table([0.0, 0.010])
        se = bootstrap_std_error(emitters, 29.0, resamples=20000, seed=5)
        assert se == pytest.approx(oracle, abs=0.02)

    def test_fixture_error_magnitude(self, fixture_50_12):
        se = bootstrap_std_error(fixture_50_12, 29.0, resamples=10000, seed=11)
        assert 0.001 <= se <= 0.01

    def test_preconditions(self, fixture_50_12):
        with pytest.raises(DomainError):
            bootstrap_std_error(fixture_50_12, 29.0, resamples=99, seed=1)
        with pytest.raises(DomainError):
            bootstrap_std_error(fixture_50_12[:1], 29.0, resamples=500, seed=1)

    def test_deterministic(self, fixture_50_12):
        a = bootstrap_std_error(fixture_50_12, 29.0, resamples=300, seed=8)
        b = bootstrap_std_error(fixture_50_12, 29.0, resamples=300, seed=8)
        assert a == b

    def test_values_beyond_limit_refused_before_allocation(self, fixture_50_12):
        windows = [29.0 * f for f in range(1, 11)]
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="10 windows x 1000000000 resamples"):
                overlap_curve(fixture_50_12, windows, bootstrap_resamples=10**9, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (10, 1e9) value array alone would take 74.5 GiB
        assert peak < 1e6

    def test_values_at_the_limit_are_computed(self, fixture_50_12, monkeypatch):
        monkeypatch.setattr(overlap, "MAX_BOOTSTRAP_VALUES", 1000)
        curve = overlap_curve(fixture_50_12, [14.5, 29.0], bootstrap_resamples=500, seed=1)
        single = bootstrap_std_error(fixture_50_12, 29.0, resamples=500, seed=1)
        assert curve.std_errors[1] == single
        with pytest.raises(DomainError, match="bootstrap limit"):
            overlap_curve(fixture_50_12, [14.5, 29.0], bootstrap_resamples=501, seed=1)


class TestSlopeFit:
    def test_recovers_exact_line(self):
        gamma = 28.94
        windows = tuple(gamma * f for f in (0.5, 1.0, 2.0, 3.0, 5.0))
        curve = OverlapCurve(
            windows_mhz=windows,
            probabilities=tuple(0.0112 * w / gamma for w in windows),
            std_errors=(0.0,) * 5,
            n_emitters=50,
            n_pairs=1225,
        )
        assert fit_slope_through_origin(curve, gamma) == pytest.approx(0.0112, rel=1e-12)

    def test_flat_zero_curve(self):
        curve = OverlapCurve((10.0, 20.0), (0.0, 0.0), (0.0, 0.0), 10, 45)
        assert fit_slope_through_origin(curve, 29.0) == 0.0

    def test_two_point_line(self):
        gamma = 28.94
        curve = OverlapCurve((gamma, 2 * gamma), (0.01, 0.02), (0.0, 0.0), 10, 45)
        assert fit_slope_through_origin(curve, gamma) == pytest.approx(0.01, rel=1e-12)

    def test_empty_and_degenerate(self):
        empty = OverlapCurve((), (), (), 10, 45)
        with pytest.raises(DomainError):
            fit_slope_through_origin(empty, 29.0)
        zeros = OverlapCurve((0.0,), (0.5,), (0.0,), 10, 45)
        with pytest.raises(DomainError):
            fit_slope_through_origin(zeros, 29.0)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0, -1.0])
    def test_gamma_not_positive_and_finite_refused(self, gamma):
        curve = OverlapCurve((10.0, 20.0), (0.1, 0.2), (0.0, 0.0), 10, 45)
        with pytest.raises(DomainError, match="gamma must be positive and finite"):
            fit_slope_through_origin(curve, gamma)

    def test_squared_sum_underflow_is_named(self):
        # the windows are positive, but (1e-300 / 29)^2 underflows to 0
        curve = OverlapCurve((1e-300,), (0.5,), (0.0,), 10, 45)
        with pytest.raises(DomainError, match="underflow to 0"):
            fit_slope_through_origin(curve, 29.0)

    @pytest.mark.parametrize(
        "window, probability, gamma",
        [(1e308, 0.5, 29.0), (1e200, 0.5, 29.0), (1e308, 0.0, 1e-10)],
        ids=["huge-window", "window-squared-overflows", "window-over-gamma-overflows"],
    )
    def test_sums_beyond_double_refused(self, window, probability, gamma):
        curve = OverlapCurve((window,), (probability,), (0.0,), 2, 1)
        with pytest.raises(DomainError, match="not finite"):
            fit_slope_through_origin(curve, gamma)


class TestCollisionProbability:
    def test_no_pairs(self):
        assert collision_probability(0.7, 1) == 0.0

    def test_certain_pair(self):
        assert collision_probability(1.0, 2) == 1.0

    def test_direct_evaluation_near_measured_rate(self):
        # oracle: plain power evaluation, independent of the log1p path
        q = 0.0098
        assert collision_probability(q, 13) == pytest.approx(1.0 - (1.0 - q) ** 78, rel=1e-12)
        assert collision_probability(q, 12) == pytest.approx(1.0 - (1.0 - q) ** 66, rel=1e-12)
        assert collision_probability(q, 13) == pytest.approx(0.5361389, abs=1e-6)
        assert collision_probability(q, 12) == pytest.approx(0.4779491, abs=1e-6)
        assert collision_probability(q, 12) < 0.5 <= collision_probability(q, 13)

    def test_equals_q_at_two(self):
        for q in (0.0, 0.001, 0.3, 0.77, 1.0):
            assert collision_probability(q, 2) == pytest.approx(q, rel=1e-12, abs=1e-15)

    def test_monotone_in_q_and_n(self):
        qs = np.linspace(0.0, 1.0, 21)
        for n in (2, 5, 20):
            vals = [collision_probability(q, n) for q in qs]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        for q in (0.01, 0.3):
            vals = [collision_probability(q, n) for n in range(1, 40)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            collision_probability(-0.1, 5)
        with pytest.raises(DomainError):
            collision_probability(1.1, 5)
        with pytest.raises(DomainError):
            collision_probability(0.5, 0)


class TestBirthdayThreshold:
    def test_measured_rate_needs_thirteen(self):
        result = birthday_threshold(0.0098, 0.5)
        assert result.n_star == 13

    def test_certain_overlap(self):
        assert birthday_threshold(1.0, 0.5).n_star == 2

    def test_even_odds_pair(self):
        # one pair at n=2: 1 - (1-0.5) = 0.5 >= 0.5
        assert birthday_threshold(0.5, 0.5).n_star == 2

    def test_threshold_invariant(self):
        for q in (0.001, 0.0098, 0.05, 0.3, 0.9):
            for target in (0.1, 0.5, 0.9, 0.99):
                r = birthday_threshold(q, target)
                assert collision_probability(q, r.n_star) >= target
                if r.n_star > 1:
                    assert collision_probability(q, r.n_star - 1) < target

    def test_monotone_in_q_and_target(self):
        qs = (0.001, 0.01, 0.1, 0.5, 1.0)
        stars = [birthday_threshold(q, 0.5).n_star for q in qs]
        assert all(a >= b for a, b in zip(stars, stars[1:]))
        targets = (0.05, 0.3, 0.5, 0.9, 0.999)
        stars = [birthday_threshold(0.01, t).n_star for t in targets]
        assert all(a <= b for a, b in zip(stars, stars[1:]))

    def test_curve_covers_one_to_n_star(self):
        r = birthday_threshold(0.0098, 0.5)
        assert [n for n, _ in r.curve] == list(range(1, 14))
        assert r.curve[0][1] == 0.0
        assert r.curve[-1][1] >= 0.5

    def test_threshold_beyond_curve_limit_refused(self):
        # q = 1e-15 needs n_star ~ 3.7e7 curve points; refused before any is built
        assert MAX_BIRTHDAY_EMITTERS == 100_000
        for q, about in ((1e-15, "3.72e+07"), (1e-10, "1.18e+05"), (5e-324, "inf")):
            message = f"about {about} emitters, above the limit of 100000"
            with pytest.raises(DomainError, match=re.escape(message)):
                birthday_threshold(q, 0.5)
        # n_star ~ 3.7e4 lies below the limit
        assert len(birthday_threshold(1e-9, 0.5).curve) == 37234

    @settings(max_examples=300, deadline=None)
    @given(q=st.floats(1e-8, 1.0, exclude_min=True), target=st.floats(1e-9, 1.0, exclude_max=True))
    def test_n_star_is_minimal(self, q, target):
        r = birthday_threshold(q, target)
        assert collision_probability(q, r.n_star) >= target
        assert collision_probability(q, r.n_star - 1) < target
        assert r.curve[-1] == (r.n_star, collision_probability(q, r.n_star))

    def test_domain(self):
        with pytest.raises(DomainError):
            birthday_threshold(0.0, 0.5)
        with pytest.raises(DomainError):
            birthday_threshold(0.5, 0.0)
        with pytest.raises(DomainError):
            birthday_threshold(0.5, 1.0)


class TestMonteCarloThreshold:
    def test_zero_spread_stops_at_two(self):
        model = EnsembleModel(centers=NormalCenters(sigma_ghz=0.0), zfs_sigma_ghz=0.0)
        mc = monte_carlo_threshold(model, 29.0, 0.5, 1000, 3)
        assert mc.n_star == 2
        assert mc.median_stop == 2.0
        assert dict(mc.curve)[2] == 1.0
        assert mc.n_censored == 0

    def test_consistency_with_closed_form(self):
        mc = monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 20000, 21)
        p13 = dict(mc.curve)[13]
        assert p13 == pytest.approx(collision_probability(mc.pairwise_q, 13), abs=0.05)

    def test_bunching_direction(self):
        uniform = monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 5000, 33)
        bunched_model = EnsembleModel(centers=NormalCenters(sigma_ghz=5.0))
        bunched = monte_carlo_threshold(bunched_model, 29.0, 0.5, 5000, 33)
        assert bunched.pairwise_q > uniform.pairwise_q
        assert dict(bunched.curve)[13] > dict(uniform.curve)[13]

    def test_deterministic(self):
        a = monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1000, 9)
        b = monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1000, 9)
        assert a.curve == b.curve and a.pairwise_q == b.pairwise_q

    def test_domain(self):
        with pytest.raises(DomainError):
            monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 999, 1)
        with pytest.raises(DomainError):
            monte_carlo_threshold(EnsembleModel(), 0.0, 0.5, 1000, 1)

    def test_trials_beyond_limit_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="trial count 2000000000 exceeds"):
                monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 2_000_000_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the pairwise-rate sample alone would take 59.6 GiB
        assert peak < 1e6

    def test_trials_at_the_limit_run(self, monkeypatch):
        monkeypatch.setattr(overlap, "MAX_MC_TRIALS", 1000)
        assert monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1000, 9).trials == 1000
        with pytest.raises(DomainError, match="limit of 1e\\+03 trials"):
            monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1001, 9)

    @pytest.mark.parametrize("max_emitters", [1, 0, -3])
    def test_too_few_emitters_to_close_a_pair_refused(self, max_emitters):
        with pytest.raises(DomainError, match="max_emitters >= 2"):
            monte_carlo_threshold(EnsembleModel(), 29.0, 0.5, 1000, 1, max_emitters=max_emitters)


class TestStopQuartiles:
    """The quartiles read off the stop counts are ``np.quantile`` of the
    stops, bit for bit, without loading numpy.ma."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=3, max_size=520))
    def test_equal_np_quantile_of_the_stops(self, counts):
        stops = np.repeat(np.arange(len(counts)), counts)
        got = overlap._stop_quartiles(np.cumsum(counts))
        if not len(stops):
            assert got == {"q25": None, "q50": None, "q75": None}
            return
        want = {f"q{p}": float(np.quantile(stops, p / 100)) for p in (25, 50, 75)}
        assert list(got) == list(want)
        assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()

    @pytest.mark.parametrize("length", [3, 513])
    def test_no_stop_gives_none(self, length):
        got = overlap._stop_quartiles(np.zeros(length, dtype=np.int64))
        assert got == {"q25": None, "q50": None, "q75": None}


class TestGapsBeyondDouble:
    # finite lines whose gap in GHz, or its scaling to MHz, overflows: the gap
    # is inf, which no window reaches, and no overflow warning is raised
    TABLES = {
        "gap-in-mhz": LineTable(["e1", "e2"], [-1e308, 0.0], [1e308, 1e-300]),
        "gap-in-ghz": LineTable(["e1", "e2"], [-1.5e308, 1e308], [-1e308, 1.5e308]),
    }

    @pytest.mark.parametrize("name", list(TABLES))
    def test_overlap_curve(self, name):
        table = self.TABLES[name]
        curve = overlap_curve(table, [29.0, 290.0], bootstrap_resamples=100, seed=1)
        assert curve.probabilities == (0.0, 0.0)
        gap = separation_mhz(lines_of(table, [0]), lines_of(table, [1]), ALL_COMBOS)
        assert gap.tolist() == [np.inf]

    def test_monte_carlo_of_centers_beyond_double(self):
        model = EnsembleModel(centers=NormalCenters(sigma_ghz=1e307))
        result = monte_carlo_threshold(model, 29.0, 0.5, 1000, seed=1, max_emitters=64)
        assert result.n_censored == 1000 and result.pairwise_q == 0.0

    def test_overlap_curve_of_zfs_beyond_double(self):
        table = sample_ensemble(EnsembleModel(zfs_mean_ghz=1e307, zfs_sigma_ghz=0.0), 50, 1)
        curve = overlap_curve(table, [29.0, 290.0])
        assert all(0.0 <= p <= 1.0 for p in curve.probabilities)


class TestHistogram:
    def test_empty(self):
        result = histogram([], 1.0)
        assert result.bin_edges == () and result.counts == ()

    def test_two_values(self):
        result = histogram([0.5, 1.4], 1.0, origin=0.0)
        assert result.bin_edges == (0.0, 1.0, 2.0)
        assert result.counts == (1, 1)

    def test_boundary_goes_to_upper_bin(self):
        result = histogram([1.0], 1.0, origin=0.0)
        assert result.bin_edges == (1.0, 2.0)
        assert result.counts == (1,)

    @pytest.mark.parametrize("value, width", [(4.3, 0.1), (1.075, 0.025)])
    def test_value_on_a_rounded_edge_goes_to_upper_bin(self, value, width):
        result = histogram([value], width)
        assert result.bin_edges == (value, result.bin_edges[1])
        assert result.counts == (1,)

    @settings(max_examples=300, deadline=None)
    @given(
        width=st.floats(1e-3, 10.0),
        origin=st.floats(-100.0, 100.0),
        # integer offsets put values on bin edges
        offsets=st.lists(st.integers(-1000, 1000) | st.floats(-1000.0, 1000.0), min_size=1),
    )
    def test_every_value_lies_in_its_bin(self, width, origin, offsets):
        values = [origin + k * width for k in offsets]
        result = histogram(values, width, origin)
        edges = result.bin_edges
        counts = [0] * len(result.counts)
        for v in values:
            b = bisect.bisect_right(edges, v) - 1
            assert 0 <= b < len(counts) and edges[b] <= v < edges[b + 1]
            counts[b] += 1
        assert tuple(counts) == result.counts

    def test_counts_sum(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 5, 1000)
        result = histogram(values, 0.7, origin=-0.3)
        assert sum(result.counts) == 1000

    def test_domain(self):
        with pytest.raises(DomainError):
            histogram([1.0], 0.0)

    @pytest.mark.parametrize("width", [math.inf, math.nan, -math.inf])
    def test_non_finite_width_refused(self, width):
        with pytest.raises(DomainError, match="bin width must be positive and finite"):
            histogram([1.0, 2.0], width)

    def test_span_beyond_double_is_named(self):
        # (1e307 - 0) / 0.025 is inf for both ends, and their span inf - inf
        with pytest.raises(DomainError) as err:
            histogram([1e307] * 3, 0.025)
        assert "nan" not in str(err.value)
        assert "beyond the range of a double" in str(err.value)

    def test_bin_limit_refused_before_bins_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"about 1e\\+07 bins .* limit of {MAX_HISTOGRAM_BINS}"):
                histogram([0.0, 1e7], 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bins alone used to peak at 481 MB
        assert peak < 1e6

    @pytest.mark.parametrize("values, width", [([-1e300, 1e300], 1e-10), ([1e300], 1e-10)])
    def test_span_beyond_integer_bins_refused(self, values, width):
        with pytest.raises(DomainError, match="bins"):
            histogram(values, width)

    @pytest.mark.parametrize(
        "values, width, origin",
        [
            ([1e300], 0.025, 0.0),
            ([-1e300], 0.025, 0.0),
            ([0.0], 1.0, 2.0**63),
            ([2.0**53], 1.0, 0.0),
            ([-(2.0**53)], 1.0, 0.0),
            ([0.5], 1.0, 2.0**62),
            ([9e18], 1.0, 0.0),
            ([2.0**54], 1.0, 0.0),
        ],
        ids=["above", "below", "at-int64-min", "at-2^53", "at-minus-2^53", "far-origin",
             "near-int64", "at-2^54"],
    )
    def test_bin_index_from_2_53_refused(self, values, width, origin):
        # the int64 bin index used to wrap: [1e300] gave one bin at -2.3e17;
        # [2.0**53] gave one bin 2 wide, (2^53, 2^53 + 2); the last three gave
        # bins of zero width, (0.0, 0.0) and (9e18, 9e18), that did not hold
        # their values
        with pytest.raises(DomainError, match=r"bin indices reach .*, 2\^53 or more"):
            histogram(values, width, origin)

    @pytest.mark.parametrize("value", [2.0**53 - 1, -(2.0**53) + 1])
    def test_bin_index_below_2_53_is_counted(self, value):
        # from 2^53 on, consecutive bin indices can round to one double
        result = histogram([value], 1.0)
        assert result.bin_edges == (value, value + 1.0) and result.counts == (1,)

    @pytest.mark.parametrize(
        "values, width, origin",
        [([2.0**62], 1.0, 2.0**62), ([1e20], 1.0, 1e20)],
        ids=["far-origin", "far-origin-1e20"],
    )
    def test_edges_that_do_not_increase_refused(self, values, width, origin):
        # small bin indices from an origin whose doubles are spaced wider than
        # the bin: both edges of the one bin round to the origin
        with pytest.raises(DomainError, match="do not increase"):
            histogram(values, width, origin)

    @pytest.mark.parametrize(
        "values, origin",
        [([2.0**53 + 2], 2.0**53), ([-(2.0**53) - 2], -(2.0**53))],
        ids=["origin-2^53", "origin-minus-2^53"],
    )
    def test_bins_wider_than_asked_refused(self, values, origin):
        # a bin index of 2 from an origin whose doubles are 2 apart: the one
        # bin came out (2^53 + 2, 2^53 + 4), 2 wide
        with pytest.raises(DomainError, match="round to widths from 2 to 2"):
            histogram(values, 1.0, origin)

    def test_span_at_the_limit_is_built(self):
        result = histogram([0.5, MAX_HISTOGRAM_BINS - 0.5], 1.0)
        assert len(result.counts) == MAX_HISTOGRAM_BINS
        assert result.counts[0] == result.counts[-1] == 1
