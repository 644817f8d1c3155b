import bisect
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emitternet import (
    DomainError,
    EnsembleModel,
    LineCombo,
    NormalCenters,
    OverlapCurve,
    analytic_homogeneous_slope,
    birthday_threshold,
    bootstrap_std_error,
    collision_probability,
    fit_slope_through_origin,
    histogram,
    min_pair_separation,
    monte_carlo_threshold,
    overlap_curve,
    sample_ensemble,
)
from emitternet.overlap import MAX_BIRTHDAY_EMITTERS
from emitternet.spectral import sample_line_positions
from emitternet.seeding import as_seed
from conftest import make_table


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
        seps = sorted(
            min_pair_separation(a, b) for a, b in itertools.combinations(emitters, 2)
        )
        assert seps == pytest.approx([10.0, 50.0, 60.0])
        curve = overlap_curve(emitters, [29.0])
        assert curve.probabilities[0] == pytest.approx(1 / 3)

    def test_matches_exhaustive_enumeration(self):
        # four-emitter toy sets against a scalar brute-force oracle
        rng = np.random.default_rng(7)
        for _ in range(25):
            emitters = make_table(rng.uniform(-2, 2, 4), rng.uniform(0.9, 1.15, 4))
            for window in (10.0, 100.0, 600.0, 1100.0):
                expected = sum(
                    min_pair_separation(a, b) < window
                    for a, b in itertools.combinations(emitters, 2)
                ) / 6
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


class TestAnalyticSlope:
    def test_four_combo_value(self):
        # oracle: 4 * 2 * 0.029 GHz / (2 * 10 GHz)
        assert analytic_homogeneous_slope(10.0, 29.0, 4) == pytest.approx(0.0116, rel=1e-12)

    def test_single_combo_value(self):
        assert analytic_homogeneous_slope(10.0, 29.0, 1) == pytest.approx(0.0029, rel=1e-12)

    def test_vanishing_width_limit(self):
        assert analytic_homogeneous_slope(10.0, 1e-9, 4) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_must_stay_below_half_width(self):
        with pytest.raises(DomainError):
            analytic_homogeneous_slope(0.029, 29.0, 4)

    def test_monte_carlo_confirms_union_bound(self):
        # brute-force oracle under the formula's own assumption: all four
        # lines placed independently and uniformly over +-10 GHz
        gamma = 29.0
        n_pairs = 2_000_000
        rng = as_seed(17).rng()
        lines = rng.uniform(-10.0, 10.0, size=(n_pairs, 4))
        xa1, xa2, ya1, ya2 = lines.T
        sep = np.minimum.reduce(
            [
                np.abs(xa1 - ya1),
                np.abs(xa2 - ya2),
                np.abs(xa1 - ya2),
                np.abs(xa2 - ya1),
            ]
        )
        mc = np.count_nonzero(sep < gamma * 1e-3) / n_pairs
        analytic = analytic_homogeneous_slope(10.0, gamma, 4)
        assert mc == pytest.approx(analytic, rel=0.05)

    def test_emitter_model_sits_below_union_bound(self):
        # with the correlated center/ZFS model the same-label combos share
        # the center draw, so the true rate at one linewidth falls a few
        # percent short of the independent-line union bound
        model = EnsembleModel()
        gamma = 29.0
        n_pairs = 500_000
        rng = as_seed(18).rng()
        a1, a2 = sample_line_positions(model, 2 * n_pairs, rng)
        sep = np.minimum.reduce(
            [
                np.abs(a1[:n_pairs] - a1[n_pairs:]),
                np.abs(a2[:n_pairs] - a2[n_pairs:]),
                np.abs(a1[:n_pairs] - a2[n_pairs:]),
                np.abs(a2[:n_pairs] - a1[n_pairs:]),
            ]
        )
        mc = np.count_nonzero(sep < gamma * 1e-3) / n_pairs
        analytic = analytic_homogeneous_slope(10.0, gamma, 4)
        assert mc < analytic
        assert mc == pytest.approx(analytic, rel=0.15)


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
