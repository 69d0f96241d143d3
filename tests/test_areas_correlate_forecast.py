"""Tests for area discovery, cross-correlation, and forecasting."""

import math
import random

import pytest

from repro.geo.latlon import LatLon
from repro.analysis.areas import (
    area_assignment,
    discover_surge_areas,
)
from repro.analysis.correlate import cross_correlation, strongest_shift
from repro.analysis.forecast import (
    build_dataset,
    fit_raw,
    fit_rush,
    fit_threshold,
    is_rush_interval,
)


class TestAreaDiscovery:
    def grid_points(self, n=6, spacing_m=200.0):
        origin = LatLon(40.75, -73.99)
        return [
            origin.offset(north_m=i * spacing_m, east_m=j * spacing_m)
            for i in range(n)
            for j in range(n)
        ]

    def test_two_lockstep_halves(self):
        points = self.grid_points(n=4)
        series = []
        for p in points:
            if p.lon < -73.9865:  # western half
                series.append([1.0, 1.5, 1.2, 1.0])
            else:
                series.append([1.0, 1.0, 1.7, 1.3])
        components = discover_surge_areas(points, series,
                                          neighbor_distance_m=300.0)
        assert len(components) == 2
        assert sorted(len(c) for c in components) == [8, 8]

    def test_identical_series_merge_to_one(self):
        points = self.grid_points(n=3)
        series = [[1.0, 1.4]] * len(points)
        components = discover_surge_areas(points, series,
                                          neighbor_distance_m=300.0)
        assert len(components) == 1

    def test_distance_threshold_blocks_union(self):
        points = [LatLon(40.75, -73.99), LatLon(40.76, -73.99)]  # ~1.1 km
        series = [[1.5], [1.5]]
        components = discover_surge_areas(points, series,
                                          neighbor_distance_m=300.0)
        assert len(components) == 2

    def test_assignment_maps_all_points(self):
        points = self.grid_points(n=3)
        series = [[1.0]] * len(points)
        components = discover_surge_areas(points, series, 300.0)
        assignment = area_assignment(points, components)
        assert set(assignment) == set(range(len(points)))

    def test_validation(self):
        with pytest.raises(ValueError):
            discover_surge_areas([LatLon(0, 0)], [], 100.0)
        with pytest.raises(ValueError):
            discover_surge_areas([LatLon(0, 0)], [[1.0]], 0.0)


class TestCrossCorrelation:
    def test_negative_correlation_at_zero_shift(self):
        rng = random.Random(0)
        surge = {}
        feature = {}
        for i in range(200):
            s = 1.0 + rng.random()
            surge[i] = s
            feature[i] = 10.0 - 4.0 * s + rng.gauss(0, 0.1)
        points = cross_correlation(surge, feature, max_shift_intervals=6)
        assert len(points) == 13
        best = strongest_shift(points)
        assert best.shift_minutes == 0.0
        assert best.coefficient < -0.9
        assert best.p_value < 1e-6

    def test_lagged_feature_peaks_at_lag(self):
        rng = random.Random(1)
        driver = {i: rng.random() for i in range(300)}
        surge = {i: 1.0 + driver[i] for i in driver}
        # feature(t) reproduces the driver 3 intervals later.
        feature = {i + 3: driver[i] for i in driver}
        points = cross_correlation(surge, feature, max_shift_intervals=6)
        best = strongest_shift(points)
        assert best.shift_minutes == 15.0
        assert best.coefficient > 0.99

    def test_insufficient_overlap_gives_nan(self):
        points = cross_correlation({0: 1.0, 1: 1.2}, {50: 3.0},
                                   max_shift_intervals=2)
        assert all(math.isnan(p.coefficient) for p in points)
        with pytest.raises(ValueError):
            strongest_shift(points)

    def test_rejects_negative_max_shift(self):
        with pytest.raises(ValueError):
            cross_correlation({}, {}, max_shift_intervals=-1)


class TestForecastDataset:
    def test_alignment_and_cleaning(self):
        surge = {0: 1.0, 1: 1.0, 2: 1.5, 3: 1.0, 4: 1.0, 5: 1.0}
        sd = {i: float(i) for i in range(6)}
        ewt = {i: 2.0 for i in range(6)}
        rows = build_dataset(surge, sd, ewt)
        targets = {r.interval_index: r.next_surge for r in rows}
        # Row t=1 (target 1.5 at t=2) kept; t=2 (target 1.0 adjacent to
        # surge) kept; t=0 (target 1.0 at t=1, adjacent to surge at t=2)
        # kept; t=3, t=4 dropped (flat-1 neighbourhood).
        assert 1 in targets and 2 in targets
        assert 0 in targets  # surge.get(idx+2) = surge[2] > 1
        assert 3 not in targets or surge.get(5, 1.0) > 1.0
        assert 4 not in targets

    def test_missing_features_skipped(self):
        surge = {0: 1.2, 1: 1.3, 2: 1.4}
        rows = build_dataset(surge, {0: 1.0, 1: 1.0}, {0: 2.0})
        assert [r.interval_index for r in rows] == [0]


class TestForecastFitting:
    def linear_rows(self, n=200, noise=0.0, seed=0):
        rng = random.Random(seed)
        surge = {}
        sd = {}
        ewt = {}
        for i in range(n):
            sd[i] = rng.uniform(-5, 5)
            ewt[i] = rng.uniform(1, 8)
            surge[i] = 1.1 + 0.05 * rng.random()
        # Target is an exact linear function of the inputs.
        surge_next = {
            i + 1: max(
                1.0,
                1.0 - 0.04 * sd[i] + 0.03 * ewt[i] + 0.2 * surge[i]
                + rng.gauss(0, noise),
            )
            for i in range(n)
        }
        merged = dict(surge)
        merged.update(surge_next)
        # keep features only where defined
        return build_dataset(merged, sd, ewt)

    def test_perfect_linear_data_r2_near_one(self):
        rows = self.linear_rows(noise=0.0)
        result = fit_raw(rows)
        assert result.r2 > 0.98
        assert result.theta_sd_diff == pytest.approx(-0.04, abs=0.01)
        assert result.theta_ewt == pytest.approx(0.03, abs=0.01)

    def test_noise_lowers_r2(self):
        noisy = fit_raw(self.linear_rows(noise=0.3, seed=1))
        clean = fit_raw(self.linear_rows(noise=0.0, seed=1))
        assert noisy.r2 < clean.r2

    def test_prediction_roundtrip(self):
        rows = self.linear_rows(noise=0.0)
        result = fit_raw(rows)
        row = rows[10]
        predicted = result.predict(row.sd_diff, row.ewt, row.surge)
        assert predicted == pytest.approx(row.next_surge, abs=0.05)

    def test_threshold_filters_non_surging(self):
        rows = self.linear_rows()
        result = fit_threshold(rows)
        assert result.n == sum(1 for r in rows if r.surge > 1.0)

    def test_rush_filters_by_hour(self):
        rows = self.linear_rows(n=600)
        result = fit_rush(rows)
        assert 0 < result.n < len(rows)

    def test_too_few_rows_raises(self):
        with pytest.raises(ValueError):
            fit_raw([])

    def test_is_rush_interval(self):
        assert is_rush_interval(int(7 * 12))     # 7 am
        assert not is_rush_interval(int(12 * 12))  # noon
        assert is_rush_interval(int(17 * 12))    # 5 pm
        assert not is_rush_interval(int(2 * 12))   # 2 am
        # Day boundaries wrap.
        assert is_rush_interval(int((24 + 7) * 12))

    @pytest.mark.parametrize(
        "hour,expected",
        [(5.9, False), (6.0, True), (9.9, True), (10.0, False),
         (15.9, False), (16.0, True), (19.9, True), (20.0, False)],
    )
    def test_rush_hour_windows(self, hour, expected):
        # Six-minute intervals put each edge on an interval start.
        index = round(hour * 10)
        assert is_rush_interval(index, interval_s=360.0) is expected
