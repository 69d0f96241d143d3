"""Tests for diurnal aggregation."""

import math

import pytest

from repro.marketplace.clock import SECONDS_PER_DAY
from repro.analysis.diurnal import diurnal_stats, rush_hour_lift


def sinusoidal_samples(days=3, step_s=600.0, phase_hour=14.0):
    """A series peaking at phase_hour every day."""
    samples = []
    t = 0.0
    while t < days * SECONDS_PER_DAY:
        hour = (t % SECONDS_PER_DAY) / 3600.0
        value = 10.0 + 5.0 * math.cos(
            2 * math.pi * (hour - phase_hour) / 24.0
        )
        samples.append((t, value))
        t += step_s
    return samples


class TestDiurnalStats:
    def test_peak_and_trough(self):
        mean = diurnal_stats(sinusoidal_samples()).hourly_mean
        assert max(mean, key=mean.__getitem__) == 14
        assert min(mean, key=mean.__getitem__) == 2

    def test_day_night_ratio(self):
        mean = diurnal_stats(sinusoidal_samples()).hourly_mean
        # Every daytime hour (8-20) reads well above every deep-night
        # hour (1-5).
        day = [mean[h] for h in range(8, 20)]
        night = [mean[h] for h in range(1, 5)]
        assert min(day) > 1.5 * max(night)

    def test_counts_cover_all_hours(self):
        stats = diurnal_stats(sinusoidal_samples())
        assert set(stats.hourly_mean) == set(range(24))
        assert all(c > 0 for c in stats.hourly_count.values())

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            diurnal_stats([])


class TestWeekendFilter:
    def make_weekly_samples(self):
        """Value 1 on weekdays, 100 on weekends (start Monday)."""
        samples = []
        for day in range(7):
            value = 100.0 if day >= 5 else 1.0
            for hour in range(24):
                samples.append(
                    (day * SECONDS_PER_DAY + hour * 3600.0, value)
                )
        return samples

    def test_weekday_only(self):
        stats = diurnal_stats(
            self.make_weekly_samples(), weekend_filter=False
        )
        assert all(v == 1.0 for v in stats.hourly_mean.values())

    def test_weekend_only(self):
        stats = diurnal_stats(
            self.make_weekly_samples(), weekend_filter=True
        )
        assert all(v == 100.0 for v in stats.hourly_mean.values())

    def test_start_weekday_shifts_split(self):
        # Starting on Saturday makes days 0-1 the weekend.
        stats = diurnal_stats(
            self.make_weekly_samples(), weekend_filter=True,
            start_weekday=5,
        )
        # Days 0,1 (value 1 in our fabric) plus day 6 (value 100)...
        # day 6 has weekday (5+6)%7=4 -> weekday. So only values 1.
        assert all(v == 1.0 for v in stats.hourly_mean.values())

    def test_no_matching_samples_raises(self):
        samples = [(0.0, 1.0)]  # Monday only
        with pytest.raises(ValueError):
            diurnal_stats(samples, weekend_filter=True)


class TestRushHourLift:
    def test_rush_peaking_series(self):
        samples = []
        for hour in range(24):
            value = 10.0 if hour in (7, 8, 17, 18) else 2.0
            samples.append((hour * 3600.0, value))
        stats = diurnal_stats(samples)
        assert rush_hour_lift(stats) > 1.5

    def test_flat_series_is_one(self):
        samples = [(h * 3600.0, 5.0) for h in range(24)]
        stats = diurnal_stats(samples)
        assert rush_hour_lift(stats) == pytest.approx(1.0)

