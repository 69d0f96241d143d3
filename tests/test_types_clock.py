"""Tests for car types, fare schedules, and the simulation clock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marketplace.clock import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SimClock,
)
from repro.marketplace.types import FARE_TABLE, CarType, FareSchedule


class TestCarType:
    def test_low_cost_grouping(self):
        assert CarType.UBERX.is_low_cost
        assert CarType.UBERPOOL.is_low_cost
        assert not CarType.UBERBLACK.is_low_cost
        assert not CarType.UBERSUV.is_low_cost

    def test_ubert_never_surges(self):
        assert not CarType.UBERT.surge_eligible
        assert CarType.UBERX.surge_eligible

    def test_every_type_has_a_fare_schedule(self):
        for car_type in CarType:
            assert car_type in FARE_TABLE


class TestFareSchedule:
    SCHEDULE = FareSchedule(
        base_fare_usd=2.0,
        per_mile_usd=1.5,
        per_minute_usd=0.3,
        minimum_fare_usd=5.0,
        booking_fee_usd=1.0,
    )

    def test_basic_fare(self):
        # 2 + 1.5*4 + 0.3*10 = 11, + booking fee 1 = 12.
        assert self.SCHEDULE.fare(miles=4.0, minutes=10.0) == pytest.approx(
            12.0
        )

    def test_minimum_fare_applies(self):
        # Metered 2 + 0.15 + 0.15 = 2.3 -> floored at 5, + fee.
        assert self.SCHEDULE.fare(miles=0.1, minutes=0.5) == pytest.approx(
            6.0
        )

    def test_surge_multiplies_metered_portion_only(self):
        base = self.SCHEDULE.fare(miles=4.0, minutes=10.0)
        surged = self.SCHEDULE.fare(
            miles=4.0, minutes=10.0, surge_multiplier=2.0
        )
        # (base - fee) * 2 + fee
        assert surged == pytest.approx((base - 1.0) * 2.0 + 1.0)

    def test_driver_gets_80_percent(self):
        payout = self.SCHEDULE.driver_payout(miles=4.0, minutes=10.0)
        assert payout == pytest.approx(11.0 * 0.8)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            self.SCHEDULE.fare(miles=-1.0, minutes=5.0)
        with pytest.raises(ValueError):
            self.SCHEDULE.fare(miles=1.0, minutes=5.0, surge_multiplier=0.0)

    def test_discount_multiplier_allowed(self):
        """Driver-set pricing (Sidecar mode) can discount below base."""
        base = self.SCHEDULE.fare(miles=4.0, minutes=10.0)
        discounted = self.SCHEDULE.fare(
            miles=4.0, minutes=10.0, surge_multiplier=0.9
        )
        assert discounted < base

    @given(
        miles=st.floats(min_value=0.0, max_value=50.0),
        minutes=st.floats(min_value=0.0, max_value=120.0),
        m=st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=60)
    def test_fare_monotone_in_surge(self, miles, minutes, m):
        base = self.SCHEDULE.fare(miles, minutes, 1.0)
        surged = self.SCHEDULE.fare(miles, minutes, m)
        assert surged >= base
        assert surged == pytest.approx(
            (base - self.SCHEDULE.booking_fee_usd) * m
            + self.SCHEDULE.booking_fee_usd
        )


class TestSimClock:
    def test_tick_advances(self):
        clock = SimClock(tick_seconds=5.0)
        assert clock.tick() == 5.0
        assert clock.now == 5.0

    def test_day_and_weekday(self):
        clock = SimClock(start_weekday=4)  # Friday
        assert clock.weekday == 4
        clock.now = SECONDS_PER_DAY * 1.5
        assert clock.day_index == 1
        assert clock.weekday == 5  # Saturday
        assert clock.is_weekend

    def test_weekday_wraps(self):
        clock = SimClock(start_weekday=6)
        clock.now = SECONDS_PER_DAY * 1.0
        assert clock.weekday == 0

    def test_hour_of_day(self):
        clock = SimClock()
        clock.now = 13.5 * SECONDS_PER_HOUR
        assert clock.hour_of_day == pytest.approx(13.5)
        clock.now += SECONDS_PER_DAY
        assert clock.hour_of_day == pytest.approx(13.5)

    def test_interval_index(self):
        clock = SimClock()
        clock.now = 299.0
        assert clock.interval_index() == 0
        clock.now = 300.0
        assert clock.interval_index() == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SimClock(start_weekday=7)
        with pytest.raises(ValueError):
            SimClock(tick_seconds=0.0)

    def test_copy_is_independent(self):
        clock = SimClock()
        other = clock.copy()
        clock.tick()
        assert other.now == 0.0
