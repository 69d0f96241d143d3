"""Tests for the driver agent state machine."""

import random

import pytest

from repro.geo.latlon import LatLon
from repro.marketplace.driver import (
    PATH_VECTOR_LEN,
    Driver,
    DriverState,
    Trip,
)
from repro.marketplace.types import CarType

START = LatLon(40.75, -73.99)


def make_driver(**kwargs) -> Driver:
    defaults = dict(
        driver_id=1,
        car_type=CarType.UBERX,
        location=START,
        speed_mps=5.0,
    )
    defaults.update(kwargs)
    return Driver(**defaults)


def make_trip(pickup=None, dropoff=None) -> Trip:
    return Trip(
        pickup=pickup or START.offset(100.0, 0.0),
        dropoff=dropoff or START.offset(100.0, 800.0),
        requested_at=0.0,
        rider_id=9,
        surge_multiplier=1.0,
    )


class TestSessionLifecycle:
    def test_come_online_sets_token_and_state(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(now=0.0, session_seconds=3600.0, rng=rng)
        assert d.state is DriverState.IDLE
        assert d.session_token
        assert d.is_dispatchable
        assert d.planned_offline_at == 3600.0

    def test_tokens_differ_across_sessions(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 100.0, rng)
        first = d.session_token
        d.go_offline()
        d.come_online(200.0, 100.0, rng)
        assert d.session_token != first

    def test_come_back_idle_refreshes_token(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 3600.0, rng)
        first = d.session_token
        d.come_back_idle(10.0, rng)
        assert d.session_token != first
        assert len(d.path) == 1

    def test_double_online_raises(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 100.0, rng)
        with pytest.raises(RuntimeError):
            d.come_online(5.0, 100.0, rng)

    def test_offline_when_offline_raises(self):
        with pytest.raises(RuntimeError):
            make_driver().go_offline()

    def test_come_back_idle_requires_idle(self):
        rng = random.Random(0)
        d = make_driver()
        with pytest.raises(RuntimeError):
            d.come_back_idle(0.0, rng)

    def test_wants_to_leave(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 100.0, rng)
        assert not d.wants_to_leave(50.0)
        assert d.wants_to_leave(100.0)


class TestTripExecution:
    def test_assign_requires_idle(self):
        d = make_driver()
        with pytest.raises(RuntimeError):
            d.assign(make_trip())

    def test_full_trip_cycle(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        trip = make_trip()
        d.assign(trip)
        assert d.state is DriverState.EN_ROUTE
        assert not d.is_dispatchable
        completed = None
        t = 0.0
        for _ in range(10_000):
            t += 5.0
            completed = d.step(t, 5.0, rng)
            if completed is not None:
                break
        assert completed is trip
        assert d.state is DriverState.IDLE
        assert d.trips_completed == 1
        assert d.location == trip.dropoff

    def test_en_route_reaches_pickup_before_trip(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        pickup = START.offset(50.0, 0.0)
        d.assign(make_trip(pickup=pickup))
        d.step(5.0, 5.0, rng)  # 25 m of 50 m
        assert d.state is DriverState.EN_ROUTE
        # Floating point may need one extra tick to close the last metre.
        for i in range(3):
            d.step(10.0 + 5.0 * i, 5.0, rng)
            if d.state is DriverState.ON_TRIP:
                break
        assert d.state is DriverState.ON_TRIP
        assert d.location.fast_distance_m(pickup) < 1.5

    def test_offline_driver_does_not_move(self):
        rng = random.Random(0)
        d = make_driver()
        assert d.step(5.0, 5.0, rng) is None
        assert d.location == START


class TestPathVector:
    def test_path_has_bounded_length(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        for i in range(20):
            d.step(5.0 * (i + 1), 5.0, rng)
        assert len(d.path_triples()) == PATH_VECTOR_LEN

    def test_path_cleared_on_offline(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        d.step(5.0, 5.0, rng)
        d.go_offline()
        assert len(d.path) == 0

    def test_path_times_are_monotone(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        for i in range(10):
            d.step(5.0 * (i + 1), 5.0, rng)
        times = [t for t, _, _ in d.path_triples()]
        assert times == sorted(times)


class TestIdleCruising:
    def test_cruise_toward_target(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        target = START.offset(200.0, 0.0)
        d.cruise_target = target
        for i in range(100):
            d.step(5.0 * (i + 1), 5.0, rng)
            if d.cruise_target is None:
                break
        assert d.location.fast_distance_m(target) < 10.0

    def test_idle_wobble_is_small(self):
        rng = random.Random(0)
        d = make_driver()
        d.come_online(0.0, 7200.0, rng)
        d.step(5.0, 5.0, rng)
        assert d.location.fast_distance_m(START) < 50.0
