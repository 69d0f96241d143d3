"""Property-based invariants of the marketplace engine.

Run short simulations under randomized seeds and parameter jitters and
check the invariants that every analysis silently relies on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_config
from repro.marketplace.config import manhattan_config, sf_config
from repro.marketplace.driver import DriverState
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.fleet_array import EN_ROUTE, IDLE, OFFLINE, ON_TRIP
from repro.marketplace.rider import DiurnalProfile

STATE_CODE = {
    DriverState.OFFLINE: OFFLINE,
    DriverState.IDLE: IDLE,
    DriverState.EN_ROUTE: EN_ROUTE,
    DriverState.ON_TRIP: ON_TRIP,
}


def build_engine(seed, demand, elasticity):
    config = toy_config(
        peak_requests_per_hour=demand, elasticity=elasticity
    )
    return MarketplaceEngine(config, seed=seed)


class TestEngineInvariants:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        demand=st.floats(min_value=10.0, max_value=400.0),
        elasticity=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_core_invariants_hold(self, seed, demand, elasticity):
        engine = build_engine(seed, demand, elasticity)
        engine.run(1800.0)

        # Fleet conservation, per type.
        for car_type, count in engine.config.fleet.items():
            online = engine.online_count(car_type)
            offline = len(engine._offline_by_type[car_type])
            assert online + offline == count

        # All published multipliers quantized into [1, cap].
        cap = engine.config.surge.cap
        for truth in engine.truth:
            for m in truth.multipliers.values():
                assert 1.0 <= m <= cap
                assert abs(m * 10 - round(m * 10)) < 1e-9

        # Online drivers carry unique session tokens.
        tokens = [
            d.session_token
            for pool in engine._online_by_type.values()
            for d in pool
        ]
        assert len(tokens) == len(set(tokens))
        assert all(tokens)

        # Completed trips are causally ordered and positively priced.
        for trip in engine.completed_trips:
            assert trip.completed_at > trip.requested_at
            assert trip.fare_usd > 0

        # Truth intervals are contiguous from zero.
        indices = [t.interval_index for t in engine.truth]
        assert indices == list(range(len(indices)))

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=6, deadline=None)
    def test_burst_level_bounded(self, seed):
        engine = build_engine(seed, 100.0, 1.8)
        levels = []
        for _ in range(40):
            engine.run(300.0)
            levels.append(engine._burst_level)
        p = engine.config.burst
        assert all(p.floor <= level <= p.cap for level in levels)
        # The process moves (it is not stuck at 1).
        assert len({round(level, 3) for level in levels}) > 3

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=5, deadline=None)
    def test_drivers_stay_near_region(self, seed):
        """The wander clamp keeps the fleet working the city."""
        engine = build_engine(seed, 150.0, 1.8)
        engine.run(3600.0)
        boundary = engine.config.region.boundary
        strays = 0
        total = 0
        for pool in engine._online_by_type.values():
            for driver in pool:
                total += 1
                if (
                    not boundary.contains(driver.location)
                    and boundary.distance_to_boundary_m(driver.location)
                    > 800.0
                ):
                    strays += 1
        assert total > 0
        assert strays / total < 0.1


def assert_one_copy_of_fleet_state(engine):
    """The production engine's FleetArray agrees with its objects and
    supply lists: each type's online list holds its online rows in
    ``online_seq`` order, every ``Driver.state`` is its row's state,
    and no attached driver holds a path deque of its own."""
    vec = engine._vec
    for car_type, online in engine._online_by_type.items():
        rows = vec.online_mask_rows(car_type)
        in_seq = rows[np.argsort(vec.online_seq[rows])]
        assert [d.driver_id - 1 for d in online] == in_seq.tolist()
    assert [STATE_CODE[d.state] for d in engine.drivers] == vec.state.tolist()
    assert all(d._fleet is vec and d.path is None for d in engine.drivers)


#: An online fraction that climbs for 24 minutes after midnight, then
#: falls below its start within the hour: arrivals, then idle drivers
#: signing off early because supply is over target.
RISE_AND_FALL = ((0.0, 0.16), (0.4, 0.30), (0.8, 0.05), (12.0, 0.05))


@pytest.mark.parametrize("city", [manhattan_config, sf_config])
def test_fleet_state_agrees_every_tick(city):
    """Every tick of an hour from midnight: drivers come online, idle
    ones sign off early over target, sessions expire and trips
    complete, and after each tick the production engine's one copy of
    fleet state is consistent."""
    profile = DiurnalProfile(weekday=RISE_AND_FALL, weekend=RISE_AND_FALL)
    engine = MarketplaceEngine(
        dataclasses.replace(city(), online_fraction=profile), seed=5
    )
    vec = engine._vec
    assert_one_copy_of_fleet_state(engine)
    arrivals = early_departures = 0
    for _ in range(720):
        online_before = vec.state != OFFLINE
        planned_off = vec.planned_off.copy()
        engine.tick()
        online = vec.state != OFFLINE
        arrivals += int((online & ~online_before).sum())
        # A session-expiry sign-off happens at or after planned_off; an
        # idle driver leaving before it left because supply was over
        # target.
        early = online_before & ~online & (planned_off > engine.clock.now)
        early_departures += int(early.sum())
        assert_one_copy_of_fleet_state(engine)
    assert arrivals > 0
    assert early_departures > 0
