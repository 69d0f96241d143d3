"""Tests for the Sidecar-style driver-set pricing engine."""

import pytest

from conftest import toy_config
from repro.marketplace.driver_set import (
    DriverSetParams,
    DriverSetPricingEngine,
)
from repro.marketplace.types import CarType


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DriverSetParams(floor=0.0)
        with pytest.raises(ValueError):
            DriverSetParams(floor=1.2)
        with pytest.raises(ValueError):
            DriverSetParams(busy_minutes=20.0, slow_minutes=10.0)
        with pytest.raises(ValueError):
            DriverSetParams(step=0.0)


@pytest.fixture(scope="module")
def engine():
    e = DriverSetPricingEngine(
        toy_config(peak_requests_per_hour=250.0), seed=61
    )
    e.run(2 * 3600.0)
    return e


class TestPricingPath:
    def test_multiplier_is_nearest_drivers_rate(self, engine):
        center = engine.config.region.bounding_box.center
        nearest = engine.nearest_cars(center, CarType.UBERX, k=1)
        assert nearest
        assert engine.true_multiplier(
            center, CarType.UBERX
        ) == nearest[0].personal_rate

    def test_no_cars_means_base_rate(self, engine):
        from repro.geo.latlon import LatLon
        assert engine.true_multiplier(
            LatLon(0.0, 0.0), CarType.UBERSUV
        ) >= 0.8  # nearest-driver rate or base

    def test_observed_equals_true_everywhere(self, engine):
        """No jitter bug in the free-market mode."""
        center = engine.config.region.bounding_box.center
        for i in range(20):
            assert engine.observed_multiplier(
                f"acct{i}", center, CarType.UBERX
            ) == engine.true_multiplier(center, CarType.UBERX)

    def test_ubert_still_fixed(self, engine):
        center = engine.config.region.bounding_box.center
        assert engine.true_multiplier(center, CarType.UBERT) == 1.0


class TestRateDynamics:
    def test_rates_stay_in_bounds(self, engine):
        p = engine.pricing
        rates = [d.personal_rate for d in engine.idle_drivers(CarType.UBERX)]
        assert rates
        assert all(p.floor <= r <= p.cap for r in rates)

    def test_rates_diversify_over_time(self, engine):
        """A busy market pushes some rates up and some down."""
        rates = [d.personal_rate for d in engine.idle_drivers(CarType.UBERX)]
        assert len(set(rates)) > 1

    def test_busy_drivers_raise_idle_drivers_cut(self):
        e = DriverSetPricingEngine(toy_config(), seed=3)
        e.run(600.0)
        driver = e.idle_drivers(CarType.UBERX)[0]
        p = e.pricing
        # Simulate a just-finished trip: rate should step up.
        driver.last_trip_at = e.clock.now
        driver.personal_rate = 1.0
        for _ in range(200):
            e._post_step(e.clock.now, p.decision_s)  # force reviews
        assert driver.personal_rate > 1.0

    def test_fares_use_personal_rate(self):
        e = DriverSetPricingEngine(
            toy_config(peak_requests_per_hour=250.0), seed=5
        )
        e.run(3 * 3600.0)
        surged = [
            t for t in e.completed_trips if t.surge_multiplier != 1.0
        ]
        # In a busy free market, some trips clear above or below base.
        assert surged


class TestProductionMatchesOracle:
    def test_same_seed_serves_and_evolves_identically(self):
        """The free-market engine on production and on the oracle
        (``use_vectorized_step=False``), same seed: truth, trips,
        every driver's personal rate, RNG state and the replies of a
        ping round every 5 minutes must all be equal."""
        from repro.api.ping import PingEndpoint
        from repro.marketplace.config import sf_config
        from repro.measurement.placement import place_clients

        def run(vectorized: bool):
            engine = DriverSetPricingEngine(
                sf_config(), seed=29, use_vectorized_step=vectorized
            )
            endpoint = PingEndpoint(engine)
            requests = [
                (f"ds{i}", location, None)
                for i, location in enumerate(
                    place_clients(engine.config.region, max_clients=8)
                )
            ]
            replies = []
            for _ in range(12):
                engine.run(300.0)
                replies.extend(endpoint.serve_round(requests))
            return (
                engine.truth,
                engine.completed_trips,
                [d.personal_rate for d in engine.drivers],
                engine.rng.getstate(),
                replies,
            )

        production, oracle = run(True), run(False)
        assert production[1], "no trips: the comparison is vacuous"
        assert len(set(production[2])) > 1
        assert production == oracle


class TestRoundCost:
    def test_a_round_queries_each_car_type_once(self, engine, monkeypatch):
        """A served round prices each request from the nearest car its
        batch query already found: one ``FleetArray.nearest`` per car
        type queried, however many requests and surge-eligible types
        the round holds, and the replies still quote that car's rate."""
        from repro.api.ping import PingEndpoint
        from repro.marketplace.fleet_array import FleetArray
        from repro.measurement.placement import place_clients

        calls = []
        nearest = FleetArray.nearest

        def counted(self, lats, lons, car_type, k):
            calls.append(car_type)
            return nearest(self, lats, lons, car_type, k)

        locations = place_clients(engine.config.region, max_clients=6)
        assert len(locations) > 1
        requests = [(f"rc{i}", loc, None) for i, loc in enumerate(locations)]
        monkeypatch.setattr(FleetArray, "nearest", counted)
        replies = PingEndpoint(engine).serve_round(requests)
        monkeypatch.undo()
        fleet = list(engine.config.fleet)
        assert any(ct.surge_eligible for ct in fleet)
        assert sorted(calls, key=fleet.index) == fleet
        for (_, location, _), reply in zip(requests, replies):
            for status in reply.statuses:
                assert status.surge_multiplier == engine.true_multiplier(
                    location, status.car_type
                )
