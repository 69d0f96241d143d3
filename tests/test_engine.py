"""Tests for the top-level marketplace engine."""

import dataclasses

import pytest

from conftest import toy_config
from repro.geo.latlon import LatLon
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType


@pytest.fixture(scope="module")
def run_engine():
    """One 2-hour run shared by the read-only assertions below."""
    engine = MarketplaceEngine(toy_config(surge_noise=0.05), seed=3)
    engine.run(7200.0)
    return engine


class TestSupplyManagement:
    def test_online_pool_tracks_target(self, run_engine):
        # Flat 0.4 online fraction of a 70-car X fleet -> ~28 online.
        online = run_engine.online_count(CarType.UBERX)
        assert 15 <= online <= 45

    def test_both_types_online(self, run_engine):
        assert run_engine.online_count(CarType.UBERBLACK) >= 1

    def test_online_drivers_have_tokens(self, run_engine):
        for d in run_engine.idle_drivers(CarType.UBERX):
            assert d.session_token

    def test_offline_plus_online_equals_fleet(self, run_engine):
        total = 0
        for car_type, count in run_engine.config.fleet.items():
            online = run_engine.online_count(car_type)
            offline = len(run_engine._offline_by_type[car_type])
            assert online + offline == count
            total += count
        assert total == len(run_engine.drivers)


class TestTripsAndTruth:
    def test_trips_completed(self, run_engine):
        assert len(run_engine.completed_trips) > 30

    def test_completed_trips_have_positive_fares(self, run_engine):
        for trip in run_engine.completed_trips:
            assert trip.fare_usd > 0
            assert trip.completed_at > trip.requested_at

    def test_truth_intervals_contiguous(self, run_engine):
        indices = [t.interval_index for t in run_engine.truth]
        assert indices == list(range(indices[0], indices[0] + len(indices)))

    def test_truth_counts_fulfilled_rides(self, run_engine):
        fulfilled = sum(t.fulfilled_total for t in run_engine.truth)
        # Every fulfilled ride eventually completes (some still in
        # flight when the run ends).
        assert fulfilled >= len(run_engine.completed_trips)
        assert fulfilled > 0

    def test_truth_multipliers_quantized(self, run_engine):
        for truth in run_engine.truth:
            for m in truth.multipliers.values():
                assert m >= 1.0
                assert abs(m * 10 - round(m * 10)) < 1e-9


class TestPricingLookups:
    def test_multiplier_outside_region_is_one(self, run_engine):
        assert run_engine.true_multiplier(
            LatLon(0.0, 0.0), CarType.UBERX
        ) == 1.0

    def test_ubert_never_surges(self, run_engine):
        center = run_engine.config.region.bounding_box.center
        assert run_engine.true_multiplier(center, CarType.UBERT) == 1.0

    def test_observed_matches_true_without_jitter(self, run_engine):
        center = run_engine.config.region.bounding_box.center
        assert run_engine.observed_multiplier(
            "acct", center, CarType.UBERX
        ) == run_engine.true_multiplier(center, CarType.UBERX)

    def test_area_id_of_center(self, run_engine):
        center = run_engine.config.region.bounding_box.center
        assert run_engine.area_id_of(center) in (0, 1, 2, 3)


class TestDeterminism:
    def test_same_seed_same_world(self):
        a = MarketplaceEngine(toy_config(), seed=5)
        b = MarketplaceEngine(toy_config(), seed=5)
        a.run(1800.0)
        b.run(1800.0)
        assert len(a.completed_trips) == len(b.completed_trips)
        assert [t.multipliers for t in a.truth] == [
            t.multipliers for t in b.truth
        ]
        assert a.online_count(CarType.UBERX) == b.online_count(
            CarType.UBERX
        )

    def test_different_seeds_differ(self):
        a = MarketplaceEngine(toy_config(), seed=5)
        b = MarketplaceEngine(toy_config(), seed=6)
        a.run(1800.0)
        b.run(1800.0)
        assert (
            len(a.completed_trips) != len(b.completed_trips)
            or [t.multipliers for t in a.truth]
            != [t.multipliers for t in b.truth]
        )

    def test_zero_surge_areas_engine_still_ticks(self):
        """No surge polygons (driver-set-pricing city) must not crash.

        Regression: ``_target_online`` divided by ``len(multipliers)``,
        a ZeroDivisionError the moment a region had no surge areas.
        """
        cfg = toy_config()
        region = dataclasses.replace(cfg.region, surge_areas=())
        engine = MarketplaceEngine(
            dataclasses.replace(cfg, region=region), seed=4
        )
        engine.run(1800.0)
        assert engine.online_count(CarType.UBERX) > 0
        center = engine.config.region.bounding_box.center
        assert engine.area_id_of(center) is None
        assert engine.true_multiplier(center, CarType.UBERX) == 1.0


class TestSurgeDynamics:
    def test_strained_market_surges(self):
        config = toy_config(
            peak_requests_per_hour=400.0, pressure_floor=0.05
        )
        engine = MarketplaceEngine(config, seed=9)
        engine.run(3 * 3600.0)
        mults = [
            m for t in engine.truth for m in t.multipliers.values()
        ]
        assert max(mults) > 1.0

    def test_quiet_market_does_not_surge(self):
        config = toy_config(
            peak_requests_per_hour=5.0, pressure_floor=3.0,
            surge_noise=0.0,
        )
        engine = MarketplaceEngine(config, seed=9)
        engine.run(2 * 3600.0)
        mults = [
            m for t in engine.truth for m in t.multipliers.values()
        ]
        assert max(mults) == 1.0

    def test_elastic_demand_suppressed_by_surge(self):
        """Priced-out riders appear once the market surges."""
        config = toy_config(
            peak_requests_per_hour=400.0, pressure_floor=0.05,
            elasticity=3.0,
        )
        engine = MarketplaceEngine(config, seed=9)
        engine.run(3 * 3600.0)
        priced_out = sum(t.priced_out for t in engine.truth)
        assert priced_out > 0


class TestNearestCarsView:
    def test_at_most_eight(self, run_engine):
        center = run_engine.config.region.bounding_box.center
        cars = run_engine.nearest_cars(center, CarType.UBERX, k=8)
        assert len(cars) <= 8
        for car in cars:
            assert car.is_dispatchable

    def test_sorted_by_distance(self, run_engine):
        center = run_engine.config.region.bounding_box.center
        cars = run_engine.nearest_cars(center, CarType.UBERX, k=8)
        dists = [c.location.fast_distance_m(center) for c in cars]
        assert dists == sorted(dists)
