"""Tests for the surge-avoidance strategy (§6)."""

import pytest

from conftest import toy_config
from repro.geo.latlon import LatLon, walking_minutes
from repro.api.ratelimit import RateLimiter
from repro.api.rest import RestApi
from repro.marketplace.engine import MarketplaceEngine
from repro.strategy.avoidance import SurgeAvoider, evaluate_campaign
from repro.measurement.fleet import MarketplaceWorld


@pytest.fixture
def setup():
    """A warm toy marketplace with a jumbo rate budget for the avoider."""
    engine = MarketplaceEngine(
        toy_config(surge_noise=0.0, pressure_floor=0.5,
                   peak_requests_per_hour=60.0),
        seed=23,
    )
    engine.run(1800.0)
    api = RestApi(engine, RateLimiter(limit=10_000_000))
    avoider = SurgeAvoider(api, engine.config.region)
    return engine, api, avoider


def origin_in_area(engine, area_id):
    """A point well inside the given surge area."""
    return engine.config.region.area_by_id(area_id).polygon.centroid()


class TestEvaluate:
    def test_no_surge_nothing_to_save(self, setup):
        engine, _, avoider = setup
        engine.surge.force_multipliers({0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})
        outcome = avoider.evaluate(origin_in_area(engine, 0))
        assert outcome.origin_multiplier == 1.0
        assert not outcome.saved
        assert outcome.reduction == 0.0
        # All adjacent areas were still queried.
        assert len(outcome.options) == 3

    def test_saves_when_neighbor_cheaper(self, setup):
        engine, _, avoider = setup
        engine.surge.force_multipliers({0: 2.5, 1: 1.0, 2: 1.0, 3: 1.0})
        outcome = avoider.evaluate(origin_in_area(engine, 0))
        assert outcome.origin_multiplier == 2.5
        # Toy areas are ~700 m across: the walk beats a multi-minute EWT
        # whenever any car is a few hundred metres away.
        if outcome.saved:
            assert outcome.best.multiplier < 2.5
            assert outcome.reduction == pytest.approx(
                2.5 - outcome.best.multiplier
            )
            assert outcome.best.walk_minutes <= outcome.best.ewt_minutes

    def test_never_picks_more_expensive_area(self, setup):
        engine, _, avoider = setup
        engine.surge.force_multipliers({0: 1.5, 1: 2.5, 2: 2.5, 3: 2.5})
        outcome = avoider.evaluate(origin_in_area(engine, 0))
        assert not outcome.saved

    def test_pickup_points_inside_target_area(self, setup):
        engine, _, avoider = setup
        engine.surge.force_multipliers({0: 2.0, 1: 1.0, 2: 1.0, 3: 1.0})
        outcome = avoider.evaluate(origin_in_area(engine, 0))
        region = engine.config.region
        for option in outcome.options:
            area = region.area_of(option.pickup_point)
            assert area is not None
            assert area.area_id == option.area_id

    def test_walk_minutes_uses_great_circle(self, setup):
        engine, _, avoider = setup
        origin = origin_in_area(engine, 0)
        outcome = avoider.evaluate(origin)
        for option in outcome.options:
            assert option.walk_minutes == pytest.approx(
                walking_minutes(origin, option.pickup_point)
            )

    def test_outside_region_yields_no_options(self, setup):
        _, _, avoider = setup
        outcome = avoider.evaluate(LatLon(0.0, 0.0))
        assert outcome.options == ()
        assert not outcome.saved


class TestEvaluateCampaign:
    def test_collects_per_origin_outcomes(self, setup):
        engine, _, avoider = setup
        world = MarketplaceWorld(engine)
        origins = [origin_in_area(engine, 0), origin_in_area(engine, 1)]
        results = evaluate_campaign(world, avoider, origins, rounds=3,
                                    interval_s=300.0)
        assert set(results) == {0, 1}
        assert all(len(v) == 3 for v in results.values())

    def test_rejects_zero_rounds(self, setup):
        engine, _, avoider = setup
        with pytest.raises(ValueError):
            evaluate_campaign(
                MarketplaceWorld(engine), avoider, [], rounds=0
            )
