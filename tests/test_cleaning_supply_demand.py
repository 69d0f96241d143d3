"""Tests for track building, cleaning, death detection, supply/demand."""

import pytest

from repro.geo.polygon import BoundingBox
from repro.marketplace.types import CarType
from repro.measurement.records import CampaignLog, ClientSample, RoundRecord
from repro.analysis.cleaning import (
    build_tracks,
    detect_deaths,
    filter_short_lived,
)
from repro.analysis.supply_demand import estimate_supply_demand

BOX = BoundingBox(south=40.700, west=-74.010, north=40.712, east=-73.994)
BOUNDARY = BOX.to_polygon()
CENTER = BOX.center


def synthetic_log(rounds):
    """Build a CampaignLog from [(t, {car_id: (lat, lon)})] rounds.

    One client, UberX only; the sample lists every car.
    """
    log = CampaignLog(
        city="synthetic",
        client_positions={"c00": CENTER},
        ping_interval_s=5.0,
    )
    for t, cars in rounds:
        log.rounds.append(
            RoundRecord(
                t=t,
                samples={
                    ("c00", CarType.UBERX): ClientSample(
                        multiplier=1.0,
                        ewt_minutes=2.0,
                        car_ids=tuple(cars),
                    )
                },
                cars=dict(cars),
            )
        )
    return log


def pos(north_m=0.0, east_m=0.0):
    p = CENTER.offset(north_m, east_m)
    return (p.lat, p.lon)


class TestBuildTracks:
    def test_tracks_all_sightings(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(100)}),
            (5.0, {"a": pos(10)}),
            (10.0, {"a": pos(20), "c": pos(-100)}),
        ])
        tracks = build_tracks(log)
        assert set(tracks) == {"a", "b", "c"}
        assert len(tracks["a"].sightings) == 3
        assert tracks["a"].lifespan_s == 10.0
        assert tracks["b"].lifespan_s == 0.0
        assert tracks["a"].car_type is CarType.UBERX

    def test_last_position(self):
        log = synthetic_log([
            (0.0, {"a": pos()}),
            (5.0, {"a": pos(50, 50)}),
        ])
        track = build_tracks(log)["a"]
        expected = CENTER.offset(50, 50)
        assert track.last_position.fast_distance_m(expected) < 1.0


class TestShortLivedFilter:
    def test_filters_below_threshold(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(100)}),
            (5.0, {"a": pos()}),
            (120.0, {"a": pos()}),
        ])
        tracks = filter_short_lived(build_tracks(log), min_lifespan_s=60.0)
        assert set(tracks) == {"a"}

    def test_zero_threshold_keeps_all(self):
        log = synthetic_log([(0.0, {"a": pos()})])
        assert len(filter_short_lived(build_tracks(log), 0.0)) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            filter_short_lived({}, -1.0)


class TestDeathDetection:
    def test_interior_death_countable(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(10)}),
            (5.0, {"a": pos(), "b": pos(10)}),
            (10.0, {"a": pos()}),
            (15.0, {"a": pos()}),
        ])
        deaths = detect_deaths(log, build_tracks(log), BOUNDARY,
                               edge_margin_m=100.0)
        assert len(deaths) == 1
        death = deaths[0]
        assert death.car_id == "b"
        assert death.t == 10.0
        assert death.countable

    def test_edge_death_not_countable(self):
        # Car "b" vanishes 50 m from the western boundary.
        west_edge = (BOX.south + 0.006, BOX.west + 0.0006)
        log = synthetic_log([
            (0.0, {"a": pos(), "b": west_edge}),
            (5.0, {"a": pos(), "b": west_edge}),
            (10.0, {"a": pos()}),
        ])
        deaths = detect_deaths(log, build_tracks(log), BOUNDARY,
                               edge_margin_m=100.0)
        assert len(deaths) == 1
        assert not deaths[0].countable

    def test_survivors_not_deaths(self):
        log = synthetic_log([
            (0.0, {"a": pos()}),
            (5.0, {"a": pos()}),
        ])
        assert detect_deaths(log, build_tracks(log), BOUNDARY) == []

    def test_no_boundary_counts_everything(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(10)}),
            (5.0, {"a": pos()}),
        ])
        deaths = detect_deaths(log, build_tracks(log), boundary=None)
        assert len(deaths) == 1
        assert deaths[0].countable


class TestSupplyDemand:
    def test_supply_counts_unique_ids_per_interval(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(10)}),
            (100.0, {"a": pos(), "b": pos(10)}),
            (310.0, {"a": pos(), "c": pos(20)}),
            (590.0, {"a": pos(), "c": pos(20)}),
        ])
        estimates = estimate_supply_demand(
            log, car_type=CarType.UBERX, boundary=BOUNDARY,
            min_lifespan_s=0.0,
        )
        by_idx = {e.interval_index: e for e in estimates}
        assert by_idx[0].supply == 2  # a, b
        assert by_idx[1].supply == 2  # a, c

    def test_demand_counts_interior_deaths(self):
        log = synthetic_log([
            (0.0, {"a": pos(), "b": pos(10)}),
            (100.0, {"a": pos(), "b": pos(10)}),
            (200.0, {"a": pos()}),       # b dies inside interval 0
            (310.0, {"a": pos()}),
        ])
        estimates = estimate_supply_demand(
            log, boundary=BOUNDARY, min_lifespan_s=0.0
        )
        by_idx = {e.interval_index: e for e in estimates}
        assert by_idx[0].demand == 1
        assert by_idx[1].demand == 0

    def test_empty_log(self):
        log = CampaignLog("x", {}, 5.0)
        assert estimate_supply_demand(log) == []

    def test_type_filter(self):
        log = synthetic_log([
            (0.0, {"a": pos()}),
            (5.0, {"a": pos()}),
        ])
        estimates = estimate_supply_demand(
            log, car_type=CarType.UBERBLACK, min_lifespan_s=0.0
        )
        assert all(e.supply == 0 for e in estimates)
