"""Tests for the transition model, heatmaps, and lifespan grouping."""

import pytest

from repro.geo.latlon import LatLon
from repro.marketplace.types import CarType
from repro.measurement.records import CampaignLog, ClientSample, RoundRecord
from repro.analysis.cleaning import CarTrack
from repro.analysis.heatmap import client_heatmap, render_grid
from repro.analysis.lifespan import lifespans_by_group
from repro.analysis.transitions import (
    STATES,
    classify_conditions,
    transition_probabilities,
)

WEST = LatLon(40.75, -74.00)
EAST = LatLon(40.75, -73.98)


def area_of(p: LatLon):
    """Two areas: 0 west of -73.99, 1 east of it."""
    return 0 if p.lon < -73.99 else 1


def track(car_id, sightings, car_type=CarType.UBERX):
    t = CarTrack(car_id=car_id, car_type=car_type)
    t.sightings = sightings
    return t


class TestClassifyConditions:
    ADJ = {0: [1], 1: [0]}

    def test_equal_condition(self):
        mults = {0: {0: 1.0, 1: 1.0}, 1: {0: 1.0, 1: 1.0}}
        labels = classify_conditions(mults, self.ADJ)
        assert labels[0][1] == "equal"
        assert labels[1][1] == "equal"

    def test_surging_condition(self):
        mults = {0: {0: 1.5, 1: 1.0}, 1: {0: 1.0, 1: 1.0}}
        labels = classify_conditions(mults, self.ADJ)
        assert labels[0][1] == "surging"  # area 0 was 0.5 above at t-1
        assert labels[1][1] == "other"

    def test_below_margin_is_other(self):
        mults = {0: {0: 1.1, 1: 1.0}, 1: {0: 1.0, 1: 1.0}}
        labels = classify_conditions(mults, self.ADJ)
        assert labels[0][1] == "other"

    def test_missing_previous_interval_skipped(self):
        mults = {0: {5: 1.0}, 1: {5: 1.0}}
        labels = classify_conditions(mults, self.ADJ)
        assert 5 not in labels[0]


class TestTransitions:
    ADJ = {0: [1], 1: [0]}
    EQUAL_MULTS = {
        0: {i: 1.0 for i in range(6)},
        1: {i: 1.0 for i in range(6)},
    }

    def test_new_old_dying(self):
        # One car that lives in area 0 for intervals 1-3.
        tracks = {
            "a": track("a", [
                (300.0 + 10.0 * k, WEST.lat, WEST.lon) for k in range(90)
            ]),
        }
        stats = transition_probabilities(
            tracks, area_of, self.EQUAL_MULTS, self.ADJ,
            campaign_end_s=1800.0,
        )
        equal_0 = stats[(0, "equal")]
        assert equal_0.counts["new"] == 1
        assert equal_0.counts["dying"] == 1
        assert equal_0.counts["old"] >= 1
        assert equal_0.counts["in"] == 0

    def test_move_between_areas(self):
        # Interval 1: starts west, ends east.
        tracks = {
            "b": track("b", [
                (310.0, WEST.lat, WEST.lon),
                (590.0, EAST.lat, EAST.lon),
            ]),
        }
        stats = transition_probabilities(
            tracks, area_of, self.EQUAL_MULTS, self.ADJ,
            campaign_end_s=1800.0,
        )
        assert stats[(0, "equal")].counts["out"] == 1
        assert stats[(1, "equal")].counts["in"] == 1

    def test_survivor_not_dying(self):
        tracks = {
            "c": track("c", [
                (t, WEST.lat, WEST.lon) for t in range(300, 1800, 10)
            ]),
        }
        stats = transition_probabilities(
            tracks, area_of, self.EQUAL_MULTS, self.ADJ,
            campaign_end_s=1800.0,
        )
        assert stats[(0, "equal")].counts["dying"] == 0

    def test_probabilities_sum_to_one(self):
        tracks = {
            "a": track("a", [
                (300.0 + 10 * k, WEST.lat, WEST.lon) for k in range(60)
            ]),
            "b": track("b", [
                (310.0, WEST.lat, WEST.lon),
                (590.0, EAST.lat, EAST.lon),
            ]),
        }
        stats = transition_probabilities(
            tracks, area_of, self.EQUAL_MULTS, self.ADJ,
            campaign_end_s=1800.0,
        )
        probs = stats[(0, "equal")].probabilities()
        assert set(probs) == set(STATES)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_empty_area_all_zero(self):
        stats = transition_probabilities(
            {}, area_of, self.EQUAL_MULTS, self.ADJ
        )
        assert sum(stats[(1, "surging")].counts.values()) == 0
        assert all(
            v == 0.0
            for v in stats[(1, "surging")].probabilities().values()
        )


class TestHeatmap:
    def make_log(self):
        log = CampaignLog(
            city="x",
            client_positions={"c00": WEST, "c01": EAST},
            ping_interval_s=5.0,
        )
        for k in range(10):
            log.rounds.append(RoundRecord(
                t=5.0 * k,
                samples={
                    ("c00", CarType.UBERX): ClientSample(
                        1.0, 2.0, ("a", "b")),
                    ("c01", CarType.UBERX): ClientSample(
                        1.0, 4.0, ("c",)),
                },
                cars={},
            ))
        return log

    def test_unique_cars_and_ewt(self):
        cells = client_heatmap(self.make_log())
        by_id = {c.client_id: c for c in cells}
        # 45 s of data -> tiny fraction of a day, but unique counts hold.
        assert by_id["c00"].unique_cars_per_day > by_id[
            "c01"].unique_cars_per_day
        assert by_id["c00"].mean_ewt_minutes == pytest.approx(2.0)
        assert by_id["c01"].mean_ewt_minutes == pytest.approx(4.0)

    def test_empty_log_raises(self):
        with pytest.raises(ValueError):
            client_heatmap(CampaignLog("x", {}, 5.0))

    def test_render_grid(self):
        cells = client_heatmap(self.make_log())
        text = render_grid(cells, value="ewt")
        assert "2.0" in text and "4.0" in text
        with pytest.raises(ValueError):
            render_grid(cells, value="bogus")


class TestLifespans:
    def test_grouping(self):
        tracks = {
            "x": track("x", [(0.0, 40.75, -74.0), (100.0, 40.75, -74.0)],
                       CarType.UBERX),
            "b": track("b", [(0.0, 40.75, -74.0), (900.0, 40.75, -74.0)],
                       CarType.UBERBLACK),
            "p": track("p", [(0.0, 40.75, -74.0), (50.0, 40.75, -74.0)],
                       CarType.UBERPOOL),
        }
        low, other = lifespans_by_group(tracks)
        assert sorted(low) == [50.0, 100.0]
        assert other == [900.0]
