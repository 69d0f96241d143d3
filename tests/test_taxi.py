"""Tests for the taxi substrate: trace model, generator, replayer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.latlon import LatLon
from repro.geo.regions import midtown_manhattan
from repro.api.models import TypeStatus
from repro.marketplace.types import CarType
from repro.taxi.generator import TaxiGeneratorParams, TaxiTraceGenerator
from repro.taxi.replay import (
    OFFLINE_GAP_S,
    TaxiReplayServer,
    build_segments,
)
from repro.taxi.trace import TripRecord, read_trace, write_trace

P1 = LatLon(40.750, -73.990)
P2 = LatLon(40.755, -73.985)
P3 = LatLon(40.760, -73.980)


def trip(medallion, pickup_s, dropoff_s, pickup=P1, dropoff=P2):
    return TripRecord(
        medallion=medallion,
        pickup_s=pickup_s,
        dropoff_s=dropoff_s,
        pickup=pickup,
        dropoff=dropoff,
    )


class TestTripRecord:
    def test_rejects_time_travel(self):
        with pytest.raises(ValueError):
            trip(1, 100.0, 50.0)

    def test_duration(self):
        assert trip(1, 100.0, 400.0).duration_s == 300.0

    def test_sorts_by_pickup_time(self):
        trips = [trip(1, 200.0, 300.0), trip(2, 100.0, 150.0)]
        assert sorted(trips)[0].medallion == 2

    def test_csv_roundtrip(self, tmp_path):
        trips = [trip(1, 0.0, 100.0), trip(2, 50.0, 400.0, P2, P3)]
        path = tmp_path / "trace.csv"
        assert write_trace(trips, path) == 2
        restored = read_trace(path)
        assert len(restored) == 2
        assert restored[0].medallion == 1
        assert restored[1].pickup.lat == pytest.approx(P2.lat)

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not,a,trace\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestGenerator:
    @pytest.fixture(scope="class")
    def trace(self):
        gen = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=60, days=1.0), seed=3
        )
        return gen.generate()

    def test_sorted_by_pickup(self, trace):
        times = [t.pickup_s for t in trace]
        assert times == sorted(times)

    def test_stays_inside_region(self, trace):
        region = midtown_manhattan()
        for t in trace[:500]:
            assert region.boundary.contains(t.pickup)
            assert region.boundary.contains(t.dropoff)

    def test_trips_chain_spatially(self, trace):
        """The next pickup should be near the previous dropoff."""
        by_taxi = {}
        for t in trace:
            by_taxi.setdefault(t.medallion, []).append(t)
        gaps = []
        for trips in by_taxi.values():
            trips.sort()
            for a, b in zip(trips, trips[1:]):
                if b.pickup_s - a.dropoff_s < OFFLINE_GAP_S:
                    gaps.append(a.dropoff.fast_distance_m(b.pickup))
        assert gaps
        # Chained hails are drawn ~300 m from the last dropoff.
        assert sum(gaps) / len(gaps) < 900.0

    def test_deterministic(self):
        params = TaxiGeneratorParams(fleet_size=20, days=0.5)
        a = TaxiTraceGenerator(params, seed=5).generate()
        b = TaxiTraceGenerator(params, seed=5).generate()
        assert a == b

    def test_diurnal_variation(self, trace):
        """Deep-night hours must be quieter than rush hours."""
        def count_between(h0, h1):
            return sum(
                1 for t in trace if h0 * 3600 <= t.pickup_s < h1 * 3600
            )
        assert count_between(8, 10) > 2 * count_between(3, 5)


class TestSegments:
    def test_gap_becomes_segment(self):
        trips = [trip(1, 0.0, 100.0, P1, P2), trip(1, 400.0, 500.0, P3, P1)]
        segments = build_segments(trips)
        assert len(segments) == 1
        seg = segments[0]
        assert seg.start_s == 100.0
        assert seg.end_s == 400.0
        assert seg.end_reason == "booked"
        assert seg.start_loc == P2
        assert seg.end_loc == P3

    def test_long_gap_is_offline(self):
        trips = [
            trip(1, 0.0, 100.0),
            trip(1, 100.0 + OFFLINE_GAP_S + 1.0, 100.0 + OFFLINE_GAP_S + 50.0),
        ]
        segments = build_segments(trips)
        assert len(segments) == 1
        assert segments[0].end_reason == "offline"
        assert segments[0].end_s - segments[0].start_s == pytest.approx(60.0)

    def test_tokens_unique_per_segment(self):
        trips = [
            trip(1, 0.0, 100.0),
            trip(1, 200.0, 300.0),
            trip(1, 400.0, 500.0),
        ]
        segments = build_segments(trips)
        tokens = [s.token for s in segments]
        assert len(tokens) == len(set(tokens))

    def test_position_interpolates(self):
        trips = [trip(1, 0.0, 100.0, P1, P2), trip(1, 300.0, 400.0, P3, P1)]
        seg = build_segments(trips)[0]
        mid = seg.position_at(200.0)
        assert mid.lat == pytest.approx((P2.lat + P3.lat) / 2)
        with pytest.raises(ValueError):
            seg.position_at(50.0)


class TestReplayServer:
    @pytest.fixture(scope="class")
    def server(self):
        gen = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=80, days=0.6), seed=9
        )
        return TaxiReplayServer(gen.generate(), seed=9)

    def test_clock_is_monotonic(self, server):
        with pytest.raises(ValueError):
            server.advance(-1.0)

    def test_ping_midday(self, server):
        server.seek(12 * 3600.0)
        reply = server.ping("acct", P2)
        status = reply.status_for(CarType.UBERT)
        assert status is not None
        assert 0 < len(status.cars) <= 8
        assert status.surge_multiplier == 1.0
        assert status.ewt_minutes >= 1.0

    def test_cars_sorted_by_distance(self, server):
        server.advance(600.0)
        status = server.ping("acct", P2).status_for(CarType.UBERT)
        dists = [c.location.fast_distance_m(P2) for c in status.cars]
        assert dists == sorted(dists)

    def test_ground_truth_totals(self, server):
        gt = server.ground_truth(10 * 3600.0, 14 * 3600.0)
        assert len(gt) == 48
        assert sum(g.bookings for g in gt) > 0
        assert max(g.distinct_cabs for g in gt) > 5

    def test_ground_truth_validation(self, server):
        with pytest.raises(ValueError):
            server.ground_truth(100.0, 100.0)

    def test_seek_backwards_rejected(self, server):
        with pytest.raises(ValueError):
            server.seek(0.0)


@pytest.fixture(scope="module")
def day_trips():
    gen = TaxiTraceGenerator(
        TaxiGeneratorParams(fleet_size=80, days=0.6), seed=9
    )
    return gen.generate()


class TestReplayRounds:
    """``serve_round`` answers a round from the segment columns."""

    REQUESTS = [
        ("a", P2, None),
        ("b", P1, [CarType.UBERT]),
        ("c", LatLon(40.770, -73.970), None),
        ("d", P2, None),
    ]

    def test_co_located_cabs_come_back_in_segment_order(self):
        # Twenty parked cabs, alternately at the client and 700 m away,
        # all available over the same stretch: the ten at the client tie
        # at distance 0, and an unstable sort reorders them.
        far = P3
        trips = []
        for medallion in range(20):
            spot = P2 if medallion % 2 else far
            trips += [
                trip(medallion, 0.0, 100.0, P1, spot),
                trip(medallion, 1000.0, 1100.0, spot, P1),
            ]
        server = TaxiReplayServer(trips, seed=4)
        server.seek(500.0)
        status = server.ping("acct", P2).status_for(CarType.UBERT)
        tokens = [seg.token for seg in server.segments]
        assert [c.car_id for c in status.cars] == tokens[1:17:2]
        assert all(c.location == P2 for c in status.cars)
        assert status.ewt_minutes == 1.0
        # Visibility is half open: a cab leaves the map at its next
        # pickup.
        server.seek(1000.0)
        assert server.ping("acct", P2).statuses == (
            TypeStatus(CarType.UBERT, (), None, 1.0),
        )

    def test_batch_equals_each_request_alone(self, day_trips):
        server = TaxiReplayServer(day_trips, seed=9)
        # Before the first segment starts no cab is visible.
        server.seek(server.segments[0].start_s / 2)
        for t in (None, 9 * 3600.0, 12 * 3600.0 + 2.5):
            if t is not None:
                server.seek(t)
            batched = server.serve_round(self.REQUESTS)
            alone = [server.serve_round([r])[0] for r in self.REQUESTS]
            assert batched == alone
            assert batched == [server.ping(*r) for r in self.REQUESTS]
            statuses = [reply.statuses for reply in batched]
            if t is None:
                assert all(
                    s == (TypeStatus(CarType.UBERT, (), None, 1.0),)
                    for s in statuses
                )
            else:
                assert all(len(s[0].cars) == 8 for s in statuses)
        assert server.serve_round([]) == []

    @settings(max_examples=25, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=0.6 * 86_400.0),
            min_size=1, max_size=4,
        ),
        north_m=st.floats(min_value=-2000.0, max_value=2000.0),
        east_m=st.floats(min_value=-2000.0, max_value=2000.0),
    )
    def test_served_cabs_sit_on_their_segments(
        self, day_trips, times, north_m, east_m
    ):
        server = TaxiReplayServer(day_trips, seed=9)
        by_token = {seg.token: seg for seg in server.segments}
        where = P2.offset(north_m, east_m)
        for t in sorted(times):
            server.seek(t)
            replies = server.serve_round(
                [("x", where, None), ("y", P1, None)]
            )
            for reply in replies:
                for car in reply.statuses[0].cars:
                    seg = by_token[car.car_id]
                    assert seg.start_s <= t < seg.end_s
                    assert car.location == seg.position_at(t)
                    assert car.path == ((t, car.location.lat,
                                         car.location.lon),)
