"""Tests for the real-TLC-format reader."""

import pytest

from repro.geo.polygon import BoundingBox
from repro.taxi.tlc import read_tlc_csv

HEADER = (
    "medallion,hack_license,vendor_id,rate_code,store_and_fwd_flag,"
    "pickup_datetime,dropoff_datetime,passenger_count,"
    "trip_time_in_secs,trip_distance,pickup_longitude,pickup_latitude,"
    "dropoff_longitude,dropoff_latitude"
)


def row(medallion="89D2", pickup="2013-04-04 08:00:00",
        dropoff="2013-04-04 08:10:00",
        plon="-73.985", plat="40.755", dlon="-73.98", dlat="40.76"):
    return (
        f"{medallion},HL1,VTS,1,N,{pickup},{dropoff},1,600,1.2,"
        f"{plon},{plat},{dlon},{dlat}"
    )


def write_csv(tmp_path, lines):
    path = tmp_path / "trip_data.csv"
    path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
    return path


class TestReadTlcCsv:
    def test_reads_valid_rows(self, tmp_path):
        path = write_csv(tmp_path, [
            row(),
            row(medallion="AA11", pickup="2013-04-04 09:00:00",
                dropoff="2013-04-04 09:05:00"),
        ])
        trips, stats = read_tlc_csv(path)
        assert stats.rows == 2 and stats.kept == 2
        assert stats.medallions == 2
        assert len(trips) == 2
        # Epoch anchors at midnight of the first pickup day.
        assert trips[0].pickup_s == 8 * 3600.0
        assert trips[0].duration_s == 600.0

    def test_medallions_interned_densely(self, tmp_path):
        path = write_csv(tmp_path, [
            row(medallion="X1"),
            row(medallion="X2", pickup="2013-04-04 09:00:00",
                dropoff="2013-04-04 09:10:00"),
            row(medallion="X1", pickup="2013-04-04 10:00:00",
                dropoff="2013-04-04 10:10:00"),
        ])
        trips, _ = read_tlc_csv(path)
        assert {t.medallion for t in trips} == {1, 2}

    def test_drops_zeroed_coordinates(self, tmp_path):
        path = write_csv(tmp_path, [
            row(),
            row(plon="0", plat="0"),
        ])
        trips, stats = read_tlc_csv(path)
        assert len(trips) == 1
        assert stats.bad_coordinates == 1

    def test_drops_negative_durations(self, tmp_path):
        path = write_csv(tmp_path, [
            row(pickup="2013-04-04 08:10:00",
                dropoff="2013-04-04 08:00:00"),
        ])
        trips, stats = read_tlc_csv(path)
        assert not trips
        assert stats.bad_times == 1

    def test_drops_unparseable_times(self, tmp_path):
        path = write_csv(tmp_path, [row(pickup="04/04/2013 8am")])
        trips, stats = read_tlc_csv(path)
        assert not trips and stats.bad_times == 1

    def test_region_filter(self, tmp_path):
        midtown = BoundingBox(south=40.74, west=-74.0, north=40.77,
                              east=-73.96)
        path = write_csv(tmp_path, [
            row(),                                   # inside midtown
            row(plat="40.60", dlat="40.61"),         # Brooklyn-ish
        ])
        trips, stats = read_tlc_csv(path, region=midtown)
        assert len(trips) == 1
        assert stats.outside_region == 1

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "fare.csv"
        path.write_text("medallion,fare_amount\nX,12.5\n")
        with pytest.raises(ValueError):
            read_tlc_csv(path)

    def test_max_rows(self, tmp_path):
        path = write_csv(tmp_path, [row() for _ in range(10)])
        trips, stats = read_tlc_csv(path, max_rows=3)
        assert stats.rows == 3

    def test_replayable(self, tmp_path):
        """The converted trips feed straight into the replayer."""
        from repro.taxi.replay import TaxiReplayServer
        path = write_csv(tmp_path, [
            row(),
            row(pickup="2013-04-04 08:20:00",
                dropoff="2013-04-04 08:30:00"),
        ])
        trips, _ = read_tlc_csv(path)
        replay = TaxiReplayServer(trips, seed=1)
        assert len(replay.segments) == 1  # the 08:10 -> 08:20 gap
