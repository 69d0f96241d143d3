"""Tests for the measurement apparatus: records, clients, fleet, placement."""

import pytest

from conftest import toy_config, toy_region
from repro.api.models import PingReply
from repro.api.ping import PingServer
from repro.geo.latlon import LatLon
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.client import MeasurementClient
from repro.measurement.fleet import Fleet, MarketplaceWorld, TaxiWorld, World
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog
from repro.taxi.generator import TaxiGeneratorParams, TaxiTraceGenerator
from repro.taxi.replay import TaxiReplayServer


class _ClockServer(PingServer):
    """Minimal ping server: empty replies stamped with a settable clock."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def ping(self, account_id, location, car_types=None):
        return PingReply(timestamp=self.now, location=location, statuses=())

    def current_time(self):
        return self.now


class _DriftWorld(World):
    """World whose clock simply accumulates the advances it is given —
    the float-drift-prone setting the round scheduler must survive."""

    def __init__(self, start: float = 0.0) -> None:
        self._server = _ClockServer(start)

    @property
    def server(self):
        return self._server

    @property
    def now(self):
        return self._server.now

    def advance(self, dt):
        self._server.now += dt


@pytest.fixture(scope="module")
def mini_campaign():
    """A 15-minute, 5 s-ping campaign on the toy city."""
    engine = MarketplaceEngine(toy_config(), seed=17)
    region = engine.config.region
    fleet = Fleet(
        place_clients(region, radius_m=300.0),
        car_types=[CarType.UBERX],
        ping_interval_s=5.0,
    )
    world = MarketplaceWorld(engine)
    log = fleet.run(world, duration_s=900.0, city="toyville",
                    warmup_s=600.0)
    return engine, fleet, log


class TestPlacement:
    def test_counts_scale_with_radius(self):
        region = toy_region()
        few = place_clients(region, radius_m=400.0)
        many = place_clients(region, radius_m=150.0)
        assert len(many) > len(few) >= 1

    def test_clients_inside_region(self):
        region = toy_region()
        for p in place_clients(region, radius_m=200.0):
            assert region.boundary.contains(p)

    def test_max_clients_subsamples(self):
        region = toy_region()
        capped = place_clients(region, radius_m=150.0, max_clients=5)
        assert len(capped) == 5

    def test_default_radius_from_region(self):
        region = toy_region()  # client_radius_m = 200
        assert place_clients(region) == place_clients(region,
                                                      radius_m=200.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            place_clients(toy_region(), radius_m=-1.0)
        with pytest.raises(ValueError):
            place_clients(toy_region(), spacing_factor=0.0)


class TestMeasurementClient:
    def test_requires_id(self):
        with pytest.raises(ValueError):
            MeasurementClient("", LatLon(0, 0))

    def test_walks(self):
        client = MeasurementClient("c1", LatLon(40.75, -73.99))
        client.walk_by(north_m=100.0, east_m=0.0)
        assert client.location.lat > 40.75

    def test_absorb_digests_reply(self, mini_campaign):
        engine, _, _ = mini_campaign
        from repro.api.ping import PingEndpoint
        client = MeasurementClient(
            "solo", engine.config.region.bounding_box.center,
            [CarType.UBERX],
        )
        reply = PingEndpoint(engine).ping(
            client.client_id, client.location, client.car_types
        )
        samples, cars = client.absorb(reply)
        assert list(samples) == [CarType.UBERX]
        sample = samples[CarType.UBERX]
        status = reply.status_for(CarType.UBERX)
        assert sample.car_ids == tuple(c.car_id for c in status.cars)
        assert sample.ewt_minutes == status.ewt_minutes
        assert sample.multiplier == status.surge_multiplier
        assert cars == {
            c.car_id: (c.location.lat, c.location.lon) for c in status.cars
        }
        assert client.pings_sent == 1


class TestFleet:
    def test_round_count(self, mini_campaign):
        _, _, log = mini_campaign
        assert len(log.rounds) == 180  # 900 s at 5 s pings

    def test_round_timestamps_monotone(self, mini_campaign):
        _, _, log = mini_campaign
        times = [r.t for r in log.rounds]
        assert times == sorted(times)
        assert times[0] >= 600.0  # warm-up honoured

    def test_all_clients_sampled_every_round(self, mini_campaign):
        _, fleet, log = mini_campaign
        n = len(fleet.clients)
        for record in log.rounds:
            assert len(record.samples) == n

    def test_merged_cars_positions(self, mini_campaign):
        _, _, log = mini_campaign
        region = toy_region()
        seen_any = False
        for record in log.rounds:
            for car_id, (lat, lon) in record.cars.items():
                seen_any = True
                # Cars are inside (or just off) the measurement region.
                p = LatLon(lat, lon)
                assert (
                    region.boundary.contains(p)
                    or region.boundary.distance_to_boundary_m(p) < 2000.0
                )
        assert seen_any

    def test_validation(self):
        with pytest.raises(ValueError):
            Fleet([], ping_interval_s=5.0)
        with pytest.raises(ValueError):
            Fleet([LatLon(0, 0)], ping_interval_s=0.0)
        fleet = Fleet([LatLon(0, 0)])
        engine = MarketplaceEngine(toy_config(), seed=1)
        with pytest.raises(ValueError):
            fleet.run(MarketplaceWorld(engine), duration_s=0.0)

    def test_clients_account_batched_rounds_as_pings(self, mini_campaign):
        # serve_round replies are absorbed as one ping each — the §3.2
        # request-budget accounting must not change with batching.
        _, fleet, log = mini_campaign
        for client in fleet.clients:
            assert client.pings_sent == len(log.rounds)

    def test_taxi_world_runs(self):
        gen = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=40, days=0.5), seed=2
        )
        replay = TaxiReplayServer(gen.generate(), seed=2)
        fleet = Fleet([LatLon(40.755, -73.985)], ping_interval_s=30.0)
        log = fleet.run(TaxiWorld(replay), duration_s=600.0, city="taxi",
                        warmup_s=9 * 3600.0)
        assert len(log.rounds) == 20
        assert log.rounds[0].t >= 9 * 3600.0


class TestRoundScheduling:
    """Regression: `while now < end` with `now += interval` emitted a
    start-dependent round count — e.g. 61 rounds for a (6 s, 0.1 s)
    campaign starting at t=0 but 60 starting at t=600, purely from
    accumulated float representation error."""

    @pytest.mark.parametrize(
        "duration_s,interval_s,expected_rounds",
        [
            (6.0, 0.1, 60),  # the drift-prone pair: old loop gave 61 at t=0
            (2.4, 0.4, 6),  # old loop was start-dependent here too
            (900.0, 5.0, 180),  # float-exact: count unchanged from old loop
        ],
    )
    def test_round_count_independent_of_start(
        self, duration_s, interval_s, expected_rounds
    ):
        for start in (0.0, 600.0, 7 * 86400.0):
            world = _DriftWorld(start)
            fleet = Fleet(
                [LatLon(40.75, -73.99)], ping_interval_s=interval_s
            )
            log = fleet.run(world, duration_s=duration_s)
            assert len(log.rounds) == expected_rounds, f"start={start}"
            assert world.now == pytest.approx(
                start + duration_s, abs=1e-6
            )

    def test_round_times_do_not_accumulate_drift(self):
        # Each advance targets start + k*interval absolutely, so the
        # error in any round's timestamp stays at one rounding, never
        # the sum of k of them.
        start = 600.0
        world = _DriftWorld(start)
        fleet = Fleet([LatLon(40.75, -73.99)], ping_interval_s=0.1)
        log = fleet.run(world, duration_s=6.0)
        for k, record in enumerate(log.rounds):
            assert record.t == pytest.approx(start + k * 0.1, abs=1e-7)


class TestBatchedRoundCampaign:
    def test_campaign_identical_with_and_without_batching(self):
        """A whole campaign — samples, car maps, truth log, RNG state —
        is bit-identical whether rounds are served batched by the
        production engine or per client by the oracle (the
        measurement-side view of the engine contract)."""
        engines, logs = [], []
        for use_vectorized_step in (True, False):
            engine = MarketplaceEngine(
                toy_config(jitter_probability=0.3),
                seed=23,
                use_vectorized_step=use_vectorized_step,
            )
            fleet = Fleet(
                place_clients(engine.config.region, radius_m=300.0),
                car_types=[CarType.UBERX],
                ping_interval_s=5.0,
            )
            log = fleet.run(
                MarketplaceWorld(engine),
                duration_s=300.0,
                city="toyville",
                warmup_s=600.0,
            )
            engines.append(engine)
            logs.append(log)
        batched, per_client = logs
        assert [r.t for r in batched.rounds] == [
            r.t for r in per_client.rounds
        ]
        assert [r.samples for r in batched.rounds] == [
            r.samples for r in per_client.rounds
        ]
        assert [r.cars for r in batched.rounds] == [
            r.cars for r in per_client.rounds
        ]
        assert engines[0].truth == engines[1].truth
        assert engines[0].completed_trips == engines[1].completed_trips
        assert engines[0].rng.getstate() == engines[1].rng.getstate()


class TestCampaignLogPersistence:
    def test_save_load_roundtrip(self, mini_campaign, tmp_path):
        _, _, log = mini_campaign
        path = tmp_path / "campaign.jsonl"
        log.save(path)
        restored = CampaignLog.load(path)
        assert restored.city == log.city
        assert restored.ping_interval_s == log.ping_interval_s
        assert restored.client_positions == log.client_positions
        assert len(restored.rounds) == len(log.rounds)
        assert restored.rounds[0].samples == log.rounds[0].samples
        assert restored.rounds[-1].cars == log.rounds[-1].cars

    def test_series_extraction(self, mini_campaign):
        _, fleet, log = mini_campaign
        cid = fleet.clients[0].client_id
        series = log.multiplier_series(cid, CarType.UBERX)
        assert len(series) == len(log.rounds)
        assert all(m >= 1.0 for _, m in series)
        ewt = log.ewt_series(cid, CarType.UBERX)
        assert len(ewt) == len(log.rounds)

    def test_car_types_listing(self, mini_campaign):
        _, _, log = mini_campaign
        assert log.car_types() == [CarType.UBERX]

    def test_duration(self, mini_campaign):
        _, _, log = mini_campaign
        assert log.duration_s == pytest.approx(895.0, abs=5.1)
