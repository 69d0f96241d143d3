"""Tests for campaign specs: the durations, client cap and seed of one
campaign, and the log :func:`execute_campaign` makes of them."""

import math

import pytest

from repro.analysis.supply_demand import estimate_supply_demand
from repro.marketplace.config import city_config
from repro.marketplace.types import CarType
from repro.measurement.records import CampaignLog
from repro.parallel.orchestrator import CampaignSpec, execute_campaign


def _campaign(tmp_path, key, seed=5, hours=1 / 6, warmup_hours=1 / 12,
              ping_interval_s=30.0, max_clients=4):
    out = tmp_path / f"{key}.jsonl"
    outcome = execute_campaign(CampaignSpec(
        key=key, city="manhattan", seed=seed, hours=hours,
        warmup_hours=warmup_hours, ping_interval_s=ping_interval_s,
        max_clients=max_clients, out=str(out),
    ))
    assert outcome.ok, outcome.error
    return outcome, CampaignLog.load(out)


class TestPlanValidation:
    def test_rejects_bad_durations(self):
        for hours, warmup_hours in [
            (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0),
            (0.1, -1.0), (0.1, math.nan),
        ]:
            with pytest.raises(ValueError):
                CampaignSpec(key="bad", city="manhattan", seed=1,
                             hours=hours, warmup_hours=warmup_hours)

    def test_for_city_converts_hours(self, tmp_path):
        # 0.1 h at 60 s pings after 0.05 h of warm-up: rounds from
        # 180 s, every 60 s, until the 360 s of measurement are over.
        _, log = _campaign(tmp_path, "hours", hours=0.1,
                           warmup_hours=0.05, ping_interval_s=60.0)
        assert [r.t for r in log.rounds] == [
            180.0, 240.0, 300.0, 360.0, 420.0, 480.0,
        ]


class TestExecution:
    def test_basic_campaign(self, tmp_path):
        # Ten minutes at 30 s pings after five of warm-up: 20 rounds,
        # the first after the warm-up, 30 s apart.
        outcome, log = _campaign(tmp_path, "basic")
        assert len(log.rounds) == outcome.metrics["rounds"] == 20
        assert log.rounds[0].t >= 300.0
        assert {b.t - a.t for a, b in zip(log.rounds, log.rounds[1:])} == {
            30.0
        }

    def test_max_clients_cap(self, tmp_path):
        outcome, log = _campaign(tmp_path, "capped", hours=1 / 60,
                                 warmup_hours=0.0, max_clients=3)
        assert len(log.client_positions) == outcome.metrics["clients"] == 3
        uncapped, _ = _campaign(tmp_path, "uncapped", hours=1 / 60,
                                warmup_hours=0.0, max_clients=None)
        assert uncapped.metrics["clients"] > 3

    def test_same_seed_reproduces(self, tmp_path):
        _, a = _campaign(tmp_path, "a", seed=11)
        _, b = _campaign(tmp_path, "b", seed=11)
        _, c = _campaign(tmp_path, "c", seed=12)
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()
        assert [r.t for r in a.rounds] == [r.t for r in b.rounds]
        assert a.rounds[-1].samples == b.rounds[-1].samples
        assert (tmp_path / "a.jsonl").read_bytes() != (
            tmp_path / "c.jsonl"
        ).read_bytes()

    def test_log_feeds_analysis(self, tmp_path):
        _, log = _campaign(tmp_path, "analysis", seed=13, hours=0.25)
        estimates = estimate_supply_demand(
            log, car_type=CarType.UBERX,
            boundary=city_config("manhattan").region.boundary,
        )
        assert estimates
