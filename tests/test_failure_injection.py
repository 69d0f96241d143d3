"""Failure injection: damaged logs, hostile inputs, edge conditions.

A measurement archive accumulates over weeks; partial writes, truncated
uploads, and concatenation mistakes happen.  The loaders must fail
loudly (or skip knowingly) rather than silently corrupt figures.
"""

import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import spec_campaign
from repro.geo.latlon import LatLon
from repro.marketplace.types import CarType
from repro.measurement.records import (
    PARTIAL_SUFFIX,
    CampaignLog,
    ClientSample,
    RoundRecord,
)
from repro.parallel.orchestrator import CampaignSpec


@pytest.fixture
def small_log():
    log = CampaignLog(
        city="inject",
        client_positions={"c00": LatLon(40.75, -73.99)},
        ping_interval_s=5.0,
    )
    for k in range(5):
        log.rounds.append(RoundRecord(
            t=5.0 * k,
            samples={
                ("c00", CarType.UBERX): ClientSample(
                    1.0, 2.0, (f"car{k}",)
                )
            },
            cars={f"car{k}": (40.75, -73.99)},
        ))
    return log


class TestCorruptHeaders:
    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(ValueError, match="bad header"):
            CampaignLog.load(path)

    def test_wrong_schema_header(self, tmp_path):
        path = tmp_path / "wrong.jsonl"
        path.write_text(json.dumps({"foo": 1}) + "\n")
        with pytest.raises(ValueError, match="bad header"):
            CampaignLog.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            CampaignLog.load(path)

    def test_header_damage_fatal_even_lenient(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ValueError):
            CampaignLog.load(path, strict=False)


class TestCorruptRounds:
    def write_with_damage(self, log, tmp_path, mutate):
        path = tmp_path / "log.jsonl"
        log.save(path)
        lines = path.read_text().splitlines()
        lines = mutate(lines)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_truncated_final_line_strict(self, small_log, tmp_path):
        path = self.write_with_damage(
            small_log, tmp_path,
            lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
        )
        with pytest.raises(ValueError, match="line 6"):
            CampaignLog.load(path)

    def test_truncated_final_line_lenient(self, small_log, tmp_path):
        path = self.write_with_damage(
            small_log, tmp_path,
            lambda lines: lines[:-1] + [lines[-1][: len(lines[-1]) // 2]],
        )
        restored = CampaignLog.load(path, strict=False)
        assert len(restored.rounds) == 4  # lost exactly the damaged round

    def test_mid_file_corruption_lenient_keeps_rest(
        self, small_log, tmp_path
    ):
        def mutate(lines):
            lines[3] = "not json at all"
            return lines
        path = self.write_with_damage(small_log, tmp_path, mutate)
        restored = CampaignLog.load(path, strict=False)
        assert len(restored.rounds) == 4
        times = [r.t for r in restored.rounds]
        assert 10.0 not in times  # round 3 (t=10) was the damaged one

    def test_unknown_car_type_rejected(self, small_log, tmp_path):
        def mutate(lines):
            lines[1] = lines[1].replace("uberX", "uberZeppelin")
            return lines
        path = self.write_with_damage(small_log, tmp_path, mutate)
        with pytest.raises(ValueError, match="line 2"):
            CampaignLog.load(path)


class TestTruncatedGzipLog:
    """A ``.jsonl.gz`` log cut short, as a killed campaign leaves its
    ``.part`` sibling, loads like a torn plain log: leniently, every
    round before the cut; strictly, a ValueError naming the path."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        from repro.parallel.orchestrator import execute_campaign
        path = tmp_path_factory.mktemp("gz") / "campaign.jsonl.gz"
        outcome = execute_campaign(CampaignSpec(
            key="gz", city="sf", seed=3, hours=0.5,
            ping_interval_s=30.0, out=str(path),
        ))
        assert outcome.ok, outcome.error
        return path, CampaignLog.load(path).rounds

    def cut(self, saved, tmp_path, keep):
        path, _ = saved
        data = path.read_bytes()
        torn = tmp_path / "torn.jsonl.gz"
        torn.write_bytes(data[:keep(len(data))])
        return torn

    def test_lenient_load_keeps_the_leading_rounds(self, saved, tmp_path):
        _, rounds = saved
        assert len(rounds) == 60
        # Ten bytes short (the gzip trailer and the stream's last
        # bytes), then half the file.
        for keep, at_least in [(lambda n: n - 10, 59),
                               (lambda n: n // 2, 1)]:
            torn = self.cut(saved, tmp_path, keep)
            loaded = CampaignLog.load(torn, strict=False).rounds
            assert len(loaded) >= at_least
            assert loaded == rounds[:len(loaded)]

    @pytest.mark.parametrize("strict, keep", [
        (True, lambda n: n // 2),
        (True, lambda n: 40),
        (False, lambda n: 40),
    ], ids=["strict-mid-log", "strict-in-header", "lenient-in-header"])
    def test_strict_or_header_cut_names_the_path(
        self, saved, tmp_path, strict, keep
    ):
        torn = self.cut(saved, tmp_path, keep)
        with pytest.raises(ValueError, match=re.escape(str(torn))):
            CampaignLog.load(torn, strict=strict)


class TestKilledCampaign:
    def test_killed_run_keeps_its_rounds(self, tmp_path):
        """A SIGKILLed ``repro measure`` leaves no log at ``--out``, and
        its ``.part`` sibling loads (leniently) as the first rounds of
        the same campaign run without interruption."""
        out = tmp_path / "k.jsonl.gz"
        partial = Path(f"{out}{PARTIAL_SUFFIX}")
        spec = CampaignSpec(key="killed", city="manhattan", seed=7,
                            hours=6.0, ping_interval_s=5.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "measure",
             "--city", spec.city, "--seed", str(spec.seed),
             "--hours", str(spec.hours), "--warmup-hours", "0",
             "--ping-interval", str(spec.ping_interval_s),
             "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
        )
        try:
            deadline = time.monotonic() + 60.0
            kept = []
            while not kept:
                assert proc.poll() is None, "the campaign ended unkilled"
                assert time.monotonic() < deadline, "no round written"
                time.sleep(0.05)
                try:
                    kept = CampaignLog.load(partial, strict=False).rounds
                except (OSError, ValueError):
                    pass  # not created yet, or its header not yet out
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert not out.exists()
        kept = CampaignLog.load(partial, strict=False)
        log, rounds = spec_campaign(spec)
        assert kept.client_positions == log.client_positions
        assert kept.rounds == list(
            itertools.islice(rounds, len(kept.rounds)))

    def test_a_raising_run_leaves_its_rounds(self, small_log, tmp_path):
        """Rounds that raise midway leave no log at the path, and a
        whole sibling holding every round written before the raise."""
        path = tmp_path / "r.jsonl.gz"

        def rounds():
            yield from small_log.rounds[:3]
            raise RuntimeError("engine died")

        with pytest.raises(RuntimeError, match="engine died"):
            small_log.write(path, rounds())
        assert not path.exists()
        kept = CampaignLog.load(f"{path}{PARTIAL_SUFFIX}")
        assert kept.rounds == small_log.rounds[:3]


class TestHostileInputsElsewhere:
    def test_trace_with_binary_garbage(self, tmp_path):
        from repro.taxi.trace import read_trace
        path = tmp_path / "trace.csv"
        path.write_bytes(b"\x00\x01\x02\xff\xfe")
        with pytest.raises((ValueError, UnicodeDecodeError)):
            read_trace(path)

    def test_fleet_rejects_empty_world_duration(self):
        from conftest import toy_config
        from repro.marketplace.engine import MarketplaceEngine
        from repro.measurement.fleet import Fleet, MarketplaceWorld
        fleet = Fleet([LatLon(40.75, -73.99)])
        world = MarketplaceWorld(MarketplaceEngine(toy_config(), seed=1))
        with pytest.raises(ValueError):
            fleet.run(world, duration_s=-5.0)

    def test_analysis_handles_single_round_log(self):
        from repro.analysis.supply_demand import estimate_supply_demand
        log = CampaignLog("x", {"c00": LatLon(40.75, -73.99)}, 5.0)
        log.rounds.append(RoundRecord(
            t=0.0,
            samples={("c00", CarType.UBERX): ClientSample(1.0, 2.0, ())},
            cars={},
        ))
        estimates = estimate_supply_demand(log)
        assert len(estimates) == 1
        assert estimates[0].supply == 0
