"""Tests for the one-shot audit report and gzip log persistence."""

from repro.measurement.records import CampaignLog
from repro.analysis.report import audit_campaign


class TestAuditCampaign:
    def test_full_report_from_live_campaign(self, toy_campaign):
        engine, log = toy_campaign
        report = audit_campaign(
            log, boundary=engine.config.region.boundary
        )
        assert report.city == "toyville"
        assert report.rounds == len(log.rounds)
        assert report.clients == len(log.client_positions)
        assert report.supply_series
        assert 0.0 <= report.surge_active_fraction <= 1.0
        assert report.mean_multiplier >= 1.0
        assert report.max_multiplier >= report.mean_multiplier

    def test_clock_discovered_from_busy_campaign(self, toy_campaign):
        engine, log = toy_campaign
        report = audit_campaign(
            log, boundary=engine.config.region.boundary
        )
        # The toy campaign surges plenty; the 5-minute clock must fall
        # out of the change-time folding.
        assert report.clock_period_s == 300.0
        assert 40.0 <= report.clock_phase_s <= 80.0

    def test_render_contains_sections(self, toy_campaign):
        engine, log = toy_campaign
        report = audit_campaign(
            log, boundary=engine.config.region.boundary
        )
        text = report.render()
        assert "audit report" in text
        assert "supply & demand" in text
        assert "surge:" in text
        assert "update clock" in text
        assert "EWT" in text

    def test_render_handles_quiet_log(self):
        log = CampaignLog("quiet", {}, 5.0)
        report = audit_campaign(log)
        text = report.render()
        assert "not discovered" in text
        assert "no events" in text


class TestGzipPersistence:
    def test_gz_roundtrip(self, toy_campaign, tmp_path):
        _, log = toy_campaign
        plain = tmp_path / "log.jsonl"
        packed = tmp_path / "log.jsonl.gz"
        log.save(plain)
        log.save(packed)
        assert packed.stat().st_size < plain.stat().st_size / 3
        restored = CampaignLog.load(packed)
        assert len(restored.rounds) == len(log.rounds)
        assert restored.rounds[5].samples == log.rounds[5].samples
