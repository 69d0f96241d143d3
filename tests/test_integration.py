"""End-to-end audit pipeline over a live toy campaign.

These tests exercise the full measurement-then-analysis path exactly as
the benches do — fleet pings a real engine, and the analysis must recover
the structure the engine actually has (5-minute clock, jitter, per-area
pricing, supply/demand coupling) *from the log alone*.
"""

from repro.marketplace.types import CarType
from repro.analysis.cleaning import build_tracks, filter_short_lived
from repro.analysis.jitter import detect_jitter_events
from repro.analysis.supply_demand import estimate_supply_demand
from repro.analysis.surge_stats import interval_multipliers, surge_episodes
from repro.analysis.heatmap import client_heatmap
from repro.analysis.lifespan import lifespans_by_group


class TestCampaignPipeline:
    def test_supply_estimates_track_truth(self, toy_campaign):
        engine, log = toy_campaign
        estimates = estimate_supply_demand(
            log, car_type=CarType.UBERX,
            boundary=engine.config.region.boundary,
        )
        assert len(estimates) >= 15
        truth_by_idx = {t.interval_index: t for t in engine.truth}
        for est in estimates[1:-1]:
            truth = truth_by_idx.get(est.interval_index)
            if truth is None:
                continue
            # Measured unique IDs must be within sane bounds of true
            # distinct online drivers (tokens refresh per idle stretch,
            # so measured can exceed driver-level truth).
            assert est.supply <= 4 * max(truth.distinct_online_uberx, 1)
            assert est.supply >= 1

    def test_demand_upper_bounds_are_sane(self, toy_campaign):
        engine, log = toy_campaign
        estimates = estimate_supply_demand(
            log, car_type=CarType.UBERX,
            boundary=engine.config.region.boundary,
        )
        measured = sum(e.demand for e in estimates[1:-1])
        fulfilled = sum(
            t.fulfilled_total for t in engine.truth
            if estimates[1].interval_index
            <= t.interval_index
            <= estimates[-2].interval_index
        )
        assert measured > 0
        assert fulfilled > 0

    def test_clock_recovered_from_observations(self, toy_campaign):
        """Multiplier changes must cluster at the engine's publish phase."""
        engine, log = toy_campaign
        cid = log.client_ids[0]
        series = log.multiplier_series(cid, CarType.UBERX)
        clock = interval_multipliers(series)
        # The recovered per-interval values must match the engine's own
        # published multipliers for the client's area.
        area_id = engine.area_id_of(log.client_positions[cid])
        truth = {
            t.interval_index: t.multipliers[area_id]
            for t in engine.truth
        }
        matches = 0
        total = 0
        for idx, value in clock.items():
            if idx in truth:
                total += 1
                if value == truth[idx]:
                    matches += 1
        assert total >= 10
        assert matches / total > 0.8

    def test_jitter_events_match_previous_interval(self, toy_campaign):
        engine, log = toy_campaign
        all_events = []
        for cid in log.client_ids:
            series = log.multiplier_series(cid, CarType.UBERX)
            all_events.extend(detect_jitter_events(series, client_id=cid))
        if all_events:  # surging campaign at p=0.3 should produce some
            matching = sum(
                1 for e in all_events if e.matches_previous_interval
            )
            assert matching / len(all_events) > 0.8
            for event in all_events:
                assert event.duration_s <= 60.0

    def test_heatmap_covers_all_clients(self, toy_campaign):
        _, log = toy_campaign
        cells = client_heatmap(log)
        assert len(cells) == len(log.client_positions)
        assert any(c.unique_cars_per_day > 0 for c in cells)

    def test_lifespans_mostly_short_for_uberx(self, toy_campaign):
        _, log = toy_campaign
        tracks = filter_short_lived(build_tracks(log), 30.0)
        low, _ = lifespans_by_group(tracks)
        assert len(low) > 10
        # In a strained market, availability stretches are short.
        median = sorted(low)[len(low) // 2]
        assert median < 3600.0

    def test_surge_episodes_exist_and_are_positive(self, toy_campaign):
        _, log = toy_campaign
        cid = log.client_ids[0]
        series = log.multiplier_series(cid, CarType.UBERX)
        for episode in surge_episodes(series):
            assert episode.duration_s > 0
