#!/usr/bin/env python
"""Black-box audit of the surge algorithm (§5), end to end.

Runs a half-day measurement campaign on the downtown-SF marketplace and
then — using only the observation log and the REST API — recovers:

1. the 5-minute update clock (update moments cluster in a tight band);
2. the jitter bug (short per-client reversions to the previous value);
3. the surge-area partition (lock-step multiplier clustering);
4. the supply/demand coupling (cross-correlation at Δt = 0).

Everything printed here is *inferred from observations*; the script never
reads the simulator's internal surge state.

Run:  python examples/audit_surge_algorithm.py   (takes a few minutes)
"""

from repro.api import RateLimiter, RestApi
from repro.geo.grid import grid_cover
from repro.marketplace import MarketplaceEngine, sf_config
from repro.marketplace.types import CarType
from repro.measurement import Fleet, MarketplaceWorld, place_clients
from repro.analysis import (
    cross_correlation,
    detect_jitter_events,
    discover_surge_areas,
    estimate_supply_demand,
    interval_multipliers,
    simultaneity_histogram,
    update_moments,
)
from repro.analysis.areas import probe_multipliers
from repro.analysis.correlate import strongest_shift


def main() -> None:
    config = sf_config(jitter_probability=0.25)
    engine = MarketplaceEngine(config, seed=2015)
    world = MarketplaceWorld(engine)
    positions = place_clients(config.region)
    fleet = Fleet(positions, car_types=[CarType.UBERX], ping_interval_s=5.0)

    print(f"measuring downtown SF with {len(positions)} clients, "
          "5 s pings, warm-up to 7am + 5 h campaign...")
    log = fleet.run(world, duration_s=5 * 3600.0, city="downtown_sf",
                    warmup_s=7 * 3600.0)

    # ---- 1. the update clock --------------------------------------
    moments = []
    for cid in log.client_ids:
        series = log.multiplier_series(cid, CarType.UBERX)
        moments.extend(update_moments(series))
    if moments:
        lo, hi = min(moments), max(moments)
        clustered = sorted(moments)[len(moments) // 10:-len(moments) // 10]
        print(f"\n[clock] {len(moments)} multiplier changes observed; "
              f"central 80% land {clustered[0]:.0f}-{clustered[-1]:.0f} s "
              f"into the 5-minute interval (full range {lo:.0f}-{hi:.0f} s)")

    # ---- 2. jitter --------------------------------------------------
    events_by_client = {}
    for cid in log.client_ids:
        series = log.multiplier_series(cid, CarType.UBERX)
        events = detect_jitter_events(series, client_id=cid)
        if events:
            events_by_client[cid] = events
    all_events = [e for evs in events_by_client.values() for e in evs]
    if all_events:
        stale_match = sum(
            1 for e in all_events if e.matches_previous_interval
        )
        drops = sum(1 for e in all_events if e.lowered_price)
        hist = simultaneity_histogram(events_by_client)
        solo = hist.get(1, 0) / sum(hist.values())
        print(f"[jitter] {len(all_events)} events; "
              f"{100 * stale_match / len(all_events):.0f}% equal the "
              f"previous interval's multiplier; "
              f"{100 * drops / len(all_events):.0f}% lowered the price; "
              f"{100 * solo:.0f}% seen by a single client")
    else:
        print("[jitter] no events observed (quiet market)")

    # ---- 3. surge areas ---------------------------------------------
    api = RestApi(engine, RateLimiter(limit=100_000))
    probes = grid_cover(config.region.boundary,
                        radius_m=600.0).points
    print(f"\n[areas] probing {len(probes)} API points for 12 intervals...")
    series = probe_multipliers(world, api, list(probes), rounds=12)
    components = discover_surge_areas(list(probes), series,
                                      neighbor_distance_m=1300.0)
    meaningful = [c for c in components if len(c) > 1]
    print(f"[areas] discovered {len(meaningful)} surge areas "
          f"(ground truth: {len(config.region.surge_areas)}; singletons "
          f"and never-surging regions may merge or fragment)")

    # ---- 4. supply/demand coupling ----------------------------------
    estimates = estimate_supply_demand(
        log, car_type=CarType.UBERX, boundary=config.region.boundary
    )
    cid = log.client_ids[len(log.client_ids) // 2]
    surge_series = interval_multipliers(
        log.multiplier_series(cid, CarType.UBERX)
    )
    sd_diff = {
        e.interval_index: float(e.supply - e.demand) for e in estimates
    }
    surging_only = {
        i: m for i, m in surge_series.items() if m > 1.0
    }
    if len(surging_only) >= 10:
        points = cross_correlation(surging_only, sd_diff,
                                   max_shift_intervals=6)
        best = strongest_shift(points)
        print(f"\n[coupling] (supply - demand) vs surge: r = "
              f"{best.coefficient:+.2f} at Δt = {best.shift_minutes:+.0f} "
              f"min (p = {best.p_value:.1e})")
    else:
        print("\n[coupling] not enough surging intervals at this client")


if __name__ == "__main__":
    main()
