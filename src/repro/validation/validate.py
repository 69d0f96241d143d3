"""Scoring the measurement methodology against taxi ground truth (§3.5).

The fleet measures the taxi replayer exactly as it measures Uber; the
replayer's trace yields known per-interval supply and demand.  The paper
reports its clients "capture 97 % of cars and 95 % of deaths", with the
measured and ground-truth series nearly indistinguishable (Fig 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.geo.polygon import Polygon
from repro.geo.regions import midtown_manhattan
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, TaxiWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog
from repro.taxi.generator import TaxiGeneratorParams, TaxiTraceGenerator
from repro.taxi.replay import TaxiReplayServer
from repro.analysis.supply_demand import estimate_supply_demand


@dataclass(frozen=True)
class ValidationReport:
    """Capture rates and per-interval series for Fig 4."""

    car_capture: float
    death_capture: float
    intervals: List[Tuple[int, int, int, int, int]]
    # (interval_index, measured_supply, true_supply,
    #  measured_demand, true_demand)

    @property
    def supply_correlation(self) -> float:
        measured = [row[1] for row in self.intervals]
        truth = [row[2] for row in self.intervals]
        if len(measured) < 3:
            return float("nan")
        return float(np.corrcoef(measured, truth)[0, 1])

    @property
    def demand_correlation(self) -> float:
        measured = [row[3] for row in self.intervals]
        truth = [row[4] for row in self.intervals]
        if len(measured) < 3:
            return float("nan")
        return float(np.corrcoef(measured, truth)[0, 1])


def validate_against_taxis(
    log: CampaignLog,
    replay: TaxiReplayServer,
    boundary: Optional[Polygon] = None,
    interval_s: float = 300.0,
    edge_margin_m: float = 100.0,
) -> ValidationReport:
    """Compare fleet estimates over *log* with the replayer's truth.

    The first and last intervals are trimmed (partially observed).
    Capture rates are ratios of totals across the compared window; they
    can exceed 1 slightly for demand because offline events are
    indistinguishable from bookings (§3.3 case 3 — the estimate is an
    upper bound).
    """
    estimates = estimate_supply_demand(
        log,
        car_type=CarType.UBERT,
        boundary=boundary,
        interval_s=interval_s,
        min_lifespan_s=60.0,
        edge_margin_m=edge_margin_m,
    )
    if len(estimates) < 3:
        raise ValueError("campaign too short to validate (need >2 intervals)")
    estimates = estimates[1:-1]
    start = estimates[0].interval_index * interval_s
    end = (estimates[-1].interval_index + 1) * interval_s
    truth = replay.ground_truth(
        start, end, interval_s,
        interior_of=boundary, edge_margin_m=edge_margin_m,
    )
    truth_by_idx = {t.interval_index: t for t in truth}

    rows: List[Tuple[int, int, int, int, int]] = []
    measured_cars = true_cars = measured_deaths = true_deaths = 0
    for est in estimates:
        gt = truth_by_idx.get(est.interval_index)
        if gt is None:
            continue
        rows.append(
            (
                est.interval_index,
                est.supply,
                gt.distinct_cabs,
                est.demand,
                gt.bookings,
            )
        )
        measured_cars += est.supply
        true_cars += gt.distinct_cabs
        measured_deaths += est.demand
        true_deaths += gt.bookings
    return ValidationReport(
        car_capture=(measured_cars / true_cars) if true_cars else 0.0,
        death_capture=(
            (measured_deaths / true_deaths) if true_deaths else 0.0
        ),
        intervals=rows,
    )


def run_taxi_validation(
    cabs: int, hours: float, ping_interval_s: float, seed: int
) -> ValidationReport:
    """The §3.5 experiment end to end: trace, replay, measure, score.

    Generates one day of trips for *cabs* cabs in midtown Manhattan,
    replays it behind the ping API, measures it from 9 am for *hours*
    with a fleet on a 100 m grid pinging every *ping_interval_s*
    seconds, and scores the log with :func:`validate_against_taxis`.
    ``repro validate`` and the Fig 4 bench both run it.
    """
    region = midtown_manhattan()
    generator = TaxiTraceGenerator(
        TaxiGeneratorParams(fleet_size=cabs, days=1.0),
        seed=seed, region=region,
    )
    replay = TaxiReplayServer(generator.generate(), seed=seed)
    fleet = Fleet(place_clients(region, radius_m=100.0),
                  ping_interval_s=ping_interval_s)
    log = fleet.run(TaxiWorld(replay), duration_s=hours * 3600.0,
                    city="taxi", warmup_s=9 * 3600.0)
    return validate_against_taxis(log, replay, boundary=region.boundary)
