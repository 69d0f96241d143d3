"""Ablation: what each pricing policy does to driver earnings.

The paper's driver-side critique: surge is unpredictable, hurting
"drivers' ability to predict fares" (§1), and its supply incentive is
weak (§5.5).  We run the same SF market under measured surge, the
paper's smoothing proposal, and Sidecar-style driver-set pricing, then
compare driver earnings level, inequality (Gini), surge share, and
hour-to-hour variability.
"""

import dataclasses

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.driver_set import DriverSetPricingEngine
from repro.marketplace.engine import MarketplaceEngine
from repro.analysis.earnings import (
    hourly_variability,
    summarize_earnings,
)


def run_market(variant: str, hours: float = 10.0, seed: int = 77):
    config = city_config("sf", jitter_probability=0.0)
    if variant == "smoothed":
        config = dataclasses.replace(
            config,
            surge=dataclasses.replace(config.surge, smoothing_alpha=0.3),
        )
    engine_cls = (
        DriverSetPricingEngine if variant == "driver-set"
        else MarketplaceEngine
    )
    engine = engine_cls(config, seed=seed)
    engine.run(7 * 3600.0)
    start = engine.clock.now
    engine.run(hours * 3600.0)
    summary = summarize_earnings(engine, window_hours=hours)
    variability = hourly_variability(
        [t for t in engine.completed_trips if t.completed_at >= start]
    )
    return summary, variability


@pytest.fixture(scope="module")
def variants():
    return {
        name: run_market(name)
        for name in ("surge", "smoothed", "driver-set")
    }


def test_ablation_driver_earnings(variants, benchmark):
    benchmark.pedantic(lambda: run_market("surge", hours=1.0),
                       rounds=1, iterations=1)
    lines = ["policy      drivers  mean_$/h  median_$/h  gini  "
             "surge_share  hourly_cv"]
    for name, (summary, variability) in variants.items():
        lines.append(
            f"{name:10s}  {summary.drivers:7d}  "
            f"{summary.mean_hourly_usd:8.2f}  "
            f"{summary.median_hourly_usd:10.2f}  {summary.gini:4.2f}  "
            f"{summary.surge_share:11.2f}  {variability:9.2f}"
        )
    write_table("ablation_driver_earnings", lines)

    surge_summary, _ = variants["surge"]
    smoothed_summary, _ = variants["smoothed"]
    sidecar_summary, _ = variants["driver-set"]
    # All three policies sustain a living for drivers in the same market.
    for summary in (surge_summary, smoothed_summary, sidecar_summary):
        assert summary.mean_hourly_usd > 1.0
        assert 0.0 <= summary.gini < 0.9
    # Surge pricing extracts a visible premium; the premium shrinks or
    # holds under smoothing (prices move less far from 1).
    assert surge_summary.surge_share > 0.0
    assert smoothed_summary.surge_share <= surge_summary.surge_share + 0.05
