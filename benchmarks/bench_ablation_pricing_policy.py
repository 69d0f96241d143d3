"""Ablation: algorithmic surge vs Sidecar-style driver-set pricing.

The paper's discussion (§5.5) floats replacing the opaque surge
algorithm with Sidecar's free market, where drivers set prices
independently.  We run the same SF day under both policies and compare
what each side of the market experiences:

* temporal price volatility at a fixed probe point (the oscillation the
  paper criticizes in surge);
* the mean multiplier riders actually paid;
* rides fulfilled (did pricing wreck matching?).
"""

import statistics

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.driver_set import DriverSetPricingEngine
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType


def run_policy(engine_cls, hours: float = 10.0, seed: int = 21):
    config = city_config("sf", jitter_probability=0.0)
    engine = engine_cls(config, seed=seed)
    engine.run(6 * 3600.0)  # warm to morning
    probe = config.region.hotspots[0].location
    start_trips = len(engine.completed_trips)
    prices = []
    end = engine.clock.now + hours * 3600.0
    while engine.clock.now < end:
        engine.run(300.0)
        prices.append(engine.true_multiplier(probe, CarType.UBERX))
    trips = engine.completed_trips[start_trips:]
    changes = sum(1 for a, b in zip(prices, prices[1:]) if a != b)
    return {
        "mean_price": statistics.mean(prices),
        "price_stdev": statistics.pstdev(prices),
        "change_rate": changes / max(1, len(prices) - 1),
        "fulfilled": len(trips),
        "mean_paid": (
            statistics.mean(t.surge_multiplier for t in trips)
            if trips else 1.0
        ),
    }


@pytest.fixture(scope="module")
def policies():
    return {
        "surge (measured)": run_policy(MarketplaceEngine),
        "driver-set (sidecar)": run_policy(DriverSetPricingEngine),
    }


def test_ablation_pricing_policy(policies, benchmark):
    benchmark.pedantic(
        lambda: run_policy(MarketplaceEngine, hours=1.0),
        rounds=1, iterations=1,
    )
    lines = ["policy                 mean_price  stdev  change_rate  "
             "fulfilled  mean_paid"]
    for name, stats in policies.items():
        lines.append(
            f"{name:22s} {stats['mean_price']:10.3f}  "
            f"{stats['price_stdev']:5.2f}  {stats['change_rate']:11.2f}"
            f"  {stats['fulfilled']:9d}  {stats['mean_paid']:9.3f}"
        )
    lines.append("paper (§5.5): the free-market approach 'obviates the "
                 "need for a complex, opaque algorithm'")
    write_table("ablation_pricing_policy", lines)

    surge = policies["surge (measured)"]
    sidecar = policies["driver-set (sidecar)"]
    # Both policies keep the marketplace functioning.
    assert sidecar["fulfilled"] > 0.5 * surge["fulfilled"]
    # Driver-set prices drift instead of snapping: per-interval changes
    # still happen (different nearest driver), but the *size* of moves
    # is bounded by one personal step, so dispersion stays moderate.
    assert sidecar["price_stdev"] < max(0.6, 2.0 * surge["price_stdev"])
    assert 0.8 <= sidecar["mean_price"] <= 2.0
