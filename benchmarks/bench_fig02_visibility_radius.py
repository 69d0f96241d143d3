"""Fig 2: visibility radius of clients through the day, both cities.

The paper measured the distance to the furthest of the 8 returned cars
via the 4-client walk-outward experiment, repeated through the day:
Manhattan averaged 247 m, SF 387 m, with a clear night/day swing in SF.
We run the same experiment against the simulated marketplaces every two
simulated hours.
"""

import statistics

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.calibrate import visibility_radius_profile
from repro.measurement.fleet import MarketplaceWorld


def profile_for(city: str):
    config = city_config(city, jitter_probability=0.0)
    engine = MarketplaceEngine(config, seed=2)
    world = MarketplaceWorld(engine)
    center = config.region.bounding_box.center
    return visibility_radius_profile(
        world, center, sample_every_s=2 * 3600.0, duration_s=86_400.0
    )


@pytest.fixture(scope="module")
def profiles():
    return {city: profile_for(city) for city in ("manhattan", "sf")}


def test_fig02_visibility_radius(profiles, benchmark):
    benchmark.pedantic(
        lambda: profile_for("manhattan"), rounds=1, iterations=1
    )
    lines = ["hour   manhattan_r_m   sf_r_m"]
    means = {}
    for city in ("manhattan", "sf"):
        values = [r for _, r in profiles[city] if r is not None]
        means[city] = statistics.mean(values) if values else float("nan")
    for (t_m, r_m), (_, r_s) in zip(profiles["manhattan"], profiles["sf"]):
        hour = (t_m % 86_400.0) / 3600.0
        fmt = lambda r: "   n/a" if r is None else f"{r:6.0f}"
        lines.append(f"{hour:4.0f}   {fmt(r_m)}          {fmt(r_s)}")
    lines.append(
        f"mean   {means['manhattan']:6.0f}          {means['sf']:6.0f}"
    )
    lines.append("paper:    247             387")
    write_table("fig02_visibility_radius", lines)

    # Shape: radii are a few hundred metres, and SF (larger region,
    # similar car density) sees at least Manhattan-scale radii.
    assert 50.0 < means["manhattan"] < 1500.0
    assert 50.0 < means["sf"] < 2500.0
    assert means["sf"] > 0.6 * means["manhattan"]
