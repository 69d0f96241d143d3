"""Ablation: the nearest-8 truncation.

Everything about the measurement design — visibility radius, grid
spacing, client count — flows from the Client app returning only the
eight nearest cars.  We vary k and measure the visibility radius: more
cars per response means each client sees further, so fewer clients would
cover the same region.
"""

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.calibrate import visibility_radius
from repro.measurement.fleet import MarketplaceWorld


def radius_for_k(k: int, seed: int = 12):
    config = city_config("manhattan", jitter_probability=0.0)
    engine = MarketplaceEngine(config, seed=seed)
    engine.run(9 * 3600.0)  # mid-morning density
    world = MarketplaceWorld(engine, nearest_k=k)
    center = config.region.bounding_box.center
    return visibility_radius(world, center)


@pytest.fixture(scope="module")
def radii():
    return {k: radius_for_k(k) for k in (4, 8, 16)}


def test_ablation_nearest_k(radii, benchmark):
    benchmark.pedantic(lambda: radius_for_k(8), rounds=1, iterations=1)
    lines = ["nearest_k   visibility_radius_m   grid_clients_at_2r"]
    for k, radius in sorted(radii.items()):
        if radius is None:
            lines.append(f"{k:9d}   (no cars visible)")
            continue
        # Clients needed to tile midtown at spacing 2r.
        from repro.measurement.placement import place_clients
        clients = len(place_clients(
            city_config("manhattan").region, radius_m=radius
        ))
        lines.append(f"{k:9d}   {radius:19.0f}   {clients:18d}")
    write_table("ablation_nearest_k", lines)

    assert all(r is not None for r in radii.values())
    # Monotone: seeing more cars extends the visibility radius.
    assert radii[4] <= radii[8] <= radii[16]
    assert radii[16] > radii[4]
