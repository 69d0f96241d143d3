"""Fig 18: surge areas in Manhattan, recovered from the API.

The paper probes adjacent API locations and clusters those whose
multiplier series stay in lock-step — revealing Uber's manually drawn
surge areas.  We probe the simulated Manhattan during Friday evening
(when it actually surges) and compare the recovered partition against
the ground-truth geometry with a pairwise co-assignment score.
"""

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.api.ratelimit import RateLimiter
from repro.api.rest import RestApi
from repro.geo.grid import grid_cover
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.fleet import MarketplaceWorld
from repro.analysis.areas import (
    area_assignment,
    discover_surge_areas,
    probe_multipliers,
)


def pairwise_agreement(points, assignment, region):
    """Fraction of point pairs co-assigned consistently with truth."""
    truth = {}
    for i, p in enumerate(points):
        area = region.area_of(p)
        if area is not None:
            truth[i] = area.area_id
    ids = sorted(truth)
    agree = total = 0
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            i, j = ids[a], ids[b]
            same_truth = truth[i] == truth[j]
            same_found = assignment.get(i) == assignment.get(j)
            total += 1
            agree += same_truth == same_found
    return agree / total if total else 0.0


def run_discovery(city: str, warmup_hours: float, rounds: int,
                  probe_radius_m: float, seed: int):
    config = city_config(city, jitter_probability=0.0)
    engine = MarketplaceEngine(config, seed=seed)
    engine.run(warmup_hours * 3600.0)
    world = MarketplaceWorld(engine)
    api = RestApi(engine, RateLimiter(limit=10_000_000))
    points = list(grid_cover(config.region.boundary,
                             radius_m=probe_radius_m).points)
    series = probe_multipliers(world, api, points, rounds=rounds)
    components = discover_surge_areas(
        points, series, neighbor_distance_m=probe_radius_m * 2.2
    )
    return config.region, points, series, components


@pytest.fixture(scope="module")
def discovery():
    # Friday 4pm onward: the city's surging stretch.
    return run_discovery("manhattan", warmup_hours=16.0, rounds=30,
                         probe_radius_m=400.0, seed=99)


def test_fig18_areas_mhtn(discovery, benchmark):
    region, points, series, components = discovery
    benchmark.pedantic(
        discover_surge_areas,
        args=(points, series, 880.0),
        rounds=1, iterations=1,
    )
    assignment = area_assignment(points, components)
    agreement = pairwise_agreement(points, assignment, region)
    surging_rounds = sum(
        1 for r in range(len(series[0]))
        if any(s[r] > 1.0 for s in series)
    )
    lines = [
        f"probe points: {len(points)}; rounds: {len(series[0])} "
        f"({surging_rounds} with surge somewhere)",
        f"recovered areas (size >1): "
        f"{sum(1 for c in components if len(c) > 1)}   ground truth: 4",
        f"component sizes: {sorted((len(c) for c in components), reverse=True)}",
        f"pairwise agreement with ground-truth partition: {agreement:.2f}",
    ]
    from repro.viz.heatgrid import labelgrid
    lines.append("")
    lines.append(labelgrid(
        {points[i]: area for i, area in assignment.items()},
        title="recovered surge-area map (Fig 18; letters = areas)",
    ))
    write_table("fig18_areas_mhtn", lines)

    meaningful = [c for c in components if len(c) > 1]
    assert 2 <= len(meaningful) <= 8
    assert agreement > 0.6
