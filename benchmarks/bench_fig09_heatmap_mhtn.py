"""Fig 9: Manhattan heatmaps — cars seen and EWT per client cell.

Cars skew toward Times Square / 5th Avenue; EWT relates to density in a
complex way (some dense cells are still under-supplied).
"""

import math

from _shared import write_table
from repro.marketplace.config import city_config
from repro.analysis.heatmap import client_heatmap, render_grid


def test_fig09_heatmap_mhtn(mhtn_campaign, benchmark):
    cells = benchmark(client_heatmap, mhtn_campaign)
    lines = ["avg unique UberX ids per day, per client cell "
             "(north at top):", render_grid(cells, value="cars"),
             "", "avg EWT minutes:", render_grid(cells, value="ewt")]
    write_table("fig09_heatmap_mhtn", lines)

    region = city_config("manhattan").region
    hotspot = region.hotspots[0].location  # Times Square
    by_dist = sorted(
        cells, key=lambda c: c.location.fast_distance_m(hotspot)
    )
    near = [c.unique_cars_per_day for c in by_dist[:5]]
    far = [c.unique_cars_per_day for c in by_dist[-5:]]
    # Cars congregate around the main hotspot (Fig 9a).
    assert sum(near) / 5 > sum(far) / 5
    # Every cell saw cars and has a finite EWT.
    assert all(c.unique_cars_per_day > 0 for c in cells)
    assert all(
        c.mean_ewt_minutes is not None
        and not math.isnan(c.mean_ewt_minutes)
        for c in cells
    )
