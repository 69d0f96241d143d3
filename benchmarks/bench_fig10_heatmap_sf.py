"""Fig 10: SF heatmaps — cars seen and EWT per client cell.

UberX density peaks around the Financial District / Embarcadero corner
of the region, with a secondary cluster at UCSF (Fig 10a).
"""

from _shared import write_table
from repro.marketplace.config import city_config
from repro.analysis.heatmap import client_heatmap, render_grid


def test_fig10_heatmap_sf(sf_campaign, benchmark):
    cells = benchmark(client_heatmap, sf_campaign)
    lines = ["avg unique UberX ids per day, per client cell "
             "(north at top):", render_grid(cells, value="cars"),
             "", "avg EWT minutes:", render_grid(cells, value="ewt")]
    write_table("fig10_heatmap_sf", lines)

    region = city_config("sf").region
    fidi = region.hotspots[0].location  # Financial District
    by_dist = sorted(
        cells, key=lambda c: c.location.fast_distance_m(fidi)
    )
    near = [c.unique_cars_per_day for c in by_dist[:5]]
    far = [c.unique_cars_per_day for c in by_dist[-5:]]
    assert sum(near) / 5 > sum(far) / 5
    assert all(c.unique_cars_per_day > 0 for c in cells)
