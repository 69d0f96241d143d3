"""Tests for grid covers and the two city models."""

import pytest

from repro.geo.grid import coverage_fraction, grid_cover, hex_grid_cover
from repro.geo.latlon import LatLon
from repro.geo.polygon import BoundingBox
from repro.geo.regions import downtown_sf, midtown_manhattan

REGION = BoundingBox(
    south=40.700, west=-74.010, north=40.715, east=-73.993
).to_polygon()


class TestGridCover:
    def test_square_cover_has_full_coverage(self):
        spec = grid_cover(REGION, radius_m=200.0)
        assert len(spec.points) > 4
        assert coverage_fraction(spec, samples_per_axis=25) == 1.0

    def test_hex_cover_has_full_coverage(self):
        spec = hex_grid_cover(REGION, radius_m=200.0)
        assert coverage_fraction(spec, samples_per_axis=25) == 1.0

    def test_hex_needs_fewer_clients_than_square(self):
        square = grid_cover(REGION, radius_m=150.0)
        hexagonal = hex_grid_cover(REGION, radius_m=150.0)
        assert len(hexagonal.points) < len(square.points)

    def test_larger_radius_needs_fewer_clients(self):
        small = grid_cover(REGION, radius_m=150.0)
        large = grid_cover(REGION, radius_m=350.0)
        assert len(large.points) < len(small.points)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            grid_cover(REGION, radius_m=0.0)

    def test_all_points_near_region(self):
        spec = grid_cover(REGION, radius_m=200.0)
        for p in spec.points:
            assert (
                REGION.contains(p)
                or REGION.distance_to_boundary_m(p) <= 200.0
            )


class TestCityRegions:
    @pytest.mark.parametrize("region_fn", [midtown_manhattan, downtown_sf])
    def test_surge_areas_partition_region(self, region_fn):
        """Every interior sample point belongs to exactly one surge area."""
        region = region_fn()
        box = region.bounding_box
        hits = 0
        for i in range(15):
            for j in range(15):
                p = LatLon(
                    box.south + (box.north - box.south) * (i + 0.5) / 15,
                    box.west + (box.east - box.west) * (j + 0.5) / 15,
                )
                containing = [
                    a.area_id for a in region.surge_areas if a.contains(p)
                ]
                assert len(containing) <= 1
                if containing:
                    hits += 1
                    assert region.area_of(p).area_id == containing[0]
        # Partition boundaries can swallow individual samples; nearly all
        # interior points must land in exactly one area.
        assert hits >= 0.95 * 15 * 15

    @pytest.mark.parametrize("region_fn", [midtown_manhattan, downtown_sf])
    def test_four_areas_each(self, region_fn):
        assert len(region_fn().surge_areas) == 4

    @pytest.mark.parametrize("region_fn", [midtown_manhattan, downtown_sf])
    def test_hotspots_inside_boundary(self, region_fn):
        region = region_fn()
        for hotspot in region.hotspots:
            assert region.boundary.contains(hotspot.location), hotspot.name

    @pytest.mark.parametrize("region_fn", [midtown_manhattan, downtown_sf])
    def test_adjacency_is_symmetric(self, region_fn):
        adj = region_fn().adjacency()
        for area, neighbors in adj.items():
            for n in neighbors:
                assert area in adj[n]
            assert area not in neighbors  # no self-adjacency

    def test_quadrants_are_mutually_adjacent(self):
        # The quad split around a pivot makes all four areas touch.
        adj = midtown_manhattan().adjacency()
        for neighbors in adj.values():
            assert len(neighbors) == 3

    def test_sf_region_is_larger(self):
        # Both boundaries are rectangles: each is its own bounding box.
        sf = downtown_sf().boundary.bounding_box
        mhtn = midtown_manhattan().boundary.bounding_box
        assert sf.width_m() * sf.height_m() > (
            1.5 * mhtn.width_m() * mhtn.height_m()
        )

    def test_sf_radius_is_larger(self):
        assert downtown_sf().client_radius_m > midtown_manhattan().client_radius_m

    def test_area_by_id_raises_on_unknown(self):
        with pytest.raises(KeyError):
            midtown_manhattan().area_by_id(99)

    def test_area_of_outside_returns_none(self):
        assert midtown_manhattan().area_of(LatLon(0.0, 0.0)) is None
