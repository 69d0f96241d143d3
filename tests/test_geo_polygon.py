"""Tests for bounding boxes, polygons and the batched first-match kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.latlon import LatLon
from repro.geo.polygon import BoundingBox, Polygon, PolygonSet
from repro.geo.regions import downtown_sf, midtown_manhattan

BOX = BoundingBox(south=40.70, west=-74.01, north=40.72, east=-73.98)


def square(center: LatLon, half_m: float) -> Polygon:
    sw = center.offset(-half_m, -half_m)
    ne = center.offset(half_m, half_m)
    return BoundingBox(sw.lat, sw.lon, ne.lat, ne.lon).to_polygon()


class TestBoundingBox:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            BoundingBox(south=1.0, west=0.0, north=0.0, east=1.0)
        with pytest.raises(ValueError):
            BoundingBox(south=0.0, west=1.0, north=1.0, east=0.0)

    def test_contains(self):
        assert BOX.contains(LatLon(40.71, -74.00))
        assert not BOX.contains(LatLon(40.73, -74.00))
        assert BOX.contains(LatLon(40.70, -74.01))  # corners included

    def test_around(self):
        pts = [LatLon(0.0, 0.0), LatLon(1.0, 2.0), LatLon(-1.0, 1.0)]
        box = BoundingBox.around(pts)
        assert box.south == -1.0 and box.north == 1.0
        assert box.west == 0.0 and box.east == 2.0

    def test_around_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.around([])

    def test_dimensions_in_metres(self):
        # 0.02 deg of latitude ~ 2.22 km.
        assert BOX.height_m() == pytest.approx(2224.0, rel=0.01)
        assert BOX.width_m() == pytest.approx(
            BOX.height_m() * 1.5 * math.cos(math.radians(40.71)), rel=0.01
        )

    def test_center(self):
        c = BOX.center
        assert BOX.contains(c)
        assert c.lat == pytest.approx((BOX.south + BOX.north) / 2)


class TestPolygon:
    def test_requires_three_vertices(self):
        with pytest.raises(ValueError):
            Polygon([LatLon(0, 0), LatLon(1, 1)])

    def test_contains_square(self):
        poly = BOX.to_polygon()
        assert poly.contains(LatLon(40.71, -74.0))
        assert not poly.contains(LatLon(40.73, -74.0))
        assert not poly.contains(LatLon(40.71, -74.05))

    def test_contains_concave(self):
        # L-shaped polygon: notch in the NE corner.
        poly = Polygon([
            LatLon(0.0, 0.0), LatLon(0.0, 2.0), LatLon(1.0, 2.0),
            LatLon(1.0, 1.0), LatLon(2.0, 1.0), LatLon(2.0, 0.0),
        ])
        assert poly.contains(LatLon(0.5, 0.5))
        assert poly.contains(LatLon(0.5, 1.5))
        assert not poly.contains(LatLon(1.5, 1.5))  # in the notch

    def test_area_of_square(self):
        # The shoelace area that centroid() weights by, in squared
        # degrees: a box's is its width times its height.
        poly = square(LatLon(40.71, -74.0), half_m=500.0)
        box = poly.bounding_box
        assert abs(poly.signed_area_deg2()) == pytest.approx(
            (box.north - box.south) * (box.east - box.west), rel=1e-9
        )

    def test_centroid_of_square_is_center(self):
        center = LatLon(40.71, -74.0)
        poly = square(center, half_m=400.0)
        c = poly.centroid()
        assert c.fast_distance_m(center) < 1.0

    def test_centroid_inside_convex_polygon(self):
        poly = Polygon([
            LatLon(0.0, 0.0), LatLon(0.0, 1.0), LatLon(1.0, 1.5),
            LatLon(2.0, 1.0), LatLon(1.5, 0.0),
        ])
        assert poly.contains(poly.centroid())

    def test_edges_count(self):
        poly = BOX.to_polygon()
        assert len(poly.edges()) == 4

    @given(
        dlat=st.floats(min_value=-0.009, max_value=0.009),
        dlon=st.floats(min_value=-0.009, max_value=0.009),
    )
    @settings(max_examples=60)
    def test_contains_agrees_with_bbox_for_rectangles(self, dlat, dlon):
        poly = BOX.to_polygon()
        p = LatLon(40.71 + dlat, -73.995 + dlon)
        # Strictly inside / strictly outside (skip boundary cases).
        if (
            abs(p.lat - BOX.south) > 1e-6
            and abs(p.lat - BOX.north) > 1e-6
            and abs(p.lon - BOX.west) > 1e-6
            and abs(p.lon - BOX.east) > 1e-6
        ):
            assert poly.contains(p) == BOX.contains(p)


class TestBoundaryDistance:
    def test_interior_point_distance(self):
        poly = square(LatLon(40.71, -74.0), half_m=500.0)
        d = poly.distance_to_boundary_m(LatLon(40.71, -74.0))
        assert d == pytest.approx(500.0, rel=0.02)

    def test_exterior_point_distance(self):
        center = LatLon(40.71, -74.0)
        poly = square(center, half_m=500.0)
        outside = center.offset(0.0, 800.0)
        assert poly.distance_to_boundary_m(outside) == pytest.approx(
            300.0, rel=0.05
        )

    def test_closest_boundary_point_is_on_boundary(self):
        center = LatLon(40.71, -74.0)
        poly = square(center, half_m=500.0)
        outside = center.offset(0.0, 900.0)
        cp = poly.closest_boundary_point(outside)
        assert poly.distance_to_boundary_m(cp) < 1.0
        # And it is the eastern edge that is closest.
        assert cp.fast_distance_m(outside) == pytest.approx(400.0, rel=0.05)


def brute_codes(polys, lats, lons):
    """The first-match scan, one point at a time: index of the first
    polygon containing each point, or -1."""
    return [
        next(
            (k for k, poly in enumerate(polys) if poly.contains(LatLon(a, o))),
            -1,
        )
        for a, o in zip(lats, lons)
    ]


def assert_matches_brute(polys, points):
    """PolygonSet equals the brute scan on *points* as one batch, and on
    each point alone."""
    kernel = PolygonSet(polys)
    lats = np.array([p.lat for p in points], dtype=np.float64)
    lons = np.array([p.lon for p in points], dtype=np.float64)
    codes = kernel.first_match(lats, lons)
    assert codes.dtype == np.int64
    assert codes.tolist() == brute_codes(polys, lats, lons)
    for a, o in zip(lats, lons):
        single = kernel.first_match(np.array([a]), np.array([o]))
        assert single.tolist() == brute_codes(polys, [a], [o])


def edge_probes(polys, fracs=(0.5,)):
    """Every vertex, and a point at each fraction along each edge, with
    the ``np.nextafter`` neighbours of its latitude and longitude.  An
    edge point off a horizontal edge takes its longitude from
    :meth:`Polygon.contains`'s crossing formula, so the ray test of
    each neighbour is decided by the last ulp."""
    base = []
    for poly in polys:
        verts = poly.vertices
        base.extend(verts)
        for i, vi in enumerate(verts):
            vj = verts[i - 1]
            for f in fracs:
                lat = vi.lat + f * (vj.lat - vi.lat)
                if vi.lat == vj.lat:
                    lon = vi.lon + f * (vj.lon - vi.lon)
                else:
                    lon = vi.lon + (lat - vi.lat) / (vj.lat - vi.lat) * (
                        vj.lon - vi.lon
                    )
                base.append(LatLon(lat, lon))
    steps = (-math.inf, 0.0, math.inf)
    return [
        LatLon(
            p.lat if dlat == 0.0 else float(np.nextafter(p.lat, dlat)),
            p.lon if dlon == 0.0 else float(np.nextafter(p.lon, dlon)),
        )
        for p in base
        for dlat in steps
        for dlon in steps
    ]


# A ~11 km box around lower Manhattan keeps coordinates in the regime
# the simulator actually uses.
LAT0, LAT1 = 40.70, 40.80
LON0, LON1 = -74.02, -73.92
# Queries may land outside the populated box (edge-of-city clients).
query_st = st.builds(
    LatLon,
    st.floats(LAT0 - 0.05, LAT1 + 0.05, allow_nan=False),
    st.floats(LON0 - 0.05, LON1 + 0.05, allow_nan=False),
)


@st.composite
def area_polys(draw):
    """A rectangle or triangle somewhere in the box (overlaps allowed)."""
    lat = draw(st.floats(LAT0, LAT1 - 0.03, allow_nan=False))
    lon = draw(st.floats(LON0, LON1 - 0.03, allow_nan=False))
    if draw(st.booleans()):
        h = draw(st.floats(0.002, 0.03, allow_nan=False))
        w = draw(st.floats(0.002, 0.03, allow_nan=False))
        return Polygon(
            [
                LatLon(lat, lon),
                LatLon(lat, lon + w),
                LatLon(lat + h, lon + w),
                LatLon(lat + h, lon),
            ]
        )
    dl = st.floats(0.0, 0.03, allow_nan=False)
    return Polygon(
        [
            LatLon(lat, lon + draw(dl)),
            LatLon(lat + draw(dl), lon + 0.03),
            LatLon(lat + 0.03, lon + draw(dl)),
        ]
    )


@st.composite
def wide_polys(draw):
    """A triangle or quadrilateral with vertices in [-3, 3]²."""
    coord = st.floats(-3.0, 3.0, allow_nan=False)
    n = draw(st.integers(3, 4))
    return Polygon([LatLon(draw(coord), draw(coord)) for _ in range(n)])


class TestPolygonSetMatchesBruteScan:
    @settings(max_examples=25, deadline=None)
    @given(
        polys=st.lists(area_polys(), max_size=5),
        queries=st.lists(query_st, max_size=25),
    )
    def test_first_match_equals_brute_scan(self, polys, queries):
        """Overlapping polygons resolve to the first in list order."""
        assert_matches_brute(polys, queries)

    @settings(max_examples=25, deadline=None)
    @given(polys=st.lists(area_polys(), min_size=1, max_size=4))
    def test_vertices_resolve_like_brute_scan(self, polys):
        assert_matches_brute(
            polys, [v for poly in polys for v in poly.vertices]
        )

    @settings(max_examples=40, deadline=None)
    @given(
        polys=st.lists(wide_polys(), min_size=1, max_size=3),
        fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    )
    def test_edge_probes_resolve_like_brute_scan(self, polys, fracs):
        """Around zero and across binades a coordinate difference is
        inexact, so only contains()'s exact float order gives its
        answer at points an ulp from an edge."""
        assert_matches_brute(polys, edge_probes(polys, fracs))

    def test_crossing_rounded_past_the_box_stays_outside(self):
        """An edge's crossing longitude can round an ulp west of the
        polygon's box.  The point an ulp west of the west vertex then
        crosses one edge, not two; contains() rejects it by its box
        test, and so must the kernel."""
        west = LatLon(1.0, 0.3)
        poly = Polygon([west, LatLon(2.0, 3.7), LatLon(2.5, 0.5)])
        probe = LatLon(1.0, float(np.nextafter(0.3, -math.inf)))
        assert not poly.contains(probe)
        assert_matches_brute([poly], [probe])

    def test_far_corner_vertex_is_outside(self):
        """The top-right vertex sits on the box's far corner; ray
        casting leaves it outside, and so must the kernel."""
        south, north = 40.76036839380743, 40.770462548382305
        west, east = -74.0, -73.99582346632819
        poly = Polygon(
            [
                LatLon(south, west),
                LatLon(south, east),
                LatLon(north, east),
                LatLon(north, west),
            ]
        )
        assert not poly.contains(LatLon(north, east))
        codes = PolygonSet([poly]).first_match(
            np.array([north]), np.array([east])
        )
        assert codes.tolist() == [-1]

    def test_empty_polygon_set(self):
        kernel = PolygonSet([])
        for n in (0, 1, 5):
            codes = kernel.first_match(np.full(n, 40.75), np.full(n, -73.98))
            assert codes.dtype == np.int64
            assert codes.tolist() == [-1] * n

    def test_far_outside_bbox_is_minus_one(self):
        poly = Polygon(
            [
                LatLon(40.70, -74.00),
                LatLon(40.70, -73.98),
                LatLon(40.72, -73.98),
                LatLon(40.72, -74.00),
            ]
        )
        codes = PolygonSet([poly]).first_match(
            np.array([41.5, 40.71]), np.array([-74.0, -73.99])
        )
        assert codes.tolist() == [-1, 0]


REGIONS = {"manhattan": midtown_manhattan(), "sf": downtown_sf()}


@st.composite
def surge_area_batches(draw):
    """A city, and a batch of 0, 1 or many points over its box ±0.01°
    mixing random points with edge probes."""
    city = draw(st.sampled_from(sorted(REGIONS)))
    region = REGIONS[city]
    box = region.bounding_box
    random_points = st.builds(
        LatLon,
        st.floats(box.south - 0.01, box.north + 0.01, allow_nan=False),
        st.floats(box.west - 0.01, box.east + 0.01, allow_nan=False),
    )
    probes = st.sampled_from(
        edge_probes([a.polygon for a in region.surge_areas])
    )
    size = draw(st.sampled_from([0, 1, 60]))
    points = draw(
        st.lists(st.one_of(random_points, probes), min_size=size,
                 max_size=size)
    )
    return city, points


class TestPolygonSetOnSurgeAreas:
    @pytest.mark.parametrize("city", sorted(REGIONS))
    def test_every_edge_probe(self, city):
        polys = [a.polygon for a in REGIONS[city].surge_areas]
        assert_matches_brute(polys, edge_probes(polys))

    @settings(max_examples=40, deadline=None)
    @given(batch=surge_area_batches())
    def test_matches_brute_scan(self, batch):
        city, points = batch
        polys = [a.polygon for a in REGIONS[city].surge_areas]
        assert_matches_brute(polys, points)
