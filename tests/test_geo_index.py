"""Property tests: spatial indexes vs their brute-force references.

The dispatcher and ping endpoint replaced linear scans with
:class:`PointIndex` / :class:`AreaIndex` on the promise of *exact*
behavioural equivalence — same results, same ``(distance, id)``
tie-break, same first-match area resolution.  These tests hold the
indexes to that promise under randomized fleets, moves, removals,
off-grid queries, and overlapping polygons.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.index import METERS_PER_DEG_LAT, AreaIndex, PointIndex
from repro.geo.latlon import LatLon
from repro.geo.polygon import Polygon

# A ~11 km box around lower Manhattan keeps coordinates in the regime
# the simulator actually uses.
LAT0, LAT1 = 40.70, 40.80
LON0, LON1 = -74.02, -73.92

lat_st = st.floats(LAT0, LAT1, allow_nan=False)
lon_st = st.floats(LON0, LON1, allow_nan=False)
point_st = st.builds(LatLon, lat_st, lon_st)
# Queries may land outside the populated box (edge-of-city clients).
q_lat_st = st.floats(LAT0 - 0.05, LAT1 + 0.05, allow_nan=False)
q_lon_st = st.floats(LON0 - 0.05, LON1 + 0.05, allow_nan=False)
query_st = st.builds(LatLon, q_lat_st, q_lon_st)

REF_LAT = (LAT0 + LAT1) / 2.0


def make_index(metric: str, cell_m: float) -> PointIndex:
    if metric == "planar":
        return PointIndex(
            cell_m=cell_m,
            metric="planar",
            deg_lat_m=METERS_PER_DEG_LAT,
            deg_lon_m=METERS_PER_DEG_LAT * math.cos(math.radians(REF_LAT)),
        )
    return PointIndex(cell_m=cell_m, ref_lat=REF_LAT)


def brute_nearest(index, points, query, k, predicate=None):
    found = [
        (index._distance(loc, query), pid, payload)
        for pid, (loc, payload) in points.items()
        if predicate is None or predicate(payload)
    ]
    found.sort()
    return found[:k]


@st.composite
def fleet_histories(draw):
    """An insert/move/remove history plus the surviving ground truth."""
    n = draw(st.integers(min_value=0, max_value=120))
    inserts = [(i, draw(point_st)) for i in range(n)]
    moved = draw(
        st.lists(st.integers(0, n - 1), max_size=n, unique=True)
        if n
        else st.just([])
    )
    moves = [(i, draw(point_st)) for i in moved]
    removed = draw(
        st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True)
        if n
        else st.just([])
    )
    return inserts, moves, removed


class TestPointIndexMatchesBruteForce:
    @settings(max_examples=40, deadline=None)
    @given(
        history=fleet_histories(),
        metric=st.sampled_from(["equirect", "planar"]),
        cell_m=st.sampled_from([40.0, 120.0, 250.0]),
        queries=st.lists(query_st, min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=12),
    )
    def test_nearest_k(self, history, metric, cell_m, queries, k):
        inserts, moves, removed = history
        index = make_index(metric, cell_m)
        points = {}
        for pid, loc in inserts:
            index.insert(pid, loc, payload=pid * 10)
            points[pid] = (loc, pid * 10)
        for pid, loc in moves:
            index.move(pid, loc)
            points[pid] = (loc, points[pid][1])
        for pid in removed:
            index.remove(pid)
            del points[pid]
        assert len(index) == len(points)
        for query in queries:
            got = index.nearest_k(query, k)
            assert got == brute_nearest(index, points, query, k)
            # Predicate form must filter *before* ranking.
            pred = lambda payload: (payload // 10) % 2 == 0
            got_pred = index.nearest_k(query, k, predicate=pred)
            assert got_pred == brute_nearest(
                index, points, query, k, predicate=pred
            )

    def test_empty_and_nonpositive_k(self):
        index = make_index("equirect", 120.0)
        center = LatLon(REF_LAT, (LON0 + LON1) / 2.0)
        assert index.nearest_k(center, 5) == []
        index.insert("a", center)
        assert index.nearest_k(center, 0) == []

    def test_duplicate_insert_rejected(self):
        index = make_index("equirect", 120.0)
        index.insert("a", LatLon(40.75, -73.98))
        with pytest.raises(ValueError):
            index.insert("a", LatLon(40.76, -73.97))

    def test_membership_and_location(self):
        index = make_index("equirect", 120.0)
        loc = LatLon(40.75, -73.98)
        index.insert("a", loc)
        assert "a" in index
        assert index.location_of("a") == loc
        moved = LatLon(40.751, -73.981)
        index.move("a", moved)
        assert index.location_of("a") == moved
        index.remove("a")
        assert "a" not in index
        with pytest.raises(KeyError):
            index.remove("a")


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


class TestAreaIndexMatchesBruteForce:
    @settings(max_examples=25, deadline=None)
    @given(
        polys=st.lists(area_polys(), max_size=5),
        queries=st.lists(query_st, min_size=1, max_size=25),
    )
    def test_locate_is_first_match(self, polys, queries):
        areas = [(area_id, poly) for area_id, poly in enumerate(polys)]
        index = AreaIndex(areas, cell_m=300.0)
        for query in queries:
            expected = next(
                (
                    area_id
                    for area_id, poly in areas
                    if poly.contains(query)
                ),
                None,
            )
            assert index.locate(query) == expected

    @settings(max_examples=25, deadline=None)
    @given(polys=st.lists(area_polys(), min_size=1, max_size=4))
    def test_vertices_resolve_like_brute_force(self, polys):
        """Edge-adjacent points land in boundary cells → exact ray cast."""
        areas = [(area_id, poly) for area_id, poly in enumerate(polys)]
        index = AreaIndex(areas, cell_m=300.0)
        for _, poly in areas:
            for vertex in poly.vertices:
                expected = next(
                    (
                        area_id
                        for area_id, p in areas
                        if p.contains(vertex)
                    ),
                    None,
                )
                assert index.locate(vertex) == expected

    def test_far_grid_corner_is_a_boundary_cell(self):
        """Float-rebuilt cell bounds fall an ulp short of the grid edge.

        The top-right vertex sits on that edge; ray casting leaves it
        outside, so its cell must not be labelled with the area.
        """
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
        index = AreaIndex([(0, poly)], cell_m=300.0)
        corner = LatLon(north, east)
        assert not poly.contains(corner)
        assert index.locate(corner) is None
        assert index.locate_batch(
            np.array([north]), np.array([east])
        ) == [None]

    def test_empty_area_set(self):
        index = AreaIndex([])
        assert index.locate(LatLon(40.75, -73.98)) is None
        assert index.cell_count == 0

    def test_far_outside_bbox_is_none(self):
        poly = Polygon(
            [
                LatLon(40.70, -74.00),
                LatLon(40.70, -73.98),
                LatLon(40.72, -73.98),
                LatLon(40.72, -74.00),
            ]
        )
        index = AreaIndex([(7, poly)])
        assert index.locate(LatLon(41.5, -74.0)) is None
        assert index.locate(LatLon(40.71, -73.99)) == 7
