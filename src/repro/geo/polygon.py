"""Polygons and bounding boxes on the lat/lon plane.

Surge areas in the paper are "odd-shaped" manually drawn polygons (Figs 18
and 19).  At city scale we can treat latitude/longitude as a flat plane,
which makes point-in-polygon a plain ray cast and areas/centroids the
standard shoelace formulas (scaled to metres using the local metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.geo.latlon import EARTH_RADIUS_M, LatLon, planar_distance


@dataclass(frozen=True)
class BoundingBox:
    """An axis-aligned lat/lon rectangle."""

    south: float
    west: float
    north: float
    east: float

    def __post_init__(self) -> None:
        if self.south > self.north:
            raise ValueError("south must not exceed north")
        if self.west > self.east:
            raise ValueError("west must not exceed east")

    @classmethod
    def around(cls, points: Iterable[LatLon]) -> "BoundingBox":
        """Smallest box containing every point."""
        pts = list(points)
        if not pts:
            raise ValueError("cannot bound an empty set of points")
        return cls(
            south=min(p.lat for p in pts),
            west=min(p.lon for p in pts),
            north=max(p.lat for p in pts),
            east=max(p.lon for p in pts),
        )

    def contains(self, p: LatLon) -> bool:
        return self.south <= p.lat <= self.north and self.west <= p.lon <= self.east

    @property
    def center(self) -> LatLon:
        return LatLon(
            (self.south + self.north) / 2.0, (self.west + self.east) / 2.0
        )

    @property
    def corners(self) -> Tuple[LatLon, LatLon, LatLon, LatLon]:
        """SW, NW, NE, SE corners (counter-clockwise)."""
        return (
            LatLon(self.south, self.west),
            LatLon(self.north, self.west),
            LatLon(self.north, self.east),
            LatLon(self.south, self.east),
        )

    def width_m(self) -> float:
        """East-west extent in metres measured at the box's mid latitude."""
        mid = math.radians((self.south + self.north) / 2.0)
        return (
            math.radians(self.east - self.west)
            * EARTH_RADIUS_M
            * math.cos(mid)
        )

    def height_m(self) -> float:
        """North-south extent in metres."""
        return math.radians(self.north - self.south) * EARTH_RADIUS_M

    def to_polygon(self) -> "Polygon":
        return Polygon(list(self.corners))


@dataclass(frozen=True)
class Polygon:
    """A simple (non-self-intersecting) polygon of lat/lon vertices.

    Vertices may be listed in either winding order; the closing edge back
    to the first vertex is implicit.
    """

    vertices: Sequence[LatLon]
    _bbox: BoundingBox = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.vertices) < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "_bbox", BoundingBox.around(self.vertices))

    @property
    def bounding_box(self) -> BoundingBox:
        return self._bbox

    def contains(self, p: LatLon) -> bool:
        """Ray-cast point-in-polygon test.

        Points exactly on an edge may land on either side; surge-area
        layouts are built with small gaps between polygons so this never
        matters in practice.
        """
        if not self._bbox.contains(p):
            return False
        inside = False
        verts = self.vertices
        j = len(verts) - 1
        for i in range(len(verts)):
            vi, vj = verts[i], verts[j]
            if (vi.lat > p.lat) != (vj.lat > p.lat):
                x_cross = vi.lon + (p.lat - vi.lat) / (vj.lat - vi.lat) * (
                    vj.lon - vi.lon
                )
                if p.lon < x_cross:
                    inside = not inside
            j = i
        return inside

    def signed_area_deg2(self) -> float:
        """Shoelace area in squared degrees (sign encodes winding)."""
        total = 0.0
        verts = self.vertices
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            total += v.lon * w.lat - w.lon * v.lat
        return total / 2.0

    def centroid(self) -> LatLon:
        """Area-weighted centroid (falls back to vertex mean if degenerate)."""
        a = self.signed_area_deg2()
        if abs(a) < 1e-15:
            return LatLon(
                sum(v.lat for v in self.vertices) / len(self.vertices),
                sum(v.lon for v in self.vertices) / len(self.vertices),
            )
        cx = cy = 0.0
        verts = self.vertices
        for i, v in enumerate(verts):
            w = verts[(i + 1) % len(verts)]
            cross = v.lon * w.lat - w.lon * v.lat
            cx += (v.lon + w.lon) * cross
            cy += (v.lat + w.lat) * cross
        return LatLon(cy / (6.0 * a), cx / (6.0 * a))

    def edges(self) -> List[Tuple[LatLon, LatLon]]:
        verts = self.vertices
        return [
            (verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
        ]

    def closest_boundary_point(self, p: LatLon) -> LatLon:
        """The boundary point nearest to *p* (flat-plane metric).

        The avoidance strategy (§6) walks users to the nearest point of
        an adjacent surge area; this provides that point.
        """
        mid = math.radians((self._bbox.south + self._bbox.north) / 2.0)
        kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(mid)
        ky = math.radians(1.0) * EARTH_RADIUS_M
        px, py = p.lon * kx, p.lat * ky
        best = None
        best_d = float("inf")
        for a, b in self.edges():
            ax, ay = a.lon * kx, a.lat * ky
            bx, by = b.lon * kx, b.lat * ky
            dx, dy = bx - ax, by - ay
            length2 = dx * dx + dy * dy
            if length2 == 0.0:
                t = 0.0
            else:
                t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy)
                                 / length2))
            cx, cy = ax + t * dx, ay + t * dy
            d = planar_distance(px - cx, py - cy)
            if d < best_d:
                best_d = d
                best = LatLon(cy / ky, cx / kx)
        assert best is not None
        return best

    def distance_to_boundary_m(self, p: LatLon) -> float:
        """Distance from *p* to the nearest boundary edge, in metres.

        Used by the death-detection edge filter: cars that vanish close
        to the measurement boundary may simply have driven out, so they
        are not counted as fulfilled demand (§3.3 restriction 2).
        """
        mid = math.radians((self._bbox.south + self._bbox.north) / 2.0)
        kx = math.radians(1.0) * EARTH_RADIUS_M * math.cos(mid)
        ky = math.radians(1.0) * EARTH_RADIUS_M
        px, py = p.lon * kx, p.lat * ky
        best = float("inf")
        for a, b in self.edges():
            ax, ay = a.lon * kx, a.lat * ky
            bx, by = b.lon * kx, b.lat * ky
            dx, dy = bx - ax, by - ay
            length2 = dx * dx + dy * dy
            if length2 == 0.0:
                t = 0.0
            else:
                t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy)
                                 / length2))
            cx, cy = ax + t * dx, ay + t * dy
            best = min(best, planar_distance(px - cx, py - cy))
        return best


class PolygonSet:
    """First-match point-in-polygon over a whole batch of points.

    ``first_match(lats, lons)[n]`` is the index of the first polygon
    whose :meth:`Polygon.contains` holds for point *n*, or -1 when none
    does.  Each crossing test runs ``contains``'s float operations in
    its order, so the answer equals the first-match scan bit for bit.
    The number of numpy calls does not grow with the number of polygons
    or vertices: one (points x edges) pass finds every crossing, and one
    product counts them per polygon.
    """

    def __init__(self, polygons: Sequence[Polygon]) -> None:
        # (i.lat, j.lat, i.lon, j.lat - i.lat, j.lon - i.lon, polygon)
        # per edge, with vertex i following vertex j as in
        # Polygon.contains.  A horizontal edge never straddles a point's
        # latitude, so it never crosses a ray.
        table = np.array(
            [
                (vi.lat, vj.lat, vi.lon, vj.lat - vi.lat, vj.lon - vi.lon, k)
                for k, poly in enumerate(polygons)
                for vj, vi in poly.edges()
                if vi.lat != vj.lat
            ],
            dtype=np.float64,
        ).reshape(-1, 6)
        self._ilat, self._jlat, self._ilon, self._dlat, self._dlon = (
            table[:, :5].T.copy()
        )
        self._owner = np.zeros((len(table), len(polygons)), dtype=np.int64)
        self._owner[np.arange(len(table)), table[:, 5].astype(np.int64)] = 1
        self._west = np.array([p.bounding_box.west for p in polygons])
        self._east = np.array([p.bounding_box.east for p in polygons])

    def first_match(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Int64 index of each point's first containing polygon, or -1."""
        if not self._west.size:
            return np.full(len(lats), -1, dtype=np.int64)
        lat = lats[:, None]
        lon = lons[:, None]
        x = self._ilon + (lat - self._ilat) / self._dlat * self._dlon
        crossing = ((self._ilat > lat) != (self._jlat > lat)) & (lon < x)
        # A latitude outside a polygon's box crosses none of its edges,
        # but x can round an ulp past the box, so the longitude half of
        # contains()'s box test stays.
        inside = (crossing @ self._owner) % 2 == 1
        inside &= (self._west <= lon) & (lon <= self._east)
        return np.where(inside.any(axis=1), inside.argmax(axis=1), -1)
