"""Spatial indexes for the simulator's hot paths.

Every observable the paper measures — nearest-8 car lists, EWT, per-area
surge — funnels through two geometric queries that the seed implemented
as linear scans: *k-nearest idle drivers* (`Dispatcher.nearest_idle`) and
*point → surge area* (`MarketplaceEngine.area_id_of`).  Both run many
times per 5-second tick, so their cost caps campaign length and fleet
size.  This module provides drop-in sublinear replacements:

* :class:`PointIndex` — a uniform-grid bucket index over moving points
  with an expanding-ring k-nearest query.  Results are ordered by
  ``(distance, id)`` with *exactly* the same distance function the brute
  force scan uses, so swapping the index in cannot perturb dispatch
  order, tie-breaking, or any downstream determinism.
* :class:`AreaIndex` — point-in-which-polygon resolution over a
  precomputed cell grid.  Cells that no polygon boundary touches are
  answered with a single table lookup; cells a boundary crosses fall
  back to the exact first-match ray-cast scan, so the answer is always
  identical to the linear scan.

Both indexes are pure reads at query time: they never consume RNG state
and never mutate the objects they store.  That is what lets the
production engine (which looks areas up through :class:`AreaIndex`)
guarantee the same ``IntervalTruth`` logs as the oracle's linear scans,
and the taxi replayer (which snaps cars through :class:`PointIndex`)
stay identical with its index on or off.
"""

from __future__ import annotations

import math

import numpy as np
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.geo.latlon import EARTH_RADIUS_M, LatLon, equirectangular_m
from repro.geo.polygon import Polygon

#: Metres of northing per degree of latitude (spherical Earth).
METERS_PER_DEG_LAT = math.radians(1.0) * EARTH_RADIUS_M

#: Ring lower bounds are deflated by this factor before pruning the
#: expanding search.  It absorbs the tiny skew between the bucketing
#: projection (fixed reference latitude) and the true equirectangular
#: metric (per-pair mean latitude); at city scale the skew is < 0.05 %,
#: so 0.5 % of slack is conservative by an order of magnitude.
_RING_SAFETY = 0.995

#: Label of grid cells that a polygon boundary passes through.
_BOUNDARY = object()

#: Degrees (~0.1 mm) by which a cell is widened on every side before
#: edges are tested against it.  Cell bounds are rebuilt by float
#: arithmetic (``lon0 + ix * dlon``), so they can miss the grid's true
#: edge, or the cell ``locate`` maps a point to, by a few ulps; an edge
#: lying in that sliver must still make the cell a boundary cell.
_CELL_PAD_DEG = 1e-9

#: Populations at or below this size answer k-nearest queries with a
#: direct scan; the expanding-ring walk only pays off once buckets are
#: meaningfully occupied.
_SMALL_SCAN = 48


class PointIndex:
    """Uniform-grid bucket index over moving points.

    Points are keyed by a sortable, hashable id (driver ids here) and
    carry an arbitrary payload (the driver object).  The index supports
    incremental :meth:`move` updates — a moving fleet costs one bucket
    check per driver per tick, not a rebuild.

    Two metrics are supported, matching the two brute-force scans the
    codebase replaces:

    * ``"equirect"`` (default) — distances via
      :func:`repro.geo.latlon.equirectangular_m`, bit-identical to
      ``LatLon.fast_distance_m`` as used by the dispatcher.
    * ``"planar"`` — squared planar distances using fixed metres-per-
      degree scale factors, bit-identical to the taxi replayer's
      vectorized ``dx*dx + dy*dy`` computation (pass ``deg_lat_m`` /
      ``deg_lon_m``; :meth:`nearest_k` then returns *squared* metres).
    """

    def __init__(
        self,
        cell_m: float = 250.0,
        ref_lat: Optional[float] = None,
        metric: str = "equirect",
        deg_lat_m: Optional[float] = None,
        deg_lon_m: Optional[float] = None,
    ) -> None:
        if cell_m <= 0:
            raise ValueError("cell size must be positive")
        if metric not in ("equirect", "planar"):
            raise ValueError(f"unknown metric {metric!r}")
        if metric == "planar" and (deg_lat_m is None or deg_lon_m is None):
            raise ValueError("planar metric needs deg_lat_m and deg_lon_m")
        self.cell_m = cell_m
        self.metric = metric
        if metric == "planar":
            self._ky = float(deg_lat_m)
            self._kx = float(deg_lon_m)
        else:
            self._ky = METERS_PER_DEG_LAT
            self._kx = (
                None
                if ref_lat is None
                else METERS_PER_DEG_LAT * math.cos(math.radians(ref_lat))
            )
        # Cell coordinates are floor(projected / cell_m); the inverse
        # scale folds the division into one multiply on the move path.
        self._inv_x = None if self._kx is None else self._kx / cell_m
        self._inv_y = self._ky / cell_m
        # cell -> {id: entry}, where entry is the *mutable* pair
        # ``[location, payload]``.  A same-cell move (the overwhelmingly
        # common case for a cruising fleet) is then a single list-slot
        # store instead of a tuple rebuild plus two dict writes.
        self._cells: Dict[Tuple[int, int], Dict[Hashable, List[Any]]] = {}
        # id -> [entry, cell]
        self._points: Dict[Hashable, List[Any]] = {}
        # Grow-only bounds of occupied cells; a stale (larger) extent is
        # still a correct stopping bound for the ring search.
        self._min_cx = self._max_cx = 0
        self._min_cy = self._max_cy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, pid: Hashable) -> bool:
        return pid in self._points

    def location_of(self, pid: Hashable) -> LatLon:
        return self._points[pid][0][0]

    def _cell_of(self, location: LatLon) -> Tuple[int, int]:
        if self._inv_x is None:
            # Lazy reference latitude: first point anchors the grid.
            self._kx = METERS_PER_DEG_LAT * math.cos(
                math.radians(location.lat)
            )
            self._inv_x = self._kx / self.cell_m
        return (
            math.floor(location.lon * self._inv_x),
            math.floor(location.lat * self._inv_y),
        )

    def _grow_bounds(self, cell: Tuple[int, int]) -> None:
        cx, cy = cell
        if len(self._points) == 1:
            self._min_cx = self._max_cx = cx
            self._min_cy = self._max_cy = cy
            return
        if cx < self._min_cx:
            self._min_cx = cx
        elif cx > self._max_cx:
            self._max_cx = cx
        if cy < self._min_cy:
            self._min_cy = cy
        elif cy > self._max_cy:
            self._max_cy = cy

    # ------------------------------------------------------------------
    def insert(self, pid: Hashable, location: LatLon, payload: Any = None) -> None:
        """Add a point; *pid* must not already be present."""
        if pid in self._points:
            raise ValueError(f"id {pid!r} already in index")
        cell = self._cell_of(location)
        entry = [location, payload]
        self._cells.setdefault(cell, {})[pid] = entry
        self._points[pid] = [entry, cell]
        self._grow_bounds(cell)

    def remove(self, pid: Hashable) -> None:
        """Drop a point; raises ``KeyError`` when absent."""
        _, cell = self._points.pop(pid)
        bucket = self._cells[cell]
        del bucket[pid]
        if not bucket:
            del self._cells[cell]

    def move(self, pid: Hashable, location: LatLon) -> None:
        """Update a point's location (cheap when it stays in its cell)."""
        rec = self._points[pid]
        entry, old_cell = rec
        cell = self._cell_of(location)
        if cell == old_cell:
            entry[0] = location
            return
        bucket = self._cells[old_cell]
        del bucket[pid]
        if not bucket:
            del self._cells[old_cell]
        entry[0] = location
        self._cells.setdefault(cell, {})[pid] = entry
        rec[1] = cell
        self._grow_bounds(cell)

    # ------------------------------------------------------------------
    def _distance(self, query: LatLon, point: LatLon) -> float:
        if self.metric == "planar":
            dy = (point.lat - query.lat) * self._ky
            dx = (point.lon - query.lon) * self._kx
            return dx * dx + dy * dy
        return equirectangular_m(point, query)

    def nearest_k(
        self,
        location: LatLon,
        k: int,
        predicate: Optional[Callable[[Any], bool]] = None,
    ) -> List[Tuple[float, Hashable, Any]]:
        """The *k* nearest points, as ``(distance, id, payload)`` tuples.

        Ordered by ``(distance, id)`` — the exact tie-break the brute
        force ``sort(key=(distance, driver_id))`` applies, so replacing
        a linear scan with this query is behaviour-preserving.  With a
        *predicate*, only points whose payload satisfies it are
        considered (e.g. ``Driver.is_dispatchable``).

        Under the ``"planar"`` metric the first tuple element is the
        *squared* distance in metres², matching the replayer's
        ``dist2`` arrays bit-for-bit.
        """
        if k <= 0 or not self._points:
            return []
        n = len(self._points)
        # Bind the metric locally; ids are unique, so plain tuple sort
        # orders by (distance, id) and never reaches the payload.
        planar = self.metric == "planar"
        qlat = location.lat
        qlon = location.lon
        rad = math.radians
        cos = math.cos
        sqrt = math.sqrt
        if planar:
            ky = self._ky
            kx = self._kx
        if n <= _SMALL_SCAN or n <= k:
            # Sparse populations (rare car types): a direct scan beats
            # walking rings of mostly-empty buckets.
            found = []
            for pid, ((ploc, payload), _) in self._points.items():
                if predicate is not None and not predicate(payload):
                    continue
                if planar:
                    dy = (ploc.lat - qlat) * ky
                    dx = (ploc.lon - qlon) * kx
                    d = dx * dx + dy * dy
                else:
                    x = rad(qlon - ploc.lon) * cos(
                        rad((ploc.lat + qlat) / 2.0)
                    )
                    y = rad(qlat - ploc.lat)
                    d = EARTH_RADIUS_M * sqrt(x * x + y * y)
                found.append((d, pid, payload))
            found.sort()
            return found[:k]
        cx, cy = self._cell_of(location)
        min_cx, max_cx = self._min_cx, self._max_cx
        min_cy, max_cy = self._min_cy, self._max_cy
        r_max = max(
            abs(cx - min_cx),
            abs(cx - max_cx),
            abs(cy - min_cy),
            abs(cy - max_cy),
        )
        found = []
        examined = 0
        cells_get = self._cells.get
        buckets: List[Dict[Hashable, List[Any]]] = []
        for r in range(r_max + 1):
            if len(found) >= k:
                # Every point in ring r is at least (r-1) whole cells
                # away; once the kth best beats that bound no farther
                # ring can improve the answer (or its tie-break).
                bound = (r - 1) * self.cell_m * _RING_SAFETY
                if planar:
                    bound *= bound
                found.sort()
                if found[k - 1][0] < bound:
                    break
            # Gather ring r's occupied buckets, clamped to the occupied
            # cell bounds so edge-of-city queries skip empty space.
            del buckets[:]
            ap = buckets.append
            if r == 0:
                b = cells_get((cx, cy))
                if b:
                    ap(b)
            else:
                xlo = cx - r
                xhi = cx + r
                lo = xlo if xlo > min_cx else min_cx
                hi = xhi if xhi < max_cx else max_cx
                y = cy - r
                if y >= min_cy:
                    for x in range(lo, hi + 1):
                        b = cells_get((x, y))
                        if b:
                            ap(b)
                y = cy + r
                if y <= max_cy:
                    for x in range(lo, hi + 1):
                        b = cells_get((x, y))
                        if b:
                            ap(b)
                ylo = cy - r + 1
                yhi = cy + r - 1
                if ylo < min_cy:
                    ylo = min_cy
                if yhi > max_cy:
                    yhi = max_cy
                if xlo >= min_cx:
                    for y in range(ylo, yhi + 1):
                        b = cells_get((xlo, y))
                        if b:
                            ap(b)
                if xhi <= max_cx:
                    for y in range(ylo, yhi + 1):
                        b = cells_get((xhi, y))
                        if b:
                            ap(b)
            for bucket in buckets:
                examined += len(bucket)
                for pid, (ploc, payload) in bucket.items():
                    if predicate is not None and not predicate(payload):
                        continue
                    if planar:
                        dy = (ploc.lat - qlat) * ky
                        dx = (ploc.lon - qlon) * kx
                        d = dx * dx + dy * dy
                    else:
                        # Inlined equirectangular_m(ploc, location):
                        # identical operations, identical floats.
                        x = rad(qlon - ploc.lon) * cos(
                            rad((ploc.lat + qlat) / 2.0)
                        )
                        y = rad(qlat - ploc.lat)
                        d = EARTH_RADIUS_M * sqrt(x * x + y * y)
                    found.append((d, pid, payload))
            if examined >= n:
                # Every indexed point has been visited; no farther ring
                # can contribute anything.
                break
        found.sort()
        return found[:k]


# ----------------------------------------------------------------------
# Point -> area resolution
# ----------------------------------------------------------------------
def _segment_hits_rect(
    ax: float, ay: float, bx: float, by: float,
    x0: float, y0: float, x1: float, y1: float,
) -> bool:
    """Whether segment a-b intersects (or touches) the closed rectangle.

    Liang-Barsky clipping with inclusive comparisons: a segment that
    merely grazes the rectangle counts as a hit, which errs on the side
    of classifying cells as boundary cells — the always-correct side.
    """
    if (
        max(ax, bx) < x0 or min(ax, bx) > x1
        or max(ay, by) < y0 or min(ay, by) > y1
    ):
        return False
    dx = bx - ax
    dy = by - ay
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)
    ):
        if p == 0.0:
            if q < 0.0:
                return False
        else:
            t = q / p
            if p < 0.0:
                if t > t1:
                    return False
                if t > t0:
                    t0 = t
            else:
                if t < t0:
                    return False
                if t < t1:
                    t1 = t
    return True


class AreaIndex:
    """Point → area lookup over a precomputed uniform cell grid.

    Built once from an ordered sequence of ``(key, polygon)`` pairs.
    Each grid cell is classified at construction time:

    * **pure** — no polygon edge passes through the cell, so every point
      in it has the same first-match answer; stored as that key (or
      ``None`` when outside every polygon) and answered with one lookup;
    * **boundary** — some polygon edge crosses the cell; queries fall
      back to the exact ray-cast scan *in the same first-match order*
      the brute force loop uses.

    :meth:`locate` is therefore exactly equivalent to iterating the
    polygons and returning the first containing one — just much faster
    away from borders, which is where virtually all queries land.
    """

    def __init__(
        self,
        areas: Sequence[Tuple[Hashable, Polygon]],
        cell_m: float = 75.0,
        max_cells: int = 250_000,
    ) -> None:
        if cell_m <= 0:
            raise ValueError("cell size must be positive")
        self._areas: List[Tuple[Hashable, Polygon]] = list(areas)
        self._labels: List[Any] = []
        self._label_codes: Optional[np.ndarray] = None
        self._nx = self._ny = 0
        self.boundary_cells = 0
        if not self._areas:
            return
        south = min(p.bounding_box.south for _, p in self._areas)
        west = min(p.bounding_box.west for _, p in self._areas)
        north = max(p.bounding_box.north for _, p in self._areas)
        east = max(p.bounding_box.east for _, p in self._areas)
        self._lat0, self._lon0 = south, west
        self._lat1, self._lon1 = north, east
        mid = math.radians((south + north) / 2.0)
        width_m = math.radians(east - west) * EARTH_RADIUS_M * math.cos(mid)
        height_m = math.radians(north - south) * EARTH_RADIUS_M
        nx = max(1, int(math.ceil(width_m / cell_m)))
        ny = max(1, int(math.ceil(height_m / cell_m)))
        while nx * ny > max_cells:
            nx = max(1, nx // 2)
            ny = max(1, ny // 2)
        self._nx, self._ny = nx, ny
        self._dlon = (east - west) / nx or 1.0
        self._dlat = (north - south) / ny or 1.0
        self._classify()

    def _classify(self) -> None:
        labels: List[Any] = []
        for iy in range(self._ny):
            lat_lo = self._lat0 + iy * self._dlat
            lat_hi = lat_lo + self._dlat
            for ix in range(self._nx):
                lon_lo = self._lon0 + ix * self._dlon
                lon_hi = lon_lo + self._dlon
                labels.append(
                    self._classify_cell(lon_lo, lat_lo, lon_hi, lat_hi)
                )
        self._labels = labels
        self.boundary_cells = sum(1 for v in labels if v is _BOUNDARY)

    def _classify_cell(
        self, x0: float, y0: float, x1: float, y1: float
    ) -> Any:
        centre = LatLon((y0 + y1) / 2.0, (x0 + x1) / 2.0)
        x0 -= _CELL_PAD_DEG
        y0 -= _CELL_PAD_DEG
        x1 += _CELL_PAD_DEG
        y1 += _CELL_PAD_DEG
        for _, poly in self._areas:
            bb = poly.bounding_box
            if bb.east < x0 or bb.west > x1 or bb.north < y0 or bb.south > y1:
                continue
            verts = poly.vertices
            j = len(verts) - 1
            for i in range(len(verts)):
                a, b = verts[j], verts[i]
                if _segment_hits_rect(
                    a.lon, a.lat, b.lon, b.lat, x0, y0, x1, y1
                ):
                    return _BOUNDARY
                j = i
        # No boundary inside the padded cell: containment is constant
        # across it, so the centre speaks for every point.
        for key, poly in self._areas:
            if poly.contains(centre):
                return key
        return None

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return self._nx * self._ny

    def locate(self, p: LatLon) -> Optional[Hashable]:
        """First-match area key containing *p*, or ``None``.

        Exactly equivalent to scanning the ``(key, polygon)`` pairs in
        order and returning the first whose polygon contains *p*.
        """
        if not self._areas:
            return None
        if not (
            self._lat0 <= p.lat <= self._lat1
            and self._lon0 <= p.lon <= self._lon1
        ):
            return None
        ix = min(self._nx - 1, int((p.lon - self._lon0) / self._dlon))
        iy = min(self._ny - 1, int((p.lat - self._lat0) / self._dlat))
        label = self._labels[iy * self._nx + ix]
        if label is _BOUNDARY:
            for key, poly in self._areas:
                if poly.contains(p):
                    return key
            return None
        return label

    # ------------------------------------------------------------------
    @property
    def area_keys(self) -> Tuple[Hashable, ...]:
        """The area keys in first-match order; codes index into this."""
        return tuple(key for key, _ in self._areas)

    def _build_label_codes(self) -> np.ndarray:
        first: Dict[Hashable, int] = {}
        for ci, (key, _) in enumerate(self._areas):
            first.setdefault(key, ci)
        codes = np.fromiter(
            (
                -2 if label is _BOUNDARY
                else (-1 if label is None else first[label])
                for label in self._labels
            ),
            dtype=np.int64,
            count=len(self._labels),
        )
        self._label_codes = codes
        return codes

    def locate_codes(self, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`locate` over parallel coordinate arrays.

        Returns an int64 array of the same length: ``code >= 0`` indexes
        :attr:`area_keys` (the first-match containing area), ``-1`` means
        no area contains the point.  Pure cells are answered by one
        vectorized table gather; points in boundary cells fall back to
        the exact per-point ray-cast scan, so every element equals what
        :meth:`locate` would return for that point.
        """
        m = len(lats)
        codes = np.full(m, -1, dtype=np.int64)
        if not self._areas or m == 0:
            return codes
        label_codes = self._label_codes
        if label_codes is None:
            label_codes = self._build_label_codes()
        inb = np.nonzero(
            (self._lat0 <= lats) & (lats <= self._lat1)
            & (self._lon0 <= lons) & (lons <= self._lon1)
        )[0]
        if inb.size:
            # int() truncates toward zero exactly like .astype(int64)
            # for the non-negative in-bounds offsets here.
            ix = ((lons[inb] - self._lon0) / self._dlon).astype(np.int64)
            np.minimum(ix, self._nx - 1, out=ix)
            iy = ((lats[inb] - self._lat0) / self._dlat).astype(np.int64)
            np.minimum(iy, self._ny - 1, out=iy)
            codes[inb] = label_codes[iy * self._nx + ix]
        for i in np.nonzero(codes == -2)[0]:
            p = LatLon(float(lats[i]), float(lons[i]))
            codes[i] = -1
            for ci, (_, poly) in enumerate(self._areas):
                if poly.contains(p):
                    codes[i] = ci
                    break
        return codes

    def locate_batch(
        self, lats: np.ndarray, lons: np.ndarray
    ) -> List[Optional[Hashable]]:
        """Batch :meth:`locate`: the area key (or ``None``) per point."""
        keys = self.area_keys
        return [
            keys[c] if c >= 0 else None
            for c in self.locate_codes(lats, lons)
        ]
