"""Structure-of-arrays fleet state: the production engine's only copy.

The production engine keeps every car's mutable movement state in flat
numpy arrays (positions, state codes, navigation targets, path-vector
rings, session deadlines) and advances *all* target-driven movers —
drivers en route to a pickup, on a trip, or cruising toward a
relocation target — with a handful of array operations per tick.

**Rows.**  A driver's row is ``driver_id - 1`` (the constructor
enforces contiguous ids from 1), so rows never move, per-type row sets
are static, and a ``Driver`` stores no index.  ``online_seq`` stamps a
row from one counter each time it comes online.  The engine's online
lists append arrivals and remove departures in place, so a type's
online rows sorted by ``online_seq`` are its list, in order
(:meth:`FleetArray.in_online_order`): the engine's ordered loops visit
rows in that order without walking the lists.

**Bit-identity contract.**  ``use_vectorized_step`` must only ever
change speed, never behaviour: same-seed ``IntervalTruth`` logs, trip
ledgers, ping replies and RNG state are bit-identical to the scalar
oracle (tier-1 enforced).  Two design rules make that possible:

* Every float the arrays produce is computed with the exact operation
  sequence the scalar code uses, restricted to primitives numpy
  reproduces bit-for-bit (``+ - * /``, ``sqrt``, ``sin``/``cos``,
  ``radians``/``degrees``; *not* ``hypot`` or ``log``, which is why
  ``equirectangular_m`` is written in ``sqrt(x*x + y*y)`` form).
* The shared ``random.Random`` stream is only ever consumed from an
  ordered per-row loop in the engine, in exactly the oracle's iteration
  order (online lists, per car type).  The vectorized phase handles the
  RNG-free majority (movement); the loop handles the minority that
  draws — idle wobbles, cruise decisions, sign-offs, and post-trip
  re-identification — and defers position writes back into the arrays.

**Read-through objects.**  The arrays are the only copy of position,
path ring, navigation target and the movement-side state code.
``Driver`` objects keep what is evented (tokens, trips, earnings,
session bookkeeping, cruise target, personal rate); the one state
change movement causes, EN_ROUTE→ON_TRIP, is written to the pickup
rows' objects in :meth:`FleetArray.begin_step`.  An attached ``Driver``
reads through: ``location`` reads and writes its row, and its path
accessors read its ring (:meth:`FleetArray.ring_triples`); it has no
``path`` deque.  Nothing is cached on the object, so nothing needs a
sync step.

**State only.**  Nothing derived from state (positions, idle rows,
distances) is kept between queries, so nothing needs invalidating when
a row moves.  One kernel, :meth:`FleetArray.nearest`, answers every
nearest-car question — dispatch, `pingClient` replies and their EWTs,
and the surge engine's EWT probes at the area centroids — by masking
the type's idle rows out of ``state`` and evaluating one location × row
distance matrix.  ``LatLon`` range validation runs when a position is
read, not at each step.
"""

from __future__ import annotations

import math
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.geo.latlon import EARTH_RADIUS_M, LatLon
from repro.marketplace.driver import (
    PATH_VECTOR_LEN,
    Driver,
    DriverState,
    Trip,
)
from repro.marketplace.types import CarType

#: Integer codes for :class:`DriverState` as stored in the state array.
OFFLINE, IDLE, EN_ROUTE, ON_TRIP = 0, 1, 2, 3

#: A path vector as ``(t, lat, lon)`` points, oldest first (the shape
#: ``CarView.path`` carries).
PathTriples = Tuple[Tuple[float, float, float], ...]

#: Window positions 0..PATH_VECTOR_LEN-1 of a path ring.
_RING_POS = np.arange(PATH_VECTOR_LEN, dtype=np.int64)

_STATE_CODE = {
    DriverState.OFFLINE: OFFLINE,
    DriverState.IDLE: IDLE,
    DriverState.EN_ROUTE: EN_ROUTE,
    DriverState.ON_TRIP: ON_TRIP,
}


def smallest_k(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's *k* smallest values, ``k >= 1``.

    Exactly ``np.argsort(values, axis=1, kind="stable")[:, :k]`` for a
    2-D array of finite values: each row's columns in ``(value,
    column)`` order, ties included, and whole when the row is no wider
    than *k*.  Both nearest-car kernels (:meth:`FleetArray.nearest` and
    the taxi replayer's ``serve_round``) select through it, so equal
    distances rank by column, which both keep in identity order.

    ``k == 1`` is the first minimum (``argmin``).  Otherwise each row's
    k-th smallest value is found by ``np.partition``; the candidates
    at or under it, which include every tie at the cut, are ordered by
    (row, value) with one stable ``lexsort`` over their flat indices,
    and each row keeps its first *k*.  This costs a partition and a
    sort of the candidates instead of a sort of every column.
    """
    n, width = values.shape
    if k == 1:
        return np.argmin(values, axis=1)[:, None]
    if width <= k:
        return np.argsort(values, axis=1, kind="stable")
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    cand = np.flatnonzero(values <= kth)
    rows = cand // width
    picked = cand.take(np.lexsort((values.take(cand), rows)))
    # Every row has at least k candidates, and lexsort keeps each
    # row's group where flatnonzero put it.
    starts = rows.searchsorted(np.arange(n))
    return picked.take(starts[:, None] + np.arange(k)) % width


class StepMasks(NamedTuple):
    """Boolean row masks produced by :meth:`FleetArray.begin_step`."""

    #: Idle drivers with no cruise target (they draw 2 gauss GPS-wobble
    #: offsets in the ordered loop).
    wobble: np.ndarray
    #: Idle drivers whose cruise target was reached this tick (target
    #: cleared, decision draw due).
    cruise_arrived: np.ndarray
    #: Drivers whose trip reached its dropoff (state already IDLE in the
    #: arrays; the engine finalizes the object, accounts the fare, and
    #: re-identifies or signs the driver off).
    completed: np.ndarray
    #: Every row that is IDLE after the move phase and subject to the
    #: oracle's session-expiry check (wobblers plus all cruise movers).
    idle_like: np.ndarray


class RoundNearest:
    """Top-k nearest dispatchable rows for every (ping location, car
    type) pair of one batched serving round.

    Produced by :meth:`FleetArray.round_nearest`, one
    :meth:`FleetArray.nearest` call per car type against all ping
    locations, so location *i*'s rows and distances are exactly what
    :meth:`FleetArray.nearest_rows` returns for it alone — the same
    ``(distance, driver_id)`` ordering on the same floats.
    ``served_rows`` is the ascending union of every row any location
    will be served, and ``served_lat``, ``served_lon`` and
    ``served_paths`` are those rows' positions and path triples,
    gathered from the arrays in one pass, so a caller can build each
    served car's view once per round instead of once per (location,
    type, rank).
    """

    __slots__ = (
        "_per_type", "served_rows", "served_lat", "served_lon",
        "served_paths",
    )

    def __init__(
        self,
        per_type: Dict[CarType, Tuple[List[List[float]], List[List[int]]]],
        served_rows: Sequence[int] = (),
        served_lat: Sequence[float] = (),
        served_lon: Sequence[float] = (),
        served_paths: Sequence[PathTriples] = (),
    ) -> None:
        self._per_type = per_type
        self.served_rows = served_rows
        self.served_lat = served_lat
        self.served_lon = served_lon
        self.served_paths = served_paths

    def segment(
        self, car_type: CarType
    ) -> Optional[Tuple[List[List[float]], List[List[int]]]]:
        """Per-type ``(distances, rows)`` row-major lists, or ``None``
        when the type has no dispatchable rows (or was not queried)."""
        return self._per_type.get(car_type)


class FleetArray:
    """All fleets' mutable hot state, columnar.

    Rows are ``driver_id - 1`` (engine ids are contiguous from 1), so a
    driver's row never changes and per-type row sets are static.
    """

    def __init__(self, drivers: Sequence[Driver]) -> None:
        n = len(drivers)
        self.n = n
        self.drivers = list(drivers)
        self.lat = np.empty(n, dtype=np.float64)
        self.lon = np.empty(n, dtype=np.float64)
        self.state = np.zeros(n, dtype=np.int8)
        self.speed = np.empty(n, dtype=np.float64)
        #: Current navigation target: the pickup while EN_ROUTE, the
        #: dropoff while ON_TRIP, the cruise target while IDLE with
        #: ``has_target`` set.
        self.tgt_lat = np.zeros(n, dtype=np.float64)
        self.tgt_lon = np.zeros(n, dtype=np.float64)
        self.has_target = np.zeros(n, dtype=bool)
        #: Session deadline (`planned_offline_at`); +inf while offline.
        self.planned_off = np.full(n, np.inf, dtype=np.float64)
        # Path-vector ring buffers: the last PATH_VECTOR_LEN appends.
        # ``path_cnt`` counts appends since the last reset; the slot of
        # append k is k % PATH_VECTOR_LEN.
        self.path_t = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_lat = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_lon = np.zeros((n, PATH_VECTOR_LEN), dtype=np.float64)
        self.path_cnt = np.zeros(n, dtype=np.int64)
        #: When each row last came online, from one counter: the
        #: engine's online lists hold their rows in this order.
        self.online_seq = np.zeros(n, dtype=np.int64)
        self._next_seq = 0

        # Static per-type row sets (fleet composition never changes).
        self.type_code: Dict[CarType, int] = {}
        ctype = np.empty(n, dtype=np.int16)
        for i, d in enumerate(drivers):
            if d.driver_id != i + 1:
                raise ValueError(
                    "FleetArray requires contiguous driver ids from 1"
                )
            if d.car_type not in self.type_code:
                self.type_code[d.car_type] = len(self.type_code)
            ctype[i] = self.type_code[d.car_type]
        self.ctype = ctype
        self.rows_by_type: Dict[CarType, np.ndarray] = {
            ct: np.nonzero(ctype == code)[0]
            for ct, code in self.type_code.items()
        }

        for i, d in enumerate(drivers):
            loc = d.location
            self.lat[i] = loc.lat
            self.lon[i] = loc.lon
            self.speed[i] = d.speed_mps
            self.state[i] = _STATE_CODE[d.state]
            # From here on the row is the driver's only position.
            d.__dict__.pop("_loc", None)
            d._fleet = self

    # ------------------------------------------------------------------
    # Read-through Driver accessors
    # ------------------------------------------------------------------
    def location_of(self, r: int) -> LatLon:
        """Row *r*'s current position (``Driver.location`` reads this)."""
        return LatLon(self.lat[r].item(), self.lon[r].item())

    def set_location(self, r: int, value: LatLon) -> None:
        """Move row *r* to *value* (``Driver.location`` writes this)."""
        self.lat[r] = value.lat
        self.lon[r] = value.lon

    def ring_triples(self, rows: Sequence[int]) -> List[PathTriples]:
        """Each row's path vector as ``(t, lat, lon)`` triples, oldest
        first: the last ``PATH_VECTOR_LEN`` ring appends, or fewer since
        the last reset (none while offline).

        One gather serves any number of rows: the round's served rows in
        :meth:`round_nearest`, or a single row for ``path_triples`` of
        an attached ``Driver``.
        """
        idx = np.asarray(rows, dtype=np.int64)
        cnt = self.path_cnt[idx]
        m = np.minimum(cnt, PATH_VECTOR_LEN)
        # The slot of append k is k % PATH_VECTOR_LEN, so a row's window
        # starts at append cnt - m; slots past m are sliced off below.
        slots = ((cnt - m)[:, None] + _RING_POS) % PATH_VECTOR_LEN
        idx = idx[:, None]
        ts = self.path_t[idx, slots].tolist()
        las = self.path_lat[idx, slots].tolist()
        los = self.path_lon[idx, slots].tolist()
        return [
            tuple(zip(t[:k], la[:k], lo[:k]))
            for t, la, lo, k in zip(ts, las, los, m.tolist())
        ]

    # ------------------------------------------------------------------
    # Evented transitions (engine hooks)
    # ------------------------------------------------------------------
    def on_online(self, d: Driver, now: float) -> None:
        """Driver just came online (location already pushed via setter)
        and joined the end of its type's online list."""
        r = d.driver_id - 1
        self.state[r] = IDLE
        self.has_target[r] = False
        self.planned_off[r] = d.planned_offline_at
        self.online_seq[r] = self._next_seq
        self._next_seq += 1
        self._reset_ring(r, now)

    def on_offline(self, d: Driver) -> None:
        """Driver just signed off (object already cleared).  The row
        keeps its final position across the offline gap."""
        r = d.driver_id - 1
        self.state[r] = OFFLINE
        self.has_target[r] = False
        self.planned_off[r] = np.inf
        self.path_cnt[r] = 0

    def on_assign(self, d: Driver, trip: Trip) -> None:
        """Driver just accepted a trip: navigate to the pickup.  The
        dropoff is read from the trip at the batched promotion."""
        r = d.driver_id - 1
        self.state[r] = EN_ROUTE
        self.tgt_lat[r] = trip.pickup.lat
        self.tgt_lon[r] = trip.pickup.lon
        self.has_target[r] = False

    def on_back_idle(self, d: Driver, now: float) -> None:
        """Driver re-identified after a dropoff: fresh path vector."""
        self._reset_ring(d.driver_id - 1, now)

    def set_target_from(self, d: Driver) -> None:
        """Mirror the object's cruise target into the arrays."""
        r = d.driver_id - 1
        target = d.cruise_target
        if target is None:
            self.has_target[r] = False
        else:
            self.tgt_lat[r] = target.lat
            self.tgt_lon[r] = target.lon
            self.has_target[r] = True

    def _reset_ring(self, r: int, now: float) -> None:
        self.path_t[r, 0] = now
        self.path_lat[r, 0] = self.lat[r]
        self.path_lon[r, 0] = self.lon[r]
        self.path_cnt[r] = 1

    # ------------------------------------------------------------------
    # The vectorized step
    # ------------------------------------------------------------------
    def begin_step(self, now: float, dt: float) -> StepMasks:
        """Phase 1: advance every target-driven mover in one shot.

        Replicates ``Driver._drive_toward`` / ``Driver._cruise`` for the
        RNG-free population with bit-identical arithmetic: the same
        equirectangular distance (sqrt form), the same arrival rule
        (``dist <= step or dist <= 1.0`` → snap exactly onto the
        target), the same interpolation, and the idle half-speed factor
        applied as ``speed * (dt * 0.5)`` exactly as the scalar path
        does.  Arrivals trigger the batched transitions (a pickup
        arrival's ON_TRIP state is written to its ``Driver``, and the
        dropoff of that ``Driver``'s trip becomes its target); all
        movers get their path-ring append.  Returns the masks the
        engine's ordered RNG loop consumes.
        """
        st = self.state
        has_tgt = self.has_target
        idle = st == IDLE
        wobble = idle & ~has_tgt
        n = self.n
        masks = StepMasks(
            wobble,
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
            wobble.copy(),
        )
        mv = np.nonzero((st == EN_ROUTE) | (st == ON_TRIP) | (idle & has_tgt))[0]
        if not mv.size:
            return masks
        lat = self.lat
        lon = self.lon
        la = lat[mv]
        lo = lon[mv]
        tla = self.tgt_lat[mv]
        tlo = self.tgt_lon[mv]
        # equirectangular_m(location, target), vectorized verbatim.
        x = np.radians(tlo - lo) * np.cos(np.radians((la + tla) / 2.0))
        y = np.radians(tla - la)
        dist = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
        st_mv = st[mv]
        idle_mv = st_mv == IDLE
        step = np.where(
            idle_mv,
            self.speed[mv] * (dt * 0.5),
            self.speed[mv] * dt,
        )
        arrived = (dist <= step) | (dist <= 1.0)
        frac = step / np.where(arrived, 1.0, dist)
        lat[mv] = np.where(arrived, tla, la + (tla - la) * frac)
        lon[mv] = np.where(arrived, tlo, lo + (tlo - lo) * frac)
        arr_rows = mv[arrived]
        if arr_rows.size:
            st_arr = st_mv[arrived]
            pickup = arr_rows[st_arr == EN_ROUTE]
            if pickup.size:
                st[pickup] = ON_TRIP
                drivers = self.drivers
                for r in pickup.tolist():
                    d = drivers[r]
                    d.state = DriverState.ON_TRIP
                    assert d.trip is not None
                    self.tgt_lat[r] = d.trip.dropoff.lat
                    self.tgt_lon[r] = d.trip.dropoff.lon
            done = arr_rows[st_arr == ON_TRIP]
            if done.size:
                st[done] = IDLE
                masks.completed[done] = True
            ca = arr_rows[st_arr == IDLE]
            if ca.size:
                has_tgt[ca] = False
                masks.cruise_arrived[ca] = True
        masks.idle_like[mv[idle_mv]] = True
        self._ring_append(mv, now)
        return masks

    def apply_offset(self, r: int, north_m: float, east_m: float) -> None:
        """Apply one wobble offset immediately (scalar ``LatLon.offset``
        arithmetic on the array slots; bit-identical to the deferred
        batch in :meth:`finish_step`)."""
        la = self.lat[r]
        dlat = math.degrees(north_m / EARTH_RADIUS_M)
        dlon = math.degrees(
            east_m / (EARTH_RADIUS_M * math.cos(math.radians(la)))
        )
        self.lat[r] = la + dlat
        self.lon[r] = self.lon[r] + dlon

    def finish_step(
        self,
        now: float,
        defer_rows: List[int],
        defer_north: List[float],
        defer_east: List[float],
        wobbled_rows: List[int],
    ) -> None:
        """Phase 3: batch-apply deferred wobble offsets and append the
        surviving wobblers' path-ring entries."""
        if defer_rows:
            rows = np.array(defer_rows, dtype=np.int64)
            north = np.array(defer_north, dtype=np.float64)
            east = np.array(defer_east, dtype=np.float64)
            la = self.lat[rows]
            self.lat[rows] = la + np.degrees(north / EARTH_RADIUS_M)
            self.lon[rows] = self.lon[rows] + np.degrees(
                east / (EARTH_RADIUS_M * np.cos(np.radians(la)))
            )
        if wobbled_rows:
            rows = np.array(wobbled_rows, dtype=np.int64)
            self._ring_append(rows, now)

    def _ring_append(self, rows: np.ndarray, now: float) -> None:
        """Append one path-ring entry for every row in *rows*."""
        slots = self.path_cnt[rows] % PATH_VECTOR_LEN
        self.path_t[rows, slots] = now
        self.path_lat[rows, slots] = self.lat[rows]
        self.path_lon[rows, slots] = self.lon[rows]
        self.path_cnt[rows] += 1

    # ------------------------------------------------------------------
    # Vectorized queries
    # ------------------------------------------------------------------
    def idle_rows(self, car_type: CarType) -> np.ndarray:
        """Rows of the currently dispatchable drivers of *car_type*,
        ascending (so position order is driver-id order)."""
        all_rows = self.rows_by_type.get(car_type)
        if all_rows is None:
            return np.empty(0, dtype=np.int64)
        return all_rows[self.state[all_rows] == IDLE]

    def in_online_order(self, rows: np.ndarray) -> np.ndarray:
        """Online *rows* in the engine's online-list order: by car type
        (type codes follow the fleet's order), then by ``online_seq``."""
        return rows[np.lexsort((self.online_seq[rows], self.ctype[rows]))]

    def online_mask_rows(self, car_type: CarType) -> np.ndarray:
        """Rows of the currently online drivers of *car_type*."""
        all_rows = self.rows_by_type.get(car_type)
        if all_rows is None:
            return np.empty(0, dtype=np.int64)
        return all_rows[self.state[all_rows] != OFFLINE]

    def nearest(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        car_type: CarType,
        k: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The k nearest idle rows of *car_type* to each location.

        Returns ``(distances, rows)``, both of shape ``(locations,
        min(k, idle rows))``, each location's rows ordered by
        ``(distance, driver_id)`` exactly like the brute scan.  The
        distances are one location × idle-row matrix of
        ``equirectangular_m``, vectorized verbatim and elementwise, so
        each entry is the float ``LatLon.fast_distance_m`` computes
        whatever the batch.  Idle rows are ascending, so column order
        is driver-id order, and :func:`smallest_k`, which ranks equal
        values by column, breaks distance ties by id.  ``k == 1``
        (dispatch, EWT and the centroid probes) is its linear
        ``argmin``; ping replies (``k == 8``) select each location's
        eight without sorting its row.
        """
        rows = self.idle_rows(car_type)
        if k <= 0 or not rows.size:
            n = lats.size
            return np.empty((n, 0)), np.empty((n, 0), dtype=np.int64)
        la = self.lat[rows]
        lo = self.lon[rows]
        qla = lats[:, None]
        qlo = lons[:, None]
        x = np.radians(qlo - lo) * np.cos(np.radians((la + qla) / 2.0))
        y = np.radians(qla - la)
        dist = EARTH_RADIUS_M * np.sqrt(x * x + y * y)
        order = smallest_k(dist, k)
        return dist[np.arange(lats.size)[:, None], order], rows[order]

    def nearest_rows(
        self, location: LatLon, car_type: CarType, k: int
    ) -> List[Tuple[float, int]]:
        """The k nearest idle rows as ``(distance_m, row)``, ordered by
        ``(distance, driver_id)``: :meth:`nearest` at one location."""
        dists, rows = self.nearest(
            np.array([location.lat]), np.array([location.lon]), car_type, k
        )
        return list(zip(dists[0].tolist(), rows[0].tolist()))

    def round_nearest(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        k: int,
        car_types: Optional[Iterable[CarType]] = None,
    ) -> RoundNearest:
        """Batch :meth:`nearest_rows` over one round of ping locations.

        One :meth:`nearest` call per car type against every ping
        location, so each location's rows and distances are the ones
        :meth:`nearest_rows` returns for it alone, and replies served
        off the result are bit-identical to per-client serving.

        *car_types* restricts the work to the types the round will
        actually serve (a type-restricted measurement fleet only needs
        one); ``None`` computes every type.  The served rows' positions
        and path triples are gathered here too, so the round's car views
        need no per-driver reads.
        """
        per_type: Dict[
            CarType, Tuple[List[List[float]], List[List[int]]]
        ] = {}
        served: List[np.ndarray] = []
        for ct in (self.type_code if car_types is None else car_types):
            dists, rows = self.nearest(lats, lons, ct, k)
            if rows.size:
                served.append(rows.ravel())
                per_type[ct] = (dists.tolist(), rows.tolist())
        if not served:
            return RoundNearest(per_type)
        rows = np.unique(np.concatenate(served))
        return RoundNearest(
            per_type,
            rows.tolist(),
            self.lat[rows].tolist(),
            self.lon[rows].tolist(),
            self.ring_triples(rows),
        )
