"""Taxi-trace replayer with a `pingClient`-compatible API (§3.5).

The paper validates its methodology by replaying the NYC taxi trace
through "an API in our simulator that offers the same functionality as
Uber's pingClient: it returns the eight closest taxis to a given
geolocation.  Just as with Uber, the ID for each taxi is randomized each
time it becomes available."

Replay semantics:

* A taxi is **visible** between a dropoff and its next pickup — while
  carrying a passenger it is off the map, so its next pickup manifests as
  a *death* to observers, exactly the booking signal the methodology
  counts as fulfilled demand.
* The cab **drives in a straight line** from the dropoff point toward the
  next pickup point across the gap.
* Gaps longer than 3 hours mean the cab went **offline** (this filter
  removes ~5 % of sessions in the real data).
* Availability IDs are randomized per segment.

Ground truth (known supply and deaths per interval) comes straight from
the trace, so the validation experiment can score the fleet's estimates —
the paper reports 97 % of cars and 95 % of deaths captured (Fig 4).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.latlon import LatLon
from repro.api.models import CarView, PingReply, TypeStatus
from repro.api.ping import PingServer
from repro.marketplace.types import CarType
from repro.taxi.trace import TripRecord

#: Idle gaps longer than this mean the taxi went offline (§3.5).
OFFLINE_GAP_S = 3.0 * 3600.0

#: Metres of northing per degree of latitude (local scale factors are
#: computed per replayer from its trace's mean latitude).
_DEG_LAT_M = 111_194.9


@dataclass(frozen=True)
class AvailabilitySegment:
    """One visible (idle/cruising) stretch of a taxi's day."""

    medallion: int
    token: str
    start_s: float
    end_s: float
    start_loc: LatLon
    end_loc: LatLon
    #: Why the segment ended: "booked" (next pickup) or "offline".
    end_reason: str

    def position_at(self, t: float) -> LatLon:
        if not self.start_s <= t <= self.end_s:
            raise ValueError("time outside segment")
        span = self.end_s - self.start_s
        frac = 0.0 if span <= 0 else (t - self.start_s) / span
        return LatLon(
            self.start_loc.lat
            + (self.end_loc.lat - self.start_loc.lat) * frac,
            self.start_loc.lon
            + (self.end_loc.lon - self.start_loc.lon) * frac,
        )


@dataclass(frozen=True)
class TaxiGroundTruth:
    """Known per-interval supply and demand, straight from the trace.

    ``distinct_cabs`` counts *availability segments* active in the
    interval — the same identity granularity the measurement sees, since
    IDs are randomized each time a cab becomes available (§3.5).
    """

    interval_index: int
    distinct_cabs: int
    bookings: int
    offline_events: int


def build_segments(
    trips: Sequence[TripRecord], seed: int = 0
) -> List[AvailabilitySegment]:
    """Derive availability segments from a pickup/dropoff trace."""
    rng = random.Random(seed)
    by_taxi: Dict[int, List[TripRecord]] = {}
    for trip in trips:
        by_taxi.setdefault(trip.medallion, []).append(trip)
    segments: List[AvailabilitySegment] = []
    for medallion, taxi_trips in by_taxi.items():
        taxi_trips.sort()
        for current, following in zip(taxi_trips, taxi_trips[1:]):
            gap = following.pickup_s - current.dropoff_s
            if gap < 0:
                # Overlapping records do occur in real traces; skip them.
                continue
            if gap > OFFLINE_GAP_S:
                # Cab went home: visible briefly, then offline.  We keep a
                # short post-dropoff segment so the disappearance is
                # observable (it is one of the three death causes §3.3
                # enumerates).
                segments.append(
                    AvailabilitySegment(
                        medallion=medallion,
                        token=f"{rng.getrandbits(64):016x}",
                        start_s=current.dropoff_s,
                        end_s=current.dropoff_s + 60.0,
                        start_loc=current.dropoff,
                        end_loc=current.dropoff,
                        end_reason="offline",
                    )
                )
                continue
            segments.append(
                AvailabilitySegment(
                    medallion=medallion,
                    token=f"{rng.getrandbits(64):016x}",
                    start_s=current.dropoff_s,
                    end_s=following.pickup_s,
                    start_loc=current.dropoff,
                    end_loc=following.pickup,
                    end_reason="booked",
                )
            )
    segments.sort(key=lambda s: s.start_s)
    return segments


class TaxiReplayServer(PingServer):
    """Replays a trace behind the `pingClient` interface.

    The replayer owns its clock; the measurement fleet advances it via
    :meth:`advance`.  Position snapshots are vectorized per timestep so a
    172-client fleet stays tractable.
    """

    def __init__(
        self,
        trips: Sequence[TripRecord],
        seed: int = 0,
        speed_mps: float = 5.0,
        nearest_k: int = 8,
    ) -> None:
        self.segments = build_segments(trips, seed=seed)
        self.speed_mps = speed_mps
        self.nearest_k = nearest_k
        self._trips = list(trips)
        self._now = 0.0
        self._next_idx = 0  # next segment (by start time) to activate
        self._active: Dict[int, AvailabilitySegment] = {}
        self._snapshot_time: Optional[float] = None
        self._snap_lat: Optional[np.ndarray] = None
        self._snap_lon: Optional[np.ndarray] = None
        self._snap_segments: List[AvailabilitySegment] = []
        if self._trips:
            mean_lat = sum(t.pickup.lat for t in self._trips) / len(
                self._trips
            )
        else:
            mean_lat = 0.0
        self._deg_lon_m = _DEG_LAT_M * np.cos(np.radians(mean_lat))

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def current_time(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        """Move the replay clock forward (monotonic only)."""
        if dt < 0:
            raise ValueError("the replay clock cannot run backwards")
        self._now += dt
        self._refresh_active()

    def seek(self, t: float) -> None:
        """Jump forward to absolute time *t*."""
        if t < self._now:
            raise ValueError("the replay clock cannot run backwards")
        self._now = t
        self._refresh_active()

    def _refresh_active(self) -> None:
        now = self._now
        while (
            self._next_idx < len(self.segments)
            and self.segments[self._next_idx].start_s <= now
        ):
            seg = self.segments[self._next_idx]
            if seg.end_s > now:
                self._active[id(seg)] = seg
            self._next_idx += 1
        dead = [key for key, seg in self._active.items() if seg.end_s <= now]
        for key in dead:
            del self._active[key]
        self._snapshot_time = None

    def _ensure_snapshot(self) -> None:
        if self._snapshot_time == self._now:
            return
        segs = list(self._active.values())
        self._snap_segments = segs
        n = len(segs)
        lats = np.empty(n)
        lons = np.empty(n)
        now = self._now
        for i, seg in enumerate(segs):
            span = seg.end_s - seg.start_s
            frac = 0.0 if span <= 0 else (now - seg.start_s) / span
            lats[i] = (
                seg.start_loc.lat
                + (seg.end_loc.lat - seg.start_loc.lat) * frac
            )
            lons[i] = (
                seg.start_loc.lon
                + (seg.end_loc.lon - seg.start_loc.lon) * frac
            )
        self._snap_lat = lats
        self._snap_lon = lons
        self._snapshot_time = now

    # ------------------------------------------------------------------
    # pingClient
    # ------------------------------------------------------------------
    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        self._ensure_snapshot()
        assert self._snap_lat is not None and self._snap_lon is not None
        n = len(self._snap_segments)
        cars: Tuple[CarView, ...] = ()
        ewt: Optional[float] = None
        if n > 0:
            k = min(self.nearest_k, n)
            dy = (self._snap_lat - location.lat) * _DEG_LAT_M
            dx = (self._snap_lon - location.lon) * self._deg_lon_m
            dist2 = dx * dx + dy * dy
            # lexsort, not argpartition: ties (co-located cabs) break by
            # segment index, so the IDs a client observes never hang on
            # how a partial sort orders equal distances.
            idx = np.lexsort((np.arange(n), dist2))[:k]
            order = [int(i) for i in idx]
            nearest2 = float(dist2[order[0]])
            views = []
            for i in order:
                seg = self._snap_segments[i]
                pos = LatLon(
                    float(self._snap_lat[i]),
                    float(self._snap_lon[i]),
                )
                views.append(
                    CarView(
                        car_id=seg.token,
                        location=pos,
                        path=((self._now, pos.lat, pos.lon),),
                    )
                )
            cars = tuple(views)
            nearest_m = math.sqrt(nearest2)
            ewt = max(1.0, nearest_m / self.speed_mps / 60.0)
        status = TypeStatus(
            car_type=CarType.UBERT,
            cars=cars,
            ewt_minutes=ewt,
            surge_multiplier=1.0,  # ordinary taxis never surge
        )
        return PingReply(
            timestamp=self._now, location=location, statuses=(status,)
        )

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def ground_truth(
        self,
        start_s: float,
        end_s: float,
        interval_s: float = 300.0,
        interior_of=None,
        edge_margin_m: float = 0.0,
    ) -> List[TaxiGroundTruth]:
        """Known supply/demand per interval over [start_s, end_s).

        * supply  = distinct availability segments active at some point
          in the interval (IDs randomize per segment, so this is the
          identity granularity an observer can count);
        * bookings = segments that ended with a pickup in the interval
          (the "deaths" the fleet tries to count);
        * offline_events = segments that ended by going offline.

        With *interior_of* (a :class:`repro.geo.polygon.Polygon`) and a
        positive *edge_margin_m*, bookings within the margin of the
        boundary are excluded — mirroring the measurement methodology's
        conservative edge filter, so validation compares like with like.
        """
        if end_s <= start_s:
            raise ValueError("end must be after start")
        n_bins = int(np.ceil((end_s - start_s) / interval_s))
        cabs: List[set] = [set() for _ in range(n_bins)]
        bookings = [0] * n_bins
        offline = [0] * n_bins
        for seg in self.segments:
            if seg.end_s <= start_s or seg.start_s >= end_s:
                continue
            first = max(0, int((seg.start_s - start_s) // interval_s))
            last = min(
                n_bins - 1, int((seg.end_s - start_s) // interval_s)
            )
            for b in range(first, last + 1):
                cabs[b].add(seg.token)
            if start_s <= seg.end_s < end_s:
                b = int((seg.end_s - start_s) // interval_s)
                if seg.end_reason == "booked":
                    if (
                        interior_of is not None
                        and edge_margin_m > 0.0
                        and interior_of.distance_to_boundary_m(seg.end_loc)
                        <= edge_margin_m
                    ):
                        continue
                    bookings[b] += 1
                else:
                    offline[b] += 1
        return [
            TaxiGroundTruth(
                interval_index=int(start_s // interval_s) + b,
                distinct_cabs=len(cabs[b]),
                bookings=bookings[b],
                offline_events=offline[b],
            )
            for b in range(n_bins)
        ]
