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
from repro.api.ping import NEAREST_K, PingRequest, PingServer
from repro.marketplace.fleet_array import smallest_k
from repro.marketplace.types import CarType
from repro.taxi.trace import TripRecord

#: Idle gaps longer than this mean the taxi went offline (§3.5).
OFFLINE_GAP_S = 3.0 * 3600.0

#: Speed (m/s) at which the nearest cab is assumed to drive to a client
#: when its EWT is read off the straight-line distance.
CAB_SPEED_MPS = 5.0

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
    :meth:`advance`.  What it serves is a function of that clock alone:
    the segments are kept as numpy columns, and each lock-step round
    reads the cabs visible now straight from them.
    """

    def __init__(self, trips: Sequence[TripRecord], seed: int = 0) -> None:
        self.segments = build_segments(trips, seed=seed)
        self._now = 0.0
        self._tokens = [seg.token for seg in self.segments]
        #: One row per segment field, one column per segment: start and
        #: end time, then start and end lat/lon.
        self._columns = np.array(
            [
                (seg.start_s, seg.end_s, seg.start_loc.lat,
                 seg.start_loc.lon, seg.end_loc.lat, seg.end_loc.lon)
                for seg in self.segments
            ],
            dtype=float,
        ).reshape(-1, 6).T.copy()
        mean_lat = (
            sum(t.pickup.lat for t in trips) / len(trips) if trips else 0.0
        )
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

    def seek(self, t: float) -> None:
        """Jump forward to absolute time *t*."""
        if t < self._now:
            raise ValueError("the replay clock cannot run backwards")
        self._now = t

    # ------------------------------------------------------------------
    # pingClient
    # ------------------------------------------------------------------
    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        """Answer one ping as a round of one."""
        return self.serve_round([(account_id, location, car_types)])[0]

    def serve_round(
        self, requests: Sequence[PingRequest]
    ) -> List[PingReply]:
        """One vectorized pass over a whole lock-step round.

        The cabs visible now are one mask over the segment columns, and
        their positions one interpolation with
        :meth:`AvailabilitySegment.position_at`'s arithmetic (a visible
        segment has ``start_s <= now < end_s``, so its span is
        positive).  Each row of one clients x cabs matrix of squared
        planar distances gives its eight nearest cabs through
        :func:`~repro.marketplace.fleet_array.smallest_k`, which ranks
        equal distances by column, so co-located cabs come back in
        segment order; the EWT is read off each row's nearest cab.
        Every reply is a single ``UBERT`` status: ordinary taxis never
        surge.
        """
        now = self._now
        start_s, end_s = self._columns[:2]
        visible = np.flatnonzero((start_s <= now) & (now < end_s))
        cars: List[Tuple[CarView, ...]] = [()] * len(requests)
        ewts: List[Optional[float]] = [None] * len(requests)
        if requests and len(visible):
            s0, s1, lat0, lon0, lat1, lon1 = self._columns[:, visible]
            frac = (now - s0) / (s1 - s0)
            lat = lat0 + (lat1 - lat0) * frac
            lon = lon0 + (lon1 - lon0) * frac
            where = np.array([(loc.lat, loc.lon) for _, loc, _ in requests])
            # Squared planar distances, built in place in two arrays.
            dy = lat - where[:, :1]
            dy *= _DEG_LAT_M
            dy *= dy
            dist2 = lon - where[:, 1:]
            dist2 *= self._deg_lon_m
            dist2 *= dist2
            dist2 += dy
            order = smallest_k(dist2, NEAREST_K)
            # The clock does not move within a round, so each served
            # cab's view is built once and shared by every reply.
            views: Dict[int, CarView] = {}
            for i in np.unique(order).tolist():
                pos = LatLon(float(lat[i]), float(lon[i]))
                views[i] = CarView(
                    car_id=self._tokens[visible[i]],
                    location=pos,
                    path=((now, pos.lat, pos.lon),),
                )
            nearest2 = dist2[np.arange(len(requests)), order[:, 0]]
            for r, (row, d2) in enumerate(
                zip(order.tolist(), nearest2.tolist())
            ):
                cars[r] = tuple(views[i] for i in row)
                ewts[r] = max(1.0, math.sqrt(d2) / CAB_SPEED_MPS / 60.0)
        return [
            PingReply(
                timestamp=now,
                location=location,
                statuses=(
                    TypeStatus(
                        car_type=CarType.UBERT,
                        cars=served,
                        ewt_minutes=ewt,
                        surge_multiplier=1.0,
                    ),
                ),
            )
            for (_, location, _), served, ewt in zip(requests, cars, ewts)
        ]

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
