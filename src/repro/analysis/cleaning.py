"""Data cleaning: car tracks, short-lived-car filtering, death detection.

The methodology (§3.3, §4.1) turns raw ping rounds into per-car tracks,
then:

* **filters short-lived cars** — a car glimpsed for only a round or two
  was likely drifting past the measurement boundary, displaced from the
  nearest-8 list, or both; keeping them would inflate supply and demand;
* **detects deaths** — a car present in round *k* but absent from *every*
  client's round *k+1* died; deaths away from the region edge upper-bound
  fulfilled demand (restriction 2: edge deaths may just be cars driving
  out, so they are excluded — conservatively).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geo.latlon import LatLon
from repro.geo.polygon import Polygon
from repro.marketplace.types import CarType
from repro.measurement.records import CampaignLog


@dataclass
class CarTrack:
    """Everything observed about one (randomized) car identity."""

    car_id: str
    car_type: CarType
    sightings: List[Tuple[float, float, float]] = field(
        default_factory=list
    )  # (t, lat, lon), time-sorted

    @property
    def first_seen(self) -> float:
        return self.sightings[0][0]

    @property
    def last_seen(self) -> float:
        return self.sightings[-1][0]

    @property
    def lifespan_s(self) -> float:
        """Observed lifespan (first sighting to last, §4.1 Fig 7)."""
        return self.last_seen - self.first_seen

    @property
    def last_position(self) -> LatLon:
        _, lat, lon = self.sightings[-1]
        return LatLon(lat, lon)


@dataclass(frozen=True)
class Death:
    """A car disappearing from the merged observation stream."""

    car_id: str
    car_type: CarType
    t: float  # the first round at which the car was gone
    last_position: LatLon
    near_edge: bool

    @property
    def countable(self) -> bool:
        """Counts toward fulfilled demand (not an edge disappearance)."""
        return not self.near_edge


def build_tracks(log: CampaignLog) -> Dict[str, CarTrack]:
    """Assemble per-car tracks from a campaign log.

    A car's type is taken from the per-type sample block it appeared in;
    IDs never collide across types because they identify vehicles.
    """
    tracks: Dict[str, CarTrack] = {}
    for record in log.rounds:
        # Map new car ids to their type via the sample blocks.
        for (_, car_type), sample in record.samples.items():
            for car_id in sample.car_ids:
                if car_id not in tracks:
                    tracks[car_id] = CarTrack(car_id=car_id,
                                              car_type=car_type)
        for car_id, (lat, lon) in record.cars.items():
            track = tracks.get(car_id)
            if track is not None:
                track.sightings.append((record.t, lat, lon))
    return tracks


def filter_short_lived(
    tracks: Dict[str, CarTrack],
    min_lifespan_s: float = 60.0,
) -> Dict[str, CarTrack]:
    """Drop cars observed for less than *min_lifespan_s*.

    "We can safely filter short-lived cars from our dataset, and focus
    ... only on cars that are driving within the bounds of our
    measurement area." (§4.1)
    """
    if min_lifespan_s < 0:
        raise ValueError("minimum lifespan cannot be negative")
    return {
        car_id: track
        for car_id, track in tracks.items()
        if track.lifespan_s >= min_lifespan_s
    }


def detect_deaths(
    log: CampaignLog,
    tracks: Dict[str, CarTrack],
    boundary: Optional[Polygon] = None,
    edge_margin_m: float = 150.0,
) -> List[Death]:
    """Deaths: cars that vanish from the merged stream before the end.

    A track whose last sighting precedes the final round died at the next
    round after :attr:`CarTrack.last_seen`.  With *boundary* given,
    deaths within *edge_margin_m* of it are flagged ``near_edge`` and
    excluded from demand counts by callers (§3.3 restriction 2).
    """
    if not log.rounds:
        return []
    last_round_t = log.rounds[-1].t
    round_times = [r.t for r in log.rounds]
    deaths: List[Death] = []
    for track in tracks.values():
        if not track.sightings:
            continue
        if track.last_seen >= last_round_t:
            continue  # still alive when the campaign ended
        # Death timestamp: the first round strictly after last_seen
        # (the log's round times ascend, and last_seen precedes the
        # final round).
        t_death = round_times[bisect_right(round_times, track.last_seen)]
        pos = track.last_position
        near_edge = False
        if boundary is not None:
            near_edge = boundary.distance_to_boundary_m(pos) <= edge_margin_m
        deaths.append(
            Death(
                car_id=track.car_id,
                car_type=track.car_type,
                t=t_death,
                last_position=pos,
                near_edge=near_edge,
            )
        )
    deaths.sort(key=lambda d: d.t)
    return deaths
