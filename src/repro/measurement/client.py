"""A single emulated measurement client.

"We wrote a script that emulates the exact behavior of the Client app.
Our script logs-in to Uber, sends pingClient messages every 5 seconds,
and records the responses.  By controlling the latitude and longitude
sent by the script, we can collect data from arbitrary locations." (§3.3)

Each client owns an account ID (the paper created 43 accounts) and a
geolocation it reports.  The location is mutable — the calibration
experiments "walk" clients outward (§3.4), and the avoidance strategy
moves the pickup pin (§6).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.geo.latlon import LatLon
from repro.api.models import PingReply
from repro.marketplace.types import CarType
from repro.measurement.records import ClientSample

#: What a client makes of one reply: its sample per car type, and the
#: position of every car it saw, keyed by car ID.
Digest = Tuple[Dict[CarType, ClientSample], Dict[str, Tuple[float, float]]]


class MeasurementClient:
    """One emulated Client app instance."""

    def __init__(
        self,
        client_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> None:
        if not client_id:
            raise ValueError("client_id cannot be empty")
        self.client_id = client_id
        self.location = location
        self.car_types = None if car_types is None else tuple(car_types)
        self.pings_sent = 0

    def absorb(self, reply: PingReply) -> Digest:
        """Digest this client's reply from a lock-step round.

        Returns per-type samples plus the positions of every car seen,
        for merging into the fleet's round record.  Each reply counts as
        one ping sent.
        """
        self.pings_sent += 1
        samples: Dict[CarType, ClientSample] = {}
        cars: Dict[str, Tuple[float, float]] = {}
        for status in reply.statuses:
            samples[status.car_type] = ClientSample(
                multiplier=status.surge_multiplier,
                ewt_minutes=status.ewt_minutes,
                car_ids=tuple(c.car_id for c in status.cars),
            )
            for car in status.cars:
                cars[car.car_id] = (car.location.lat, car.location.lon)
        return samples, cars

    def walk_by(self, north_m: float, east_m: float) -> None:
        """Displace the reported geolocation by metres north/east."""
        self.location = self.location.offset(north_m, east_m)
