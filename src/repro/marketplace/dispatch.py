"""Dispatch: nearest-driver matching and EWT computation.

Uber "routes passenger requests to the nearest driver" (§2).  Only *idle*
drivers are matchable — and only idle drivers appear in the Client app's
nearest-8 car list, which is precisely why a booked car vanishes from the
measurement data and can be counted as (an upper bound on) fulfilled
demand (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.geo.latlon import LatLon
from repro.marketplace.driver import Driver, Trip
from repro.marketplace.rider import RideRequest
from repro.marketplace.types import CarType

#: Seconds of fixed overhead between acceptance and wheels moving.
PICKUP_OVERHEAD_S = 120.0

#: Drivers further than this from a pickup are never dispatched.
MAX_DISPATCH_RADIUS_M = 4_000.0


@dataclass(frozen=True)
class EwtEstimate:
    """An estimated wait time, as surfaced to passengers."""

    minutes: float
    nearest_distance_m: float


class Dispatcher:
    """Stateless matching logic over a driver collection."""

    def __init__(
        self,
        pickup_overhead_s: float = PICKUP_OVERHEAD_S,
        max_radius_m: float = MAX_DISPATCH_RADIUS_M,
    ) -> None:
        if pickup_overhead_s < 0:
            raise ValueError("pickup overhead cannot be negative")
        if max_radius_m <= 0:
            raise ValueError("dispatch radius must be positive")
        self.pickup_overhead_s = pickup_overhead_s
        self.max_radius_m = max_radius_m

    # ------------------------------------------------------------------
    def nearest_idle(
        self,
        drivers: Iterable[Driver],
        location: LatLon,
        car_type: CarType,
        k: int = 8,
    ) -> List[Driver]:
        """The *k* closest dispatchable drivers of *car_type*.

        This is the same view `pingClient` serves: eight cars, nearest
        first (§3.3), ordered by ``(distance, driver_id)`` — the linear
        scan the engine's array path must reproduce exactly.
        """
        candidates = [
            (d.location.fast_distance_m(location), d.driver_id, d)
            for d in drivers
            if d.is_dispatchable and d.car_type is car_type
        ]
        candidates.sort(key=lambda item: (item[0], item[1]))
        return [d for _, _, d in candidates[:k]]

    def estimate_wait(
        self,
        drivers: Iterable[Driver],
        location: LatLon,
        car_type: CarType,
    ) -> Optional[EwtEstimate]:
        """EWT at *location*, or ``None`` when no car is available.

        Computed from the nearest idle car's straight-line travel time
        plus a fixed pickup overhead, floored at one minute — the Client
        app never shows "0 minutes".
        """
        nearest = self.nearest_idle(drivers, location, car_type, k=1)
        if not nearest:
            return None
        return self.ewt_for(nearest[0], location)

    def ewt_for(self, driver: Driver, location: LatLon) -> EwtEstimate:
        """EWT given the already-known nearest idle driver.

        Callers that hold a nearest-car list (the ping endpoint fetches
        one anyway) can derive the EWT from its head instead of paying
        for a second nearest-driver query.
        """
        dist = driver.location.fast_distance_m(location)
        seconds = dist / driver.speed_mps + self.pickup_overhead_s
        return EwtEstimate(
            minutes=max(1.0, seconds / 60.0), nearest_distance_m=dist
        )

    # ------------------------------------------------------------------
    def dispatch(
        self,
        request: RideRequest,
        drivers: Iterable[Driver],
        now: float,
    ) -> Optional[Driver]:
        """Book the nearest idle driver for a converted request.

        Returns the booked driver, or ``None`` when no driver of the
        right type is within :attr:`max_radius_m` (an unfulfilled
        request — invisible to the measurement methodology, which only
        sees *fulfilled* demand, §3.3).
        """
        if not request.converted:
            raise ValueError("cannot dispatch a priced-out request")
        nearest = self.nearest_idle(
            drivers, request.pickup, request.car_type, k=1
        )
        if not nearest:
            return None
        driver = nearest[0]
        if driver.location.fast_distance_m(request.pickup) > self.max_radius_m:
            return None
        driver.assign(
            Trip(
                pickup=request.pickup,
                dropoff=request.dropoff,
                requested_at=now,
                rider_id=request.rider_id,
                surge_multiplier=request.multiplier_seen,
            )
        )
        return driver
