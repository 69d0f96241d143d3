"""Driver agents.

Drivers are independent contractors with their own vehicles (§2).  Each
agent cycles through a small state machine::

    OFFLINE -> IDLE -> EN_ROUTE -> ON_TRIP -> IDLE -> ... -> OFFLINE

Behavioural details that matter for reproducing the paper:

* **Public IDs are randomized per online session.**  The Client app assigns
  each car a fresh unique ID every time it comes online (§3.3), which is
  why the paper cannot track individual drivers and why our analysis code
  must not either.
* **Path vectors.**  Each `pingClient` response carries a short trace of
  the car's recent movements; the paper uses it to disambiguate cars that
  drive out of the measurement area from cars that were booked (§3.3).
* **Surge response.**  When a neighbouring area surges at least 0.2 above
  the driver's area, idle drivers relocate toward it with a configurable
  (small) probability — the paper measured this flocking effect to be weak
  and inconsistent (§5.5, Fig 22).
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.geo.latlon import LatLon, interpolate
from repro.marketplace.types import CarType

#: Number of recent positions retained in a car's path vector.
PATH_VECTOR_LEN = 5

class DriverState(enum.Enum):
    OFFLINE = "offline"
    IDLE = "idle"
    EN_ROUTE = "en_route"  # driving to a pickup
    ON_TRIP = "on_trip"    # passenger aboard


@dataclass
class Trip:
    """One accepted ride request."""

    pickup: LatLon
    dropoff: LatLon
    requested_at: float
    rider_id: int
    surge_multiplier: float


@dataclass(eq=False)
class Driver:
    """A single driver agent.

    Drivers compare by identity: each object *is* one agent, and the
    engine's list removals must not build and compare every field of
    every driver ahead of the one removed.
    """

    driver_id: int
    car_type: CarType
    location: LatLon
    speed_mps: float
    state: DriverState = DriverState.OFFLINE
    session_token: Optional[str] = None
    online_since: Optional[float] = None
    planned_offline_at: Optional[float] = None
    trip: Optional[Trip] = None
    cruise_target: Optional[LatLon] = None
    trips_completed: int = 0
    earnings_usd: float = 0.0
    last_trip_at: Optional[float] = None
    #: Monotone per-driver counter; combined with driver_id it makes
    #: every public token unique within an engine while keeping runs
    #: deterministic (a process-global counter would leak state across
    #: engine instances and break same-seed reproducibility).
    token_serial: int = 0
    #: Driver-set pricing (the Sidecar model, §5.5 discussion): each
    #: driver's own rate multiplier.  Ignored under algorithmic surge.
    personal_rate: float = 1.0
    #: The path vector of a detached driver (the oracle engine and unit
    #: tests), started when it comes online.  An attached driver's path
    #: is its FleetArray ring: it never gets a deque.
    path: Optional[Deque[Tuple[float, LatLon]]] = None

    # ------------------------------------------------------------------
    # Session management
    # ------------------------------------------------------------------
    def come_online(
        self, now: float, session_seconds: float, rng: random.Random
    ) -> None:
        """Start an online session with a freshly randomized public ID."""
        if self.state is not DriverState.OFFLINE:
            raise RuntimeError("driver is already online")
        self.state = DriverState.IDLE
        self.online_since = now
        self.planned_offline_at = now + session_seconds
        self.session_token = self._new_token(rng)
        self._restart_path(now)

    def _new_token(self, rng: random.Random) -> str:
        """A fresh public identity: random-looking yet reproducible."""
        self.token_serial += 1
        return (
            f"{rng.getrandbits(64):016x}"
            f"-{self.driver_id:04d}{self.token_serial:04d}"
        )

    def come_back_idle(self, now: float, rng: random.Random) -> None:
        """Re-enter the idle pool after a dropoff, as a *new* public car.

        The Client app randomizes car IDs every time a car (re)appears
        (§3.3), so a completed trip manifests to observers as one car
        dying and an unrelated one being born.
        """
        if self.state is not DriverState.IDLE:
            raise RuntimeError("come_back_idle requires the IDLE state")
        self.session_token = self._new_token(rng)
        self._restart_path(now)

    def _restart_path(self, now: float) -> None:
        """A fresh path vector at the current position.  An attached
        driver's ring is reset by its FleetArray instead."""
        if self._fleet is None:
            self.path = deque([(now, self.location)], maxlen=PATH_VECTOR_LEN)

    def go_offline(self) -> None:
        if self.state is DriverState.OFFLINE:
            raise RuntimeError("driver is already offline")
        self.state = DriverState.OFFLINE
        self.session_token = None
        self.online_since = None
        self.planned_offline_at = None
        self.trip = None
        self.cruise_target = None
        if self.path is not None:
            self.path.clear()

    @property
    def is_dispatchable(self) -> bool:
        """Idle online drivers are the only ones dispatch may book."""
        return self.state is DriverState.IDLE

    def wants_to_leave(self, now: float) -> bool:
        """True when the planned session length has elapsed.

        Drivers never abandon a passenger: the engine defers the actual
        sign-off until any active trip completes.
        """
        return (
            self.planned_offline_at is not None
            and now >= self.planned_offline_at
        )

    # ------------------------------------------------------------------
    # Dispatch hooks
    # ------------------------------------------------------------------
    def assign(self, trip: Trip) -> None:
        if not self.is_dispatchable:
            raise RuntimeError(
                f"cannot assign trip to driver in state {self.state}"
            )
        self.trip = trip
        self.state = DriverState.EN_ROUTE
        self.cruise_target = None

    # ------------------------------------------------------------------
    # Movement
    # ------------------------------------------------------------------
    def step(self, now: float, dt: float, rng: random.Random) -> Optional[Trip]:
        """Advance the agent by *dt* seconds.

        Returns the completed :class:`Trip` if the passenger was dropped
        off during this step, else ``None``.  The engine handles fare
        accounting and post-trip state.
        """
        if self.state is DriverState.OFFLINE:
            return None
        completed: Optional[Trip] = None
        if self.state is DriverState.EN_ROUTE:
            assert self.trip is not None
            arrived = self._drive_toward(self.trip.pickup, dt)
            if arrived:
                self.state = DriverState.ON_TRIP
        elif self.state is DriverState.ON_TRIP:
            assert self.trip is not None
            arrived = self._drive_toward(self.trip.dropoff, dt)
            if arrived:
                completed = self.finish_trip()
        elif self.state is DriverState.IDLE:
            self._cruise(dt, rng)
        assert self.path is not None
        self.path.append((now, self.location))
        return completed

    def finish_trip(self) -> Trip:
        """Drop the passenger off; returns the trip for fare accounting."""
        trip = self.trip
        assert trip is not None
        self.trip = None
        self.state = DriverState.IDLE
        self.trips_completed += 1
        return trip

    def _drive_toward(self, target: LatLon, dt: float) -> bool:
        """Move straight toward *target*; True when it is reached."""
        dist = self.location.fast_distance_m(target)
        step = self.speed_mps * dt
        if dist <= step or dist <= 1.0:
            self.location = target
            return True
        self.location = interpolate(self.location, target, step / dist)
        return False

    def _cruise(self, dt: float, rng: random.Random) -> None:
        """Idle drift toward the current cruise target, if any.

        The engine sets :attr:`cruise_target` from the hotspot/surge
        relocation policy; idle drivers without a target jiggle in place
        (GPS-noise scale) so their path vectors stay fresh.
        """
        if self.cruise_target is not None:
            if self._drive_toward(self.cruise_target, dt * 0.5):
                self.cruise_target = None
            return
        # Small Brownian wobble, ~5 m per tick.
        self.location = self.location.offset(
            north_m=rng.gauss(0.0, 5.0), east_m=rng.gauss(0.0, 5.0)
        )

    def path_triples(self) -> Tuple[Tuple[float, float, float], ...]:
        """The path as flat ``(t, lat, lon)`` triples.

        This is the wire shape :class:`repro.api.models.CarView` carries.
        An attached driver reads them from its fleet's ring buffers.
        """
        fleet = self._fleet
        if fleet is not None:
            return fleet.ring_triples([self.driver_id - 1])[0]
        return tuple((t, p.lat, p.lon) for t, p in self.path or ())


# ----------------------------------------------------------------------
# Read-through array-backed location (see repro.marketplace.fleet_array)
# ----------------------------------------------------------------------
# On the production engine a FleetArray (structure-of-arrays numpy state)
# is the only copy of every car's position, path ring and movement state.
# Attaching a driver to it makes `location` a data descriptor that reads
# the driver's row on every access and writes assignments into it, and
# `path_triples` above reads the row's ring; nothing is cached on the
# object, so there is nothing to sync.  The row is `driver_id - 1`
# (FleetArray enforces contiguous ids), so the object stores no index.
# Detached drivers (`_fleet is None` -- the oracle's step path and
# standalone unit tests) keep their location in the instance and pay one
# attribute indirection.
#
# The property is assigned *after* the dataclass decorator has run so the
# generated __init__/__repr__ treat `location` as the ordinary field they
# were built for; a detached driver's storage is __dict__["_loc"].

#: FleetArray the driver is attached to, or None (detached).
Driver._fleet = None


def _location_get(self: Driver) -> LatLon:
    fleet = self._fleet
    if fleet is not None:
        return fleet.location_of(self.driver_id - 1)
    return self.__dict__["_loc"]


def _location_set(self: Driver, value: LatLon) -> None:
    fleet = self._fleet
    if fleet is not None:
        fleet.set_location(self.driver_id - 1, value)
    else:
        self.__dict__["_loc"] = value


Driver.location = property(_location_get, _location_set)
