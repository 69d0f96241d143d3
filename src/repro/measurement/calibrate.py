"""Calibration experiments (§3.4).

Three experiments precede any data collection:

1. **Determinism** — place many clients at the same geolocation; all must
   receive exactly the same vehicles, multipliers, and EWTs.  (Run it
   against a jitter-free world, as the paper did in late 2013 / early
   2014 — with the April-2015 bug active, multipliers differ per client,
   which is precisely how the bug was later noticed.)
2. **Surge non-impact** — 43 clients parked in a quiet residential spot at
   4am must record multiplier 1 throughout: the measurement apparatus
   itself must not induce surge.
3. **Visibility radius** — four clients start together and walk 20 m
   NE/NW/SE/SW every 5 s until they no longer share a single observed
   car; the radius is ``r = sum(D_c) / (4 * sqrt(2)) ~= 0.1768 * sum(D_c)``
   (a 45-45-90 triangle argument with D the hypotenuse).

Every step of every experiment is one lock-step round of its clients
(:func:`~repro.measurement.fleet.ping_round`), as the campaign fleet's
is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.geo.latlon import LatLon
from repro.marketplace.types import CarType
from repro.measurement.client import MeasurementClient
from repro.measurement.fleet import World, ping_round

#: The paper's constant: 1 / (4 * sqrt(2)).
RADIUS_COEFFICIENT = 0.1768

#: Each calibration step moves a client 20 m diagonally (§3.4).
_STEP_M = 20.0
_DIAG = _STEP_M / math.sqrt(2.0)
_DIRECTIONS = (
    (+_DIAG, +_DIAG),   # NE
    (+_DIAG, -_DIAG),   # NW
    (-_DIAG, +_DIAG),   # SE
    (-_DIAG, -_DIAG),   # SW
)


@dataclass(frozen=True)
class CalibrationReport:
    """Outcome of a determinism or surge-impact check."""

    passed: bool
    rounds: int
    detail: str = ""


def check_determinism(
    world: World,
    location: LatLon,
    n_clients: int = 43,
    rounds: int = 60,
    car_type: CarType = CarType.UBERX,
) -> CalibrationReport:
    """Do co-located clients all see the same world?

    Compares car-ID sets, EWTs, and surge multipliers across *n_clients*
    clients pinging from the identical coordinate.
    """
    clients = [
        MeasurementClient(f"cal{i:02d}", location, [car_type])
        for i in range(n_clients)
    ]
    for round_no in range(rounds):
        observations = []
        for samples, _ in ping_round(world.server, clients):
            sample = samples.get(car_type)
            observations.append(
                None
                if sample is None
                else (
                    frozenset(sample.car_ids),
                    sample.ewt_minutes,
                    sample.multiplier,
                )
            )
        first = observations[0]
        for i, obs in enumerate(observations[1:], start=1):
            if obs != first:
                return CalibrationReport(
                    passed=False,
                    rounds=round_no + 1,
                    detail=(
                        f"client {i} diverged from client 0 in round "
                        f"{round_no}: {obs!r} != {first!r}"
                    ),
                )
        world.advance(5.0)
    return CalibrationReport(passed=True, rounds=rounds)


def check_surge_impact(
    world: World,
    location: LatLon,
    n_clients: int = 43,
    duration_s: float = 3600.0,
    car_type: CarType = CarType.UBERX,
) -> CalibrationReport:
    """Does the presence of many clients induce surge?  It must not.

    Park the full fleet at *location* (pick a quiet hour) and verify the
    multiplier stays 1 for the entire window.
    """
    clients = [
        MeasurementClient(f"cal{i:02d}", location, [car_type])
        for i in range(n_clients)
    ]
    rounds = 0
    end = world.now + duration_s
    while world.now < end:
        for client, (samples, _) in zip(
            clients, ping_round(world.server, clients)
        ):
            sample = samples.get(car_type)
            if sample is not None and sample.multiplier > 1.0:
                return CalibrationReport(
                    passed=False,
                    rounds=rounds,
                    detail=(
                        f"multiplier {sample.multiplier} observed by "
                        f"{client.client_id} at t={world.now:.0f}"
                    ),
                )
        rounds += 1
        world.advance(5.0)
    return CalibrationReport(passed=True, rounds=rounds)


def visibility_radius(
    world: World,
    start: LatLon,
    car_type: CarType = CarType.UBERX,
    max_steps: int = 200,
) -> Optional[float]:
    """One §3.4 walk-outward experiment; returns the radius in metres.

    Four clients walk apart diagonally until they share no observed car;
    ``None`` when the walk never started (no cars visible at all) or the
    sets never separated within *max_steps*.
    """
    clients = [
        MeasurementClient(f"walk{i}", start, [car_type]) for i in range(4)
    ]
    for _ in range(max_steps):
        observed: List[frozenset] = []
        for samples, _ in ping_round(world.server, clients):
            sample = samples.get(car_type)
            observed.append(
                frozenset() if sample is None else frozenset(sample.car_ids)
            )
        if not any(observed):
            return None
        common = observed[0]
        for obs in observed[1:]:
            common &= obs
        if not common:
            total = sum(c.location.distance_m(start) for c in clients)
            return RADIUS_COEFFICIENT * total
        for client, (north, east) in zip(clients, _DIRECTIONS):
            client.walk_by(north, east)
        world.advance(5.0)
    return None


def visibility_radius_profile(
    world: World,
    location: LatLon,
    sample_every_s: float = 3600.0,
    duration_s: float = 86_400.0,
    car_type: CarType = CarType.UBERX,
) -> List[Tuple[float, Optional[float]]]:
    """Visibility radius through a day (Fig 2).

    Returns ``(sim_seconds, radius_m)`` pairs, one per sample hour; radius
    is ``None`` where no cars were visible (deep night in a quiet world).
    """
    results: List[Tuple[float, Optional[float]]] = []
    end = world.now + duration_s
    while world.now < end:
        t = world.now
        results.append(
            (t, visibility_radius(world, location, car_type=car_type))
        )
        elapsed = world.now - t
        if elapsed < sample_every_s:
            world.advance(sample_every_s - elapsed)
    return results
