"""The marketplace simulation engine.

Binds geography, drivers, demand, dispatch, and surge pricing into a
deterministic fixed-step loop.  One engine simulates one city.  Each tick
(default 5 s, matching the Client app ping period):

1. the surge engine publishes new multipliers if its 5-minute clock fired;
2. the online driver pool is relaxed toward its diurnal target (with a
   small surge incentive on arrivals, §5.5);
3. ride requests are generated, priced, possibly converted, and dispatched
   to the nearest idle driver;
4. every online driver advances (cruising, driving to pickup, on trip);
5. per-area supply/EWT observations are fed to the surge engine, and
   ground truth is logged per 5-minute interval.

**Public car identities.**  A car's public token is refreshed every time
it (re)enters the idle pool — on coming online *and* after each dropoff —
which is why the paper can treat a disappearing car as a fulfilled ride
("death") and why unique-ID counts are a strict upper bound on true
supply (§3.3, Fig 9 caption).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.geo.latlon import LatLon
from repro.geo.polygon import PolygonSet
from repro.geo.regions import SurgeAreaDef
from repro.marketplace.clock import SimClock
from repro.marketplace.config import CityConfig
from repro.marketplace.dispatch import Dispatcher
from repro.marketplace.driver import Driver, DriverState, Trip
from repro.marketplace.fleet_array import FleetArray, RoundNearest
from repro.marketplace.rider import DemandModel, RideRequest, _poisson
from repro.marketplace.surge import SurgeEngine
from repro.marketplace.jitter import JitterBug
from repro.marketplace.types import FARE_TABLE, CarType

METERS_PER_MILE = 1609.344


@dataclass
class IntervalTruth:
    """Ground truth for one 5-minute interval (for validation and benches)."""

    interval_index: int
    start_s: float
    online_by_type: Dict[CarType, int] = field(default_factory=dict)
    distinct_online_uberx: int = 0
    fulfilled_by_area: Dict[int, int] = field(default_factory=dict)
    requests_by_area: Dict[int, int] = field(default_factory=dict)
    priced_out: int = 0
    unfulfilled: int = 0
    mean_idle_uberx_by_area: Dict[int, float] = field(default_factory=dict)
    multipliers: Dict[int, float] = field(default_factory=dict)
    mean_ewt_by_area: Dict[int, float] = field(default_factory=dict)

    @property
    def fulfilled_total(self) -> int:
        return sum(self.fulfilled_by_area.values())


@dataclass
class CompletedTrip:
    """Bookkeeping record of one completed ride."""

    rider_id: int
    car_type: CarType
    pickup: LatLon
    dropoff: LatLon
    requested_at: float
    completed_at: float
    surge_multiplier: float
    fare_usd: float


class MarketplaceEngine:
    """Deterministic simulation of one city's ride-sharing marketplace.

    Two implementations of one behaviour, chosen by
    ``use_vectorized_step``:

    * **production** (the default): fleet state in a numpy
      :class:`FleetArray`, the per-tick idle-car census counted by one
      :class:`PolygonSet` pass, and whole ping rounds answered by one
      batched, serial ``serve_round`` pass;
    * **oracle** (``use_vectorized_step=False``): ``Driver`` objects
      stepped one by one, brute-force linear dispatch, a polygon scan
      per idle car, and one ``ping()`` per client — the readable
      reference the tests hold the production path to.

    Both look a single point's surge area up with the same first-match
    polygon scan (:meth:`area_id_of`).

    The flag must only ever change speed: same-seed truth logs, trip
    ledgers, ping replies, and RNG state are bit-identical on both
    paths (tier-1 enforced, golden digest included).  The engine is
    serial and starts no thread or process.
    """

    def __init__(
        self,
        config: CityConfig,
        seed: int = 0,
        use_vectorized_step: bool = True,
    ) -> None:
        self.config = config
        self.use_vectorized_step = use_vectorized_step
        self.rng = random.Random(seed)
        self.clock = SimClock(
            start_weekday=config.start_weekday, tick_seconds=5.0
        )
        self.dispatcher = Dispatcher()
        self.demand = DemandModel(
            region=config.region,
            profile=config.demand_profile,
            peak_requests_per_hour=config.peak_requests_per_hour,
            type_mix=dict(config.type_mix),
            elasticity=config.demand_elasticity,
            wait_out_fraction=config.wait_out_fraction,
        )
        area_ids = [a.area_id for a in config.region.surge_areas]
        self.surge = SurgeEngine(
            area_ids, config.surge, random.Random(seed + 1)
        )
        self.jitter = JitterBug(config.jitter, seed=seed + 2)
        self._adjacency = config.region.adjacency()
        self._area_list: Tuple[SurgeAreaDef, ...] = tuple(
            config.region.surge_areas
        )
        self._centroids: Dict[int, LatLon] = {
            a.area_id: a.polygon.centroid() for a in self._area_list
        }

        # Build the full driver pool (offline initially).
        self.drivers: List[Driver] = []
        ids = itertools.count(1)
        for car_type, count in config.fleet.items():
            for _ in range(count):
                self.drivers.append(
                    Driver(
                        driver_id=next(ids),
                        car_type=car_type,
                        location=self.demand.sample_point(self.rng),
                        speed_mps=config.driver.speed_mps,
                    )
                )
        self._offline_by_type: Dict[CarType, List[Driver]] = {}
        self._online_by_type: Dict[CarType, List[Driver]] = {}
        for car_type in config.fleet:
            self._offline_by_type[car_type] = [
                d for d in self.drivers if d.car_type is car_type
            ]
            self._online_by_type[car_type] = []

        # Vectorized fleet stepping (structure-of-arrays; see
        # repro.marketplace.fleet_array).  The FleetArray becomes the only
        # copy of every car's position, path ring and movement state:
        # attached drivers' `location` and `path_triples` read through
        # to their rows.
        self._vec: Optional[FleetArray] = None
        if use_vectorized_step:
            self._vec = FleetArray(self.drivers)
            self._centroid_lat = np.array(
                [c.lat for c in self._centroids.values()],
                dtype=np.float64,
            )
            self._centroid_lon = np.array(
                [c.lon for c in self._centroids.values()],
                dtype=np.float64,
            )
            # Interval-distinct online UberX, as a seen-bits array (the
            # scalar path accumulates a set of driver ids; only the
            # count reaches the truth log).
            self._seen_online_x = np.zeros(len(self.drivers), dtype=bool)
            self._surge_polygons = PolygonSet(
                [a.polygon for a in self._area_list]
            )

        # Ground-truth logging.
        self.truth: List[IntervalTruth] = []
        self.completed_trips: List[CompletedTrip] = []
        self._current_truth = IntervalTruth(interval_index=0, start_s=0.0)
        self._interval_online_uberx: Set[int] = set()
        self._interval_ewt_acc: Dict[int, List[float]] = {
            a: [] for a in area_ids
        }
        self._interval_idle_acc: Dict[int, Tuple[float, int]] = {
            a: (0.0, 0) for a in area_ids
        }

        # City-wide demand-burst level (AR(1), stepped per interval).
        self._burst_level = 1.0
        self._burst_rng = random.Random(seed + 3)

        # Warm-up: pre-seed the online pool at the midnight target so the
        # first simulated hours aren't an artificial cold start.
        self._seed_initial_supply()

    def close(self) -> None:
        """Release the engine's resources — a no-op, kept for callers.

        The engine holds no thread, process, or shared-memory segment,
        so there is nothing to release; dropping an engine is enough.
        The method stays so code written against the closeable engine
        keeps working.
        """

    # ------------------------------------------------------------------
    # Supply management
    # ------------------------------------------------------------------
    def _supply_targets(self) -> Dict[CarType, float]:
        """Each type's online target: its fleet size scaled by the
        diurnal online fraction and the surge boost (§5.5), both
        evaluated once for every type."""
        frac = self.config.online_fraction.level(
            self.clock.hour_of_day, self.clock.is_weekend
        )
        mults = self.surge.multipliers()
        # A region may legitimately have zero surge areas (e.g. a
        # driver-set-pricing city): no areas means no surge incentive,
        # not a ZeroDivisionError.
        mean_excess = (
            sum(m - 1.0 for m in mults.values()) / len(mults)
            if mults
            else 0.0
        )
        boost = 1.0 + self.config.driver.surge_supply_incentive * mean_excess
        return {
            car_type: size * frac * boost
            for car_type, size in self.config.fleet.items()
        }

    def _target_online(self, car_type: CarType) -> float:
        return self._supply_targets()[car_type]

    def _seed_initial_supply(self) -> None:
        for car_type, target in self._supply_targets().items():
            for _ in range(int(round(target))):
                self._bring_one_online(car_type)

    def _bring_one_online(self, car_type: CarType) -> None:
        pool = self._offline_by_type[car_type]
        if pool:
            driver = pool.pop(self.rng.randrange(len(pool)))
            driver.location = self.demand.sample_point(self.rng)
            self._start_session(driver)

    def _start_session(self, driver: Driver) -> None:
        """Put an offline *driver* online where it stands, for a random
        session length, at the end of its type's online list."""
        session = self.rng.expovariate(
            1.0 / self.config.driver.mean_session_s
        )
        now = self.clock.now
        driver.come_online(now, max(300.0, session), self.rng)
        self._online_by_type[driver.car_type].append(driver)
        if self._vec is not None:
            self._vec.on_online(driver, now)

    def _manage_supply(self, dt: float) -> None:
        tau = self.config.driver.supply_tau_s
        for car_type, target in self._supply_targets().items():
            deficit = target - self.online_count(car_type)
            if deficit > 0:
                arrivals = _poisson(dt * deficit / tau, self.rng)
                for _ in range(arrivals):
                    self._bring_one_online(car_type)
            elif deficit < -2:
                # Over target: idle drivers sign off early at a matching
                # hazard, keeping the pool tracking the diurnal curve down
                # as well as up.
                departures = _poisson(dt * (-deficit) / tau, self.rng)
                if departures:
                    idle = self.idle_drivers(car_type)
                    for _ in range(min(departures, len(idle))):
                        self._take_offline(
                            idle.pop(self.rng.randrange(len(idle)))
                        )

    def _take_offline(self, driver: Driver) -> None:
        # The driver keeps its final position across the offline gap
        # (release_supply re-onlines drivers in place); on production
        # that position is the FleetArray row, which on_offline leaves.
        driver.go_offline()
        self._online_by_type[driver.car_type].remove(driver)
        self._offline_by_type[driver.car_type].append(driver)
        if self._vec is not None:
            self._vec.on_offline(driver)

    # ------------------------------------------------------------------
    # Experiment hooks: supply withholding (the collusion attack)
    # ------------------------------------------------------------------
    def withhold_supply(
        self,
        car_type: CarType,
        count: int,
        area_id: Optional[int] = None,
    ) -> List[int]:
        """Take up to *count* idle drivers offline and return their ids.

        The paper warns the black-box surge algorithm is "vulnerable to
        exploitation ... possibly by colluding groups of drivers" [2]:
        drivers who sign off together shrink measured supply, trigger
        surge, then sign back on to harvest the multiplier.  This hook
        (with :meth:`release_supply`) stages that attack in experiments;
        the production loop never calls it.
        """
        if count < 0:
            raise ValueError("count cannot be negative")
        candidates = [
            d for d in self.idle_drivers(car_type)
            if area_id is None or self.area_id_of(d.location) == area_id
        ]
        self.rng.shuffle(candidates)
        withheld = []
        for driver in candidates[:count]:
            self._take_offline(driver)
            withheld.append(driver.driver_id)
        return withheld

    def release_supply(self, driver_ids: Sequence[int]) -> int:
        """Bring specific withheld drivers back online; returns how many."""
        wanted = set(driver_ids)
        restored = 0
        for pool in self._offline_by_type.values():
            for driver in [d for d in pool if d.driver_id in wanted]:
                pool.remove(driver)
                self._start_session(driver)
                restored += 1
        return restored

    # ------------------------------------------------------------------
    # Pricing lookups
    # ------------------------------------------------------------------
    def area_id_of(self, location: LatLon) -> Optional[int]:
        """The first surge area whose polygon contains *location*."""
        for area in self._area_list:
            if area.polygon.contains(location):
                return area.area_id
        return None

    def true_multiplier(self, location: LatLon, car_type: CarType) -> float:
        """The multiplier billing actually uses (never jittered)."""
        if not car_type.surge_eligible:
            return 1.0
        area_id = self.area_id_of(location)
        if area_id is None:
            return 1.0
        return self.surge.multiplier(area_id)

    def observed_multiplier(
        self, account_id: str, location: LatLon, car_type: CarType
    ) -> float:
        """What a given client account is served — jitter bug included."""
        nearest = self.nearest_cars(location, car_type, k=1)
        return self.round_observed_multiplier(
            account_id,
            location,
            car_type,
            self.area_id_of(location),
            self.jitter.is_stale(account_id, self.clock.now),
            nearest[0] if nearest else None,
        )

    # ------------------------------------------------------------------
    # Car/EWT views (consumed by the API layer)
    # ------------------------------------------------------------------
    def idle_drivers(self, car_type: CarType) -> List[Driver]:
        """The dispatchable drivers of *car_type*, in online-list order."""
        vec = self._vec
        if vec is not None:
            drivers = self.drivers
            rows = vec.in_online_order(vec.idle_rows(car_type))
            return [drivers[r] for r in rows.tolist()]
        return [
            d for d in self._online_by_type.get(car_type, ())
            if d.is_dispatchable
        ]

    def nearest_cars(
        self, location: LatLon, car_type: CarType, k: int = 8
    ) -> List[Driver]:
        if self._vec is not None:
            drivers = self.drivers
            return [
                drivers[row]
                for _, row in self._vec.nearest_rows(location, car_type, k)
            ]
        return self.dispatcher.nearest_idle(
            self._online_by_type.get(car_type, ()),
            location,
            car_type,
            k=k,
        )

    def estimate_wait_minutes(
        self, location: LatLon, car_type: CarType
    ) -> Optional[float]:
        if self._vec is not None:
            res = self._vec.nearest_rows(location, car_type, 1)
            if not res:
                return None
            return self.ewt_from_nearest(res[0])
        est = self.dispatcher.estimate_wait(
            self._online_by_type.get(car_type, ()),
            location,
            car_type,
        )
        return None if est is None else est.minutes

    def ewt_from_nearest(self, nearest: Tuple[float, int]) -> float:
        """EWT from an already-computed ``(distance_m, row)`` nearest
        pair — the same arithmetic as ``Dispatcher.ewt_for`` without
        re-reading the driver's location (the array distance is
        bit-identical to ``fast_distance_m``).  Public so the batched
        round-serving path (:meth:`round_query` consumers) can derive
        EWTs from the shared distance matrix."""
        dist, row = nearest
        seconds = (
            dist / self.drivers[row].speed_mps
            + self.dispatcher.pickup_overhead_s
        )
        return max(1.0, seconds / 60.0)

    # ------------------------------------------------------------------
    # Batched round serving (consumed by PingEndpoint.serve_round)
    # ------------------------------------------------------------------
    def round_query(
        self,
        lats: np.ndarray,
        lons: np.ndarray,
        k: int,
        car_types: Optional[Iterable[CarType]] = None,
    ) -> Optional["RoundNearest"]:
        """Top-k nearest dispatchable rows for a whole round of ping
        locations, or ``None`` on the oracle.

        The oracle has no FleetArray, so callers fall back to
        per-client nearest-car scans, which produce bit-identical
        results (see ``FleetArray.round_nearest``).
        *car_types* limits the batch to the types the round will serve.
        """
        if self._vec is None:
            return None
        return self._vec.round_nearest(lats, lons, k, car_types)

    def round_observed_multiplier(
        self,
        account_id: str,
        location: LatLon,
        car_type: CarType,
        area_id: Optional[int],
        stale: bool,
        nearest: Optional[Driver],
    ) -> float:
        """The multiplier *account_id* is served, given the surge area
        of *location*, whether the account's jitter window is open, and
        the nearest idle car of *car_type* (``None`` when none is idle).

        The one copy of the surge/jitter rule: :meth:`observed_multiplier`
        looks the inputs up and calls it, and a served round passes the
        area and staleness it computes once per request and the nearest
        car its query already found.  The surge rule ignores *nearest*.
        Pricing engines override this method alone (e.g.
        ``DriverSetPricingEngine``), so both serving paths change
        together.
        """
        if not car_type.surge_eligible:
            return 1.0
        if area_id is None:
            return 1.0
        if stale:
            return self.surge.previous_multiplier(area_id)
        return self.surge.multiplier(area_id)

    def online_count(self, car_type: CarType) -> int:
        return len(self._online_by_type.get(car_type, ()))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the marketplace by one clock step."""
        dt = self.clock.tick_seconds
        now = self.clock.tick()

        # Interval rollover for ground-truth logging.
        interval = self.clock.interval_index()
        if interval != self._current_truth.interval_index:
            self._finish_interval(interval)
            self._step_burst()

        self.surge.maybe_update(now)
        self._manage_supply(dt)
        self._generate_and_dispatch(now, dt)
        self._step_drivers(now, dt)
        self._post_step(now, dt)
        self._observe(now)

    def run(self, seconds: float) -> None:
        """Simulate *seconds* of marketplace time."""
        end = self.clock.now + seconds
        while self.clock.now < end:
            self.tick()

    # ------------------------------------------------------------------
    def _step_burst(self) -> None:
        """Advance the AR(1) demand-burst level once per interval."""
        p = self.config.burst
        level = 1.0 + p.rho * (self._burst_level - 1.0)
        level += self._burst_rng.gauss(0.0, p.sigma)
        self._burst_level = min(max(level, p.floor), p.cap)

    def _generate_and_dispatch(self, now: float, dt: float) -> None:
        requests = self.demand.generate(
            now,
            dt,
            self.clock.hour_of_day,
            self.clock.is_weekend,
            self.rng,
            multiplier_at=self.true_multiplier,
            rate_scale=self._burst_level,
        )
        truth = self._current_truth
        for request in requests:
            area_id = self.area_id_of(request.pickup)
            if area_id is not None:
                truth.requests_by_area[area_id] = (
                    truth.requests_by_area.get(area_id, 0) + 1
                )
                # The pricing signal weighs *placed* requests fully
                # and walked-away riders partially.  Surge onset thus
                # suppresses most of the signal that caused it — the
                # collapse half of the spike-and-collapse pattern the
                # paper measured — while the residual (plus bursts)
                # lets sustained events ramp the multiplier up in
                # capped steps (the staircase half, why jitter mostly
                # *drops* prices, §5.2).
                weight = (
                    1.0 if request.converted
                    else self.config.priced_out_demand_weight
                )
                self.surge.observe_demand(area_id, weight)
            if not request.converted:
                truth.priced_out += 1
                continue
            driver = self._dispatch_request(request, now)
            if driver is None:
                truth.unfulfilled += 1
                continue
            if area_id is not None:
                truth.fulfilled_by_area[area_id] = (
                    truth.fulfilled_by_area.get(area_id, 0) + 1
                )

    def _dispatch_request(
        self, request: RideRequest, now: float
    ) -> Optional[Driver]:
        """Book the nearest idle driver for *request*, if close enough.

        The vectorized branch replicates :meth:`Dispatcher.dispatch`
        operation for operation — same nearest-1 ordering, same radius
        rule on the same distance float, same Trip — against the fleet
        arrays instead of an object scan.
        """
        vec = self._vec
        if vec is None:
            return self.dispatcher.dispatch(
                request,
                self._online_by_type.get(request.car_type, ()),
                now,
            )
        res = vec.nearest_rows(request.pickup, request.car_type, 1)
        if not res:
            return None
        dist, row = res[0]
        if dist > self.dispatcher.max_radius_m:
            return None
        driver = self.drivers[row]
        trip = Trip(
            pickup=request.pickup,
            dropoff=request.dropoff,
            requested_at=now,
            rider_id=request.rider_id,
            surge_multiplier=request.multiplier_seen,
        )
        driver.assign(trip)
        vec.on_assign(driver, trip)
        return driver

    def _step_drivers(self, now: float, dt: float) -> None:
        if self._vec is not None:
            self._step_drivers_vec(now, dt)
            return
        decision_p = dt / self.config.driver.cruise_decision_s
        for online in self._online_by_type.values():
            # Iterate over a copy: completions can trigger sign-off which
            # mutates the online list.
            for driver in list(online):
                completed = driver.step(now, dt, self.rng)
                if completed is not None:
                    self._account_trip(driver, completed, now)
                    if driver.wants_to_leave(now):
                        self._take_offline(driver)
                        continue
                    # Reappear as a brand-new public car identity.
                    driver.come_back_idle(now, self.rng)
                elif (
                    driver.state is DriverState.IDLE
                    and driver.wants_to_leave(now)
                ):
                    self._take_offline(driver)
                    continue
                if (
                    driver.state is DriverState.IDLE
                    and driver.cruise_target is None
                    and self.rng.random() < decision_p
                ):
                    self._choose_cruise_target(driver)

    def _step_drivers_vec(self, now: float, dt: float) -> None:
        """Array-stepped equivalent of :meth:`_step_drivers`.

        Phase 1 (:meth:`FleetArray.begin_step`) advances every
        target-driven mover with batched array ops — no RNG there.  The
        loop below then visits only the rows whose scalar step would
        consume RNG or trigger an event: idle wobblers (2 gauss draws),
        trip completions (re-identification token), cruise-target
        arrivals and post-event decision draws, and session expiries.
        One sort per tick (:meth:`FleetArray.in_online_order`) puts
        them *in exactly the oracle's order* (online lists per car
        type); only their ``Driver`` objects are touched.  Wobble
        offsets whose position nothing reads this tick are deferred and
        batch-applied in :meth:`FleetArray.finish_step`; offsets a
        relocation decision (or sign-off) is about to read are applied
        inline with `math` arithmetic that matches the batched numpy
        path bit-for-bit.
        """
        vec = self._vec
        assert vec is not None
        rng = self.rng
        decision_p = dt / self.config.driver.cruise_decision_s
        masks = vec.begin_step(now, dt)
        wobble = masks.wobble
        cruise_arrived = masks.cruise_arrived
        completed = masks.completed
        leave = vec.planned_off <= now
        needs = completed | wobble | cruise_arrived | (masks.idle_like & leave)
        defer_rows: List[int] = []
        defer_north: List[float] = []
        defer_east: List[float] = []
        wobbled_rows: List[int] = []
        gauss = rng.gauss
        random_ = rng.random
        drivers = self.drivers
        for r in vec.in_online_order(np.flatnonzero(needs)).tolist():
            d = drivers[r]
            if completed[r]:
                self._account_trip(d, d.finish_trip(), now)
                if leave[r]:
                    self._take_offline(d)
                    continue
                # Reappear as a brand-new public car identity.
                d.come_back_idle(now, rng)
                vec.on_back_idle(d, now)
                if random_() < decision_p:
                    self._choose_cruise_target(d)
                    vec.set_target_from(d)
            elif wobble[r]:
                north = gauss(0.0, 5.0)
                east = gauss(0.0, 5.0)
                if leave[r]:
                    vec.apply_offset(r, north, east)
                    self._take_offline(d)
                    continue
                wobbled_rows.append(r)
                if random_() < decision_p:
                    # The relocation policy reads the post-wobble
                    # position, so this offset cannot be deferred.
                    vec.apply_offset(r, north, east)
                    self._choose_cruise_target(d)
                    vec.set_target_from(d)
                else:
                    defer_rows.append(r)
                    defer_north.append(north)
                    defer_east.append(east)
            elif cruise_arrived[r]:
                if leave[r]:
                    self._take_offline(d)
                    continue
                d.cruise_target = None
                if random_() < decision_p:
                    self._choose_cruise_target(d)
                    vec.set_target_from(d)
            else:
                # An idle cruiser (target not yet reached) whose
                # session expired: the scalar path signs it off right
                # after its move.
                self._take_offline(d)
        vec.finish_step(now, defer_rows, defer_north, defer_east, wobbled_rows)

    def _post_step(self, now: float, dt: float) -> None:
        """Hook for engine variants (e.g. driver-set pricing); no-op."""

    def _account_trip(
        self, driver: Driver, trip: Trip, now: float
    ) -> None:
        driver.last_trip_at = now
        meters = trip.pickup.fast_distance_m(trip.dropoff)
        minutes = meters / driver.speed_mps / 60.0
        fare = FARE_TABLE[driver.car_type].fare(
            miles=meters / METERS_PER_MILE,
            minutes=minutes,
            surge_multiplier=trip.surge_multiplier,
        )
        driver.earnings_usd += FARE_TABLE[driver.car_type].driver_payout(
            miles=meters / METERS_PER_MILE,
            minutes=minutes,
            surge_multiplier=trip.surge_multiplier,
        )
        self.completed_trips.append(
            CompletedTrip(
                rider_id=trip.rider_id,
                car_type=driver.car_type,
                pickup=trip.pickup,
                dropoff=trip.dropoff,
                requested_at=trip.requested_at,
                completed_at=now,
                surge_multiplier=trip.surge_multiplier,
                fare_usd=fare,
            )
        )

    def _choose_cruise_target(self, driver: Driver) -> None:
        """Idle relocation policy: flock to surge, else drift to demand."""
        behavior = self.config.driver
        my_area = self.area_id_of(driver.location)
        if my_area is not None and driver.car_type.surge_eligible:
            my_mult = self.surge.multiplier(my_area)
            best_neighbor = None
            best_mult = my_mult + 0.2  # the paper's >= 0.2 threshold (§5.5)
            for neighbor in self._adjacency.get(my_area, ()):
                m = self.surge.multiplier(neighbor)
                if m >= best_mult:
                    best_mult = m
                    best_neighbor = neighbor
            if (
                best_neighbor is not None
                and self.rng.random() < behavior.flock_probability
            ):
                centroid = self._centroids[best_neighbor]
                area = self.config.region.area_by_id(best_neighbor)
                target = centroid.offset(
                    north_m=self.rng.gauss(0.0, 200.0),
                    east_m=self.rng.gauss(0.0, 200.0),
                )
                # A flocking driver heads *into* the surging area, not to
                # a jittered point that may fall across its border.
                driver.cruise_target = (
                    target if area.contains(target) else centroid
                )
                return
        if self.rng.random() < behavior.hotspot_attraction:
            driver.cruise_target = self.demand.sample_point(self.rng)
            return
        wander = driver.location.offset(
            north_m=self.rng.gauss(0.0, 400.0),
            east_m=self.rng.gauss(0.0, 400.0),
        )
        # Drivers work the city: wandering never leads out of the region
        # for good (a driver nudged outside heads back to demand).
        if self.config.region.boundary.contains(wander):
            driver.cruise_target = wander
        else:
            driver.cruise_target = self.demand.sample_point(self.rng)

    # ------------------------------------------------------------------
    # Observation / ground truth
    # ------------------------------------------------------------------
    def _observe(self, now: float) -> None:
        if self._vec is not None:
            self._observe_vec(now)
            return
        # Per-area idle UberX supply + EWT at area centroids feed both the
        # surge engine and the ground-truth log.
        idle_counts = {a.area_id: 0 for a in self._area_list}
        for driver in self.idle_drivers(CarType.UBERX):
            area_id = self.area_id_of(driver.location)
            if area_id is not None:
                idle_counts[area_id] += 1
        for area_id, count in idle_counts.items():
            self.surge.observe_supply(area_id, count)
            total, n = self._interval_idle_acc[area_id]
            self._interval_idle_acc[area_id] = (total + count, n + 1)
        for area_id, centroid in self._centroids.items():
            ewt = self.estimate_wait_minutes(centroid, CarType.UBERX)
            if ewt is not None:
                self.surge.observe_ewt(area_id, ewt)
                self._interval_ewt_acc[area_id].append(ewt)
        for driver in self._online_by_type.get(CarType.UBERX, ()):
            self._interval_online_uberx.add(driver.driver_id)

    def _observe_vec(self, now: float) -> None:
        """Batched :meth:`_observe`: same observations, same order.

        Per-area idle counts come from one :class:`PolygonSet` pass
        over the idle UberX positions (exactly the first-match answer
        the scalar loop computes per driver); per-centroid EWTs from one
        :meth:`FleetArray.nearest` call at the area centroids with k = 1,
        the nearest-1 query (and ``(distance, driver_id)`` tie-break)
        the scalar loop makes per centroid.  The surge engine is fed per
        area in the same area-list order as the scalar loop.
        """
        vec = self._vec
        assert vec is not None
        area_list = self._area_list
        idle_x = vec.idle_rows(CarType.UBERX)
        if area_list:
            codes = self._surge_polygons.first_match(
                vec.lat[idle_x], vec.lon[idle_x]
            )
            counts = np.bincount(
                codes[codes >= 0], minlength=len(area_list)
            )
            for i, area in enumerate(area_list):
                area_id = area.area_id
                count = int(counts[i])
                self.surge.observe_supply(area_id, count)
                total, n = self._interval_idle_acc[area_id]
                self._interval_idle_acc[area_id] = (total + count, n + 1)
            if idle_x.size:
                dmin, nearest = vec.nearest(
                    self._centroid_lat, self._centroid_lon, CarType.UBERX, 1
                )
                seconds = (
                    dmin[:, 0] / vec.speed[nearest[:, 0]]
                    + self.dispatcher.pickup_overhead_s
                )
                minutes = np.maximum(1.0, seconds / 60.0)
                for i, area in enumerate(area_list):
                    ewt = minutes[i].item()
                    self.surge.observe_ewt(area.area_id, ewt)
                    self._interval_ewt_acc[area.area_id].append(ewt)
        self._seen_online_x[vec.online_mask_rows(CarType.UBERX)] = True

    def _finish_interval(self, new_interval: int) -> None:
        truth = self._current_truth
        truth.online_by_type = {
            t: len(v) for t, v in self._online_by_type.items()
        }
        if self._vec is not None:
            truth.distinct_online_uberx = int(self._seen_online_x.sum())
            self._seen_online_x[:] = False
        else:
            truth.distinct_online_uberx = len(self._interval_online_uberx)
        truth.multipliers = self.surge.multipliers()
        truth.mean_idle_uberx_by_area = {
            a: (total / n if n else 0.0)
            for a, (total, n) in self._interval_idle_acc.items()
        }
        truth.mean_ewt_by_area = {
            a: (sum(v) / len(v) if v else 0.0)
            for a, v in self._interval_ewt_acc.items()
        }
        self.truth.append(truth)
        area_ids = [a.area_id for a in self._area_list]
        self._current_truth = IntervalTruth(
            interval_index=new_interval,
            start_s=new_interval * 300.0,
        )
        self._interval_online_uberx = set()
        self._interval_ewt_acc = {a: [] for a in area_ids}
        self._interval_idle_acc = {a: (0.0, 0) for a in area_ids}
