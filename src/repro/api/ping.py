"""The `pingClient` endpoint.

After authenticating, the Client app sends a `pingClient` message every
5 seconds carrying the user's geolocation; the server replies with, per
car type: the nearest eight cars (randomized ID, location, recent path
vector), the EWT, and the surge multiplier (§3.3).

:class:`PingServer` is the minimal interface — the measurement fleet only
depends on it, so the same fleet code measures the marketplace simulator
*and* the taxi-trace replayer used for validation (§3.5), exactly as the
paper reuses its methodology across both.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.latlon import LatLon
from repro.api.models import CarView, PingReply, TypeStatus
from repro.marketplace.driver import Driver
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType

#: One client's ping for a lock-step round: (account_id, location,
#: car_types or None for every type served here).
PingRequest = Tuple[str, LatLon, Optional[Sequence[CarType]]]

#: Cars a reply lists per car type: the nearest eight (§3.3).
NEAREST_K = 8


class PingServer(abc.ABC):
    """Anything that can answer a `pingClient` message."""

    @abc.abstractmethod
    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        """Answer one ping from *account_id* at *location*.

        *car_types* restricts the response to the given types; ``None``
        means every type the service offers here.  (The real endpoint
        always returned all types; restricting is a measurement-side
        optimization that changes nothing the analysis consumes.)
        """

    @abc.abstractmethod
    def current_time(self) -> float:
        """The service's clock, in simulated seconds."""

    def serve_round(
        self, requests: Sequence[PingRequest]
    ) -> List[PingReply]:
        """Answer one lock-step round of pings, one reply per request.

        The fleet pings in lock-step (every client, same instant, every
        5 s — §3.3), so a server may exploit the round structure to
        share work across clients.  The default is the semantic
        definition: N independent :meth:`ping` calls, in request order.
        Overrides must return reply-for-reply identical results.
        """
        return [
            self.ping(account_id, location, car_types)
            for account_id, location, car_types in requests
        ]


class PingEndpoint(PingServer):
    """`pingClient` served from a live marketplace engine."""

    def __init__(
        self, engine: MarketplaceEngine, nearest_k: int = NEAREST_K
    ) -> None:
        if nearest_k <= 0:
            raise ValueError("nearest_k must be positive")
        self.engine = engine
        self.nearest_k = nearest_k

    def current_time(self) -> float:
        return self.engine.clock.now

    def ping(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]] = None,
    ) -> PingReply:
        """Answer one ping as a round of one."""
        return self.serve_round([(account_id, location, car_types)])[0]

    def _ping_one(
        self,
        account_id: str,
        location: LatLon,
        car_types: Optional[Sequence[CarType]],
    ) -> PingReply:
        """The per-client scan :meth:`serve_round` falls back to when
        the engine declines the batch query (the oracle).  It is the
        definition the production-vs-oracle suites hold the batch to."""
        engine = self.engine
        if car_types is None:
            car_types = list(engine.config.fleet)
        area_id = engine.area_id_of(location)
        stale = engine.jitter.is_stale(account_id, engine.clock.now)
        statuses = []
        for car_type in car_types:
            nearest = engine.nearest_cars(
                location, car_type, k=self.nearest_k
            )
            # The head of the list is the nearest idle car, so one
            # scan serves both the car list and the EWT.
            ewt = (
                engine.dispatcher.ewt_for(nearest[0], location).minutes
                if nearest
                else None
            )
            # A driver without a session token has no public identity
            # and must never be served: emitting "" would collapse every
            # such car into one colliding ID, corrupting the unique-car
            # supply counts and death-based demand estimates (§3.3).
            cars = tuple(
                CarView(d.session_token, d.location, d.path_triples())
                for d in nearest
                if d.session_token
            )
            statuses.append(
                TypeStatus(
                    car_type=car_type,
                    cars=cars,
                    ewt_minutes=ewt,
                    surge_multiplier=engine.round_observed_multiplier(
                        account_id,
                        location,
                        car_type,
                        area_id,
                        stale,
                        nearest[0] if nearest else None,
                    ),
                )
            )
        return PingReply(
            timestamp=engine.clock.now,
            location=location,
            statuses=tuple(statuses),
        )

    def serve_round(
        self, requests: Sequence[PingRequest]
    ) -> List[PingReply]:
        """One vectorized pass over a whole lock-step round.

        One distance matrix per (fleet, car type) against every ping
        location (:meth:`MarketplaceEngine.round_query`), one gather of
        the served cars' positions and path triples from the fleet
        arrays, and per-account jitter staleness resolved once per
        round — instead of N independent per-client scans re-deriving
        all of it.  Each request's surge area comes from the same
        first-match polygon scan the per-client scan uses
        (:meth:`MarketplaceEngine.area_id_of`).  Serial, on the calling
        thread.
        Reply-for-reply bit-identical to the oracle's per-client scan
        (the production-against-oracle tests enforce it); falls back to
        it when the engine declines the batch query (the oracle engine,
        ``use_vectorized_step=False``).
        """
        engine = self.engine
        if not requests:
            return []
        lats = np.array(
            [location.lat for _, location, _ in requests],
            dtype=np.float64,
        )
        lons = np.array(
            [location.lon for _, location, _ in requests],
            dtype=np.float64,
        )
        all_types = list(engine.config.fleet)
        # The batch computes one distance matrix per car type, so it
        # only pays for the union of what the round actually asks for.
        # `None` contributes "all types" to that union explicitly — a
        # mixed round is still a union, not a silent widening to the
        # whole fleet when only a subset is needed.
        all_set = set(all_types)
        seen = set()
        needed: List[CarType] = []
        for _, _, car_types in requests:
            for car_type in (
                all_types if car_types is None else car_types
            ):
                if car_type not in seen:
                    seen.add(car_type)
                    needed.append(car_type)
            if seen >= all_set:
                # A request may restrict to a type the fleet doesn't
                # field, so `seen` can exceed the fleet; the union is
                # complete once it *covers* the fleet.
                break
        batch = engine.round_query(lats, lons, self.nearest_k, needed)
        if batch is None:
            return [
                self._ping_one(account_id, location, car_types)
                for account_id, location, car_types in requests
            ]
        now = engine.clock.now
        drivers = engine.drivers
        # The engine does not advance while a round is served, so each
        # served car's view is built once per round, from the position
        # and path triples the batch gathered for it and the session
        # token on its Driver; the per-(location, type, rank) lookups
        # below are then plain dict hits.  Tokenless drivers get no
        # entry: a driver with no session token has no public identity
        # and is filtered exactly as in _ping_one().
        views: Dict[int, CarView] = {}
        for row, lat, lon, path in zip(
            batch.served_rows,
            batch.served_lat,
            batch.served_lon,
            batch.served_paths,
        ):
            token = drivers[row].session_token
            if token:
                views[row] = CarView(token, LatLon(lat, lon), path)
        # Jitter staleness is a pure function of (account, interval),
        # so one probe per account serves every car type this round.
        stale_memo: Dict[str, bool] = {}
        replies = []
        for i, (account_id, location, car_types) in enumerate(requests):
            if account_id not in stale_memo:
                stale_memo[account_id] = engine.jitter.is_stale(
                    account_id, now
                )
            stale = stale_memo[account_id]
            area_id = engine.area_id_of(location)
            statuses = []
            for car_type in (
                all_types if car_types is None else car_types
            ):
                seg = batch.segment(car_type)
                rows_i = seg[1][i] if seg is not None else []
                nearest: Optional[Driver] = None
                if rows_i:
                    nearest = drivers[rows_i[0]]
                    ewt: Optional[float] = engine.ewt_from_nearest(
                        (seg[0][i][0], rows_i[0])  # type: ignore[index]
                    )
                    cars = tuple(
                        [
                            view
                            for row in rows_i
                            if (view := views.get(row)) is not None
                        ]
                    )
                else:
                    ewt = None
                    cars = ()
                statuses.append(
                    TypeStatus(
                        car_type=car_type,
                        cars=cars,
                        ewt_minutes=ewt,
                        surge_multiplier=engine.round_observed_multiplier(
                            account_id,
                            location,
                            car_type,
                            area_id,
                            stale,
                            nearest,
                        ),
                    )
                )
            replies.append(
                PingReply(
                    timestamp=now,
                    location=location,
                    statuses=tuple(statuses),
                )
            )
        return replies
