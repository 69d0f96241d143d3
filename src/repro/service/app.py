"""The marketplace service: one HTTP request or one ping message.

Routes (all bodies in the canonical encoding of
:mod:`repro.api.serialize`, so service payloads are byte-identical to
encoding the in-process results directly):

* ``GET /v1/health`` — liveness + the service clock;
* ``GET /v1/estimates/price`` — ``account_id, start_lat, start_lon,
  end_lat, end_lon[, car_types]`` (§3.2; rate limited);
* ``GET /v1/estimates/time`` — ``account_id, lat, lon[, car_types]``
  (rate limited);
* ``GET /v1/surge`` — ``account_id, lat, lon[, car_type]`` (rate
  limited; the surge-mapper/avoidance primitive);
* ``WebSocket /v1/ping`` — the `pingClient` session: each text message
  ``{"account_id", "lat", "lon"[, "car_types"]}`` is answered with a
  canonical ``PingReply`` body.  Like the production endpoint, the ping
  stream is **never rate limited** (§3.2); concurrent pings coalesce
  into lock-step rounds (:class:`repro.service.rounds.RoundAccumulator`)
  served by one vectorized ``serve_round`` pass.  A ping that finds no
  round started within the coalesce window is served at once; pings
  inside the window wait for it to close and form the next round.  A
  plain ``GET`` of the stream is answered 426.

Rate limiting is enforced *at the transport*: a
:class:`~repro.api.ratelimit.RateLimitExceeded` becomes HTTP 429 with a
``Retry-After`` header carrying the whole-second, rounded-up wait.

:meth:`MarketplaceService.respond` answers one HTTP request and
:meth:`MarketplaceService.answer` one message of the ping stream; the
socket server in :mod:`repro.service.http` frames bytes around the
two, and tests call them in process.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import parse_qs

from repro.api.ping import PingEndpoint, PingRequest
from repro.api.ratelimit import RateLimiter, RateLimitExceeded
from repro.api.rest import RestApi
from repro.api import serialize
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.geo.latlon import LatLon
from repro.service.rounds import RoundAccumulator

#: The one WebSocket route: the `pingClient` stream.
PING_PATH = "/v1/ping"

_REST_PATHS = frozenset(
    ("/v1/health", "/v1/estimates/price", "/v1/estimates/time", "/v1/surge")
)

_JSON_HEADER: Tuple[str, str] = ("content-type", "application/json")


class Response(NamedTuple):
    """One HTTP answer; every body is JSON."""

    status: int
    body: bytes
    headers: Tuple[Tuple[str, str], ...] = (_JSON_HEADER,)


def error_response(status: int, error: str, detail: str) -> Response:
    """*status* with the uniform ``{"error", "detail"}`` body."""
    return Response(
        status,
        serialize.canonical_json(serialize.error_payload(error, detail)),
    )


#: The answer to a plain request for the ping stream; a 426 names the
#: protocol to upgrade to (RFC 7231 §6.5.15).
_UPGRADE_REQUIRED = Response(
    426,
    serialize.canonical_json(serialize.error_payload(
        "upgrade_required", f"{PING_PATH!r} only accepts WebSocket upgrades"
    )),
    (_JSON_HEADER, ("upgrade", "websocket")),
)


class _BadRequest(Exception):
    """Client error carrying the HTTP status + error slug to emit."""

    def __init__(
        self, detail: str, status: int = 400, error: str = "bad_request"
    ) -> None:
        super().__init__(detail)
        self.detail = detail
        self.status = status
        self.error = error


def _params(query: str) -> Dict[str, str]:
    """Query parameters, last value winning (the REST API takes one of
    each; repeating a parameter is not an error, just overriding)."""
    raw = parse_qs(query, keep_blank_values=True)
    return {key: values[-1] for key, values in raw.items()}


def _require(params: Dict[str, str], name: str) -> str:
    try:
        return params[name]
    except KeyError:
        raise _BadRequest(f"missing required parameter {name!r}") from None


def _degrees(name: str, value: float, limit: float) -> float:
    """*value* as a float within ±*limit* degrees, else a 400 naming
    *name*.  NaN, infinities and integers too large for a float all
    fall outside."""
    try:
        degrees = float(value)
    except OverflowError:
        degrees = math.inf
    if not -limit <= degrees <= limit:
        raise _BadRequest(f"{name} must be a number in "
                          f"[-{limit:g}, {limit:g}], got {degrees!r}")
    return degrees


def _require_degrees(params: Dict[str, str], name: str, limit: float) -> float:
    raw = _require(params, name)
    try:
        value = float(raw)
    except ValueError:
        raise _BadRequest(
            f"parameter {name!r} must be a number, got {raw!r}"
        ) from None
    return _degrees(f"parameter {name!r}", value, limit)


def _require_location(
    params: Dict[str, str], lat_name: str, lon_name: str
) -> LatLon:
    return LatLon(
        _require_degrees(params, lat_name, 90.0),
        _require_degrees(params, lon_name, 180.0),
    )


def _car_types(
    params: Dict[str, str]
) -> Optional[Sequence[CarType]]:
    try:
        return serialize.parse_car_types(params.get("car_types"))
    except ValueError as exc:
        raise _BadRequest(str(exc)) from None


def _ping_request(text: str) -> PingRequest:
    """The ping one stream message asks for, or a 400 naming what is
    wrong with it."""
    try:
        body = json.loads(text)
    except ValueError:
        raise _BadRequest("ping message is not valid JSON") from None
    if not isinstance(body, dict):
        raise _BadRequest("ping message must be a JSON object")
    try:
        account_id = body["account_id"]
        lat = body["lat"]
        lon = body["lon"]
    except KeyError as exc:
        raise _BadRequest(
            f"ping message missing {exc.args[0]!r}"
        ) from None
    if not isinstance(account_id, str):
        raise _BadRequest("account_id must be a string")
    if not isinstance(lat, (int, float)) or isinstance(lat, bool):
        raise _BadRequest("lat must be a number")
    if not isinstance(lon, (int, float)) or isinstance(lon, bool):
        raise _BadRequest("lon must be a number")
    raw_types = body.get("car_types")
    car_types: Optional[List[CarType]] = None
    if raw_types is not None:
        if not isinstance(raw_types, list):
            raise _BadRequest("car_types must be a list or null")
        car_types = []
        for token in raw_types:
            try:
                car_types.append(CarType(token))
            except ValueError:
                raise _BadRequest(
                    f"unknown car type {token!r}"
                ) from None
    try:
        location = LatLon(float(lat), float(lon))
    except (ValueError, OverflowError):
        # Name the coordinate that is off the globe, NaN or too large
        # for a float; a valid ping skips these checks.
        _degrees("lat", lat, 90.0)
        _degrees("lon", lon, 180.0)
        raise
    return account_id, location, car_types


class MarketplaceService:
    """The REST routes and the ping stream over one marketplace engine.

    The engine is not ticked by the service: requests observe one
    simulated instant, which is exactly what makes transport replies
    comparable byte-for-byte against in-process calls.  (Driving the
    clock stays the caller's job — a campaign loop, or a future
    streaming mode.)
    """

    def __init__(
        self,
        engine: MarketplaceEngine,
        limiter: Optional[RateLimiter] = None,
        coalesce_window_s: float = 0.0,
        city: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.limiter = limiter if limiter is not None else RateLimiter()
        self.endpoint = PingEndpoint(engine)
        self.rest = RestApi(engine, limiter=self.limiter)
        self.rounds = RoundAccumulator(
            self.endpoint, coalesce_window_s=coalesce_window_s
        )
        self.city = city

    def respond(self, method: str, target: str) -> Response:
        """The answer to one HTTP request for *target* (path and
        query string)."""
        path, _, query = target.partition("?")
        try:
            if path == PING_PATH:
                return _UPGRADE_REQUIRED
            if path not in _REST_PATHS:
                raise _BadRequest(
                    f"no such endpoint {path!r}", 404, "not_found"
                )
            if method != "GET":
                raise _BadRequest(
                    f"{method} not supported (use GET)",
                    405,
                    "method_not_allowed",
                )
            body = self._dispatch(path, _params(query))
        except RateLimitExceeded as exc:
            return Response(
                429,
                serialize.canonical_json(
                    serialize.rate_limited_payload(exc)
                ),
                (_JSON_HEADER, ("retry-after", str(exc.retry_after_hint_s))),
            )
        except _BadRequest as exc:
            return error_response(exc.status, exc.error, exc.detail)
        return Response(200, body)

    def _dispatch(self, path: str, params: Dict[str, str]) -> bytes:
        if path == "/v1/health":
            return serialize.canonical_json(
                serialize.health_payload(
                    self.engine.clock.now, city=self.city
                )
            )
        account_id = _require(params, "account_id")
        if path == "/v1/estimates/price":
            start = _require_location(params, "start_lat", "start_lon")
            end = _require_location(params, "end_lat", "end_lon")
            return serialize.encode_price_estimates(
                self.rest.price_estimates(
                    account_id, start, end, _car_types(params)
                )
            )
        if path == "/v1/estimates/time":
            location = _require_location(params, "lat", "lon")
            return serialize.encode_time_estimates(
                self.rest.time_estimates(
                    account_id, location, _car_types(params)
                )
            )
        # /v1/surge
        location = _require_location(params, "lat", "lon")
        raw_type = params.get("car_type")
        if raw_type is None:
            car_type = CarType.UBERX
        else:
            try:
                car_type = CarType(raw_type)
            except ValueError:
                raise _BadRequest(
                    f"unknown car type {raw_type!r}"
                ) from None
        multiplier = self.rest.surge_multiplier(
            account_id, location, car_type
        )
        return serialize.encode_surge(car_type, multiplier)

    async def answer(self, text: str) -> bytes:
        """The reply to one ping-stream message: a canonical
        ``PingReply`` body once the ping's round is served, or an
        error body naming what is wrong with *text*."""
        try:
            request = _ping_request(text)
        except _BadRequest as exc:
            return error_response(exc.status, exc.error, exc.detail).body
        reply = await self.rounds.submit(request)
        return serialize.encode_ping_reply(reply)
