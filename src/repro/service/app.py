"""The marketplace as an ASGI application.

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
  served by one vectorized ``serve_round`` pass.

Rate limiting is enforced *at the transport*: a
:class:`~repro.api.ratelimit.RateLimitExceeded` becomes HTTP 429 with a
``Retry-After`` header carrying the whole-second, rounded-up wait.

The app is plain ASGI (http + websocket + lifespan scopes) with no
framework dependency; it runs under the stdlib server in
:mod:`repro.service.http`, the in-process test client in
:mod:`repro.service.testclient`, or any third-party ASGI server.
"""

from __future__ import annotations

import json
import math
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import parse_qs

from repro.api.ping import PingEndpoint
from repro.api.ratelimit import RateLimiter, RateLimitExceeded
from repro.api.rest import RestApi
from repro.api import serialize
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.geo.latlon import LatLon
from repro.service.rounds import RoundAccumulator

Scope = Dict[str, Any]
Message = Dict[str, Any]
Receive = Callable[[], Awaitable[Message]]
Send = Callable[[Message], Awaitable[None]]

_JSON_HEADER: Tuple[bytes, bytes] = (b"content-type", b"application/json")


class _BadRequest(Exception):
    """Client error carrying the HTTP status + error slug to emit."""

    def __init__(
        self, detail: str, status: int = 400, error: str = "bad_request"
    ) -> None:
        super().__init__(detail)
        self.detail = detail
        self.status = status
        self.error = error


def _params(scope: Scope) -> Dict[str, str]:
    """Query parameters, last value winning (the REST API takes one of
    each; repeating a parameter is not an error, just overriding)."""
    raw = parse_qs(
        scope.get("query_string", b"").decode("utf-8", "replace"),
        keep_blank_values=True,
    )
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


class MarketplaceService:
    """ASGI app serving one marketplace engine snapshot.

    The engine is not ticked by the service: requests observe one
    simulated instant, which is exactly what makes transport replies
    comparable byte-for-byte against in-process calls.  (Driving the
    clock stays the caller's job — a campaign loop, or a future
    streaming mode.)
    """

    def __init__(
        self,
        engine: MarketplaceEngine,
        nearest_k: int = 8,
        limiter: Optional[RateLimiter] = None,
        coalesce_window_s: float = 0.0,
        city: Optional[str] = None,
    ) -> None:
        self.engine = engine
        self.limiter = limiter if limiter is not None else RateLimiter()
        self.endpoint = PingEndpoint(engine, nearest_k=nearest_k)
        self.rest = RestApi(engine, limiter=self.limiter)
        self.rounds = RoundAccumulator(
            self.endpoint, coalesce_window_s=coalesce_window_s
        )
        self.city = city

    # ------------------------------------------------------------------
    # ASGI entry point
    # ------------------------------------------------------------------
    async def __call__(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        kind = scope["type"]
        if kind == "lifespan":
            await self._lifespan(receive, send)
        elif kind == "http":
            await self._http(scope, receive, send)
        elif kind == "websocket":
            await self._websocket(scope, receive, send)
        else:  # pragma: no cover - unknown scope from an exotic server
            raise RuntimeError(f"unsupported ASGI scope {kind!r}")

    async def _lifespan(self, receive: Receive, send: Send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    # ------------------------------------------------------------------
    # HTTP: the REST estimates endpoints
    # ------------------------------------------------------------------
    async def _http(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        path = scope["path"]
        method = scope["method"]
        try:
            if path not in (
                "/v1/health",
                "/v1/estimates/price",
                "/v1/estimates/time",
                "/v1/surge",
            ):
                raise _BadRequest(
                    f"no such endpoint {path!r}", 404, "not_found"
                )
            if method != "GET":
                raise _BadRequest(
                    f"{method} not supported (use GET)",
                    405,
                    "method_not_allowed",
                )
            body = self._dispatch(path, _params(scope))
        except RateLimitExceeded as exc:
            await _respond(
                send,
                429,
                serialize.canonical_json(
                    serialize.rate_limited_payload(exc)
                ),
                extra_headers=[
                    (
                        b"retry-after",
                        str(exc.retry_after_hint_s).encode("ascii"),
                    )
                ],
            )
            return
        except _BadRequest as exc:
            await _respond(
                send,
                exc.status,
                serialize.canonical_json(
                    serialize.error_payload(exc.error, exc.detail)
                ),
            )
            return
        await _respond(send, 200, body)

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

    # ------------------------------------------------------------------
    # WebSocket: the pingClient stream
    # ------------------------------------------------------------------
    async def _websocket(
        self, scope: Scope, receive: Receive, send: Send
    ) -> None:
        message = await receive()
        if message["type"] != "websocket.connect":  # pragma: no cover
            return
        if scope["path"] != "/v1/ping":
            await send({"type": "websocket.close", "code": 4404})
            return
        await send({"type": "websocket.accept"})
        while True:
            message = await receive()
            if message["type"] == "websocket.disconnect":
                return
            if message["type"] != "websocket.receive":  # pragma: no cover
                continue
            text = message.get("text")
            if text is None:
                raw = message.get("bytes") or b""
                text = raw.decode("utf-8", "replace")
            try:
                reply_bytes = await self._serve_ping(text)
            except _BadRequest as exc:
                reply_bytes = serialize.canonical_json(
                    serialize.error_payload(exc.error, exc.detail)
                )
            await send(
                {
                    "type": "websocket.send",
                    "text": reply_bytes.decode("utf-8"),
                }
            )

    async def _serve_ping(self, text: str) -> bytes:
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
            # Name the coordinate that is off the globe, NaN or too
            # large for a float; a valid ping skips these checks.
            _degrees("lat", lat, 90.0)
            _degrees("lon", lon, 180.0)
            raise
        reply = await self.rounds.submit((account_id, location, car_types))
        return serialize.encode_ping_reply(reply)


async def _respond(
    send: Send,
    status: int,
    body: bytes,
    extra_headers: Optional[List[Tuple[bytes, bytes]]] = None,
) -> None:
    headers = [_JSON_HEADER]
    if extra_headers:
        headers.extend(extra_headers)
    await send(
        {
            "type": "http.response.start",
            "status": status,
            "headers": headers,
        }
    )
    await send(
        {"type": "http.response.body", "body": body, "more_body": False}
    )
