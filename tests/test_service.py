"""Tests for the socket service layer (:mod:`repro.service`).

The service answers through two methods, and the in-process tests call
them directly: ``MarketplaceService.respond`` for one HTTP request and
``MarketplaceService.answer`` for one message of the ping stream.  The
socket tests then drive :class:`HttpServer`, the server ``repro serve``
runs, over localhost with the stdlib client of
:mod:`repro.service.loadgen`; they skip where binding is not permitted.
The load on these tests is the transport *contract*:

* routes, status codes, and error bodies;
* HTTP 429 + ``Retry-After`` for over-budget accounts (§3.2);
* **byte-identity**: every payload the service answers equals the
  canonical encoding of the in-process result, on the production
  engine and on the oracle (the bit-identity contract extended across
  a socket);
* round coalescing: concurrent pings collapse into one
  ``serve_round`` batch without changing any reply, a lone ping does
  not wait out the window, and a ping whose client hangs up leaves its
  round;
* the server's own paths: keep-alive, WebSocket control frames, the
  refusals it answers itself (404, 426, 431) and the 500 for a handler
  that raises.
"""

from __future__ import annotations

import asyncio
import gc
import json

import pytest

from conftest import toy_config
from repro.api import serialize
from repro.api.ping import PingEndpoint
from repro.api.ratelimit import RateLimiter
from repro.api.rest import RestApi
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.service import (
    HttpServer,
    MarketplaceService,
    RoundAccumulator,
)
from repro.service.http import (
    MAX_HEAD_BYTES,
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    encode_frame,
    read_frame,
)
from repro.service.loadgen import WebSocketClient, _parse_head, http_get

_MASK = b"\x01\x02\x03\x04"


@pytest.fixture(scope="module")
def engine():
    engine = MarketplaceEngine(toy_config(jitter_probability=0.3), seed=17)
    engine.run(1800.0)
    return engine


@pytest.fixture(scope="module")
def center(engine):
    return engine.config.region.bounding_box.center


@pytest.fixture()
def service(engine):
    return MarketplaceService(engine, city="toyville")


def _price_target(account_id, start, end, car_types=""):
    return (
        f"/v1/estimates/price?account_id={account_id}"
        f"&start_lat={start.lat!r}&start_lon={start.lon!r}"
        f"&end_lat={end.lat!r}&end_lon={end.lon!r}"
        + (f"&car_types={car_types}" if car_types else "")
    )


def _time_target(account_id, location, car_types=""):
    return (
        f"/v1/estimates/time?account_id={account_id}"
        f"&lat={location.lat!r}&lon={location.lon!r}"
        + (f"&car_types={car_types}" if car_types else "")
    )


def _ping_text(account_id, location, car_types=None):
    message = {"account_id": account_id, "lat": location.lat,
               "lon": location.lon}
    if car_types is not None:
        message["car_types"] = car_types
    return json.dumps(message)


def _answer(service, text):
    """The service's reply bytes to one ping-stream message."""
    return asyncio.run(service.answer(text))


def _get_json(service, target):
    response = service.respond("GET", target)
    return response.status, json.loads(response.body)


class TestHttpRoutes:
    def test_health(self, service, engine):
        response = service.respond("GET", "/v1/health")
        assert response.status == 200
        assert dict(response.headers)["content-type"] == "application/json"
        assert response.body == serialize.canonical_json(
            serialize.health_payload(engine.clock.now, city="toyville")
        )

    def test_unknown_path_is_404(self, service):
        status, body = _get_json(service, "/v1/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_non_get_is_405(self, service):
        response = service.respond("POST", "/v1/health")
        assert response.status == 405
        assert json.loads(response.body)["error"] == "method_not_allowed"

    def test_missing_parameter_is_400(self, service):
        status, body = _get_json(service, "/v1/surge?account_id=a&lat=40.7")
        assert status == 400
        assert "lon" in body["detail"]

    def test_non_numeric_parameter_is_400(self, service):
        status, body = _get_json(
            service, "/v1/surge?account_id=a&lat=x&lon=-74.0"
        )
        assert status == 400
        assert body["error"] == "bad_request"

    def test_non_finite_parameter_is_400(self, service):
        """NaN, infinite and off-the-globe coordinates are 400s naming
        the parameter, never an exception out of ``respond`` (a 500)."""
        for target, name in [
            ("/v1/surge?account_id=a&lat=nan&lon=-74.0", "lat"),
            ("/v1/surge?account_id=a&lat=1e999&lon=-74.0", "lat"),
            ("/v1/estimates/time?account_id=a&lat=91&lon=0", "lat"),
            ("/v1/surge?account_id=a&lat=37.7&lon=-200", "lon"),
            ("/v1/estimates/price?account_id=a&start_lat=95&start_lon=0"
             "&end_lat=0&end_lon=0", "start_lat"),
            ("/v1/estimates/price?account_id=a&start_lat=0&start_lon=0"
             "&end_lat=0&end_lon=180.5", "end_lon"),
        ]:
            status, body = _get_json(service, target)
            assert status == 400, target
            assert body["error"] == "bad_request"
            assert f"parameter {name!r}" in body["detail"]

    def test_unknown_car_type_is_400(self, service, center):
        status, body = _get_json(
            service, _time_target("a", center, car_types="warp_drive")
        )
        assert status == 400
        assert "warp_drive" in body["detail"]


class TestRateLimitContract:
    """§3.2: over-budget accounts get HTTP 429 + ``Retry-After``."""

    def test_429_with_retry_after(self, engine, center):
        service = MarketplaceService(
            engine, limiter=RateLimiter(limit=2, window_s=3600.0)
        )
        target = _time_target("heavy", center)
        assert service.respond("GET", target).status == 200
        assert service.respond("GET", target).status == 200
        response = service.respond("GET", target)
        assert response.status == 429
        header = dict(response.headers).get("retry-after")
        assert header is not None and header.isdigit()
        assert int(header) >= 1  # rounded up, never "0"
        body = json.loads(response.body)
        assert body["error"] == "rate_limited"
        assert body["account_id"] == "heavy"
        assert body["retry_after_s"] == int(header)
        # Budgets are per account: another account still passes.
        light = service.respond("GET", _time_target("light", center))
        assert light.status == 200

    def test_ping_stream_is_never_limited(self, engine, center):
        # The production pingClient path had no rate limit (§3.2).
        service = MarketplaceService(
            engine, limiter=RateLimiter(limit=1, window_s=3600.0)
        )
        for _ in range(5):
            reply = json.loads(_answer(service, _ping_text("pinger", center)))
            assert "error" not in reply


def _warm_engine(vectorized: bool) -> MarketplaceEngine:
    engine = MarketplaceEngine(
        toy_config(jitter_probability=0.3),
        seed=23,
        use_vectorized_step=vectorized,
    )
    engine.run(600.0)
    return engine


class TestTransportByteIdentity:
    """Served payloads == canonical encoding of in-process results, on
    the production engine and on the oracle."""

    @pytest.mark.parametrize(
        "vectorized", [True, False], ids=["production", "oracle"]
    )
    def test_flag_matrix(self, vectorized):
        engine = _warm_engine(vectorized)
        center = engine.config.region.bounding_box.center
        edge = center.offset(300.0, -200.0)
        service = MarketplaceService(engine)
        # Independent reference instances: same engine, same instant,
        # fresh memos — identity must not depend on shared caches.
        reference_ping = PingEndpoint(engine)
        reference_rest = RestApi(engine, RateLimiter())
        # The other engine, same seed and instant: the served bytes
        # must not depend on which engine produced them either.
        twin_ping = PingEndpoint(_warm_engine(not vectorized))

        wire = _answer(service, _ping_text("idacct", center))
        assert wire == serialize.encode_ping_reply(
            reference_ping.ping("idacct", center)
        )
        assert wire == serialize.encode_ping_reply(
            twin_ping.ping("idacct", center)
        )
        # A restricted ping.
        wire = _answer(
            service, _ping_text("idacct", edge, [CarType.UBERX.value])
        )
        assert wire == serialize.encode_ping_reply(
            reference_ping.ping("idacct", edge, [CarType.UBERX])
        )
        assert wire == serialize.encode_ping_reply(
            twin_ping.ping("idacct", edge, [CarType.UBERX])
        )

        response = service.respond(
            "GET", _price_target("idacct", center, edge)
        )
        assert response.status == 200
        assert response.body == serialize.encode_price_estimates(
            reference_rest.price_estimates("idacct", center, edge)
        )

        response = service.respond(
            "GET", _time_target("idacct", center, car_types="uberX")
        )
        assert response.status == 200
        assert response.body == serialize.encode_time_estimates(
            reference_rest.time_estimates(
                "idacct", center, [CarType.UBERX]
            )
        )

        response = service.respond(
            "GET",
            f"/v1/surge?account_id=idacct"
            f"&lat={center.lat!r}&lon={center.lon!r}",
        )
        assert response.status == 200
        assert response.body == serialize.encode_surge(
            CarType.UBERX,
            reference_rest.surge_multiplier("idacct", center),
        )


class TestWebSocketProtocol:
    def test_malformed_messages_get_error_replies(self, service, center):
        def reply_to(text):
            return json.loads(_answer(service, text))

        assert reply_to("{not json")["error"] == "bad_request"
        assert "object" in reply_to(json.dumps(["not", "an", "object"]))[
            "detail"]
        assert "lon" in reply_to(
            json.dumps({"account_id": "a", "lat": 40.7}))["detail"]
        assert "string" in reply_to(
            json.dumps({"account_id": 7, "lat": 40.7, "lon": -74.0})
        )["detail"]
        assert "warp_drive" in reply_to(
            _ping_text("a", center, ["warp_drive"]))["detail"]
        # Coordinates off the globe, NaN, overflowing floats and
        # integers too large for a float, each named in the reply.
        for message, name in [
            ('{"account_id": "a", "lat": 91, "lon": 0}', "lat"),
            ('{"account_id": "a", "lat": NaN, "lon": 0}', "lat"),
            ('{"account_id": "a", "lat": 40.7, "lon": 1e999}', "lon"),
            ('{"account_id": "a", "lat": 0, "lon": -'
             + "9" * 400 + "}", "lon"),
        ]:
            reply = reply_to(message)
            assert reply["error"] == "bad_request"
            assert reply["detail"].startswith(f"{name} must be")
        # A malformed message leaves the service as it was: a valid
        # ping is still answered.
        reply = reply_to(_ping_text("a", center))
        assert "statuses" in reply and "error" not in reply


class TestRoundAccumulator:
    def test_concurrent_pings_coalesce_into_one_round(
        self, engine, center
    ):
        endpoint = PingEndpoint(engine)
        accumulator = RoundAccumulator(endpoint, coalesce_window_s=0.005)
        requests = [
            (f"acct{i}", center.offset(30.0 * i, -20.0 * i), None)
            for i in range(12)
        ]

        async def fan_out():
            return await asyncio.gather(
                *(accumulator.submit(request) for request in requests)
            )

        replies = asyncio.run(fan_out())
        assert accumulator.rounds_served == 1
        assert accumulator.requests_served == len(requests)
        assert accumulator.max_round_size == len(requests)
        # Coalescing is a throughput lever, never a semantics one.
        reference = PingEndpoint(engine)
        assert replies == [
            reference.ping(account_id, location, car_types)
            for account_id, location, car_types in requests
        ]

    def test_zero_window_still_batches_a_loop_pass(self, engine, center):
        accumulator = RoundAccumulator(
            PingEndpoint(engine), coalesce_window_s=0.0
        )

        async def fan_out():
            return await asyncio.gather(
                *(
                    accumulator.submit((f"a{i}", center, None))
                    for i in range(5)
                )
            )

        replies = asyncio.run(fan_out())
        assert len(replies) == 5
        assert accumulator.rounds_served == 1

    def test_serve_round_failure_fans_out(self, center):
        class ExplodingServer:
            def serve_round(self, requests):
                raise RuntimeError("boom")

        accumulator = RoundAccumulator(ExplodingServer())

        async def fan_out():
            return await asyncio.gather(
                *(
                    accumulator.submit((f"a{i}", center, None))
                    for i in range(3)
                ),
                return_exceptions=True,
            )

        results = asyncio.run(fan_out())
        assert len(results) == 3
        assert all(
            isinstance(r, RuntimeError) and str(r) == "boom"
            for r in results
        )

    def test_negative_window_rejected(self, engine):
        with pytest.raises(ValueError):
            RoundAccumulator(PingEndpoint(engine), coalesce_window_s=-1.0)

    def test_drain_task_survives_gc_during_the_window(
        self, engine, center
    ):
        """The accumulator must hold a *strong* reference to its drain
        task.  The event loop only keeps weak task references, so a
        discarded ``create_task()`` result can be collected mid-window,
        stranding every parked ping on a future that never resolves."""
        accumulator = RoundAccumulator(
            PingEndpoint(engine), coalesce_window_s=0.01
        )

        async def parked_then_collected():
            ping = asyncio.ensure_future(
                accumulator.submit(("gc", center, None))
            )
            await asyncio.sleep(0)  # submit runs, drain gets scheduled
            assert accumulator._drain_task is not None
            gc.collect()  # would reap a weakly-held drain task
            return await asyncio.wait_for(ping, timeout=5.0)

        reply = asyncio.run(parked_then_collected())
        assert accumulator.rounds_served == 1
        assert reply == PingEndpoint(engine).ping("gc", center)

    def test_cancelled_submit_withdraws_from_the_round(
        self, engine, center
    ):
        """A ping whose awaiter is cancelled mid-window (client hung
        up) must leave the round: the surviving pings are served, the
        withdrawn request is never counted, and nothing stays parked."""
        accumulator = RoundAccumulator(
            PingEndpoint(engine), coalesce_window_s=0.01
        )

        async def scenario():
            doomed = asyncio.ensure_future(
                accumulator.submit(("gone", center, None))
            )
            survivor = asyncio.ensure_future(
                accumulator.submit(("alive", center, None))
            )
            await asyncio.sleep(0)  # both parked, drain scheduled
            doomed.cancel()
            reply = await asyncio.wait_for(survivor, timeout=5.0)
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return reply

        reply = asyncio.run(scenario())
        assert accumulator.rounds_served == 1
        assert accumulator.requests_served == 1
        assert accumulator.max_round_size == 1
        assert accumulator._pending == []
        assert reply == PingEndpoint(engine).ping("alive", center)

    def test_a_ping_cancelled_as_its_round_starts_is_not_served(
        self, engine, center
    ):
        """A cancelled awaiter leaves its entry parked until its except
        clause runs, one loop pass later; a round that starts within
        that pass must not serve it."""
        accumulator = RoundAccumulator(
            PingEndpoint(engine), coalesce_window_s=0.0
        )

        async def scenario():
            survivor = asyncio.ensure_future(
                accumulator.submit(("alive", center, None))
            )
            doomed = asyncio.ensure_future(
                accumulator.submit(("gone", center, None))
            )
            await asyncio.sleep(0)  # both parked, drain scheduled
            await asyncio.sleep(0)  # the drain's yield is queued ahead
            doomed.cancel()
            reply = await asyncio.wait_for(survivor, timeout=5.0)
            with pytest.raises(asyncio.CancelledError):
                await doomed
            return reply

        reply = asyncio.run(scenario())
        assert accumulator.requests_served == 1
        assert accumulator._pending == []
        assert reply == PingEndpoint(engine).ping("alive", center)

    def test_a_lone_ping_does_not_wait_out_the_window(self, engine, center):
        """The window spaces rounds; it does not delay them.  A ping to
        an idle accumulator is served one loop pass later, however long
        the window."""
        accumulator = RoundAccumulator(
            PingEndpoint(engine), coalesce_window_s=5.0
        )

        async def lone():
            return await asyncio.wait_for(
                accumulator.submit(("lone", center, None)), timeout=1.0
            )

        assert asyncio.run(lone()) == PingEndpoint(engine).ping(
            "lone", center
        )
        assert accumulator.rounds_served == 1

    def test_pings_inside_the_window_share_the_next_round(self, center):
        """After a round, pings that arrive in separate loop passes
        within the window wait for it to close and form one round."""
        window = 0.05
        starts = []

        class Recording:
            def serve_round(self, requests):
                starts.append(asyncio.get_running_loop().time())
                return [account for account, _, _ in requests]

        accumulator = RoundAccumulator(
            Recording(), coalesce_window_s=window
        )

        async def scenario():
            first = await accumulator.submit(("first", center, None))
            early = asyncio.ensure_future(
                accumulator.submit(("early", center, None))
            )
            await asyncio.sleep(0.01)  # a later loop pass, same window
            late = asyncio.ensure_future(
                accumulator.submit(("late", center, None))
            )
            return [first] + await asyncio.gather(early, late)

        assert asyncio.run(scenario()) == ["first", "early", "late"]
        assert accumulator.rounds_served == 2
        assert accumulator.max_round_size == 2
        # The loop may run a timer up to its clock resolution early.
        assert starts[1] >= starts[0] + window - 1e-6


class TestDisconnectDuringPing:
    """Soak: a ping whose connection vanishes while it is parked in the
    coalesce window must not wedge the accumulator — later pings keep
    getting served, and the abandoned request is withdrawn rather than
    served to nobody."""

    def test_disconnect_while_parked_does_not_strand_later_pings(
        self, engine, center
    ):
        service = MarketplaceService(engine, coalesce_window_s=0.05)
        reference = PingEndpoint(engine)

        async def scenario():
            # A round served first opens the window the quitter's ping
            # then waits in (a ping to an idle service is served at once).
            await service.answer(_ping_text("first", center))
            quitter = asyncio.ensure_future(
                service.answer(_ping_text("quitter", center))
            )
            # Let the answer park its ping in the accumulator, then
            # cancel it while the coalesce window is still open: what a
            # connection's handler sees when it is torn down mid-ping.
            await asyncio.sleep(0.005)
            assert len(service.rounds._pending) == 1
            quitter.cancel()
            # Let the cancellation land and the window elapse.
            await asyncio.sleep(0.1)
            assert service.rounds._pending == []
            assert service.rounds.requests_served == 1
            # Soak: pings after the abandonment are served normally,
            # byte-identical to the in-process endpoint.
            for i in range(5):
                wire = await service.answer(_ping_text(f"late{i}", center))
                assert wire == serialize.encode_ping_reply(
                    reference.ping(f"late{i}", center)
                )

        asyncio.run(scenario())
        assert service.rounds.requests_served == 1 + 5
        assert service.rounds.rounds_served == 1 + 5


def _over_socket(service, exchange):
    """Serve *service* on a localhost :class:`HttpServer` and run
    ``exchange(server)`` against it; skips where binding sockets is not
    permitted."""

    async def run():
        server = HttpServer(service, port=0)
        try:
            await server.start()
        except OSError as exc:  # pragma: no cover - sandboxed env
            pytest.skip(f"cannot bind localhost sockets: {exc}")
        try:
            return await exchange(server)
        finally:
            await server.stop()

    return asyncio.run(run())


async def _read_response(reader):
    """``(status, headers, body)`` of one HTTP response."""
    status, headers = _parse_head(await reader.readuntil(b"\r\n\r\n"))
    body = await reader.readexactly(int(headers["content-length"]))
    return status, headers, body


async def _close(writer):
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):
        pass


class TestHangUpWhileParked:
    """A client that hangs up while its ping waits for a round takes the
    ping out of the round: the server reads the connection's next frame
    while the ping waits, and a read that ends the connection cancels
    the answer."""

    @pytest.mark.parametrize("hang_up", ["abort", "close"])
    def test_hang_up_withdraws_the_parked_ping(
        self, engine, center, hang_up
    ):
        window = 0.2
        service = MarketplaceService(engine, coalesce_window_s=window)
        expected = serialize.encode_ping_reply(
            PingEndpoint(engine).ping("later", center)
        ).decode("utf-8")

        async def connect(server):
            return await WebSocketClient.connect(
                "127.0.0.1", server.port, "/v1/ping"
            )

        async def exchange(server):
            # A round served first opens the window the quitter's ping
            # then waits in.
            first = await connect(server)
            try:
                await first.send_text(_ping_text("first", center))
                await first.receive_text()
            finally:
                await first.close()
            served = service.rounds.requests_served
            quitter = await connect(server)
            await quitter.send_text(_ping_text("quitter", center))
            await asyncio.sleep(0.01)
            assert len(service.rounds._pending) == 1
            if hang_up == "abort":
                quitter._writer.transport.abort()
            await _close(quitter._writer)
            await asyncio.sleep(window + 0.05)  # the window closes
            assert service.rounds.requests_served == served
            assert service.rounds._pending == []
            later = await connect(server)
            try:
                await later.send_text(_ping_text("later", center))
                return await later.receive_text()
            finally:
                await later.close()

        assert _over_socket(service, exchange) == expected


class TestRealSocketSmoke:
    """Exchanges over a real localhost socket (the server ``repro
    serve`` runs + the stdlib client)."""

    def test_http_and_websocket_roundtrip(self, engine, center):
        service = MarketplaceService(engine, coalesce_window_s=0.002)
        reference = PingEndpoint(engine)
        expected_ping = serialize.encode_ping_reply(
            reference.ping("sock", center)
        ).decode("utf-8")
        expected_health = serialize.canonical_json(
            serialize.health_payload(engine.clock.now)
        )

        async def exchange(server):
            response = await http_get(
                "127.0.0.1", server.port, "/v1/health"
            )
            assert response.status == 200
            assert response.headers["content-type"] == "application/json"
            assert response.body == expected_health
            ws = await WebSocketClient.connect(
                "127.0.0.1", server.port, "/v1/ping"
            )
            try:
                await ws.send_text(_ping_text("sock", center))
                text = await ws.receive_text()
            finally:
                await ws.close()
            assert text == expected_ping

        _over_socket(service, exchange)

    def test_two_requests_on_one_keep_alive_connection(
        self, service, engine
    ):
        expected = serialize.canonical_json(
            serialize.health_payload(engine.clock.now, city="toyville")
        )

        async def exchange(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                request = b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n"
                answers = []
                for _ in range(2):
                    writer.write(request)
                    await writer.drain()
                    answers.append(await _read_response(reader))
            finally:
                await _close(writer)
            assert server.connections_accepted == 1
            return answers

        for status, headers, body in _over_socket(service, exchange):
            assert status == 200
            assert headers["connection"] == "keep-alive"
            assert body == expected

    def test_malformed_message_then_valid_ping_on_one_session(
        self, service, engine, center
    ):
        expected = serialize.encode_ping_reply(
            PingEndpoint(engine).ping("after", center)
        ).decode("utf-8")

        async def exchange(server):
            ws = await WebSocketClient.connect(
                "127.0.0.1", server.port, "/v1/ping"
            )
            try:
                await ws.send_text("{not json")
                error = json.loads(await ws.receive_text())
                await ws.send_text(_ping_text("after", center))
                return error, await ws.receive_text()
            finally:
                await ws.close()

        error, reply = _over_socket(service, exchange)
        assert error == {
            "detail": "ping message is not valid JSON",
            "error": "bad_request",
        }
        assert reply == expected

    def test_client_ping_gets_a_pong_with_its_payload(self, service):
        async def exchange(server):
            ws = await WebSocketClient.connect(
                "127.0.0.1", server.port, "/v1/ping"
            )
            try:
                ws._writer.write(
                    encode_frame(OP_PING, b"are you there", _MASK)
                )
                await ws._writer.drain()
                return await read_frame(ws._reader)
            finally:
                await ws.close()

        assert _over_socket(service, exchange) == (OP_PONG, b"are you there")

    def test_client_close_is_echoed(self, service):
        async def exchange(server):
            ws = await WebSocketClient.connect(
                "127.0.0.1", server.port, "/v1/ping"
            )
            try:
                code = (1001).to_bytes(2, "big")
                ws._writer.write(encode_frame(OP_CLOSE, code, _MASK))
                await ws._writer.drain()
                echo = await read_frame(ws._reader)
                # ... and the server ends the connection.
                return echo, await read_frame(ws._reader)
            finally:
                await _close(ws._writer)

        echo, after = _over_socket(service, exchange)
        assert echo == (OP_CLOSE, (1001).to_bytes(2, "big"))
        assert after is None

    def test_a_handler_that_raises_answers_500(self, service):
        class Crashing:
            def respond(self, method, target):
                raise RuntimeError("boom")

        async def exchange(server):
            response = await http_get(
                "127.0.0.1", server.port, "/v1/health"
            )
            return response, server.app_failures

        response, failures = _over_socket(Crashing(), exchange)
        assert response.status == 500
        assert json.loads(response.body) == {
            "detail": "internal error",
            "error": "internal_error",
        }
        assert failures == 1


class TestServerRefusals:
    """Requests the server refuses itself, each answered with an HTTP
    status and an error body, then a close."""

    def test_upgrade_to_another_path_is_404(self, service):
        async def exchange(server):
            with pytest.raises(ConnectionError, match="HTTP 404"):
                await WebSocketClient.connect(
                    "127.0.0.1", server.port, "/v1/elsewhere"
                )
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    b"GET /v1/health HTTP/1.1\r\nhost: x\r\n"
                    b"upgrade: websocket\r\nconnection: Upgrade\r\n"
                    b"sec-websocket-key: cmVwcm8td3Mta2V5LTAwMQ==\r\n"
                    b"sec-websocket-version: 13\r\n\r\n"
                )
                await writer.drain()
                answer = await _read_response(reader)
                return answer, await reader.read()
            finally:
                await _close(writer)

        (status, headers, body), rest = _over_socket(service, exchange)
        assert status == 404
        assert headers["connection"] == "close"
        assert json.loads(body) == {
            "detail": "no WebSocket endpoint '/v1/health'",
            "error": "not_found",
        }
        assert rest == b""  # closed after the answer

    def test_plain_get_of_the_ping_stream_is_426(self, service):
        async def exchange(server):
            return await http_get("127.0.0.1", server.port, "/v1/ping")

        response = _over_socket(service, exchange)
        assert response.status == 426
        assert response.headers["upgrade"] == "websocket"
        assert json.loads(response.body)["error"] == "upgrade_required"

    def test_oversized_request_head_is_431(self, service):
        async def exchange(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(
                    b"GET /v1/health HTTP/1.1\r\nx-filler: "
                    + b"a" * MAX_HEAD_BYTES + b"\r\n\r\n"
                )
                await writer.drain()
                return await _read_response(reader)
            finally:
                await _close(writer)

        status, headers, body = _over_socket(service, exchange)
        assert status == 431
        assert headers["connection"] == "close"
        assert json.loads(body)["error"] == "headers_too_large"
