"""Tests for the socket service layer (:mod:`repro.service`).

Everything here runs in-process through :class:`AsgiTestClient` — no
sockets, no third-party dependencies — except the final smoke test,
which binds a real localhost socket and skips cleanly where binding is
not permitted.  The load on these tests is the transport *contract*:

* routes, status codes, and error bodies;
* HTTP 429 + ``Retry-After`` for over-budget accounts (§3.2);
* **byte-identity**: every payload served over the transport equals the
  canonical encoding of the in-process result, on the production
  engine and on the oracle (the bit-identity contract extended across
  a socket);
* round coalescing: concurrent pings collapse into one
  ``serve_round`` batch without changing any reply.
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
    AsgiHttpServer,
    AsgiTestClient,
    MarketplaceService,
    RoundAccumulator,
)


@pytest.fixture(scope="module")
def engine():
    engine = MarketplaceEngine(toy_config(jitter_probability=0.3), seed=17)
    engine.run(1800.0)
    return engine


@pytest.fixture(scope="module")
def center(engine):
    return engine.config.region.bounding_box.center


@pytest.fixture()
def client(engine):
    with AsgiTestClient(MarketplaceService(engine, city="toyville")) as c:
        yield c


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


class TestHttpRoutes:
    def test_health(self, client, engine):
        response = client.get("/v1/health")
        assert response.status == 200
        assert response.header("content-type") == "application/json"
        assert response.body == serialize.canonical_json(
            serialize.health_payload(engine.clock.now, city="toyville")
        )

    def test_unknown_path_is_404(self, client):
        response = client.get("/v1/nope")
        assert response.status == 404
        assert response.json()["error"] == "not_found"

    def test_non_get_is_405(self, client):
        response = client.request("POST", "/v1/health")
        assert response.status == 405
        assert response.json()["error"] == "method_not_allowed"

    def test_missing_parameter_is_400(self, client):
        response = client.get("/v1/surge?account_id=a&lat=40.7")
        assert response.status == 400
        assert "lon" in response.json()["detail"]

    def test_non_numeric_parameter_is_400(self, client):
        response = client.get("/v1/surge?account_id=a&lat=x&lon=-74.0")
        assert response.status == 400
        assert response.json()["error"] == "bad_request"

    def test_non_finite_parameter_is_400(self, client):
        """NaN, infinite and off-the-globe coordinates are 400s naming
        the parameter, never an exception out of the app (a 500)."""
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
            response = client.get(target)
            assert response.status == 400, target
            body = response.json()
            assert body["error"] == "bad_request"
            assert f"parameter {name!r}" in body["detail"]

    def test_unknown_car_type_is_400(self, client, center):
        response = client.get(
            _time_target("a", center, car_types="warp_drive")
        )
        assert response.status == 400
        assert "warp_drive" in response.json()["detail"]


class TestRateLimitContract:
    """§3.2: over-budget accounts get HTTP 429 + ``Retry-After``."""

    def test_429_with_retry_after(self, engine, center):
        service = MarketplaceService(
            engine, limiter=RateLimiter(limit=2, window_s=3600.0)
        )
        with AsgiTestClient(service) as client:
            target = _time_target("heavy", center)
            assert client.get(target).status == 200
            assert client.get(target).status == 200
            response = client.get(target)
            assert response.status == 429
            header = response.header("retry-after")
            assert header is not None and header.isdigit()
            assert int(header) >= 1  # rounded up, never "0"
            body = response.json()
            assert body["error"] == "rate_limited"
            assert body["account_id"] == "heavy"
            assert body["retry_after_s"] == int(header)
            # Budgets are per account: another account still passes.
            assert client.get(_time_target("light", center)).status == 200

    def test_ping_stream_is_never_limited(self, engine, center):
        # The production pingClient path had no rate limit (§3.2).
        service = MarketplaceService(
            engine, limiter=RateLimiter(limit=1, window_s=3600.0)
        )
        with AsgiTestClient(service) as client:
            with client.websocket("/v1/ping") as ws:
                for _ in range(5):
                    ws.send_json(
                        {
                            "account_id": "pinger",
                            "lat": center.lat,
                            "lon": center.lon,
                        }
                    )
                    assert "error" not in ws.receive_json()


def _warm_engine(vectorized: bool) -> MarketplaceEngine:
    engine = MarketplaceEngine(
        toy_config(jitter_probability=0.3),
        seed=23,
        use_vectorized_step=vectorized,
    )
    engine.run(600.0)
    return engine


class TestTransportByteIdentity:
    """Socket payloads == canonical encoding of in-process results, on
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
        with AsgiTestClient(service) as client:
            with client.websocket("/v1/ping") as ws:
                ws.send_json(
                    {
                        "account_id": "idacct",
                        "lat": center.lat,
                        "lon": center.lon,
                    }
                )
                wire = ws.receive_text().encode("utf-8")
                expected = serialize.encode_ping_reply(
                    reference_ping.ping("idacct", center)
                )
                assert wire == expected
                assert wire == serialize.encode_ping_reply(
                    twin_ping.ping("idacct", center)
                )
                # A restricted ping, same session.
                ws.send_json(
                    {
                        "account_id": "idacct",
                        "lat": edge.lat,
                        "lon": edge.lon,
                        "car_types": [CarType.UBERX.value],
                    }
                )
                wire = ws.receive_text().encode("utf-8")
                expected = serialize.encode_ping_reply(
                    reference_ping.ping("idacct", edge, [CarType.UBERX])
                )
                assert wire == expected
                assert wire == serialize.encode_ping_reply(
                    twin_ping.ping("idacct", edge, [CarType.UBERX])
                )

            response = client.get(_price_target("idacct", center, edge))
            assert response.status == 200
            assert response.body == serialize.encode_price_estimates(
                reference_rest.price_estimates("idacct", center, edge)
            )

            response = client.get(
                _time_target("idacct", center, car_types="uberX")
            )
            assert response.status == 200
            assert response.body == serialize.encode_time_estimates(
                reference_rest.time_estimates(
                    "idacct", center, [CarType.UBERX]
                )
            )

            response = client.get(
                f"/v1/surge?account_id=idacct"
                f"&lat={center.lat!r}&lon={center.lon!r}"
            )
            assert response.status == 200
            assert response.body == serialize.encode_surge(
                CarType.UBERX,
                reference_rest.surge_multiplier("idacct", center),
            )


class TestWebSocketProtocol:
    def test_wrong_path_is_refused(self, client):
        with pytest.raises(AssertionError, match="not accepted"):
            client.websocket("/v1/elsewhere")

    def test_malformed_messages_get_error_replies(self, client, center):
        with client.websocket("/v1/ping") as ws:
            ws.send_text("{not json")
            assert ws.receive_json()["error"] == "bad_request"
            ws.send_json(["not", "an", "object"])
            assert "object" in ws.receive_json()["detail"]
            ws.send_json({"account_id": "a", "lat": 40.7})
            assert "lon" in ws.receive_json()["detail"]
            ws.send_json({"account_id": 7, "lat": 40.7, "lon": -74.0})
            assert "string" in ws.receive_json()["detail"]
            ws.send_json(
                {
                    "account_id": "a",
                    "lat": center.lat,
                    "lon": center.lon,
                    "car_types": ["warp_drive"],
                }
            )
            assert "warp_drive" in ws.receive_json()["detail"]
            # Coordinates off the globe, NaN, overflowing floats and
            # integers too large for a float, each named in the reply.
            for message, name in [
                ('{"account_id": "a", "lat": 91, "lon": 0}', "lat"),
                ('{"account_id": "a", "lat": NaN, "lon": 0}', "lat"),
                ('{"account_id": "a", "lat": 40.7, "lon": 1e999}', "lon"),
                ('{"account_id": "a", "lat": 0, "lon": -'
                 + "9" * 400 + "}", "lon"),
            ]:
                ws.send_text(message)
                reply = ws.receive_json()
                assert reply["error"] == "bad_request"
                assert reply["detail"].startswith(f"{name} must be")
            # The session survives every malformed message: a valid
            # ping on the same connection is still answered.
            ws.send_json(
                {"account_id": "a", "lat": center.lat, "lon": center.lon}
            )
            reply = ws.receive_json()
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


class TestDisconnectDuringPing:
    """Soak: a WebSocket client that vanishes while its ping is parked
    in the coalesce window must not wedge the accumulator — later
    clients keep getting served, and the abandoned request is
    withdrawn rather than served to nobody."""

    def test_disconnect_while_parked_does_not_strand_later_pings(
        self, engine, center
    ):
        service = MarketplaceService(engine, coalesce_window_s=0.05)
        reference = PingEndpoint(engine)
        with AsgiTestClient(service) as client:
            quitter = client.websocket("/v1/ping")
            quitter.send_json(
                {
                    "account_id": "quitter",
                    "lat": center.lat,
                    "lon": center.lon,
                }
            )
            # Advance the loop just enough for the handler to park the
            # ping in the accumulator, then kill the connection's app
            # task mid-submit — the in-process equivalent of the socket
            # dropping while the coalesce window is still open.
            client._loop.run_until_complete(asyncio.sleep(0.005))
            assert len(service.rounds._pending) == 1
            quitter._task.cancel()
            # Let the cancellation land and the window elapse.
            client._loop.run_until_complete(asyncio.sleep(0.1))
            assert service.rounds._pending == []
            assert service.rounds.requests_served == 0
            # Soak: fresh connections after the abandonment are served
            # normally, byte-identical to the in-process endpoint.
            for i in range(5):
                with client.websocket("/v1/ping") as ws:
                    ws.send_json(
                        {
                            "account_id": f"late{i}",
                            "lat": center.lat,
                            "lon": center.lon,
                        }
                    )
                    assert ws.receive_text() == (
                        serialize.encode_ping_reply(
                            reference.ping(f"late{i}", center)
                        ).decode("utf-8")
                    )
        assert service.rounds.requests_served == 5
        assert service.rounds.rounds_served == 5


class TestRealSocketSmoke:
    """One exchange over a real localhost socket (stdlib server +
    stdlib client).  Skips where binding sockets is not permitted."""

    def test_http_and_websocket_roundtrip(self, engine, center):
        from repro.service.loadgen import WebSocketClient, http_get

        service = MarketplaceService(engine, coalesce_window_s=0.002)
        reference = PingEndpoint(engine)
        expected_ping = serialize.encode_ping_reply(
            reference.ping("sock", center)
        ).decode("utf-8")
        expected_health = serialize.canonical_json(
            serialize.health_payload(engine.clock.now)
        )

        async def exercise():
            server = AsgiHttpServer(service, port=0)
            try:
                await server.start()
            except OSError as exc:  # pragma: no cover - sandboxed env
                pytest.skip(f"cannot bind localhost sockets: {exc}")
            try:
                response = await http_get(
                    "127.0.0.1", server.port, "/v1/health"
                )
                assert response.status == 200
                assert response.body == expected_health
                ws = await WebSocketClient.connect(
                    "127.0.0.1", server.port, "/v1/ping"
                )
                try:
                    await ws.send_text(
                        json.dumps(
                            {
                                "account_id": "sock",
                                "lat": center.lat,
                                "lon": center.lon,
                            }
                        )
                    )
                    text = await ws.receive_text()
                finally:
                    await ws.close()
                assert text == expected_ping
            finally:
                await server.stop()

        asyncio.run(exercise())
