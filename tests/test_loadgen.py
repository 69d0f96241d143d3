"""The load-generator's client half: one-shot HTTP GETs and the
text-frame WebSocket session (``repro/service/loadgen.py``).

The module ships in the serve-bench but its request paths, error
branches, and timeout behaviour get dedicated tier-1 coverage here —
the cluster wire code reuses its framing patterns, so regressions in
this client would silently skew the service bench numbers.

WebSocket behaviour is tested over in-process ``socket.socketpair()``
streams against a scripted server speaking ``repro.service.http``
frames (no port binding, sandbox-proof); the HTTP and handshake paths
need a real listening socket and skip where binding is forbidden.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.service.http import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    encode_frame,
    read_frame,
)
from repro.service.loadgen import WebSocketClient, _parse_head, http_get


# ----------------------------------------------------------------------
# Response-head parsing
# ----------------------------------------------------------------------
def test_parse_head_status_and_lowercased_headers():
    status, headers = _parse_head(
        b"HTTP/1.1 429 Too Many Requests\r\n"
        b"Content-Type: application/json\r\n"
        b"Retry-After:  3600 \r\n"
        b"\r\n"
    )
    assert status == 429
    assert headers == {
        "content-type": "application/json",
        "retry-after": "3600",
    }


def test_parse_head_tolerates_blank_lines_and_no_headers():
    status, headers = _parse_head(b"HTTP/1.1 204 No Content\r\n\r\n")
    assert status == 204
    assert headers == {}


# ----------------------------------------------------------------------
# WebSocket session over scripted socketpair streams
# ----------------------------------------------------------------------
async def _ws_pair():
    """(client, server-side reader/writer) over a socketpair."""
    left, right = socket.socketpair()
    client_reader, client_writer = await asyncio.open_connection(sock=left)
    server_reader, server_writer = await asyncio.open_connection(sock=right)
    client = WebSocketClient(client_reader, client_writer)
    return client, server_reader, server_writer


def test_send_text_masks_client_frames():
    async def main():
        client, server_reader, server_writer = await _ws_pair()
        await client.send_text("hello")
        raw = await server_reader.readexactly(2)
        # FIN + text opcode, and the RFC 6455 client->server mask bit.
        assert raw[0] == 0x80 | OP_TEXT
        assert raw[1] & 0x80
        length = raw[1] & 0x7F
        mask = await server_reader.readexactly(4)
        body = await server_reader.readexactly(length)
        assert bytes(b ^ mask[i % 4] for i, b in enumerate(body)) == b"hello"
        # The deterministic rolling mask never repeats back-to-back.
        await client.send_text("again")
        frame = await read_frame(server_reader)
        assert frame == (OP_TEXT, b"again")
        server_writer.close()
        await client.close()

    asyncio.run(main())


def test_receive_text_returns_server_payload():
    async def main():
        client, _, server_writer = await _ws_pair()
        server_writer.write(encode_frame(OP_TEXT, "reply".encode("utf-8")))
        await server_writer.drain()
        assert await client.receive_text() == "reply"
        await client.close()
        server_writer.close()

    asyncio.run(main())


def test_receive_text_auto_pongs_pings_and_skips_pongs():
    async def main():
        client, server_reader, server_writer = await _ws_pair()
        server_writer.write(encode_frame(OP_PING, b"probe"))
        server_writer.write(encode_frame(OP_PONG, b"ignored"))
        server_writer.write(encode_frame(OP_TEXT, b"payload"))
        await server_writer.drain()
        # Control frames are transparent to the caller...
        assert await client.receive_text() == "payload"
        # ...and the ping was answered with an echoing pong.
        pong = await read_frame(server_reader)
        assert pong == (OP_PONG, b"probe")
        await client.close()
        server_writer.close()

    asyncio.run(main())


def test_receive_text_raises_on_server_close_frame():
    async def main():
        client, _, server_writer = await _ws_pair()
        server_writer.write(
            encode_frame(OP_CLOSE, (1001).to_bytes(2, "big"))
        )
        await server_writer.drain()
        with pytest.raises(ConnectionError, match="server sent close"):
            await client.receive_text()
        await client.close()
        server_writer.close()
        await server_writer.wait_closed()

    asyncio.run(main())


def test_receive_text_raises_on_abrupt_stream_end():
    async def main():
        client, _, server_writer = await _ws_pair()
        server_writer.close()
        await server_writer.wait_closed()
        with pytest.raises(ConnectionError, match="closed the stream"):
            await client.receive_text()
        await client.close()

    asyncio.run(main())


def test_close_sends_normal_closure_frame():
    async def main():
        client, server_reader, server_writer = await _ws_pair()
        await client.close()
        frame = await read_frame(server_reader)
        assert frame is not None
        opcode, payload = frame
        assert opcode == OP_CLOSE
        assert int.from_bytes(payload, "big") == 1000
        server_writer.close()

    asyncio.run(main())


def test_close_swallows_dead_transport():
    async def main():
        client, _, server_writer = await _ws_pair()
        server_writer.transport.abort()
        client._writer.transport.abort()
        await client.close()  # must not raise on a dead socket

    asyncio.run(main())


def test_rolling_mask_is_deterministic():
    async def main():
        client, _, server_writer = await _ws_pair()
        first = client._next_mask()
        second = client._next_mask()
        assert first == (0x9E3779B9).to_bytes(4, "big")
        assert second != first
        # A fresh client replays the same sequence — REP001-clean
        # determinism, no RNG involved.
        other, _, other_server = await _ws_pair()
        assert other._next_mask() == first
        for ws, server in ((client, server_writer), (other, other_server)):
            await ws.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


# ----------------------------------------------------------------------
# HTTP GET + handshake over real sockets (skipped if binding forbidden)
# ----------------------------------------------------------------------
def _sockets_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


needs_sockets = pytest.mark.skipif(
    not _sockets_available(),
    reason="socket binding unavailable in this sandbox",
)


async def _scripted_server(respond):
    """Start a localhost server running ``respond(reader, writer)``."""
    server = await asyncio.start_server(respond, host="127.0.0.1", port=0)
    return server, server.sockets[0].getsockname()[1]


@needs_sockets
class TestHttpGet:
    def test_get_parses_status_headers_and_body(self):
        async def respond(reader, writer):
            request = await reader.readuntil(b"\r\n\r\n")
            assert request.startswith(b"GET /v1/health HTTP/1.1\r\n")
            assert b"connection: close" in request
            assert b"x-probe: 1" in request
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 15\r\n\r\n"
                b'{"status":"ok"}'
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                return await http_get(
                    "127.0.0.1", port, "/v1/health",
                    headers=[("x-probe", "1")],
                )
            finally:
                server.close()
                await server.wait_closed()

        response = asyncio.run(main())
        assert response.status == 200
        assert response.headers["content-type"] == "application/json"
        assert response.body == b'{"status":"ok"}'

    def test_get_without_content_length_returns_empty_body(self):
        async def respond(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(b"HTTP/1.1 204 No Content\r\n\r\n")
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                return await http_get("127.0.0.1", port, "/nothing")
            finally:
                server.close()
                await server.wait_closed()

        response = asyncio.run(main())
        assert response.status == 204
        assert response.body == b""

    def test_get_times_out_against_a_stalled_server(self):
        async def respond(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            try:
                await asyncio.sleep(3600.0)  # never answers
            finally:
                writer.close()
                await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        http_get("127.0.0.1", port, "/stalled"), 0.3
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())

    def test_get_surfaces_mid_body_disconnect(self):
        async def respond(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort"
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                with pytest.raises(asyncio.IncompleteReadError):
                    await http_get("127.0.0.1", port, "/truncated")
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())


@needs_sockets
class TestWebSocketConnect:
    def test_handshake_accepted_then_roundtrip(self):
        async def respond(reader, writer):
            request = await reader.readuntil(b"\r\n\r\n")
            assert b"upgrade: websocket" in request
            assert b"sec-websocket-key:" in request
            writer.write(
                b"HTTP/1.1 101 Switching Protocols\r\n"
                b"Upgrade: websocket\r\nConnection: Upgrade\r\n\r\n"
            )
            await writer.drain()
            frame = await read_frame(reader)
            assert frame == (OP_TEXT, b"ping-me")
            writer.write(encode_frame(OP_TEXT, b"pong-you"))
            await writer.drain()
            await read_frame(reader)  # the client's close frame
            writer.close()
            await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                client = await WebSocketClient.connect(
                    "127.0.0.1", port, "/v1/ping"
                )
                await client.send_text("ping-me")
                reply = await client.receive_text()
                await client.close()
                return reply
            finally:
                server.close()
                await server.wait_closed()

        assert asyncio.run(main()) == "pong-you"

    def test_handshake_refusal_raises_with_status(self):
        async def respond(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(
                b"HTTP/1.1 429 Too Many Requests\r\n"
                b"Content-Length: 0\r\n\r\n"
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()

        async def main():
            server, port = await _scripted_server(respond)
            try:
                with pytest.raises(
                    ConnectionError, match="handshake refused: HTTP 429"
                ):
                    await WebSocketClient.connect(
                        "127.0.0.1", port, "/v1/ping"
                    )
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(main())
