"""Minimal asyncio HTTP/WebSocket *client* for driving the service.

The load bench simulates thousands of concurrent measurement clients
against real localhost sockets; no HTTP client library ships in the
measurement image, so this module implements the exact client subset
needed: one-shot ``GET`` requests and text-frame WebSocket sessions.

Frame masking (mandatory client->server per RFC 6455) uses a rolling
counter-derived key: the key's cryptographic unpredictability protects
browsers from cache-poisoning intermediaries, which do not exist on a
loopback bench — while a deterministic key keeps this module clean
under the repository's no-unseeded-randomness lint (REP001).
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.http import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    OP_TEXT,
    encode_frame,
    read_frame,
)


class HttpResponse:
    """Status, headers, body of one client-side HTTP exchange."""

    __slots__ = ("status", "headers", "body")

    def __init__(
        self, status: int, headers: Dict[str, str], body: bytes
    ) -> None:
        self.status = status
        self.headers = headers
        self.body = body


def _parse_head(head: bytes) -> Tuple[int, Dict[str, str]]:
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers


async def _close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a connection and wait until its socket is released."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, BrokenPipeError):
        pass


async def http_get(
    host: str,
    port: int,
    target: str,
    headers: Optional[Sequence[Tuple[str, str]]] = None,
) -> HttpResponse:
    """One ``GET`` over a fresh connection (``Connection: close``)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        lines = [
            f"GET {target} HTTP/1.1",
            f"host: {host}:{port}",
            "connection: close",
        ]
        for name, value in headers or ():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, head_map = _parse_head(head)
        length = int(head_map.get("content-length", "0"))
        body = await reader.readexactly(length) if length else b""
        return HttpResponse(status, head_map, body)
    finally:
        await _close_writer(writer)


class WebSocketClient:
    """A client-side text-frame WebSocket session."""

    #: Fixed client handshake key (base64 of 16 bytes).  The accept
    #: check still exercises the server's SHA-1 handshake; uniqueness
    #: of the key carries no protocol meaning.
    _HANDSHAKE_KEY = "cmVwcm8td3Mta2V5LTAwMQ=="

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._mask_counter = 0

    @classmethod
    async def connect(
        cls, host: str, port: int, path: str
    ) -> "WebSocketClient":
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                f"GET {path} HTTP/1.1\r\n"
                f"host: {host}:{port}\r\n"
                "upgrade: websocket\r\n"
                "connection: Upgrade\r\n"
                f"sec-websocket-key: {cls._HANDSHAKE_KEY}\r\n"
                "sec-websocket-version: 13\r\n\r\n"
            ).encode("latin-1")
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, _ = _parse_head(head)
        if status != 101:
            await _close_writer(writer)
            raise ConnectionError(
                f"websocket handshake refused: HTTP {status}"
            )
        return cls(reader, writer)

    def _next_mask(self) -> bytes:
        self._mask_counter = (self._mask_counter + 0x9E3779B9) & 0xFFFFFFFF
        return self._mask_counter.to_bytes(4, "big")

    async def send_text(self, text: str) -> None:
        self._writer.write(
            encode_frame(
                OP_TEXT, text.encode("utf-8"), mask_key=self._next_mask()
            )
        )
        await self._writer.drain()

    async def receive_text(self) -> str:
        while True:
            frame = await read_frame(self._reader)
            if frame is None:
                raise ConnectionError("server closed the stream")
            opcode, payload = frame
            if opcode == OP_CLOSE:
                raise ConnectionError("server sent close")
            if opcode == OP_PING:
                self._writer.write(
                    encode_frame(
                        OP_PONG, payload, mask_key=self._next_mask()
                    )
                )
                await self._writer.drain()
                continue
            if opcode == OP_PONG:
                continue
            return payload.decode("utf-8")

    async def close(self) -> None:
        try:
            self._writer.write(
                encode_frame(
                    OP_CLOSE,
                    (1000).to_bytes(2, "big"),
                    mask_key=self._next_mask(),
                )
            )
            await self._writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        await _close_writer(self._writer)


__all__: List[str] = ["HttpResponse", "WebSocketClient", "http_get"]
