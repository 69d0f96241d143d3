"""A stdlib asyncio HTTP/1.1 + WebSocket server for the marketplace.

The measurement environment ships no HTTP framework (no aiohttp /
uvicorn / websockets), so the transport is built directly on
``asyncio.start_server``: a small HTTP/1.1 request parser with
keep-alive, and an RFC 6455 WebSocket endpoint (handshake via
``hashlib``/``base64``, frame codec below).  It implements exactly the
subset the marketplace service uses — GET requests with query strings,
JSON bodies, and text-frame WebSocket sessions — which is also exactly
what the paper's measurement clients generated against production Uber.

The server only frames bytes: each HTTP request is answered by
:meth:`MarketplaceService.respond`, and each message of the ping
stream by :meth:`MarketplaceService.answer`.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.service.app import (
    PING_PATH,
    MarketplaceService,
    Response,
    error_response,
)

#: RFC 6455 §1.3 handshake GUID.
_WS_GUID = b"258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: WebSocket opcodes.
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Parser limits: request head and frame payloads are bounded so a
#: misbehaving client cannot balloon server memory.
MAX_HEAD_BYTES = 64 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024
MAX_FRAME_BYTES = 4 * 1024 * 1024

#: Every status the server sends (101 aside, written by the handshake).
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    426: "Upgrade Required",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}


class _HeadTooLarge(ValueError):
    """A request head over :data:`MAX_HEAD_BYTES` (answered 431)."""


class _Request:
    """One parsed HTTP request head (its body is read and dropped)."""

    __slots__ = ("method", "target", "version", "headers")

    def __init__(
        self,
        method: str,
        target: str,
        version: str,
        headers: Dict[str, str],
    ) -> None:
        self.method = method
        self.target = target
        self.version = version
        self.headers = headers

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    def wants_websocket(self) -> bool:
        return (
            "websocket" in self.headers.get("upgrade", "").lower()
            and "upgrade"
            in self.headers.get("connection", "").lower()
        )

    def wants_close(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if "close" in connection:
            return True
        return self.version == "HTTP/1.0" and "keep-alive" not in connection


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[_Request]:
    """Parse one request, or ``None`` on a clean connection close."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ValueError("truncated request head") from None
        return None
    except asyncio.LimitOverrunError:
        raise _HeadTooLarge("request head too large") from None
    if len(head) > MAX_HEAD_BYTES:
        raise _HeadTooLarge("request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, version = lines[0].split(" ", 2)
    except ValueError:
        raise ValueError(f"malformed request line {lines[0]!r}") from None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise ValueError(
            f"bad content-length {length_raw!r}"
        ) from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise ValueError("request body too large")
    if length:
        await reader.readexactly(length)
    return _Request(method.upper(), target, version, headers)


def _response_bytes(response: Response, keep_alive: bool) -> bytes:
    lines = [f"HTTP/1.1 {response.status} {_REASONS[response.status]}"]
    lines.extend(f"{name}: {value}" for name, value in response.headers)
    lines.append(f"content-length: {len(response.body)}")
    lines.append("connection: " + ("keep-alive" if keep_alive else "close"))
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + response.body


def websocket_accept_key(client_key: str) -> str:
    """The RFC 6455 ``Sec-WebSocket-Accept`` value for a client key."""
    digest = hashlib.sha1(
        client_key.encode("latin-1") + _WS_GUID
    ).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(
    opcode: int, payload: bytes, mask_key: Optional[bytes] = None
) -> bytes:
    """Encode one unfragmented frame (masked iff *mask_key* given)."""
    header = bytearray([0x80 | opcode])
    mask_bit = 0x80 if mask_key is not None else 0
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += length.to_bytes(2, "big")
    else:
        header.append(mask_bit | 127)
        header += length.to_bytes(8, "big")
    if mask_key is None:
        return bytes(header) + payload
    header += mask_key
    return bytes(header) + apply_mask(payload, mask_key)


def apply_mask(payload: bytes, mask_key: bytes) -> bytes:
    """XOR-mask/unmask a payload with a 4-byte key (RFC 6455 §5.3)."""
    if not payload:
        return payload
    repeated = (mask_key * (len(payload) // 4 + 1))[: len(payload)]
    return bytes(a ^ b for a, b in zip(payload, repeated))


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[int, bytes]]:
    """Read one complete message: ``(opcode, payload)``.

    Handles continuation frames (fragmented messages are reassembled)
    and unmasking.  Returns ``None`` on EOF at a frame boundary.
    """
    opcode: Optional[int] = None
    buffer = bytearray()
    while True:
        try:
            first = await reader.readexactly(2)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and opcode is None:
                return None
            raise ConnectionResetError("truncated frame") from None
        fin = bool(first[0] & 0x80)
        frame_op = first[0] & 0x0F
        masked = bool(first[1] & 0x80)
        length = first[1] & 0x7F
        if length == 126:
            length = int.from_bytes(await reader.readexactly(2), "big")
        elif length == 127:
            length = int.from_bytes(await reader.readexactly(8), "big")
        if length > MAX_FRAME_BYTES:
            raise ConnectionResetError("frame too large")
        mask_key = await reader.readexactly(4) if masked else b""
        payload = await reader.readexactly(length) if length else b""
        if masked:
            payload = apply_mask(payload, mask_key)
        if frame_op in (OP_CLOSE, OP_PING, OP_PONG):
            # Control frames may interleave a fragmented message and
            # are never themselves fragmented.
            return frame_op, payload
        if frame_op != OP_CONT:
            opcode = frame_op
        elif opcode is None:
            raise ConnectionResetError("continuation without a start")
        buffer += payload
        if fin:
            assert opcode is not None
            return opcode, bytes(buffer)


class HttpServer:
    """Serve a :class:`MarketplaceService` over real sockets.

    Usage::

        server = HttpServer(service, host="127.0.0.1", port=0)
        await server.start()        # binds; server.port is now real
        await server.serve_forever()

    ``port=0`` binds an ephemeral port (the bench does this so parallel
    CI jobs never collide).
    """

    def __init__(
        self,
        service: MarketplaceService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None  # guarded-by: <event-loop>
        self.connections_accepted = 0  # guarded-by: <event-loop>
        #: Requests whose ``respond`` raised (each answered 500).
        self.app_failures = 0  # guarded-by: <event-loop>

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.host,
            port=self.port,
            limit=MAX_HEAD_BYTES,
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.connections_accepted += 1
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HeadTooLarge as exc:
                    await _send(writer, error_response(
                        431, "headers_too_large", str(exc)))
                    break
                except ValueError as exc:
                    await _send(writer, error_response(
                        400, "bad_request", str(exc)))
                    break
                if request is None:
                    break
                if request.wants_websocket():
                    await self._serve_websocket(request, reader, writer)
                    break
                try:
                    response = self.service.respond(
                        request.method, request.target
                    )
                except Exception:  # noqa: BLE001 - a crash answers 500
                    self.app_failures += 1
                    await _send(writer, error_response(
                        500, "internal_error", "internal error"))
                    break
                keep_alive = not request.wants_close()
                await _send(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Server shutdown cancels handlers mid-close; the
                # transport is already closed, so ending quietly here
                # beats surfacing a spurious CancelledError.
                pass

    async def _serve_websocket(
        self,
        request: _Request,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if request.path != PING_PATH:
            await _send(writer, error_response(
                404, "not_found",
                f"no WebSocket endpoint {request.path!r}"))
            return
        client_key = request.headers.get("sec-websocket-key")
        if client_key is None:
            await _send(writer, error_response(
                400, "bad_request", "missing Sec-WebSocket-Key"))
            return
        writer.write(
            b"HTTP/1.1 101 Switching Protocols\r\n"
            b"upgrade: websocket\r\n"
            b"connection: Upgrade\r\n"
            b"sec-websocket-accept: "
            + websocket_accept_key(client_key).encode("ascii")
            + b"\r\n\r\n"
        )
        await writer.drain()
        # The next frame is read while a ping waits for its round, so a
        # peer that hangs up meanwhile withdraws the ping.  A frame read
        # ahead is handled only after the current reply is written.
        next_frame = asyncio.ensure_future(read_frame(reader))
        try:
            while True:
                frame = await next_frame
                if frame is None:
                    return
                opcode, payload = frame
                if opcode == OP_CLOSE:
                    writer.write(encode_frame(OP_CLOSE, payload[:2]))
                    await writer.drain()
                    return
                next_frame = asyncio.ensure_future(read_frame(reader))
                if opcode == OP_PONG:
                    continue
                if opcode == OP_PING:
                    writer.write(encode_frame(OP_PONG, payload))
                else:
                    answer = asyncio.ensure_future(self.service.answer(
                        payload.decode("utf-8", "replace")
                    ))
                    try:
                        await asyncio.wait(
                            (answer, next_frame),
                            return_when=asyncio.FIRST_COMPLETED,
                        )
                        if not answer.done() and _ends_session(next_frame):
                            continue  # _discard withdraws the ping
                        reply = await answer
                    finally:
                        _discard(answer)
                    writer.write(encode_frame(OP_TEXT, reply))
                await writer.drain()
        finally:
            _discard(next_frame)


def _discard(task: "asyncio.Future[Any]") -> None:
    """Cancel *task*, or retrieve what it already ended with: once its
    awaiter is gone, neither its result nor its failure is handled."""
    if not task.cancel() and not task.cancelled():
        task.exception()


def _ends_session(
    read: "asyncio.Future[Optional[Tuple[int, bytes]]]",
) -> bool:
    """Whether a finished frame read ends the WebSocket session: EOF, a
    CLOSE frame, or a read that failed (a reset or a malformed frame)."""
    if read.exception() is not None:
        return True
    frame = read.result()
    return frame is None or frame[0] == OP_CLOSE


async def _send(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool = False
) -> None:
    writer.write(_response_bytes(response, keep_alive))
    await writer.drain()
