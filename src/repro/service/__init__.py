"""Serving the marketplace over real sockets.

The paper's apparatus is network clients talking to Uber's servers:
`pingClient` every 5 s per session over a persistent connection, and
the rate-limited REST developer API (§3.2-3.3).  This package is that
transport for the reproduction:

* :class:`MarketplaceService` — the REST estimates and the `pingClient`
  stream: ``respond(method, target)`` answers one HTTP request (HTTP
  429 + ``Retry-After`` for an over-budget account) and
  ``answer(text)`` one ping message;
* :class:`RoundAccumulator` — coalesces concurrent pings into
  lock-step rounds served by one vectorized
  ``PingServer.serve_round`` pass;
* :class:`HttpServer` — stdlib asyncio HTTP/1.1 + RFC 6455 WebSocket
  server that frames bytes around the service's two methods (no
  third-party framework on the image);
* :mod:`repro.service.loadgen` — the socket-side client used by the
  socket tests and ``benchmarks/bench_api_service.py``.

Contract: every payload uses the canonical encoding of
:mod:`repro.api.serialize`, and the service must stay **byte-identical**
to encoding the in-process ``PingEndpoint``/``RestApi`` results
directly — the bit-identity discipline extended across the wire.
"""

from repro.service.app import MarketplaceService, Response
from repro.service.http import HttpServer
from repro.service.rounds import RoundAccumulator

__all__ = [
    "HttpServer",
    "MarketplaceService",
    "Response",
    "RoundAccumulator",
]
