"""Round accumulation: coalescing concurrent pings into lock-step rounds.

The measurement fleet pings in lock-step — every client, same instant,
every 5 s (§3.3) — which is why :meth:`PingServer.serve_round` can
answer a whole round with one vectorized pass.  Over a socket that
lock-step arrives as *many concurrent WebSocket messages within a tick*,
so the transport needs a rendezvous point: the accumulator parks each
arriving ping on a future, and one drain pass hands the accumulated
batch to ``serve_round`` and distributes the replies.

The coalesce window spaces rounds; it does not delay them.  A ping that
arrives when no round has started within the last window is served one
event-loop pass later, together with every ping read in that pass.
Pings that arrive within one window of the last round's start wait until
that window closes and form the next round.  A client pinging every 5 s
(§3.3) almost never finds company, so it pays no wait, while a
lock-step burst that queues up during a round is still answered by one
``serve_round``.

Because ``serve_round`` is reply-for-reply identical to independent
``ping()`` calls (tier-1 enforced), the batch composition — which
requests happen to share a round, their arrival order, duplicate
accounts — cannot change any client's reply.  Coalescing is therefore
purely a throughput lever, never a semantics one, and the service stays
byte-identical to the in-process path no matter how clients interleave.
"""

from __future__ import annotations

import asyncio
import math
from typing import List, Optional, Tuple

from repro.api.models import PingReply
from repro.api.ping import PingRequest, PingServer


class RoundAccumulator:
    """Coalesce concurrently-arriving pings into ``serve_round`` batches.

    Parameters
    ----------
    server:
        Any :class:`PingServer`; batches go through its
        ``serve_round``.
    coalesce_window_s:
        The least time between the starts of two rounds.  A round
        starts one event-loop pass after its first ping, so messages
        already queued in that pass join it, unless the last round
        started less than this long ago: then it starts when the window
        closes, and every ping that arrived meanwhile joins it.  ``0``
        serves each loop pass's pings as one round.
    """

    def __init__(
        self, server: PingServer, coalesce_window_s: float = 0.0
    ) -> None:
        if coalesce_window_s < 0:
            raise ValueError("coalesce window must be >= 0")
        self._server = server
        self.coalesce_window_s = coalesce_window_s
        self._pending: List[
            Tuple[PingRequest, "asyncio.Future[PingReply]"]
        ] = []  # guarded-by: <event-loop>
        self._drain_scheduled = False  # guarded-by: <event-loop>
        # Strong reference to the in-flight drain task.  The event loop
        # only keeps *weak* references to tasks, so a bare
        # ``create_task()`` whose result is discarded can be garbage
        # collected mid-window — silently stranding every parked ping
        # on a future that will never resolve.
        self._drain_task: Optional["asyncio.Task[None]"] = None  # guarded-by: <event-loop>
        # Loop time at which the last round was handed to serve_round.
        self._last_round_start = -math.inf  # guarded-by: <event-loop>
        #: Served-round telemetry (reported by the bench / status page).
        self.rounds_served = 0
        self.requests_served = 0
        self.max_round_size = 0

    async def submit(self, request: PingRequest) -> PingReply:
        """Park one ping in the current round and await its reply."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[PingReply]" = loop.create_future()
        entry = (request, future)
        self._pending.append(entry)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self._drain_task = loop.create_task(self._drain())
        try:
            return await future
        except asyncio.CancelledError:
            # Client hung up while parked (disconnect mid-window):
            # withdraw the request so the round only serves live
            # connections.  If the drain already swapped the batch out,
            # the entry is no longer in ``_pending`` and the served
            # reply is simply dropped by the done-future check below.
            try:
                self._pending.remove(entry)
            except ValueError:
                pass
            raise

    async def _drain(self) -> None:
        # Yield at least once, so every ping already read on the loop
        # joins the batch, and until one window after the last round
        # started, so pings arriving inside that window share a round.
        loop = asyncio.get_running_loop()
        await asyncio.sleep(max(
            0.0,
            self._last_round_start + self.coalesce_window_s - loop.time(),
        ))
        # A cancelled future is a withdrawn ping whose submit has not
        # yet run its except clause; it is served to nobody.
        batch = [entry for entry in self._pending if not entry[1].done()]
        self._pending = []
        self._drain_scheduled = False
        self._drain_task = None
        if not batch:
            return
        requests = [request for request, _ in batch]
        self.rounds_served += 1
        self.requests_served += len(batch)
        if len(batch) > self.max_round_size:
            self.max_round_size = len(batch)
        self._last_round_start = loop.time()
        try:
            replies = self._server.serve_round(requests)
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), reply in zip(batch, replies):
            # A future may already be cancelled (client hung up while
            # the round was being served); its reply is simply dropped.
            if not future.done():
                future.set_result(reply)
