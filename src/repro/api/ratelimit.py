"""Per-account sliding-window rate limiting.

Uber capped third-party API usage at 1 000 requests per hour per user
account (§3.2); the paper's client fleet stayed under it (and the
`pingClient` path was never limited at all).  The limiter operates on
simulated time so tests can exercise window expiry without sleeping.

Its one caller in the package is :class:`repro.api.rest.RestApi`, used
in process and by the socket service (:mod:`repro.service`), whose
``MarketplaceService`` answers every request on one asyncio loop.  A
limiter is still a plain object that callers may share across threads,
so all bookkeeping happens under one lock: an unlocked prune/append
interleaving miscounts budgets and can pop from a deque another thread
just emptied.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict


def retry_after_hint(retry_after_s: float) -> int:
    """Whole seconds a client must wait before retrying.

    Rounded *up* and clamped to >= 0: truncating (``:.0f``) renders a
    sub-second wait as "0 s", and a transport that echoes that as
    ``Retry-After: 0`` invites an immediate re-hit that is rejected
    again.  ``ceil`` guarantees the advertised wait is never shorter
    than the real one.
    """
    return max(0, math.ceil(retry_after_s))


class RateLimitExceeded(Exception):
    """Raised when an account exceeds its request budget."""

    def __init__(self, account_id: str, retry_after_s: float) -> None:
        hint = retry_after_hint(retry_after_s)
        super().__init__(
            f"account {account_id!r} over rate limit; "
            f"retry after {hint}s"
        )
        self.account_id = account_id
        #: Exact remaining wait in (possibly fractional) seconds.
        self.retry_after_s = retry_after_s
        #: What a transport should surface (``Retry-After`` header):
        #: whole seconds, rounded up, never negative.
        self.retry_after_hint_s = hint


class RateLimiter:
    """Sliding-window limiter: *limit* requests per *window_s* seconds.

    Thread-safe: :meth:`check` and :meth:`remaining` may be called
    concurrently for the same account from any threads that share the
    limiter.
    """

    def __init__(self, limit: int = 1000, window_s: float = 3600.0) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        if window_s <= 0:
            raise ValueError("window must be positive")
        self.limit = limit
        self.window_s = window_s
        self._history: Dict[str, Deque[float]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    def check(self, account_id: str, now: float) -> None:
        """Record one request; raise :class:`RateLimitExceeded` if over."""
        with self._lock:
            history = self._history.setdefault(account_id, deque())
            cutoff = now - self.window_s
            while history and history[0] <= cutoff:
                history.popleft()
            if len(history) >= self.limit:
                retry_after = history[0] + self.window_s - now
                raise RateLimitExceeded(account_id, retry_after)
            history.append(now)

    def remaining(self, account_id: str, now: float) -> int:
        """Requests left in the current window without consuming one.

        Also prunes: expired timestamps are dropped and fully-idle
        accounts are forgotten, so accounts that stop calling
        :meth:`check` do not pin up to *limit* floats forever.
        """
        with self._lock:
            history = self._history.get(account_id)
            if not history:
                self._history.pop(account_id, None)
                return self.limit
            cutoff = now - self.window_s
            while history and history[0] <= cutoff:
                history.popleft()
            if not history:
                del self._history[account_id]
                return self.limit
            return max(0, self.limit - len(history))
