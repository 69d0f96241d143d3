"""API request budgeting across measurement accounts.

The REST API allows 1 000 requests/hour per account (§3.2).  The paper's
wide-area experiments (surge-area discovery over "Manhattan and SF over
the course of eight days", §5.3) therefore had to spread queries over
the 43 accounts.  :class:`RequestScheduler` plans that spreading:

* :meth:`plan` — given a probe workload (points × rounds × queries per
  point) and a round period, compute how many accounts are needed and
  assign each query an account, round-robin by available budget;
* :meth:`account_for` — at run time, pick the least-loaded account that
  still has budget in the current window, tracking spend.

The scheduler works in simulated time and composes with
:class:`repro.api.ratelimit.RateLimiter` — the limiter *enforces*, the
scheduler *avoids* ever hitting it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ProbePlan:
    """A feasible assignment of a probe workload to accounts."""

    accounts_needed: int
    queries_per_round: int
    rounds_per_hour: float
    queries_per_account_per_hour: float

    def describe(self) -> str:
        return (
            f"{self.queries_per_round} queries/round at "
            f"{self.rounds_per_hour:.1f} rounds/h -> "
            f"{self.accounts_needed} accounts "
            f"({self.queries_per_account_per_hour:.0f} req/h each)"
        )


class RequestScheduler:
    """Plans and tracks per-account API spend under the hourly cap.

    **Thread safety.**  Budget accounting (:meth:`account_for`,
    :meth:`total_spent`) is guarded by a lock: the parallel layer runs
    whole campaigns on worker processes, and while nothing currently
    calls into a scheduler off the campaign's own thread (see
    :meth:`Fleet.rounds <repro.measurement.fleet.Fleet.rounds>`), spend
    tracking is exactly the kind of read-modify-write state a future
    threaded probe driver would corrupt silently — the lock makes the
    invariant structural instead of conventional.  Lock-free reads of
    planning methods (:meth:`plan`, :meth:`make_accounts`) stay
    lock-free: they touch no mutable state.
    """

    def __init__(
        self,
        limit_per_hour: int = 1000,
        window_s: float = 3600.0,
        safety_margin: float = 0.9,
    ) -> None:
        if limit_per_hour <= 0:
            raise ValueError("limit must be positive")
        if not 0.0 < safety_margin <= 1.0:
            raise ValueError("safety margin must be in (0, 1]")
        self.limit_per_hour = limit_per_hour
        self.window_s = window_s
        self.safety_margin = safety_margin
        self._spend: Dict[str, List[float]] = {}  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def effective_limit(self) -> int:
        # Clamped to 1: truncation would zero out small limits (e.g.
        # limit 1 × margin 0.9), making account_for reject every
        # account and plan divide by zero.
        return max(1, int(self.limit_per_hour * self.safety_margin))

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        queries_per_round: int,
        round_period_s: float,
    ) -> ProbePlan:
        """How many accounts does this workload need?

        Raises :class:`ValueError` for unsatisfiable workloads (a single
        round alone cannot exceed accounts × limit — the caller must
        shrink the probe grid or slow the cadence, exactly the trade-off
        §3.4 discusses).
        """
        if queries_per_round <= 0:
            raise ValueError("need at least one query per round")
        if round_period_s <= 0:
            raise ValueError("round period must be positive")
        rounds_per_hour = self.window_s / round_period_s
        hourly_queries = queries_per_round * rounds_per_hour
        accounts = max(1, math.ceil(hourly_queries / self.effective_limit))
        return ProbePlan(
            accounts_needed=accounts,
            queries_per_round=queries_per_round,
            rounds_per_hour=rounds_per_hour,
            queries_per_account_per_hour=hourly_queries / accounts,
        )

    def make_accounts(self, plan: ProbePlan, prefix: str = "probe") -> List[str]:
        return [f"{prefix}{i:03d}" for i in range(plan.accounts_needed)]

    # ------------------------------------------------------------------
    # Runtime assignment
    # ------------------------------------------------------------------
    def _live_spend(self, account: str, now: float) -> int:  # guarded-by: _lock
        history = self._spend.get(account, [])
        cutoff = now - self.window_s
        # Compact expired entries opportunistically.
        live = [t for t in history if t > cutoff]
        self._spend[account] = live
        return len(live)

    def account_for(
        self, accounts: Sequence[str], now: float
    ) -> Optional[str]:
        """The least-loaded account with remaining budget, or ``None``.

        Records the request against the returned account.
        """
        if not accounts:
            raise ValueError("no accounts supplied")
        with self._lock:
            best: Optional[str] = None
            best_spend = None
            for account in accounts:
                spend = self._live_spend(account, now)
                if spend >= self.effective_limit:
                    continue
                if best_spend is None or spend < best_spend:
                    best = account
                    best_spend = spend
            if best is None:
                return None
            self._spend.setdefault(best, []).append(now)
            return best

    def total_spent(self, now: float) -> int:
        with self._lock:
            return sum(
                self._live_spend(account, now) for account in self._spend
            )
