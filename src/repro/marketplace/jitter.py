"""The "jitter" consistency bug.

In April 2015 the paper's clients began observing brief (20-30 s) windows
during which the served surge multiplier reverted to the *previous*
5-minute interval's value (§5.2, Fig 14b).  Uber's engineers confirmed the
cause: a consistency bug serving stale multipliers to random customers.
The measured signature, all reproduced here:

* 90 % of jitter events last 20-30 s and all last under 1 minute;
* the stale value equals the previous interval's multiplier, so jitter
  almost always *lowers* the price mid-surge (Fig 16);
* events strike per-client at uniformly random moments (Fig 15), with
  ~90 % observed by a single client at a time (Fig 17);
* the API datastream (and the pre-April client stream) is unaffected.

The bug is deterministic per ``(seed, account, interval)`` so campaigns
replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.marketplace.surge import SURGE_INTERVAL_S


@dataclass(frozen=True)
class JitterParams:
    """Knobs of the injected bug.

    ``probability`` is the chance that a given client account experiences
    one stale window in a given 5-minute interval.  Setting it to 0
    reproduces the clean February/API datastream (Fig 13's "Feb." and
    "April API" lines).
    """

    probability: float = 0.25
    min_duration_s: float = 20.0
    max_duration_s: float = 30.0
    interval_s: float = SURGE_INTERVAL_S

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if not 0.0 < self.min_duration_s <= self.max_duration_s:
            raise ValueError("durations must satisfy 0 < min <= max")
        if self.max_duration_s >= self.interval_s:
            raise ValueError("jitter must fit inside one interval")


class JitterBug:
    """Per-account stale-multiplier windows.

    The bug lives at the serving layer: it decides *when* an account sees
    stale data; the ping endpoint decides *what* stale value to substitute
    (the previous interval's multiplier, see
    :meth:`repro.marketplace.surge.SurgeEngine.previous_multiplier`).
    """

    def __init__(self, params: JitterParams, seed: int = 0) -> None:
        self.params = params
        self.seed = seed
        # Per-account window memo for one interval at a time: accounts
        # ping every 5 s, so each (account, interval) window would
        # otherwise be re-derived (seeding a fresh PRNG) dozens of
        # times.  Queries only ever target the current interval, so a
        # single-interval cache stays small and self-evicting.
        self._cache_interval = -1
        self._cache: Dict[str, Optional[Tuple[float, float]]] = {}

    def _window_for(
        self, account_id: str, interval_index: int
    ) -> Optional[Tuple[float, float]]:
        """The stale window (start, end) in seconds-into-interval, if any.

        Drawn deterministically from ``(seed, account, interval)`` so the
        same campaign replayed twice sees identical jitter.
        """
        p = self.params
        if p.probability == 0.0:
            return None
        if interval_index != self._cache_interval:
            self._cache_interval = interval_index
            self._cache = {}
        try:
            return self._cache[account_id]
        except KeyError:
            pass
        rng = random.Random(f"{self.seed}:{account_id}:{interval_index}")
        if rng.random() >= p.probability:
            window = None
        else:
            duration = rng.uniform(p.min_duration_s, p.max_duration_s)
            start = rng.uniform(0.0, p.interval_s - duration)
            window = (start, start + duration)
        self._cache[account_id] = window
        return window

    def is_stale(self, account_id: str, now: float) -> bool:
        """Is this account inside a stale window at time *now*?"""
        interval = int(now // self.params.interval_s)
        window = self._window_for(account_id, interval)
        if window is None:
            return False
        offset = now % self.params.interval_s
        return window[0] <= offset < window[1]
