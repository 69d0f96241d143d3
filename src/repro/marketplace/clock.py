"""Simulation clock.

All simulation time is *simulated seconds since campaign start* — the code
base never reads the wall clock, which keeps every run deterministic and
lets tests compress weeks into milliseconds.  Day 0 starts at midnight on a
configurable weekday so weekday/weekend demand profiles line up with the
paper's April 2015 measurement windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SECONDS_PER_DAY = 86_400
SECONDS_PER_HOUR = 3_600


@dataclass
class SimClock:
    """A fixed-step simulated clock.

    Parameters
    ----------
    start_weekday:
        0 = Monday ... 6 = Sunday; day 0 of the simulation has this
        weekday.  The paper's Manhattan window started Friday April 3 2015,
        so the Manhattan scenario defaults to 4.
    tick_seconds:
        Interval advanced by each :meth:`tick`.  The measurement clients
        ping every 5 s, so 5 s is the natural (and default) resolution.
    """

    start_weekday: int = 0
    tick_seconds: float = 5.0
    now: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not 0 <= self.start_weekday <= 6:
            raise ValueError("start_weekday must be in 0..6")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")

    def tick(self) -> float:
        """Advance one step and return the new time."""
        self.now += self.tick_seconds
        return self.now

    @property
    def day_index(self) -> int:
        """Whole days elapsed since campaign start."""
        return int(self.now // SECONDS_PER_DAY)

    @property
    def weekday(self) -> int:
        """Current weekday, 0 = Monday ... 6 = Sunday."""
        return (self.start_weekday + self.day_index) % 7

    @property
    def is_weekend(self) -> bool:
        return self.weekday >= 5

    @property
    def hour_of_day(self) -> float:
        """Fractional hour within the current day, in [0, 24)."""
        return (self.now % SECONDS_PER_DAY) / SECONDS_PER_HOUR

    def interval_index(self, interval_seconds: float = 300.0) -> int:
        """Index of the current fixed-length interval (5-minute default).

        Surge multipliers update on interval boundaries (§5.2), so both
        the surge engine and the audit pipeline bin time this way.
        """
        return int(self.now // interval_seconds)

    def copy(self) -> "SimClock":
        return SimClock(
            start_weekday=self.start_weekday,
            tick_seconds=self.tick_seconds,
            now=self.now,
        )
