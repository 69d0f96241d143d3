"""Diurnal aggregation of measured series (§4.2's daily patterns).

The paper's first characterization result is that supply, demand, surge,
and EWT "peak during the day and decline at night", with rush-hour local
peaks and weekday/weekend differences.  These helpers turn any
``(t, value)`` stream or per-interval dictionary into hour-of-day
profiles, optionally split by weekday/weekend, and quantify peak
structure.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.marketplace.clock import SECONDS_PER_DAY

_SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class DiurnalStats:
    """Hourly aggregates of one measured quantity."""

    hourly_mean: Dict[int, float]
    hourly_count: Dict[int, int]


def diurnal_stats(
    samples: Iterable[Tuple[float, float]],
    weekend_filter: Optional[bool] = None,
    start_weekday: int = 0,
) -> DiurnalStats:
    """Aggregate ``(sim_seconds, value)`` samples by hour of day.

    ``weekend_filter``: ``None`` keeps everything, ``True`` keeps only
    weekend samples, ``False`` only weekdays (day 0 of simulated time
    has weekday *start_weekday*, 0 = Monday).
    """
    sums: Dict[int, float] = {}
    counts: Dict[int, int] = {}
    for t, value in samples:
        if weekend_filter is not None:
            weekday = (start_weekday + int(t // SECONDS_PER_DAY)) % 7
            if (weekday >= 5) != weekend_filter:
                continue
        hour = int((t % SECONDS_PER_DAY) // _SECONDS_PER_HOUR)
        sums[hour] = sums.get(hour, 0.0) + value
        counts[hour] = counts.get(hour, 0) + 1
    if not sums:
        raise ValueError("no samples matched")
    return DiurnalStats(
        hourly_mean={h: sums[h] / counts[h] for h in sums},
        hourly_count=dict(counts),
    )


def rush_hour_lift(
    stats: DiurnalStats,
    rush: Sequence[Tuple[int, int]] = ((6, 10), (16, 20)),
) -> float:
    """Mean rush-hour level relative to the all-day mean.

    > 1 means the quantity peaks at rush hours, the §4.2 signature.
    """
    rush_values = [
        v for h, v in stats.hourly_mean.items()
        if any(lo <= h < hi for lo, hi in rush)
    ]
    if not rush_values:
        raise ValueError("no rush-hour samples")
    overall = statistics.mean(stats.hourly_mean.values())
    if overall == 0:
        return float("inf")
    return statistics.mean(rush_values) / overall
