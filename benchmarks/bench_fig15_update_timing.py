"""Fig 15: the moment within each 5-minute window when surge changes.

Clock updates land in a tight ~35-second band at a fixed phase; jitter
events are spread nearly uniformly across the window.
"""

from _shared import write_table
from repro.marketplace.types import CarType
from repro.analysis.jitter import detect_jitter_events
from repro.analysis.surge_stats import update_moments


def clock_moments(log):
    """Update moments from the clean (jitter-free) stream."""
    moments = []
    for cid in log.client_ids:
        moments.extend(
            update_moments(log.multiplier_series(cid, CarType.UBERX))
        )
    return moments


def jitter_moments(log):
    moments = []
    for cid in log.client_ids:
        series = log.multiplier_series(cid, CarType.UBERX)
        for event in detect_jitter_events(series, client_id=cid):
            moments.append(event.start_s % 300.0)
    return moments


def spread(moments):
    """Central-90% span of moments within the window."""
    if len(moments) < 5:
        return float("nan")
    ordered = sorted(moments)
    k = max(1, len(ordered) // 20)
    return ordered[-k] - ordered[k - 1]


def test_fig15_update_timing(
    mhtn_clean_campaign, mhtn_jitter_campaign, benchmark
):
    clock = benchmark(clock_moments, mhtn_clean_campaign)
    jitter = jitter_moments(mhtn_jitter_campaign)
    assert clock, "no multiplier changes observed in the clean stream"

    lines = [
        f"clock updates: n={len(clock)}, "
        f"range {min(clock):.0f}-{max(clock):.0f}s into interval, "
        f"central-90% span {spread(clock):.0f}s  (paper: ~35 s)",
    ]
    if jitter:
        lines.append(
            f"jitter starts: n={len(jitter)}, "
            f"range {min(jitter):.0f}-{max(jitter):.0f}s, "
            f"central-90% span {spread(jitter):.0f}s  "
            "(paper: ~uniform over the window)"
        )
    # Histogram in 30 s bins.
    lines.append("")
    lines.append("bin_s     clock   jitter")
    for lo in range(0, 300, 30):
        c = sum(1 for m in clock if lo <= m < lo + 30)
        j = sum(1 for m in jitter if lo <= m < lo + 30)
        lines.append(f"{lo:3d}-{lo + 30:3d}  {c:6d}   {j:6d}")
    write_table("fig15_update_timing", lines)

    # Clock updates cluster in a sub-minute band (engine phase 40 s +
    # 35 s band + one 5 s tick).
    assert max(clock) - min(clock) <= 50.0
    # Jitter, when present, spreads far wider than the clock band.
    if len(jitter) >= 10:
        assert spread(jitter) > 2 * spread(clock)
