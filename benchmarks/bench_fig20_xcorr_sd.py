"""Fig 20: cross-correlation of (supply − demand) vs surge.

The paper treats each surge area as an independent time series and finds
a relatively strong *negative* correlation peaking at Δt ≈ 0: surge
rises when the supply/demand slack shrinks, within the same 5-minute
window — evidence the algorithm is responsive to the previous window's
state.  (The correlation is computed over the full series; the m = 1
filter belongs to the forecasting analysis, Table 1.)
"""

import pytest

from _shared import per_area_clock_series, write_table
from repro.marketplace.config import city_config
from repro.marketplace.types import CarType
from repro.analysis.correlate import cross_correlation, strongest_shift
from repro.analysis.supply_demand import estimate_supply_demand_by_area


def build_series(log, region):
    """Per-area surge clocks + per-area (supply − demand) per interval."""
    area_of = lambda p: (  # noqa: E731 - tiny adapter
        lambda a: None if a is None else a.area_id
    )(region.area_of(p))
    by_area = estimate_supply_demand_by_area(
        log, area_of, car_type=CarType.UBERX, boundary=region.boundary
    )
    sd_diff = {
        area_id: {
            e.interval_index: float(e.supply - e.demand)
            for e in ests[1:-1]
        }
        for area_id, ests in by_area.items()
    }
    return sd_diff, per_area_clock_series(log, region)


def surge_series_with_activity(area_clock):
    """Paper's §5.4 cleaning, used by the *forecasting* analyses:
    intervals at multiplier 1 are dropped unless adjacent to surge."""
    out = {}
    for area_id, clock in area_clock.items():
        kept = {}
        for idx, m in clock.items():
            if m > 1.0 or clock.get(idx - 1, 1.0) > 1.0 or clock.get(
                idx + 1, 1.0
            ) > 1.0:
                kept[idx] = m
        out[area_id] = kept
    return out


@pytest.mark.parametrize("city", ["manhattan", "sf"])
def test_fig20_xcorr_sd(city, mhtn_campaign, sf_campaign, benchmark):
    log = mhtn_campaign if city == "manhattan" else sf_campaign
    region = city_config(city).region
    sd_by_area, area_clock = benchmark.pedantic(
        build_series, args=(log, region), rounds=1, iterations=1
    )

    lines = [f"{city}: area   r(-10m)  r(-5m)   r(0)   r(+5m)  best"]
    peaks = []
    for area_id in sorted(area_clock):
        surge = area_clock[area_id]
        sd = sd_by_area.get(area_id, {})
        if len(surge) < 24 or not sd:
            lines.append(f"area {area_id}: insufficient data")
            continue
        points = cross_correlation(surge, sd, max_shift_intervals=12)
        by_shift = {p.shift_minutes: p for p in points}
        best = strongest_shift(points)
        lines.append(
            f"area {area_id:4d}   "
            + "  ".join(
                f"{by_shift[m].coefficient:+5.2f}"
                for m in (-10.0, -5.0, 0.0, 5.0)
            )
            + f"   {best.coefficient:+.2f}@{best.shift_minutes:+.0f}m"
        )
        peaks.append(best)
    lines.append("paper: negative correlation, strongest within "
                 "-10..+10 min of zero shift")
    write_table(f"fig20_xcorr_sd_{city}", lines)

    assert peaks, "no area had enough data"
    # Negative coupling peaking near zero shift.  Manhattan reproduces
    # the paper's magnitude; SF's near-lock-step pricing means per-area
    # measured features carry little area-specific signal, so its
    # correlations keep the right sign and location but are attenuated
    # (documented deviation in EXPERIMENTS.md).
    negative_near_zero = [
        p for p in peaks
        if p.coefficient < -0.08 and abs(p.shift_minutes) <= 10.0
    ]
    assert len(negative_near_zero) >= 2
    strongest = min(p.coefficient for p in peaks)
    assert strongest < (-0.2 if city == "manhattan" else -0.1)
