"""Fig 21: cross-correlation of EWT vs surge.

Positive correlation peaking at Δt ≈ 0: waits lengthen exactly when
surge rises — strained supply shows up in both signals together.
"""

import math

import pytest

from _shared import per_area_clock_series, write_table
from repro.marketplace.config import city_config
from repro.marketplace.types import CarType
from repro.analysis.correlate import cross_correlation, strongest_shift
from repro.analysis.timeseries import interval_means


def per_area_ewt(log, region):
    """Mean EWT per interval per area, averaged over the area's clients.

    Averaging across every client inside the area (rather than one probe
    point) smooths dispatch-distance noise, matching the paper's "we
    construct corresponding time series by averaging each quantity over
    the 5-minute window".
    """
    samples_by_area = {}
    for cid, pos in log.client_positions.items():
        area = region.area_of(pos)
        if area is None:
            continue
        for t, e in log.ewt_series(cid, CarType.UBERX):
            if e is not None:
                samples_by_area.setdefault(area.area_id, []).append((t, e))
    return {
        area_id: interval_means(samples)
        for area_id, samples in samples_by_area.items()
    }


@pytest.mark.parametrize("city", ["manhattan", "sf"])
def test_fig21_xcorr_ewt(city, mhtn_campaign, sf_campaign, benchmark):
    log = mhtn_campaign if city == "manhattan" else sf_campaign
    region = city_config(city).region
    ewt_by_area = benchmark.pedantic(
        per_area_ewt, args=(log, region), rounds=1, iterations=1
    )
    area_clock = per_area_clock_series(log, region)

    lines = [f"{city}: area   r(-5m)   r(0)   r(+5m)  best"]
    peaks = []
    for area_id in sorted(area_clock):
        surge = area_clock[area_id]
        ewt = ewt_by_area.get(area_id, {})
        if len(surge) < 24 or not ewt:
            lines.append(f"area {area_id}: insufficient data")
            continue
        points = cross_correlation(surge, ewt, max_shift_intervals=12)
        by_shift = {p.shift_minutes: p for p in points}
        valid = [p for p in points if not math.isnan(p.coefficient)]
        if not valid:
            continue
        best = strongest_shift(points)
        lines.append(
            f"area {area_id:4d}   "
            + "  ".join(
                f"{by_shift[m].coefficient:+5.2f}"
                for m in (-5.0, 0.0, 5.0)
            )
            + f"   {best.coefficient:+.2f}@{best.shift_minutes:+.0f}m"
        )
        peaks.append(best)
    # Also evaluate the city-aggregate pairing (the right unit when the
    # areas are lock-stepped, as in SF).
    all_samples = []
    for cid in log.client_positions:
        all_samples.extend(
            (t, e)
            for t, e in log.ewt_series(cid, CarType.UBERX)
            if e is not None
        )
    city_ewt = interval_means(all_samples)
    any_area_clock = area_clock[sorted(area_clock)[0]]
    city_points = cross_correlation(
        any_area_clock, city_ewt, max_shift_intervals=12
    )
    city_near_zero = [
        p for p in city_points
        if abs(p.shift_minutes) <= 10.0
        and not math.isnan(p.coefficient)
    ]
    best_city = max(city_near_zero, key=lambda p: p.coefficient)
    lines.append(
        f"city aggregate: r={best_city.coefficient:+.2f} at "
        f"Δt={best_city.shift_minutes:+.0f} min"
    )
    lines.append("paper: positive correlation, strongest at zero shift")
    write_table(f"fig21_xcorr_ewt_{city}", lines)

    assert peaks
    # Manhattan reproduces the paper's clear positive peak; SF's
    # lock-step pricing attenuates the per-area pairing, so the check
    # there is sign + location only (documented deviation).
    candidates = [
        p.coefficient for p in peaks if abs(p.shift_minutes) <= 10.0
    ] + [best_city.coefficient]
    if city == "manhattan":
        assert max(p.coefficient for p in peaks) > 0.2
        positive_near_zero = [
            p for p in peaks
            if p.coefficient > 0.1 and abs(p.shift_minutes) <= 10.0
        ]
        assert len(positive_near_zero) >= 2
    else:
        assert max(candidates) > 0.05
