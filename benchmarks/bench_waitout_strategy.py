"""§5.2 takeaway: "savvy Uber passengers should wait-out surges".

Fig 13 shows most surges die within 5-10 minutes; this bench turns that
into the passenger-facing number the paper implies: how much of the
surge premium does waiting one or two intervals recover, in each city?
"""

from _shared import per_area_clock_series, write_table
from repro.marketplace.config import city_config
from repro.strategy.waiting import expected_premium_paid, wait_out_table


def evaluate(log, region):
    clocks = per_area_clock_series(log, region)
    merged = []
    for area_id, clock in sorted(clocks.items()):
        merged.append((area_id, wait_out_table(clock,
                                               max_wait_intervals=3)))
    return clocks, merged


def test_waitout_strategy(mhtn_campaign, sf_campaign, benchmark):
    lines = ["city       area  wait_min  cleared  improved  "
             "mean_reduction  after"]
    recovered = {}
    for city, log in (("manhattan", mhtn_campaign), ("sf", sf_campaign)):
        region = city_config(city).region
        clocks, merged = (
            benchmark.pedantic(evaluate, args=(log, region),
                               rounds=1, iterations=1)
            if city == "manhattan" else evaluate(log, region)
        )
        city_rows = 0
        for area_id, outcomes in merged:
            for o in outcomes:
                lines.append(
                    f"{city:10s} {area_id:4d}  {o.intervals_waited * 5:7d}"
                    f"  {o.fully_cleared:7.2f}  {o.improved:8.2f}"
                    f"  {o.mean_reduction:14.2f}  {o.mean_after:5.2f}"
                )
                city_rows += 1
        # Premium recovered by a 10-minute wait, averaged over areas.
        recoveries = []
        for area_id, clock in clocks.items():
            try:
                now, later = expected_premium_paid(clock, 2)
            except ValueError:
                continue
            if now > 0:
                recoveries.append(1.0 - later / now)
        if recoveries:
            recovered[city] = sum(recoveries) / len(recoveries)
            lines.append(
                f"{city}: a 10-minute wait recovers "
                f"{100 * recovered[city]:.0f}% of the surge premium"
            )
    write_table("waitout_strategy", lines)

    # Waiting must recover a substantial share of the premium — the
    # "short-lived surges" structure of Fig 13, monetized.
    assert recovered.get("manhattan", 0.0) > 0.3
    assert recovered.get("sf", 0.0) > 0.1
