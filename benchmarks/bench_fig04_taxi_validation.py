"""Fig 4: measured vs ground-truth taxi supply and demand.

The paper replays the 2013 NYC taxi trace behind a pingClient-equivalent
API, measures it with 172 clients, and captures 97 % of cars and 95 % of
deaths — the evidence that the Uber numbers can be trusted.  We replay a
synthetic trace with known truth and report the same two capture rates
plus the per-interval series.  ``repro validate`` runs the same
experiment, so the timing covers the whole run, measurement included.
"""

from _shared import write_table
from repro.validation.validate import run_taxi_validation


def test_fig04_taxi_validation(benchmark):
    report = benchmark.pedantic(
        run_taxi_validation,
        kwargs={"cabs": 300, "hours": 3.0, "ping_interval_s": 5.0,
                "seed": 2013},
        rounds=1, iterations=1,
    )
    lines = [
        f"cars captured:   {100 * report.car_capture:5.1f}%   (paper: 97%)",
        f"deaths captured: {100 * report.death_capture:5.1f}%   (paper: 95%)",
        f"supply correlation: {report.supply_correlation:.3f}",
        f"demand correlation: {report.demand_correlation:.3f}",
        "",
        "interval   measured_supply  true_supply  measured_deaths"
        "  true_deaths",
    ]
    for idx, ms, ts, md, td in report.intervals:
        lines.append(f"{idx:8d}   {ms:15d}  {ts:11d}  {md:15d}  {td:11d}")
    from repro.viz.plots import line_chart
    lines.append("")
    lines.append(line_chart(
        {
            "measured": [
                (float(i), float(ms)) for i, ms, _, _, _ in report.intervals
            ],
            "truth": [
                (float(i), float(ts)) for i, _, ts, _, _ in report.intervals
            ],
        },
        title="taxi supply: measured vs ground truth (Fig 4)",
        x_label="interval", width=60, height=10,
    ))
    write_table("fig04_taxi_validation", lines)

    assert report.car_capture > 0.90
    assert report.death_capture > 0.80
    assert report.supply_correlation > 0.6
    assert report.demand_correlation > 0.6
