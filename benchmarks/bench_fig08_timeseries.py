"""Fig 8: supply, demand, surge, and EWT over time, both cities.

The paper's headline characterization: all four quantities are diurnal
with rush-hour peaks; SF has ~58 % more Ubers yet surges far more often
and higher.  We regenerate the hourly series from the two campaigns and
check every contrast.
"""

import statistics
from collections import defaultdict

from _shared import all_multiplier_samples, write_table
from repro.marketplace.config import city_config
from repro.marketplace.types import CarType
from repro.analysis.supply_demand import estimate_supply_demand
from repro.analysis.surge_stats import surge_fraction


def hourly_series(log, region):
    """hour -> (supply, demand, surge, ewt) averaged over the campaign."""
    estimates = estimate_supply_demand(
        log, car_type=CarType.UBERX, boundary=region.boundary
    )
    supply = defaultdict(list)
    demand = defaultdict(list)
    for est in estimates[1:-1]:
        hour = int((est.start_s % 86_400.0) // 3600.0)
        supply[hour].append(est.supply)
        demand[hour].append(est.demand)
    surge = defaultdict(list)
    ewt = defaultdict(list)
    cid = log.client_ids[len(log.client_ids) // 2]
    for t, m in log.multiplier_series(cid, CarType.UBERX):
        surge[int((t % 86_400.0) // 3600.0)].append(m)
    for t, e in log.ewt_series(cid, CarType.UBERX):
        if e is not None:
            ewt[int((t % 86_400.0) // 3600.0)].append(e)
    rows = {}
    for hour in range(24):
        if hour in supply:
            rows[hour] = (
                statistics.mean(supply[hour]),
                statistics.mean(demand[hour]),
                statistics.mean(surge[hour]) if surge[hour] else 1.0,
                statistics.mean(ewt[hour]) if ewt[hour] else float("nan"),
            )
    return rows


def test_fig08_timeseries(mhtn_campaign, sf_campaign, benchmark):
    mhtn_region = city_config("manhattan").region
    sf_region = city_config("sf").region
    mhtn = benchmark.pedantic(
        hourly_series, args=(mhtn_campaign, mhtn_region),
        rounds=1, iterations=1,
    )
    sf = hourly_series(sf_campaign, sf_region)

    lines = ["hour | mhtn: supply demand surge ewt | "
             "sf: supply demand surge ewt"]
    for hour in sorted(set(mhtn) | set(sf)):
        m = mhtn.get(hour, (float("nan"),) * 4)
        s = sf.get(hour, (float("nan"),) * 4)
        lines.append(
            f"{hour:4d} |  {m[0]:6.0f} {m[1]:6.1f} {m[2]:5.2f} {m[3]:4.1f}"
            f" |  {s[0]:6.0f} {s[1]:6.1f} {s[2]:5.2f} {s[3]:4.1f}"
        )

    from repro.viz.plots import line_chart
    for city_name, rows in (("manhattan", mhtn), ("sf", sf)):
        lines.append("")
        lines.append(line_chart(
            {
                "supply": [(h, v[0]) for h, v in sorted(rows.items())],
                "demand": [(h, v[1]) for h, v in sorted(rows.items())],
            },
            title=f"{city_name}: hourly mean supply & demand (Fig 8)",
            x_label="hour of day", width=60, height=12,
        ))

    mhtn_mults = all_multiplier_samples(mhtn_campaign)
    sf_mults = all_multiplier_samples(sf_campaign)
    mhtn_supply = statistics.mean(v[0] for v in mhtn.values())
    sf_supply = statistics.mean(v[0] for v in sf.values())
    lines += [
        "",
        f"mean supply: mhtn {mhtn_supply:.0f}, sf {sf_supply:.0f} "
        f"(+{100 * (sf_supply / mhtn_supply - 1):.0f}%; paper: sf +58%)",
        f"surge>1 fraction: mhtn "
        f"{surge_fraction(list(enumerate(mhtn_mults))):.2f}, sf "
        f"{surge_fraction(list(enumerate(sf_mults))):.2f} "
        "(paper: 0.14 vs 0.57)",
        f"mean multiplier: mhtn "
        f"{statistics.mean(mhtn_mults):.3f}, sf "
        f"{statistics.mean(sf_mults):.3f} (paper: 1.07 vs 1.36)",
    ]
    write_table("fig08_timeseries", lines)

    # SF has more cars but surges more and higher.
    assert sf_supply > 1.2 * mhtn_supply
    assert surge_fraction(list(enumerate(sf_mults))) > 1.5 * surge_fraction(
        list(enumerate(mhtn_mults))
    )
    assert statistics.mean(sf_mults) > statistics.mean(mhtn_mults)
    # Diurnal shape: daytime supply beats deep-night supply.
    day = statistics.mean(mhtn[h][0] for h in mhtn if 8 <= h <= 20)
    night = statistics.mean(mhtn[h][0] for h in mhtn if h <= 4)
    assert day > night
