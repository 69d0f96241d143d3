"""Fig 22: car state transitions when an area surges above its neighbours.

Cars are 5-state machines (new / old / in / out / dying) per 5-minute
interval, conditioned on the previous interval's pricing: all areas equal
vs one area ≥ 0.2 above its neighbours.  The paper finds a small
consistent increase in new cars (supply attraction, +3.7 % average) and
demand suppression (more old, fewer dying) in the surging area.
"""

import statistics

from _shared import per_area_clock_series, write_table
from repro.marketplace.config import city_config
from repro.analysis.cleaning import build_tracks, filter_short_lived
from repro.analysis.transitions import (
    STATES,
    transition_probabilities,
)


def compute(log, region):
    tracks = filter_short_lived(build_tracks(log), min_lifespan_s=60.0)
    area_clock = per_area_clock_series(log, region)
    adjacency = region.adjacency()
    stats = transition_probabilities(
        tracks,
        lambda p: (lambda a: None if a is None else a.area_id)(
            region.area_of(p)
        ),
        area_clock,
        adjacency,
        campaign_end_s=log.rounds[-1].t,
    )
    return stats


def test_fig22_transitions(mhtn_campaign, sf_campaign, benchmark):
    rows = []
    new_deltas = []
    dying_deltas = []
    for city, log in (("manhattan", mhtn_campaign), ("sf", sf_campaign)):
        region = city_config(city).region
        stats = benchmark.pedantic(
            compute, args=(log, region), rounds=1, iterations=1
        ) if city == "manhattan" else compute(log, region)
        for area in sorted({a for a, _ in stats}):
            equal = stats[(area, "equal")]
            surging = stats[(area, "surging")]
            if sum(surging.counts.values()) < 30:
                continue  # the paper, too, omits rarely-surging areas
            p_eq = equal.probabilities()
            p_su = surging.probabilities()
            rows.append((city, area, p_eq, p_su,
                         sum(equal.counts.values()),
                         sum(surging.counts.values())))
            new_deltas.append(p_su["new"] - p_eq["new"])
            dying_deltas.append(p_su["dying"] - p_eq["dying"])

    lines = ["city       area  cond     n      " +
             "  ".join(f"{s:>6s}" for s in STATES)]
    for city, area, p_eq, p_su, n_eq, n_su in rows:
        lines.append(
            f"{city:10s} {area:4d}  equal   {n_eq:6d}  "
            + "  ".join(f"{100 * p_eq[s]:5.1f}%" for s in STATES)
        )
        lines.append(
            f"{city:10s} {area:4d}  surging {n_su:6d}  "
            + "  ".join(f"{100 * p_su[s]:5.1f}%" for s in STATES)
        )
    if new_deltas:
        lines.append(
            f"mean delta(new) surging - equal: "
            f"{100 * statistics.mean(new_deltas):+.1f}% "
            "(paper: +3.7% average)"
        )
        lines.append(
            f"mean delta(dying): "
            f"{100 * statistics.mean(dying_deltas):+.1f}% "
            "(paper: negative — demand suppressed)"
        )
    write_table("fig22_transitions", lines)

    assert rows, "no area surged above its neighbours often enough"
    # Directional checks, averaged (individual areas are noisy, as the
    # paper's own Fig 22 shows).
    assert statistics.mean(new_deltas) > -0.05
    assert statistics.mean(dying_deltas) < 0.05
