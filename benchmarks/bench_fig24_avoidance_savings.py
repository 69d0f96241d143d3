"""Fig 24: how much surge is avoided, and how far users walk.

The paper: in more than half the avoidable cases the multiplier drops by
at least 0.5; walks stay under 7 minutes in Manhattan and 9 in SF
(SF's areas are larger, so its shortest cross-border walks are longer).
"""

from _shared import write_table
from repro.analysis.timeseries import cdf_at
from bench_fig23_avoidance_rate import runs  # shared fixture


def savings_and_walks(results):
    reductions = []
    walks = []
    for outcomes in results.values():
        for outcome in outcomes:
            if outcome.saved:
                reductions.append(outcome.reduction)
                walks.append(outcome.best.walk_minutes)
    return reductions, walks


def test_fig24_avoidance_savings(runs, benchmark):
    lines = []
    all_data = {}
    for city in ("manhattan", "sf"):
        _, results = runs[city]
        reductions, walks = benchmark.pedantic(
            savings_and_walks, args=(results,), rounds=1, iterations=1
        ) if city == "manhattan" else savings_and_walks(results)
        all_data[city] = (reductions, walks)
        if not reductions:
            lines.append(f"{city}: no savings events")
            continue
        lines.append(
            f"{city}: {len(reductions)} savings events; "
            f"reduction >= 0.5 in "
            f"{100 * (1 - cdf_at(reductions, 0.4999)):.0f}% of cases "
            "(paper: >50%)"
        )
        lines.append(
            f"  walk minutes: min {min(walks):.1f}, "
            f"median {sorted(walks)[len(walks) // 2]:.1f}, "
            f"max {max(walks):.1f} "
            f"(paper cap: {'7' if city == 'manhattan' else '9'} min)"
        )
    write_table("fig24_avoidance_savings", lines)

    reductions, walks = all_data["manhattan"]
    assert reductions, "Manhattan produced no savings events"
    # Savings are substantial (the strategy's whole selling point)...
    assert max(reductions) >= 0.4
    # ...and walks are short enough to beat the EWT by construction.
    assert all(w <= 12.0 for w in walks)
    sf_walks = all_data["sf"][1]
    if sf_walks and walks:
        # SF's larger areas force longer minimum walks.
        assert min(sf_walks) >= min(walks) * 0.8
