"""Ablation: passenger price elasticity.

The paper measures a large negative demand response to surge (Fig 22)
but cannot vary it — we can.  With the operator pricing on *placed*
requests, elasticity closes the loop: raising it sheds fulfilled demand
(fewer bookings survive pricing), which shrinks the pricing signal and
pulls the posted multiplier down too.  Inelastic riders (e = 0) keep
requesting at any price, so surges run hotter and longer — exactly the
degenerate case surge pricing exists to avoid.
"""

import dataclasses
import statistics

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine


def run_elasticity(elasticity: float, seed: int = 9):
    config = city_config("sf", jitter_probability=0.0)
    config = dataclasses.replace(config, demand_elasticity=elasticity)
    engine = MarketplaceEngine(config, seed=seed)
    engine.run(6 * 3600.0)  # warm through the morning ramp
    engine.truth.clear()
    engine.run(6 * 3600.0)  # 6..12h: rush + midday
    mults = [m for t in engine.truth for m in t.multipliers.values()]
    requests = sum(
        sum(t.requests_by_area.values()) for t in engine.truth
    )
    priced_out = sum(t.priced_out for t in engine.truth)
    fulfilled = sum(t.fulfilled_total for t in engine.truth)
    return {
        "mean_mult": statistics.mean(mults),
        "max_mult": max(mults),
        "priced_out_frac": priced_out / max(requests, 1),
        "fulfilled": fulfilled,
    }


@pytest.fixture(scope="module")
def sweeps():
    return {e: run_elasticity(e) for e in (0.0, 1.8, 3.5)}


def test_ablation_elasticity(sweeps, benchmark):
    benchmark.pedantic(lambda: run_elasticity(1.8), rounds=1,
                       iterations=1)
    lines = ["elasticity   mean_mult   max_mult   priced_out_frac   "
             "fulfilled"]
    for e, stats in sorted(sweeps.items()):
        lines.append(
            f"{e:10.1f}   {stats['mean_mult']:9.3f}   "
            f"{stats['max_mult']:8.1f}   {stats['priced_out_frac']:15.2f}"
            f"   {stats['fulfilled']:9d}"
        )
    write_table("ablation_elasticity", lines)

    # Inelastic riders are never priced out; elastic ones are, more so
    # at higher elasticity.
    assert sweeps[0.0]["priced_out_frac"] == 0.0
    assert sweeps[1.8]["priced_out_frac"] > 0.02
    assert sweeps[3.5]["priced_out_frac"] > sweeps[1.8]["priced_out_frac"]
    # Fulfilled demand (what Fig 22's "dying" cars measure) falls with
    # elasticity — the paper's demand-suppression effect.
    assert sweeps[0.0]["fulfilled"] > sweeps[3.5]["fulfilled"]
    # Elastic demand sheds the pricing signal too: posted prices fall
    # (or at least never rise) as riders become more price-sensitive.
    assert sweeps[3.5]["mean_mult"] <= sweeps[0.0]["mean_mult"] + 0.02
    assert sweeps[0.0]["max_mult"] >= sweeps[3.5]["max_mult"]
