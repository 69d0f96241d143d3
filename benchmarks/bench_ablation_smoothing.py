"""Ablation: the paper's proposed smoothed surge updates (§5.5).

The paper suggests Uber replace oscillatory 5-minute repricing with a
weighted moving average to make prices more predictable.  We run the SF
scenario with the measured behaviour (alpha = 1.0) and the proposed
smoothing (alpha = 0.3) and compare surge volatility: the smoothed
engine must change prices less often and produce longer surges, at a
similar mean price level.
"""

import dataclasses
import statistics

import pytest

from _shared import write_table
from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine


def run_variant(alpha: float, hours: float = 12.0, seed: int = 5):
    config = city_config("sf", jitter_probability=0.0)
    config = dataclasses.replace(
        config, surge=dataclasses.replace(
            config.surge, smoothing_alpha=alpha
        )
    )
    engine = MarketplaceEngine(config, seed=seed)
    engine.run(5 * 3600.0)  # warm to morning
    engine.truth.clear()
    engine.run(hours * 3600.0)
    return engine.truth


def volatility(truth):
    """Per-area statistics of the published multiplier sequence."""
    changes = 0
    total = 0
    values = []
    episode_lengths = []
    area_ids = truth[0].multipliers.keys()
    for area_id in area_ids:
        series = [t.multipliers[area_id] for t in truth]
        values.extend(series)
        run = 0
        for a, b in zip(series, series[1:]):
            total += 1
            if a != b:
                changes += 1
        for m in series:
            if m > 1.0:
                run += 1
            elif run:
                episode_lengths.append(run)
                run = 0
        if run:
            episode_lengths.append(run)
    return {
        "change_rate": changes / max(total, 1),
        "mean_mult": statistics.mean(values),
        "mean_episode_intervals": (
            statistics.mean(episode_lengths) if episode_lengths else 0.0
        ),
        "episodes": len(episode_lengths),
    }


@pytest.fixture(scope="module")
def variants():
    return {
        "measured (alpha=1.0)": volatility(run_variant(1.0)),
        "smoothed (alpha=0.3)": volatility(run_variant(0.3)),
    }


def test_ablation_smoothing(variants, benchmark):
    benchmark.pedantic(lambda: volatility(run_variant(1.0, hours=2.0)),
                       rounds=1, iterations=1)
    lines = ["variant                change_rate  mean_mult  "
             "mean_episode_5min  episodes"]
    for name, stats in variants.items():
        lines.append(
            f"{name:22s} {stats['change_rate']:11.2f}  "
            f"{stats['mean_mult']:9.3f}  "
            f"{stats['mean_episode_intervals']:17.1f}  "
            f"{stats['episodes']:8d}"
        )
    write_table("ablation_smoothing", lines)

    sharp = variants["measured (alpha=1.0)"]
    smooth = variants["smoothed (alpha=0.3)"]
    # Smoothing reduces repricing churn and lengthens surges.
    assert smooth["change_rate"] < sharp["change_rate"]
    assert (
        smooth["mean_episode_intervals"]
        >= sharp["mean_episode_intervals"]
    )
    # Without materially changing the price level.
    assert abs(smooth["mean_mult"] - sharp["mean_mult"]) < 0.2
