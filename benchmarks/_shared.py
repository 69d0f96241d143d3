"""Shared campaign infrastructure for the benchmark suite.

The paper's figures mostly derive from two long measurement campaigns
(midtown Manhattan and downtown SF).  Re-simulating them for every bench
would dominate runtime, so campaigns are generated once per parameter set
and cached as JSON-lines under ``benchmarks/.cache/`` — delete that
directory to force regeneration.

Every bench consumes the *observation log* only (plus, where the paper
used the REST API, a live engine); none touch simulator internals, so a
cached log is as good as a fresh one.

A parameter set becomes a :class:`CampaignSpec` (:func:`campaign_spec`)
and runs through :func:`repro.parallel.orchestrator.execute_campaign`,
the runner behind ``repro measure``.  On a cold cache,
:func:`prefetch_campaigns` fills several parameter sets at once through
the process pool (:func:`repro.parallel.orchestrator.run_sweep`) —
campaigns are seed-deterministic, so the worker-written cache files are
byte-identical to the ones :func:`campaign` writes in process.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Optional

from repro.marketplace.types import CarType
from repro.measurement.records import CampaignLog
from repro.parallel.orchestrator import (
    CampaignSpec,
    execute_campaign,
    run_sweep,
)

CACHE_DIR = Path(__file__).parent / ".cache"
OUT_DIR = Path(__file__).parent / "out"

#: Campaign length for the main per-city logs.  The paper measured two
#: weeks per city; 1.5 simulated days (a weekday + part of a weekend for
#: Manhattan's Friday start) preserve every diurnal contrast the figures
#: need at ~1/10 the runtime.
MAIN_CAMPAIGN_DAYS = 1.5
MAIN_PING_INTERVAL_S = 30.0
JITTER_CAMPAIGN_HOURS = 4.0

_memory_cache: Dict[str, CampaignLog] = {}


def campaign_key(
    city: str,
    days: float = MAIN_CAMPAIGN_DAYS,
    ping_interval_s: float = MAIN_PING_INTERVAL_S,
    warmup_s: float = 4 * 3600.0,
    jitter_probability: float = 0.25,
    seed: int = 2015,
) -> str:
    """The cache key one parameter set resolves to (also the filename)."""
    return (
        f"{city}_v6_d{days:g}_p{ping_interval_s:g}_w{warmup_s:g}"
        f"_j{jitter_probability:g}_s{seed}"
    )


def campaign_cache_path(key: str) -> Path:
    return CACHE_DIR / f"{key}.jsonl"


def campaign_spec(
    city: str,
    days: float = MAIN_CAMPAIGN_DAYS,
    ping_interval_s: float = MAIN_PING_INTERVAL_S,
    warmup_s: float = 4 * 3600.0,
    jitter_probability: float = 0.25,
    seed: int = 2015,
) -> CampaignSpec:
    """The spec one parameter set runs as, logging to its cache file."""
    key = campaign_key(
        city, days, ping_interval_s, warmup_s, jitter_probability, seed
    )
    return CampaignSpec(
        key=key,
        city=city,
        seed=seed,
        hours=days * 24.0,
        warmup_hours=warmup_s / 3600.0,
        ping_interval_s=ping_interval_s,
        jitter=jitter_probability,
        out=str(campaign_cache_path(key)),
    )


def prefetch_campaigns(
    param_sets: List[Dict[str, object]],
    jobs: Optional[int] = None,
) -> int:
    """Generate missing cached campaigns in parallel; returns the count.

    Each parameter dict takes the same keywords as :func:`campaign`.
    Runs the misses through
    :func:`repro.parallel.orchestrator.run_sweep` — worker processes
    write the same JSON-lines cache files :func:`campaign` would, and a
    later :func:`campaign` call is a pure cache hit.  A failed campaign
    raises: benches must not silently run on a partial cache.
    """
    specs = [
        spec
        for spec in (campaign_spec(**params) for params in param_sets)
        if spec.key not in _memory_cache and not Path(spec.out).exists()
    ]
    if not specs:
        return 0
    CACHE_DIR.mkdir(exist_ok=True)
    print(f"[bench] generating {len(specs)} campaign(s) via sweep...",
          file=sys.stderr)
    outcomes = run_sweep(specs, jobs=jobs)
    failed = [o for o in outcomes if not o.ok]
    if failed:
        details = "; ".join(f"{o.key}: {o.error}" for o in failed)
        raise RuntimeError(f"campaign prefetch failed — {details}")
    return len(specs)


def campaign(
    city: str,
    days: float = MAIN_CAMPAIGN_DAYS,
    ping_interval_s: float = MAIN_PING_INTERVAL_S,
    warmup_s: float = 4 * 3600.0,
    jitter_probability: float = 0.25,
    seed: int = 2015,
) -> CampaignLog:
    """The cached measurement campaign for one city."""
    spec = campaign_spec(
        city, days, ping_interval_s, warmup_s, jitter_probability, seed
    )
    if spec.key in _memory_cache:
        return _memory_cache[spec.key]
    if not Path(spec.out).exists():
        print(f"[bench] generating campaign {spec.key} "
              f"(cached for later runs)...", file=sys.stderr)
        CACHE_DIR.mkdir(exist_ok=True)
        outcome = execute_campaign(spec)
        if not outcome.ok:
            raise RuntimeError(
                f"campaign {spec.key} failed — {outcome.error}"
            )
    log = CampaignLog.load(spec.out)
    _memory_cache[spec.key] = log
    return log


def jitter_campaign(city: str = "manhattan",
                    jitter_probability: float = 0.25) -> CampaignLog:
    """A short full-rate (5 s ping) campaign for jitter analyses.

    Starts at Friday 4pm so surge activity is plentiful — jitter is only
    observable when multipliers change.
    """
    return campaign(
        city,
        days=JITTER_CAMPAIGN_HOURS / 24.0,
        ping_interval_s=5.0,
        warmup_s=16 * 3600.0,
        jitter_probability=jitter_probability,
        seed=404,
    )


def write_table(name: str, lines: List[str]) -> Path:
    """Persist a bench's paper-style output table and echo it."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    text = "\n".join(lines)
    path.write_text(text + "\n")
    print(f"\n=== {name} ===")
    print(text)
    return path


def all_multiplier_samples(
    log: CampaignLog, car_type: CarType = CarType.UBERX
) -> List[float]:
    """Every multiplier sample across clients (time-and-space weighted)."""
    samples: List[float] = []
    for record in log.rounds:
        for (_, ct), sample in record.samples.items():
            if ct is car_type:
                samples.append(sample.multiplier)
    return samples


def per_area_clock_series(
    log: CampaignLog,
    region,
    car_type: CarType = CarType.UBERX,
) -> Dict[int, Dict[int, float]]:
    """Measured per-area interval multipliers.

    Maps each client to its ground-truth-geometry surge area (the
    geometry is public knowledge once Fig 18/19-style discovery has run)
    and takes the modal per-interval multiplier of one client per area.
    """
    from repro.analysis.surge_stats import interval_multipliers

    chosen: Dict[int, str] = {}
    for cid, pos in log.client_positions.items():
        area = region.area_of(pos)
        if area is None:
            continue
        # Prefer the client closest to the area centroid (most interior).
        centroid = area.polygon.centroid()
        current = chosen.get(area.area_id)
        if current is None or pos.fast_distance_m(centroid) < (
            log.client_positions[current].fast_distance_m(centroid)
        ):
            chosen[area.area_id] = cid
    return {
        area_id: interval_multipliers(
            log.multiplier_series(cid, car_type)
        )
        for area_id, cid in chosen.items()
    }
