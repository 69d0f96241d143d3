"""Engine/ping throughput: the production engine against the oracle.

The engine has one speed knob, ``use_vectorized_step``, and it must
only ever change speed, never behaviour:

* **production** (``use_vectorized_step=True``, the default) — numpy
  structure-of-arrays fleet stepping
  (:mod:`repro.marketplace.fleet_array`), the per-tick idle-car census
  counted by one ``PolygonSet`` pass, and whole ping rounds answered by
  one batched, serial ``PingEndpoint.serve_round`` pass over
  ``FleetArray.round_nearest``;
* **oracle** (``use_vectorized_step=False``) — ``Driver`` objects
  stepped one by one, brute-force linear dispatch and area scans, and
  one ``ping()`` per client: the seed behaviour, kept as the readable
  reference the tests hold production to.

A third leg, ``production_perclient``, runs the production engine but
answers each round with one ``PingEndpoint.ping`` per request, which
production serves as a round of one: the work ``serve_round`` batches
away.

A separate sweep leg times the process-pool campaign orchestrator
(:func:`repro.parallel.orchestrator.run_sweep`): four independent
campaigns (two seeds × two cities) sequentially vs in parallel, with a
truth-digest cross-check that the two orders produce bit-identical
campaigns.

This bench times the legs on a 6-hour Manhattan scenario where every
5-second engine tick is followed by a full ping round (each fleet
client pings every car type, exactly as `pingClient` was driven in
§3.2).  Metrics per leg:

* ``engine_ticks_per_s``  — bare simulation ticks (no clients attached);
* ``ping_rounds_per_s``   — full fleet ping rounds served;
* ``campaign_ticks_per_s``— tick + ping round, the end-to-end rate that
  bounds campaign length.

Headline speedups reported:

* ``sweep_parallel_vs_sequential`` — the 4-campaign orchestrator sweep
  vs running the same specs sequentially (target: >= 2x on >= 4 cores);
* ``batched_vs_perclient_ping_rounds`` — batched round serving vs one
  ``ping()`` per request on the same production engine (target:
  >= 1.5x);
* ``perclient_ping_production_vs_oracle`` — one ``ping()`` per request,
  production vs the oracle (target: >= 1x);
* ``vector_vs_scalar_engine_ticks`` — production vs oracle stepping,
  engine ticks only (target: >= 2x);
* ``defaults_vs_seed_campaign`` — production vs oracle, tick + ping
  round (target: >= 4x).

The three legs run on same-seed engines in lock-step, one tick of each
in an order that reverses every tick, so every ratio but the sweep's is
the median over ticks of one leg's time for tick k over another's: both
sides of a pair see the same engine state and, over the run, the same
share of machine-speed swings.

Each target is recorded in the output JSON under ``thresholds`` with an
``enforced`` bit (the sweep speedup is only enforced on machines with
>= 4 cores; single-core CI still records the numbers).

The same-seed equivalence check at the end re-runs a small scenario in
both cities on both engines and requires bit-identical
``IntervalTruth`` logs, trip ledgers, ping replies, and engine RNG
state — the knob must never change behaviour.

Run directly (writes ``benchmarks/out/BENCH_perf_engine.json``)::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py [--quick]

``--quick`` shrinks the fleet and tick counts for CI; the marked tier-1
test ``tests/test_perf_regression.py`` drives that mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).parent))

from repro.api.ping import PingEndpoint
from repro.marketplace.config import CITY_CONFIGS, CityConfig, city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.measurement.placement import place_clients
from repro.parallel.orchestrator import CampaignSpec, run_sweep

OUT_PATH = Path(__file__).parent / "out" / "BENCH_perf_engine.json"

#: The scenario the full bench samples from: six simulated hours of
#: midtown Manhattan at 20x the paper-era fleet (6 540 drivers), with
#: demand scaled to match.  Measuring every one of its 4 320 ticks in
#: both modes would take well over an hour, so throughput is measured
#: over a warm slice and the full-scenario wall time is extrapolated.
SCENARIO_HOURS = 6.0
TICK_S = 5.0
FULL_SCALE = 20
FULL_TICKS = 120
QUICK_SCALE = 4
QUICK_TICKS = 10
WARMUP_TICKS = 5


def scenario_config(scale: int, city: str = "manhattan") -> CityConfig:
    """*city* with fleet and demand scaled *scale*-fold."""
    cfg = city_config(city)
    return dataclasses.replace(
        cfg,
        fleet={ct: n * scale for ct, n in cfg.fleet.items()},
        peak_requests_per_hour=cfg.peak_requests_per_hour * scale,
    )


#: Campaign processes the sweep leg uses; matches the ">= 4 jobs /
#: >= 4 cores" acceptance target.
PARALLEL_WORKERS = 4

#: The timed engine modes: ``production`` is the default engine serving
#: whole rounds through ``serve_round``; ``production_perclient`` is the
#: same engine answering one ``ping()`` per request; ``oracle`` is
#: ``use_vectorized_step=False`` (Driver objects, brute scans, and one
#: ``ping()`` per request — the seed behaviour).
LEGS: Dict[str, Dict[str, bool]] = {
    "production": {"use_vectorized_step": True, "per_client": False},
    "production_perclient": {
        "use_vectorized_step": True, "per_client": True,
    },
    "oracle": {"use_vectorized_step": False, "per_client": True},
}

#: Both settings of the engine's one knob, for the equivalence check:
#: production first, then the oracle it must match.
ALL_COMBOS: List[Dict[str, bool]] = [
    {"use_vectorized_step": True},
    {"use_vectorized_step": False},
]


def _lockstep_legs(
    scale: int,
    ticks: int,
    seed: int,
    max_clients: Optional[int] = None,
) -> Dict[str, Dict[str, List[float]]]:
    """Per-tick tick and ping-round times of every leg, in lock-step.

    Each leg drives its own same-seed engine, and tick k runs on every
    leg before tick k + 1 runs on any, in an order that reverses every
    tick.  The k-th times of two legs thus form a pair on the same
    engine state, with each side first in half the pairs, so a swing in
    machine speed falls on both sides of a pair instead of on one whole
    leg.
    """
    if ticks <= 0:
        raise ValueError("ticks must be positive")
    if scale <= 0:
        raise ValueError("scale must be positive")
    cfg = scenario_config(scale)
    clients = list(place_clients(cfg.region, max_clients=max_clients))
    requests = [
        (f"bench{i}", loc, None) for i, loc in enumerate(clients)
    ]
    runners: Dict[str, Tuple[MarketplaceEngine, Callable[[], None]]] = {}
    for name, leg in LEGS.items():
        engine = MarketplaceEngine(
            cfg, seed=seed, use_vectorized_step=leg["use_vectorized_step"]
        )
        endpoint = PingEndpoint(engine)

        def serve(endpoint: PingEndpoint = endpoint,
                  per_client: bool = leg["per_client"]) -> None:
            if per_client:
                for account_id, location, car_types in requests:
                    endpoint.ping(account_id, location, car_types)
            else:
                endpoint.serve_round(requests)

        for _ in range(WARMUP_TICKS):
            engine.tick()
            serve()
        runners[name] = (engine, serve)
    times: Dict[str, Dict[str, List[float]]] = {
        name: {"tick": [], "ping": []} for name in LEGS
    }
    # Start timing with no garbage pending from other code (warm-up, or
    # earlier tests in the same process): one full collection of it can
    # take longer than a whole quick-mode production leg.
    gc.collect()
    names = list(LEGS)
    for k in range(ticks):
        for name in names if k % 2 == 0 else names[::-1]:
            engine, serve = runners[name]
            t0 = time.perf_counter()
            engine.tick()
            t1 = time.perf_counter()
            serve()
            t2 = time.perf_counter()
            times[name]["tick"].append(t1 - t0)
            times[name]["ping"].append(t2 - t1)
    return times


def _leg_metrics(
    times: Dict[str, List[float]], fleet_size: int, clients: int
) -> Dict[str, float]:
    """One leg's throughput from its per-tick times."""
    ticks = len(times["tick"])
    tick_s = sum(times["tick"])
    ping_s = sum(times["ping"])
    total = tick_s + ping_s
    scenario_ticks = SCENARIO_HOURS * 3600.0 / TICK_S
    return {
        "fleet_size": fleet_size,
        "cpu_count": os.cpu_count() or 1,
        "clients": clients,
        "ticks_measured": ticks,
        "tick_wall_s": tick_s,
        "ping_wall_s": ping_s,
        "engine_ticks_per_s": ticks / tick_s if tick_s else float("inf"),
        "ping_rounds_per_s": ticks / ping_s if ping_s else float("inf"),
        "campaign_ticks_per_s": ticks / total if total else float("inf"),
        "scenario_hours": SCENARIO_HOURS,
        "est_full_scenario_wall_s": scenario_ticks * total / ticks,
    }


def _paired_ratio(slow: Sequence[float], fast: Sequence[float]) -> float:
    """The median, over lock-step pairs, of *slow*'s time over *fast*'s."""
    return statistics.median(s / f for s, f in zip(slow, fast))


def check_equivalence(
    scale: int = 1, ticks: int = 60, seed: int = 11
) -> bool:
    """Same seed, production against oracle, in both cities: truth,
    trips, ping replies, and engine RNG state must be bit-identical.

    Rounds are served through ``serve_round`` — batched on production,
    per client on the oracle — so the two serving paths are compared
    reply-for-reply; one extra direct ``ping`` per round pins the batch
    path to the single-ping entry point as well.
    """
    def run(city: str, flags: Dict[str, bool]):
        cfg = scenario_config(scale, city)
        engine = MarketplaceEngine(cfg, seed=seed, **flags)
        endpoint = PingEndpoint(engine)
        clients = list(place_clients(cfg.region, max_clients=8))
        requests = [(f"eq{i}", loc, None) for i, loc in enumerate(clients)]
        replies = []
        for t in range(ticks):
            engine.tick()
            if t % 5 == 0:
                replies.extend(endpoint.serve_round(requests))
                replies.append(endpoint.ping("eq0", clients[0]))
        return (
            engine.truth,
            engine.completed_trips,
            replies,
            engine.rng.getstate(),
        )

    production, oracle = ALL_COMBOS
    return all(
        run(city, production) == run(city, oracle)
        for city in CITY_CONFIGS
    )


def _timed_sweep(quick: bool, seed: int) -> Dict[str, object]:
    """Time the orchestrator: 4 campaigns sequential vs parallel.

    Two seeds × two cities — the multi-seed dual-city shape the paper's
    §4 campaigns take.  The parallel run re-executes the *same specs*,
    so the truth digests double as a determinism cross-check: process
    scheduling must never reach a campaign's bits.  On single-core
    machines (``jobs`` resolves to 1) the parallel run is skipped and
    the speedup reported as 1.0/unenforced.
    """
    hours = 0.05 if quick else 0.5
    max_clients = 6 if quick else 24
    specs = [
        CampaignSpec(
            key=f"{city}-s{s}",
            city=city,
            seed=s,
            hours=hours,
            max_clients=max_clients,
        )
        for city in ("manhattan", "sf")
        for s in (seed, seed + 1)
    ]
    jobs = min(PARALLEL_WORKERS, os.cpu_count() or 1)
    t0 = time.perf_counter()
    sequential = run_sweep(specs, jobs=1)
    sequential_s = time.perf_counter() - t0
    result: Dict[str, object] = {
        "campaigns": len(specs),
        "jobs": jobs,
        "sequential_wall_s": sequential_s,
        "all_ok": all(o.ok for o in sequential),
        "digests_match": True,
    }
    if jobs > 1:
        t0 = time.perf_counter()
        parallel = run_sweep(specs, jobs=jobs)
        parallel_s = time.perf_counter() - t0
        result["parallel_wall_s"] = parallel_s
        result["all_ok"] = bool(
            result["all_ok"] and all(o.ok for o in parallel)
        )
        result["digests_match"] = [
            o.truth_digest for o in sequential
        ] == [o.truth_digest for o in parallel]
        result["speedup"] = (
            sequential_s / parallel_s if parallel_s else float("inf")
        )
    else:
        result["parallel_wall_s"] = None
        result["speedup"] = 1.0
    return result


def run_bench(
    quick: bool = False,
    scale: Optional[int] = None,
    ticks: Optional[int] = None,
    seed: int = 3,
) -> Dict[str, object]:
    scale = scale if scale is not None else (
        QUICK_SCALE if quick else FULL_SCALE
    )
    ticks = ticks if ticks is not None else (
        QUICK_TICKS if quick else FULL_TICKS
    )
    max_clients = 200 if quick else None
    times = _lockstep_legs(scale, ticks, seed, max_clients)
    cfg = scenario_config(scale)
    fleet_size = sum(cfg.fleet.values())
    clients = len(place_clients(cfg.region, max_clients=max_clients))
    legs = {
        name: _leg_metrics(times[name], fleet_size, clients)
        for name in LEGS
    }
    equivalent = check_equivalence(
        scale=1, ticks=30 if quick else 60, seed=seed + 8
    )
    sweep = _timed_sweep(quick, seed + 100)
    prod = times["production"]
    perclient = times["production_perclient"]
    oracle = times["oracle"]
    cores = os.cpu_count() or 1
    speedup = {
        # The orchestrator headline: 4-campaign sweep, parallel vs
        # sequential (target: >= 2x on >= 4 cores).
        "sweep_parallel_vs_sequential": sweep["speedup"],
        # Batched round serving vs one ping() per request on the same
        # production engine (target: >= 1.5x).
        "batched_vs_perclient_ping_rounds": _paired_ratio(
            perclient["ping"], prod["ping"]
        ),
        # One ping() per request, production (each a round of one) vs
        # the oracle's per-client scan (target: >= 1x).
        "perclient_ping_production_vs_oracle": _paired_ratio(
            oracle["ping"], perclient["ping"]
        ),
        # Production vs oracle stepping, engine ticks only
        # (target: >= 2x).
        "vector_vs_scalar_engine_ticks": _paired_ratio(
            oracle["tick"], prod["tick"]
        ),
        # Production vs oracle end to end: tick + ping round.
        "defaults_vs_seed_campaign": _paired_ratio(
            [t + p for t, p in zip(oracle["tick"], oracle["ping"])],
            [t + p for t, p in zip(prod["tick"], prod["ping"])],
        ),
    }
    # Regression thresholds, recorded alongside the numbers they bound.
    # The sweep speedup is a physical claim about multi-core machines;
    # on smaller boxes (and in --quick mode, whose tiny slices are
    # noise-dominated) the floors are recorded but not enforced.
    multicore = cores >= PARALLEL_WORKERS
    thresholds = {
        "sweep_parallel_vs_sequential": {
            "min": 2.0, "enforced": multicore and not quick,
            "jobs": sweep["jobs"],
        },
        "batched_vs_perclient_ping_rounds": {
            "min": 1.5, "enforced": not quick,
        },
        "perclient_ping_production_vs_oracle": {
            "min": 1.0, "enforced": not quick,
        },
        "vector_vs_scalar_engine_ticks": {
            "min": 2.0, "enforced": not quick,
        },
        "defaults_vs_seed_campaign": {
            "min": 4.0, "enforced": not quick,
        },
    }
    return {
        "bench": "perf_engine",
        "mode": "quick" if quick else "full",
        "cpu_count": cores,
        "scenario": (
            f"{SCENARIO_HOURS:g}h Manhattan x{scale} "
            f"({fleet_size} drivers, "
            f"{clients} clients, {TICK_S:g}s ticks)"
        ),
        "legs": legs,
        "sweep": sweep,
        "speedup": speedup,
        "thresholds": thresholds,
        "truth_equivalent": equivalent,
        "sweep_deterministic": sweep["digests_match"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small fleet / few ticks, for CI regression checks",
    )
    parser.add_argument("--scale", type=int, default=None,
                        help="fleet multiplier override")
    parser.add_argument("--ticks", type=int, default=None,
                        help="measured ticks override")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)
    if args.ticks is not None and args.ticks <= 0:
        parser.error("--ticks must be positive")
    if args.scale is not None and args.scale <= 0:
        parser.error("--scale must be positive")

    result = run_bench(
        quick=args.quick, scale=args.scale, ticks=args.ticks,
        seed=args.seed,
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(result, indent=2) + "\n"
    args.out.write_text(blob)

    lines: List[str] = [f"scenario: {result['scenario']}"]
    legs = result["legs"]
    for key in ("engine_ticks_per_s", "ping_rounds_per_s",
                "campaign_ticks_per_s"):
        lines.append(
            f"{key:22s} "
            + "  ".join(
                f"{name} {legs[name][key]:8.2f}" for name in LEGS
            )
        )
    thresholds = result["thresholds"]
    threshold_failures: List[str] = []
    for name, value in result["speedup"].items():
        bound = thresholds.get(name)
        note = ""
        if bound is not None:
            ok = value >= bound["min"]
            if not ok and bound["enforced"]:
                threshold_failures.append(name)
            note = (
                f"  (min {bound['min']:g}x"
                + ("" if bound["enforced"] else ", unenforced")
                + ("" if ok else ", BELOW")
                + ")"
            )
        lines.append(f"{name:36s} {value:5.2f}x{note}")
    sweep = result["sweep"]
    lines.append(
        f"sweep: {sweep['campaigns']} campaigns, jobs={sweep['jobs']}, "
        f"sequential {sweep['sequential_wall_s']:.2f}s"
        + (
            f", parallel {sweep['parallel_wall_s']:.2f}s"
            if sweep["parallel_wall_s"] is not None
            else ", parallel skipped (single core)"
        )
    )
    lines.append(
        "truth equivalent: "
        + ("yes" if result["truth_equivalent"] else "NO — BUG")
    )
    lines.append(
        "sweep deterministic: "
        + ("yes" if result["sweep_deterministic"] else "NO — BUG")
    )
    if threshold_failures:
        lines.append(
            "ENFORCED THRESHOLDS BELOW MINIMUM: "
            + ", ".join(threshold_failures)
        )
    print("\n".join(lines))
    print(f"wrote {args.out}")
    ok = (
        result["truth_equivalent"]
        and result["sweep_deterministic"]
        and not threshold_failures
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
