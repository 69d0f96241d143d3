"""Command-line interface: run campaigns and analyses from a shell.

Four subcommands mirror the study's workflow:

* ``measure``  — run a measurement campaign against a simulated city and
  save the observation log (JSON lines);
* ``analyze``  — run the audit pipeline over a saved log and print the
  §4/§5 summary (supply, demand, surge stats, jitter);
* ``validate`` — the §3.5 taxi-trace validation experiment;
* ``calibrate`` — the §3.4 visibility-radius experiment;
* ``serve``    — serve the marketplace over real sockets: the REST
  estimates endpoints plus the `pingClient` WebSocket stream
  (``repro.service``), with the §3.2 rate limit enforced as HTTP 429;
* ``worker``   — listen for a sweep dispatcher and run the campaigns it
  hands over TCP (``repro.parallel.cluster``): ``measure --workers
  host:port,...`` dials listening workers, with outcomes
  byte-identical to the local process-pool sweep;
* ``lint``     — static analysis over the source tree: the determinism
  rules (REP001-REP006) plus the concurrency/async hazard rules
  (REP101-REP103, REP105); text, ``--format json``, or ``--format
  sarif`` reports, ``--explain REPxxx`` for rule docs; see
  ``docs/static_analysis.md``.

Examples::

    python -m repro.cli measure --city manhattan --hours 2 \
        --warmup-hours 7 --out mhtn.jsonl
    python -m repro.cli analyze mhtn.jsonl
    python -m repro.cli validate --cabs 300 --hours 2
    python -m repro.cli calibrate --city sf --hour 9
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
from typing import Callable, List, Optional, TypeVar

from repro.marketplace.config import CITY_CONFIGS, city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.calibrate import visibility_radius
from repro.measurement.fleet import MarketplaceWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog

_T = TypeVar("_T")


def _checked(
    parse: Callable[[str], _T], ok: Callable[[_T], bool], what: str
) -> Callable[[str], _T]:
    """An argparse ``type=`` that parses and range-checks one number.

    A value that does not parse, or parses out of range, becomes an
    argparse usage error naming the flag (exit 2) instead of a raw
    ``ValueError`` traceback from deep inside a campaign.
    """
    def convert(text: str) -> _T:
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")

    return convert


_positive = _checked(float, lambda v: 0.0 < v < math.inf,
                     "a positive number")
_non_negative = _checked(float, lambda v: 0.0 <= v < math.inf,
                         "a number >= 0")
_probability = _checked(float, lambda v: 0.0 <= v <= 1.0,
                        "a probability in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_port = _checked(int, lambda v: 0 <= v <= 65535,
                 "a port in [0, 65535]")


def _seed_list(text: str) -> List[int]:
    """``--seeds``: comma-separated, distinct integers."""
    try:
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if len(seeds) != len(set(seeds)):
        raise argparse.ArgumentTypeError("seeds must be distinct")
    return seeds


def _address(text: str) -> str:
    """``--listen``: one ``HOST:PORT``, checked as the cluster parses it."""
    from repro.parallel.cluster import parse_hostport

    try:
        parse_hostport(text.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text.strip()


def _address_list(text: str) -> List[str]:
    """``--workers``: comma-separated ``HOST:PORT`` addresses."""
    return [_address(part) for part in text.split(",") if part.strip()]


def _seed_out_path(out: str, seed: int) -> str:
    """Per-seed log path: ``mhtn.jsonl`` -> ``mhtn.s7.jsonl`` for seed 7.

    The seed tag goes before the (possibly double, ``.jsonl.gz``)
    suffix so the compression extension keeps driving the writer.
    """
    base = os.path.basename(out)
    directory = os.path.dirname(out)
    for suffix in (".jsonl.gz", ".jsonl"):
        if base.endswith(suffix):
            stem = base[: -len(suffix)]
            return os.path.join(directory, f"{stem}.s{seed}{suffix}")
    root, ext = os.path.splitext(base)
    return os.path.join(directory, f"{root}.s{seed}{ext}")


def cmd_measure(args: argparse.Namespace) -> int:
    from repro.parallel.orchestrator import CampaignSpec, run_sweep

    seeds = args.seeds or [args.seed]
    workers = args.workers or []
    specs = [
        CampaignSpec(
            key=f"{args.city}-s{seed}",
            city=args.city,
            seed=seed,
            hours=args.hours,
            warmup_hours=args.warmup_hours,
            ping_interval_s=args.ping_interval,
            jitter=args.jitter,
            out=(
                _seed_out_path(args.out, seed)
                if len(seeds) > 1
                else args.out
            ),
        )
        for seed in seeds
    ]
    if workers:
        # Cluster dispatch: same specs, same spec-ordered outcomes,
        # byte-identical identity to the local pool below.
        from repro.parallel.cluster import run_cluster_sweep

        print(f"{args.city}: cluster sweep of {len(specs)} "
              f"campaign(s) over {len(workers)} worker(s)",
              file=sys.stderr)
        outcomes = run_cluster_sweep(
            specs,
            workers,
            spec_timeout_s=args.spec_timeout,
            max_attempts=args.max_attempts,
        )
    else:
        # One spec, or --jobs 1, runs in this process.
        print(f"{args.city}: sweep of {len(specs)} campaign(s), "
              f"jobs={args.jobs}", file=sys.stderr)
        outcomes = run_sweep(specs, jobs=args.jobs)
    failed = 0
    for outcome in outcomes:
        if outcome.ok:
            rounds = int((outcome.metrics or {}).get("rounds", 0))
            print(f"{outcome.key}: wrote {rounds} rounds to "
                  f"{outcome.out_path} "
                  f"(truth {outcome.truth_digest[:12]}...)"
                  if outcome.truth_digest
                  else f"{outcome.key}: ok")
        else:
            failed += 1
            print(f"{outcome.key}: FAILED — {outcome.error}",
                  file=sys.stderr)
    return 0 if failed == 0 else 1


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.parallel.cluster import run_worker_listen

    jobs_label = "auto" if args.jobs is None else str(args.jobs)
    try:
        # The "listening on" line goes to stdout un-buffered: the
        # cluster bench and smoke scripts parse it to learn the bound
        # port when --listen used port 0.
        run_worker_listen(
            args.listen,
            jobs=args.jobs,
            announce=lambda addr: print(
                f"worker: listening on {addr} (jobs={jobs_label})",
                flush=True,
            ),
        )
    except KeyboardInterrupt:
        print("worker: shutting down", file=sys.stderr)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.report import audit_campaign

    log = CampaignLog.load(args.log)
    report = audit_campaign(log)
    if args.full:
        print(report.render())
        return 0
    print(f"campaign: {report.city}, {report.rounds} rounds, "
          f"{report.clients} clients, {log.ping_interval_s:g} s pings")
    # The audit trims the partial first and last 5-minute intervals
    # only off a log that spans three or more; the summary reports
    # trimmed series alone.
    if log.rounds and (
        log.rounds[-1].t // 300.0 - log.rounds[0].t // 300.0 >= 2
    ):
        supply = [s for _, s in report.supply_series]
        demand = [d for _, d in report.demand_series]
        print(f"supply/5min: mean {statistics.mean(supply):.1f}, "
              f"max {max(supply):.0f}")
        print(f"demand/5min: mean {statistics.mean(demand):.1f}, "
              f"max {max(demand):.0f} (upper bound)")
    if CarType.UBERX in log.car_types():
        print(f"surge: active {100 * report.surge_active_fraction:.0f}% "
              f"of samples, mean x{report.mean_multiplier:.2f}, "
              f"max x{report.max_multiplier:.1f}")
    durations = report.episode_durations_s
    if durations:
        print(f"surge episodes: {len(durations)}, median "
              f"{statistics.median(durations) / 60:.1f} min")
    print(f"jitter events detected: {len(report.jitter_events)}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.validation.validate import run_taxi_validation

    report = run_taxi_validation(
        cabs=args.cabs,
        hours=args.hours,
        ping_interval_s=args.ping_interval,
        seed=args.seed,
    )
    print(f"cars captured:   {100 * report.car_capture:.1f}%  (paper 97%)")
    print(f"deaths captured: {100 * report.death_capture:.1f}%  (paper 95%)")
    print(f"supply correlation: {report.supply_correlation:.3f}")
    print(f"demand correlation: {report.demand_correlation:.3f}")
    return 0 if report.car_capture > 0.8 else 1


def cmd_tracestats(args: argparse.Namespace) -> int:
    from repro.taxi.stats import compare_traces, summarize_trace

    if args.tlc_csv is not None:
        from repro.taxi.tlc import read_tlc_csv
        trips, read_stats = read_tlc_csv(
            args.tlc_csv, max_rows=args.max_rows
        )
        print(f"read {read_stats.kept}/{read_stats.rows} rows "
              f"({read_stats.bad_times} bad times, "
              f"{read_stats.bad_coordinates} bad coordinates)")
        if not trips:
            print("no usable trips")
            return 1
        summary = summarize_trace(trips)
        print("tlc trace:", summary.describe())
    else:
        from repro.taxi.generator import (
            TaxiGeneratorParams,
            TaxiTraceGenerator,
        )
        generator = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=args.cabs, days=args.days),
            seed=args.seed,
        )
        summary = summarize_trace(generator.generate())
        print("synthetic trace:", summary.describe())

    if args.compare_synthetic and args.tlc_csv is not None:
        from repro.taxi.generator import (
            TaxiGeneratorParams,
            TaxiTraceGenerator,
        )
        generator = TaxiTraceGenerator(
            TaxiGeneratorParams(fleet_size=args.cabs, days=args.days),
            seed=args.seed,
        )
        synthetic = summarize_trace(generator.generate())
        print("\nmetric          tlc        synthetic   ratio")
        for name, va, vb, ratio in compare_traces(summary, synthetic):
            print(f"{name:14s} {va:9.1f}  {vb:10.1f}  {ratio:6.2f}")
    return 0


def cmd_surgemap(args: argparse.Namespace) -> int:
    from repro.api.partner import PartnerView

    config = city_config(args.city, jitter_probability=0.0)
    engine = MarketplaceEngine(config, seed=args.seed)
    engine.run(args.hour * 3600.0)
    view = PartnerView(engine)
    print(f"{args.city} surge map at {args.hour:g}h "
          "(what the Partner app shows, Fig 1):")
    print(view.render())
    hottest = view.hottest_area()
    if hottest.is_surging:
        print(f"drivers are heading to area {hottest.area_id} "
              f"({hottest.name}, x{hottest.multiplier:.1f})")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = city_config(args.city, jitter_probability=0.0)
    engine = MarketplaceEngine(config, seed=args.seed)
    engine.run(args.hour * 3600.0)
    radius = visibility_radius(
        MarketplaceWorld(engine), config.region.bounding_box.center
    )
    if radius is None:
        print("no cars visible — try a busier hour")
        return 1
    print(f"{args.city} visibility radius at {args.hour:g}h: "
          f"{radius:.0f} m (paper: 247 m MHTN / 387 m SF)")
    spacing = 2 * radius
    clients = place_clients(config.region, radius_m=radius)
    print(f"grid at spacing {spacing:.0f} m -> {len(clients)} clients")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.api.ratelimit import RateLimiter
    from repro.service import HttpServer, MarketplaceService

    config = city_config(args.city, args.jitter)
    engine = MarketplaceEngine(config, seed=args.seed)
    if args.hour > 0:
        print(f"{args.city}: warming engine to {args.hour:g}h ...",
              file=sys.stderr)
        engine.run(args.hour * 3600.0)
    service = MarketplaceService(
        engine,
        limiter=RateLimiter(limit=args.rate_limit),
        coalesce_window_s=args.coalesce_ms / 1000.0,
        city=args.city,
    )

    async def _serve() -> None:
        server = HttpServer(service, host=args.host, port=args.port)
        await server.start()
        print(f"serving {args.city} (seed {args.seed}, "
              f"t={engine.clock.now:g}s) on "
              f"http://{args.host}:{server.port}")
        print(f"  GET  http://{args.host}:{server.port}/v1/health")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/estimates/price?account_id=me&start_lat=..&"
              "start_lon=..&end_lat=..&end_lon=..")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/estimates/time?account_id=me&lat=..&lon=..")
        print(f"  GET  http://{args.host}:{server.port}"
              "/v1/surge?account_id=me&lat=..&lon=..")
        print(f"  WS   ws://{args.host}:{server.port}/v1/ping   "
              '{"account_id": "me", "lat": .., "lon": ..}')
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Peeking Beneath the Hood of Uber — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="run a measurement campaign")
    measure.add_argument("--city", default="manhattan",
                         choices=tuple(CITY_CONFIGS))
    measure.add_argument("--hours", type=_positive, default=2.0)
    measure.add_argument("--warmup-hours", type=_non_negative,
                         default=7.0)
    measure.add_argument("--ping-interval", type=_positive, default=5.0)
    measure.add_argument("--jitter", type=_probability, default=0.25)
    measure.add_argument("--seed", type=int, default=2015)
    measure.add_argument(
        "--seeds", type=_seed_list, default=None,
        help="comma-separated seed list — runs one campaign per seed "
             "(logs get a .s<seed> tag) and overrides --seed",
    )
    measure.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for multi-seed sweeps (1 = sequential; "
             "see repro.parallel.orchestrator)",
    )
    measure.add_argument(
        "--workers", type=_address_list, default=None,
        metavar="HOST:PORT[,HOST:PORT...]",
        help="dispatch the sweep to listening `repro worker` processes "
             "over TCP instead of the local process pool — outcomes "
             "are byte-identical either way (see "
             "repro.parallel.cluster)",
    )
    measure.add_argument(
        "--spec-timeout", type=_positive, default=None,
        help="cluster only: seconds before an unanswered campaign is "
             "requeued on another worker (default: no timeout)",
    )
    measure.add_argument(
        "--max-attempts", type=_positive_int, default=3,
        help="cluster only: assignment attempts per campaign before "
             "the dispatcher records a structured failure outcome "
             "(default 3)",
    )
    measure.add_argument("--out", required=True)
    measure.set_defaults(func=cmd_measure)

    worker = sub.add_parser(
        "worker",
        help="serve campaigns to a sweep dispatcher "
             "(the distributed half of `repro measure --workers`)",
    )
    worker.add_argument(
        "--listen", type=_address, metavar="HOST:PORT", required=True,
        help="listen for dispatchers (`repro measure --workers`); "
             "port 0 = ephemeral (the bound address is printed); "
             "serves until interrupted",
    )
    worker.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="local campaign worker processes (default: min(4, cores))",
    )
    worker.set_defaults(func=cmd_worker)

    analyze = sub.add_parser("analyze", help="audit a saved campaign log")
    analyze.add_argument("log")
    analyze.add_argument(
        "--full", action="store_true",
        help="render the full audit report with charts",
    )
    analyze.set_defaults(func=cmd_analyze)

    validate = sub.add_parser("validate",
                              help="taxi ground-truth validation")
    validate.add_argument("--cabs", type=_positive_int, default=300)
    validate.add_argument("--hours", type=_positive, default=2.0)
    validate.add_argument("--ping-interval", type=_positive, default=10.0)
    validate.add_argument("--seed", type=int, default=2013)
    validate.set_defaults(func=cmd_validate)

    tracestats = sub.add_parser(
        "tracestats",
        help="summarize a taxi trace (synthetic or real TLC CSV)",
    )
    tracestats.add_argument(
        "tlc_csv", nargs="?", default=None,
        help="path to a 2013-format TLC trip_data CSV "
             "(omit to summarize a synthetic trace)",
    )
    tracestats.add_argument("--cabs", type=_positive_int, default=300)
    tracestats.add_argument("--days", type=_positive, default=1.0)
    tracestats.add_argument("--seed", type=int, default=2013)
    tracestats.add_argument("--max-rows", type=_positive_int, default=None)
    tracestats.add_argument(
        "--compare-synthetic", action="store_true",
        help="also generate a synthetic trace and print the ratio table",
    )
    tracestats.set_defaults(func=cmd_tracestats)

    surgemap = sub.add_parser("surgemap",
                              help="render the Partner-app surge map")
    surgemap.add_argument("--city", default="manhattan",
                          choices=tuple(CITY_CONFIGS))
    surgemap.add_argument("--hour", type=_non_negative, default=18.0)
    surgemap.add_argument("--seed", type=int, default=2015)
    surgemap.set_defaults(func=cmd_surgemap)

    calibrate = sub.add_parser("calibrate",
                               help="visibility-radius experiment")
    calibrate.add_argument("--city", default="manhattan",
                           choices=tuple(CITY_CONFIGS))
    calibrate.add_argument("--hour", type=_non_negative, default=9.0)
    calibrate.add_argument("--seed", type=int, default=2015)
    calibrate.set_defaults(func=cmd_calibrate)

    serve = sub.add_parser(
        "serve",
        help="serve the marketplace over HTTP/WebSocket "
             "(REST estimates + the pingClient stream)",
    )
    serve.add_argument("--city", default="sf",
                       choices=tuple(CITY_CONFIGS))
    serve.add_argument("--hour", type=_non_negative, default=9.0,
                       help="simulated hours to warm the engine before "
                            "serving (default 9; 0 = no warm-up)")
    serve.add_argument("--seed", type=int, default=2015)
    serve.add_argument("--jitter", type=_probability, default=0.25)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8015,
                       help="TCP port (0 = ephemeral)")
    serve.add_argument("--rate-limit", type=_positive_int, default=1000,
                       help="REST requests per hour per account "
                            "(the paper's 1000/h cap, §3.2)")
    serve.add_argument("--coalesce-ms", type=_non_negative, default=2.0,
                       help="least time between the starts of two ping "
                            "rounds: a ping arriving later is served at "
                            "once, one arriving sooner waits for the "
                            "window to close and joins the next round")
    serve.set_defaults(func=cmd_serve)

    # Every flag of `lint` belongs to repro.devtools.lint.run_cli; main()
    # hands it the rest of the command line.
    sub.add_parser(
        "lint",
        add_help=False,
        help="static analysis: determinism (REP001-REP006) and "
             "concurrency/async hazards (REP101-REP103, REP105); "
             "`repro lint --help` lists its options",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.devtools.lint import run_cli

        return run_cli(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
