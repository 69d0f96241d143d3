"""Load bench for the socket service: sustained req/s and latency.

The paper's apparatus was thousands of `pingClient` sessions (43 per
city, every 5 s, for weeks) plus rate-limited REST queries against
production servers; the deployed price-comparison apps (arXiv
1701.04208) faced the same transport edges at app-store scale.  This
bench measures our transport the same way: N simulated WebSocket
clients over **real localhost sockets**, each running its own
ping/await-reply loop against :class:`repro.service.HttpServer` (the
server ``repro serve`` runs), plus a REST leg exercising the HTTP path
(including 429s).

Reported per leg: sustained replies/s over the measured window and
per-request latency p50/p99.  Every leg carries an enforced floor of
150 req/s — the 100- and 1k-client legs of full mode and the 50- and
200-client legs of ``--quick`` — except the 10k leg, which is reported
but never enforced (small hosts hit fd limits and loop-scheduling noise
long before the service saturates — acceptance criteria mark it
reported-unenforced).

Usage::

    PYTHONPATH=src python benchmarks/bench_api_service.py [--quick]

Writes ``benchmarks/out/BENCH_api_service.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.api.ratelimit import RateLimiter
from repro.marketplace.config import sf_config
from repro.marketplace.engine import MarketplaceEngine
from repro.service import HttpServer, MarketplaceService
from repro.service.loadgen import WebSocketClient, http_get

from _shared import OUT_DIR

OUT_PATH = OUT_DIR / "BENCH_api_service.json"

WARMUP_S = 1800.0
SEED = 2015
COALESCE_S = 0.002
#: Replies/s every enforced WebSocket leg must sustain.
WS_FLOOR_PER_S = 150.0


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5)
    )
    return sorted_values[index]


class _ServerThread:
    """The service event loop, isolated on its own thread.

    Client tasks run on the main thread's loop, so request handling and
    load generation contend like separate processes would, not like
    cooperating tasks on one loop.
    """

    def __init__(self, service: MarketplaceService) -> None:
        self.service = service
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._stop: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = HttpServer(self.service, port=0)
        await server.start()
        self.port = server.port
        self._ready.set()
        await self._stop.wait()
        await server.stop()

    def start(self) -> int:
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service thread failed to start")
        assert self.port is not None
        return self.port

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)


async def _ws_client_loop(
    port: int,
    account_id: str,
    lat: float,
    lon: float,
    pings: int,
    latencies: List[float],
) -> int:
    client = await WebSocketClient.connect("127.0.0.1", port, "/v1/ping")
    message = json.dumps(
        {"account_id": account_id, "lat": lat, "lon": lon,
         "car_types": ["uberX"]}
    )
    served = 0
    try:
        for _ in range(pings):
            t0 = time.perf_counter()
            await client.send_text(message)
            reply = await client.receive_text()
            latencies.append(time.perf_counter() - t0)
            if '"statuses"' not in reply:
                raise RuntimeError(f"bad ping reply: {reply[:200]}")
            served += 1
    finally:
        await client.close()
    return served


async def _run_ws_leg(
    port: int,
    clients: int,
    pings: int,
    positions: Sequence[Any],
) -> Dict[str, Any]:
    latencies: List[float] = []
    tasks = []
    for i in range(clients):
        point = positions[i % len(positions)]
        tasks.append(
            _ws_client_loop(
                port, f"bench{i:05d}", point.lat, point.lon, pings,
                latencies,
            )
        )
    t0 = time.perf_counter()
    results = await asyncio.gather(*tasks, return_exceptions=True)
    elapsed = time.perf_counter() - t0
    failures = [r for r in results if isinstance(r, BaseException)]
    served = sum(r for r in results if isinstance(r, int))
    latencies.sort()
    return {
        "clients": clients,
        "pings_per_client": pings,
        "replies": served,
        "failures": len(failures),
        "failure_example": (
            repr(failures[0]) if failures else None
        ),
        "elapsed_s": elapsed,
        "requests_per_s": served / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
    }


async def _run_rest_leg(
    port: int, clients: int, requests_each: int, center: Any
) -> Dict[str, Any]:
    latencies: List[float] = []
    status_counts: Dict[int, int] = {}

    async def one_client(i: int) -> None:
        target = (
            f"/v1/estimates/time?account_id=rest{i:04d}"
            f"&lat={center.lat}&lon={center.lon}&car_types=uberX"
        )
        for _ in range(requests_each):
            t0 = time.perf_counter()
            response = await http_get("127.0.0.1", port, target)
            latencies.append(time.perf_counter() - t0)
            status_counts[response.status] = (
                status_counts.get(response.status, 0) + 1
            )

    t0 = time.perf_counter()
    await asyncio.gather(*[one_client(i) for i in range(clients)])
    elapsed = time.perf_counter() - t0
    total = sum(status_counts.values())
    latencies.sort()
    return {
        "clients": clients,
        "requests_each": requests_each,
        "responses": total,
        "status_counts": {
            str(k): v for k, v in sorted(status_counts.items())
        },
        "elapsed_s": elapsed,
        "requests_per_s": total / elapsed if elapsed > 0 else 0.0,
        "latency_p50_ms": _percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": _percentile(latencies, 0.99) * 1000.0,
    }


async def _run_429_probe(port: int, center: Any) -> Dict[str, Any]:
    """The transport edge itself: drive one account over its budget."""
    target = (
        f"/v1/surge?account_id=hammer&lat={center.lat}&lon={center.lon}"
    )
    statuses = []
    retry_after = None
    for _ in range(8):
        response = await http_get("127.0.0.1", port, target)
        statuses.append(response.status)
        if response.status == 429:
            retry_after = response.headers.get("retry-after")
    return {
        "limit": 5,
        "statuses": statuses,
        "retry_after": retry_after,
        "contract_held": (
            statuses.count(200) == 5
            and statuses.count(429) == 3
            and retry_after is not None
            and int(retry_after) >= 1
        ),
    }


def _raise_fd_limit() -> None:
    """Lift the soft fd limit toward the hard one for the 10k leg."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        want = hard if hard > 0 else 65536
        if soft < want:
            resource.setrlimit(
                resource.RLIMIT_NOFILE, (min(want, 65536), hard)
            )
    except (ImportError, ValueError, OSError):
        pass


def run_bench(quick: bool) -> Dict[str, Any]:
    _raise_fd_limit()
    engine = MarketplaceEngine(
        sf_config(jitter_probability=0.25), seed=SEED
    )
    engine.run(WARMUP_S)
    service = MarketplaceService(
        engine,
        limiter=RateLimiter(limit=5, window_s=3600.0),
        coalesce_window_s=COALESCE_S,
        city="sf",
    )
    box = engine.config.region.bounding_box
    center = box.center
    positions = [
        center,
        center.offset(300.0, 200.0),
        center.offset(-250.0, 150.0),
        center.offset(120.0, -340.0),
    ]

    server = _ServerThread(service)
    port = server.start()
    try:
        # (clients, pings per client, WS_FLOOR_PER_S enforced)
        ws_plan = (
            [(50, 5, True), (200, 5, True)] if quick
            else [(100, 20, True), (1000, 10, True), (10000, 3, False)]
        )
        ws_legs: List[Dict[str, Any]] = []
        for clients, pings, _ in ws_plan:
            try:
                leg = asyncio.run(
                    _run_ws_leg(port, clients, pings, positions)
                )
            except OSError as exc:
                # fd limits: report the leg as skipped, not the bench
                # as failed (the 10k leg is unenforced by design).
                leg = {
                    "clients": clients,
                    "skipped": f"{type(exc).__name__}: {exc}",
                }
            ws_legs.append(leg)
            label = f"ws {clients} clients"
            if "skipped" in leg:
                print(f"{label:18s} skipped: {leg['skipped']}")
            else:
                print(
                    f"{label:18s} {leg['requests_per_s']:8.0f} req/s  "
                    f"p50 {leg['latency_p50_ms']:6.2f} ms  "
                    f"p99 {leg['latency_p99_ms']:7.2f} ms  "
                    f"({leg['failures']} failures)"
                )
        rest_leg = asyncio.run(
            _run_rest_leg(
                port,
                clients=20 if quick else 100,
                requests_each=3,
                center=center,
            )
        )
        print(
            f"{'rest':18s} {rest_leg['requests_per_s']:8.0f} req/s  "
            f"p50 {rest_leg['latency_p50_ms']:6.2f} ms  "
            f"p99 {rest_leg['latency_p99_ms']:7.2f} ms  "
            f"statuses {rest_leg['status_counts']}"
        )
        probe = asyncio.run(_run_429_probe(port, center))
        print(
            f"{'429 contract':18s} statuses {probe['statuses']} "
            f"retry-after {probe['retry_after']} "
            f"({'ok' if probe['contract_held'] else 'VIOLATED'})"
        )
    finally:
        server.stop()

    accumulator = service.rounds
    coalescing = {
        "rounds_served": accumulator.rounds_served,
        "requests_served": accumulator.requests_served,
        "max_round_size": accumulator.max_round_size,
        "mean_round_size": (
            accumulator.requests_served / accumulator.rounds_served
            if accumulator.rounds_served
            else 0.0
        ),
    }
    print(
        f"{'coalescing':18s} {coalescing['rounds_served']} rounds for "
        f"{coalescing['requests_served']} pings "
        f"(mean {coalescing['mean_round_size']:.1f}, "
        f"max {coalescing['max_round_size']} per round)"
    )

    # Throughput floors.  Modest on purpose: they guard against the
    # transport collapsing (accidental per-request engine scans,
    # quadratic accumulator behaviour, a coalescer that stalls
    # lock-step pings), not against slow CI hardware.
    thresholds: Dict[str, Dict[str, Any]] = {}
    for (clients, _, enforced), leg in zip(ws_plan, ws_legs):
        ran = "skipped" not in leg
        thresholds[f"ws_{clients}_requests_per_s"] = {
            "min": WS_FLOOR_PER_S if enforced else 0.0,
            "enforced": enforced and ran,
            "value": leg["requests_per_s"] if ran else None,
        }
    thresholds["429_contract"] = {
        "min": 1.0,
        "enforced": True,
        "value": 1.0 if probe["contract_held"] else 0.0,
    }
    ok = all(
        bound["value"] is not None and bound["value"] >= bound["min"]
        for bound in thresholds.values()
        if bound["enforced"]
    )
    return {
        "bench": "api_service",
        "mode": "quick" if quick else "full",
        "scenario": (
            f"sf engine at t={WARMUP_S:g}s, seed {SEED}, "
            f"coalesce {COALESCE_S * 1000:g} ms, real localhost sockets"
        ),
        "ws_legs": ws_legs,
        "rest_leg": rest_leg,
        "rate_limit_probe": probe,
        "coalescing": coalescing,
        "thresholds": thresholds,
        "ok": ok,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small client counts, for CI smoke legs",
    )
    parser.add_argument("--out", type=Path, default=OUT_PATH)
    args = parser.parse_args(argv)

    result = run_bench(quick=args.quick)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not result["ok"]:
        print("enforced thresholds FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
