"""Process-pool orchestration of independent measurement campaigns.

The paper's workload shape is *many independent deterministic runs*:
43-client fleets for four weeks in two cities, a 172-client taxi
validation, multi-seed replications, ablation sweeps, the figure-bench
suite.  Campaigns never share state — each gets its own engine, its own
seed, its own truth log — so they parallelize across worker *processes*
with no coordination beyond the result hand-back.

Contracts:

* **Per-campaign seeding.**  A :class:`CampaignSpec` carries its own
  seed; :func:`execute_campaign` builds a fresh engine from it, so a
  sweep's campaigns are bit-identical to running each spec alone (and
  to the ``jobs=1`` sequential path — tier-1 enforced).
* **Structured hand-back.**  Workers return a JSON-serializable
  :class:`CampaignOutcome` (truth digest + scalar metrics), never live
  engines or logs — large artefacts go to disk via ``spec.out``.
* **Crash isolation.**  A campaign that raises yields an error outcome
  carrying the exception and traceback; sibling campaigns complete
  unaffected, and a broken worker process is likewise reported per
  campaign rather than poisoning the sweep.  :func:`failed_outcome`
  builds every such outcome, the cluster worker's included.
* **Deterministic merge.**  :func:`run_sweep` returns outcomes in
  *spec order* (specs are keyed, keys must be unique), whatever order
  the workers finish in.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
import traceback as traceback_module
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.marketplace.config import city_config
from repro.marketplace.engine import MarketplaceEngine
from repro.marketplace.types import CarType
from repro.measurement.fleet import Fleet, MarketplaceWorld
from repro.measurement.placement import place_clients
from repro.measurement.records import CampaignLog

#: Default cap on worker processes when ``jobs`` is left unset: enough
#: to fill a typical workstation, small enough not to oversubscribe
#: small CI boxes.
DEFAULT_WORKER_CAP = 4

#: Seconds between a pool worker's checks that its parent still lives.
PARENT_POLL_S = 0.25

def resolve_workers(workers: Optional[int]) -> int:
    """Effective worker count for a sweep's process pool.

    ``None`` picks ``min(DEFAULT_WORKER_CAP, cpu_count)`` — parallel by
    default on multi-core machines, sequential (1) on single-core ones.
    An explicit count is honoured as given.
    """
    if workers is None:
        return max(1, min(DEFAULT_WORKER_CAP, os.cpu_count() or 1))
    if workers < 1:
        raise ValueError("parallel workers must be >= 1")
    return workers


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: end the worker once *parent_pid* dies.

    A parent that is SIGKILLed never tells its pool to shut down, so
    the workers would stay blocked on the call queue for good,
    reparented.  A daemon thread notices the new parent pid and exits.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(PARENT_POLL_S)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def process_pool(jobs: int) -> ProcessPoolExecutor:
    """A pool of *jobs* worker processes that die with this process."""
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


@dataclass(frozen=True)
class CampaignSpec:
    """One independent campaign in a sweep.

    Plain picklable data — specs cross the process boundary.  ``key``
    must be unique within a sweep; it names the campaign in outcomes
    and fixes the merge order.
    """

    key: str
    city: str
    seed: int
    hours: float
    warmup_hours: float = 0.0
    ping_interval_s: float = 5.0
    jitter: float = 0.25
    max_clients: Optional[int] = None
    #: Stream the campaign log here (JSON lines; ``.gz`` compresses),
    #: a round at a time, through the sibling ``<out>.part``: the log
    #: appears at ``out`` whole when the campaign completes, or not at
    #: all, and a killed run leaves the sibling.  ``None`` keeps the
    #: run digest-only — nothing hits disk.
    out: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("spec key must be non-empty")
        # Negated comparisons so NaN fails them too.
        if not self.hours > 0:
            raise ValueError("hours must be positive")
        if not self.warmup_hours >= 0:
            raise ValueError("warm-up cannot be negative")


@dataclass(frozen=True)
class CampaignOutcome:
    """What one campaign handed back (JSON-serializable throughout).

    ``ok`` campaigns carry a truth digest (sha256 over the engine's
    canonical IntervalTruth stream — the golden-campaign hash shape)
    and scalar metrics; failed ones carry the error and its traceback.
    ``wall_s`` is per-campaign wall time — measurement metadata for
    straggler-skew reporting, deliberately *outside* the deterministic
    identity (see :meth:`identity`) and optional in the JSON schema so
    pre-existing recorded outcomes stay loadable.
    """

    key: str
    ok: bool
    truth_digest: Optional[str] = None
    metrics: Optional[Dict[str, float]] = None
    out_path: Optional[str] = None
    error: Optional[str] = None
    traceback: Optional[str] = None
    wall_s: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    def identity(self) -> Dict[str, object]:
        """The deterministic fields — everything except ``wall_s``.

        Byte-identity checks (local vs pooled vs cluster-dispatched
        sweeps) compare these: digests, metrics, spec key, failure
        shape.  Wall time legitimately differs between runs and hosts,
        so it is metadata, never identity.
        """
        payload = asdict(self)
        del payload["wall_s"]
        return payload


def truth_digest(engine: MarketplaceEngine) -> str:
    """sha256 over the engine's canonical IntervalTruth stream.

    The same sorted-key JSON shape the golden-campaign test hashes:
    equal digests mean bit-identical truth logs, which is the currency
    every bit-identity check in this repo trades in.
    """
    payload = [
        {
            "interval_index": t.interval_index,
            "start_s": t.start_s,
            "online_by_type": {
                ct.name: n
                for ct, n in sorted(
                    t.online_by_type.items(), key=lambda kv: kv[0].name
                )
            },
            "distinct_online_uberx": t.distinct_online_uberx,
            "fulfilled_by_area": {
                str(k): v for k, v in sorted(t.fulfilled_by_area.items())
            },
            "requests_by_area": {
                str(k): v for k, v in sorted(t.requests_by_area.items())
            },
            "priced_out": t.priced_out,
            "unfulfilled": t.unfulfilled,
            "mean_idle_uberx_by_area": {
                str(k): v
                for k, v in sorted(t.mean_idle_uberx_by_area.items())
            },
            "multipliers": {
                str(k): v for k, v in sorted(t.multipliers.items())
            },
            "mean_ewt_by_area": {
                str(k): v for k, v in sorted(t.mean_ewt_by_area.items())
            },
        }
        for t in engine.truth
    ]
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def execute_campaign(spec: CampaignSpec) -> CampaignOutcome:
    """Run one campaign start to finish; never raises.

    The one place campaign parameters become a marketplace log:
    ``repro measure`` (one seed or a sweep, local or clustered), the
    cluster workers and the bench cache all run their specs here.
    Each round is written to ``spec.out`` as it is measured (see
    :meth:`~repro.measurement.records.CampaignLog.write`) and none is
    held, so memory does not grow with the campaign's length; the log
    appears at ``spec.out`` whole or not at all, and a killed or
    failed run leaves its rounds so far in the sibling ``.part`` file.
    Module-level and spec-in/outcome-out so it pickles cleanly as a
    :class:`~concurrent.futures.ProcessPoolExecutor` work item.  Any
    exception — bad spec, engine error, disk error on write — becomes a
    structured error outcome; crash isolation is this function's job,
    so a sweep's other campaigns never see a sibling's failure.
    """
    started = time.perf_counter()  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
    try:
        config = city_config(spec.city, spec.jitter)
        engine = MarketplaceEngine(config, seed=spec.seed)
        positions = place_clients(
            config.region, max_clients=spec.max_clients
        )
        fleet = Fleet(
            positions,
            car_types=[CarType.UBERX],
            ping_interval_s=spec.ping_interval_s,
        )
        rounds = fleet.rounds(
            MarketplaceWorld(engine),
            duration_s=spec.hours * 3600.0,
            warmup_s=spec.warmup_hours * 3600.0,
        )
        if spec.out is None:
            measured = sum(1 for _ in rounds)
        else:
            measured = CampaignLog(
                spec.city, fleet.positions, spec.ping_interval_s
            ).write(spec.out, rounds)
        metrics: Dict[str, float] = {
            "rounds": float(measured),
            "clients": float(len(fleet.clients)),
            "truth_intervals": float(len(engine.truth)),
            "trips_completed": float(len(engine.completed_trips)),
        }
        digest = truth_digest(engine)
        return CampaignOutcome(
            key=spec.key,
            ok=True,
            truth_digest=digest,
            metrics=metrics,
            out_path=spec.out,
            wall_s=time.perf_counter() - started,  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
        )
    except Exception as exc:
        return failed_outcome(
            spec.key,
            exc,
            wall_s=time.perf_counter() - started,  # repro: noqa=REP002 -- wall_s is measurement metadata (straggler skew), excluded from outcome identity; never feeds simulation state
        )


def failed_outcome(
    key: str, exc: BaseException, wall_s: Optional[float] = None
) -> CampaignOutcome:
    """The structured error outcome of a campaign lost to *exc*.

    The one place an exception becomes a failed outcome: a campaign
    that raised, a spec the pool would not take, a pool worker that
    died, an executor a cluster worker lost.  Callers catch
    ``Exception`` only, so ``KeyboardInterrupt``, ``SystemExit`` and
    ``asyncio.CancelledError`` still propagate.
    """
    return CampaignOutcome(
        key=key,
        ok=False,
        error=f"{type(exc).__name__}: {exc}",
        traceback="".join(
            traceback_module.format_exception(
                type(exc), exc, exc.__traceback__
            )
        ),
        wall_s=wall_s,
    )


def ensure_unique_keys(specs: Sequence[CampaignSpec]) -> None:
    """Reject duplicate campaign keys with a clear error at submit time.

    Keys name outcomes and fix the merge order; a duplicate would
    silently alias cache files and merge slots.  Shared by
    :func:`run_sweep` and the cluster dispatcher so both entry points
    enforce the same contract before any work is assigned.
    """
    keys = [spec.key for spec in specs]
    if len(set(keys)) != len(keys):
        dupes = sorted({k for k in keys if keys.count(k) > 1})
        raise ValueError(f"duplicate campaign keys: {dupes}")


def run_sweep(
    specs: Sequence[CampaignSpec],
    jobs: Optional[int] = None,
) -> List[CampaignOutcome]:
    """Execute independent campaigns, one outcome per spec, spec order.

    ``jobs=None`` resolves through :func:`resolve_workers`
    (``min(4, cpu_count)``); ``jobs=1`` — or a single spec — runs
    sequentially in-process, which is also the bit-identity reference
    the parallel path must match.  Worker crashes that kill the process
    itself (so :func:`execute_campaign` couldn't catch them) surface as
    error outcomes for the campaigns that were lost — as do failures of
    ``submit`` itself — while completed siblings keep their results:
    every spec yields exactly one outcome, no matter where the failure
    struck.  Futures are read in spec order, so completion order can
    never reorder or drop a campaign.
    """
    specs = list(specs)
    ensure_unique_keys(specs)
    if not specs:
        return []
    effective_jobs = min(resolve_workers(jobs), len(specs))
    if effective_jobs <= 1:
        return [execute_campaign(spec) for spec in specs]
    with process_pool(effective_jobs) as executor:
        # Guarded submission: ``executor.submit`` itself can raise (a
        # pool already broken by a dead worker, interpreter shutdown).
        # An unguarded comprehension would let that escape with every
        # not-yet-submitted spec silently dropped — no outcome at all,
        # violating the crash-isolation contract above.  Each failed
        # submit becomes that spec's structured error outcome instead,
        # and the remaining specs still get their turn.
        slots: List[Union[Future[CampaignOutcome], CampaignOutcome]] = []
        for spec in specs:
            try:
                slots.append(executor.submit(execute_campaign, spec))
            except Exception as exc:
                slots.append(failed_outcome(spec.key, exc))
        outcomes: List[CampaignOutcome] = []
        for spec, slot in zip(specs, slots):
            if isinstance(slot, CampaignOutcome):
                outcomes.append(slot)
                continue
            try:
                outcomes.append(slot.result())
            except Exception as exc:  # BrokenProcessPool et al.
                outcomes.append(failed_outcome(spec.key, exc))
    return outcomes
