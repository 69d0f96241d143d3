"""Distributed sweep dispatch: wire protocol + dispatcher/worker pair.

The acceptance contract under test:

* **Byte identity** — cluster-dispatched sweep outcomes (digests,
  metrics, spec order, failure outcomes) are byte-identical to a local
  ``run_sweep`` over the same specs; only ``wall_s`` (wall-clock
  metadata, excluded from ``CampaignOutcome.identity()``) may differ.
* **Nothing lost, nothing doubled** — a worker killed mid-campaign has
  its in-flight spec requeued and merged exactly once; late duplicate
  outcomes are dropped; retries are bounded by ``max_attempts`` and
  exhaustion yields a structured failure outcome, run_sweep's crash
  isolation shape.
* **Wire discipline** — length-prefixed canonical-JSON frames
  round-trip specs and outcomes exactly; truncation, oversize, and
  malformed payloads raise ``WireError``, never silently drop data.

Core tests run the real dispatcher/worker protocol over in-process
``socket.socketpair()`` streams (no port binding, so they work in
sandboxes); a smoke class exercises the one attach direction on real
sockets (the worker listens, the dispatcher dials), in process and
through ``repro worker --listen`` subprocesses, skipping where the
environment forbids binding.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.serialize import canonical_json
from repro.parallel import wire
from repro.parallel.cluster import (
    ClusterWorker,
    SweepDispatcher,
    parse_hostport,
    run_cluster_sweep,
)
from repro.parallel.orchestrator import (
    CampaignOutcome,
    CampaignSpec,
    ensure_unique_keys,
    run_sweep,
)


def _tiny_spec(key: str, city: str = "manhattan", seed: int = 3,
               hours: float = 0.05, **kwargs) -> CampaignSpec:
    return CampaignSpec(
        key=key, city=city, seed=seed, hours=hours, max_clients=4,
        **kwargs,
    )


def _thread_executor(jobs: int) -> ThreadPoolExecutor:
    # Campaigns in-process: cheap, deterministic, and crucially the
    # identical code path (`execute_campaign`) the process pool runs.
    return ThreadPoolExecutor(max_workers=jobs)


async def _stream_pair():
    """Two connected (reader, writer) stream pairs over a socketpair."""
    left, right = socket.socketpair()
    reader_a, writer_a = await asyncio.open_connection(sock=left)
    reader_b, writer_b = await asyncio.open_connection(sock=right)
    return (reader_a, writer_a), (reader_b, writer_b)


async def _attach(dispatcher: SweepDispatcher, worker: ClusterWorker):
    """Wire a worker to a dispatcher in-process; returns both tasks."""
    (reader_a, writer_a), (reader_b, writer_b) = await _stream_pair()
    dispatcher_task = asyncio.create_task(
        dispatcher.handle_connection(reader_a, writer_a)
    )
    worker_task = asyncio.create_task(
        worker.handle_connection(reader_b, writer_b)
    )
    return [dispatcher_task, worker_task]


async def _teardown(tasks, grace: float = 5.0) -> None:
    """Let sessions drain, then cancel whatever is deliberately stuck."""
    if tasks:
        await asyncio.wait(tasks, timeout=grace)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)


def _run_cluster(specs, workers, *, timeout=60.0, grace=5.0,
                 **dispatcher_kwargs):
    """Dispatch ``specs`` to the given workers over socketpairs."""

    async def main():
        dispatcher = SweepDispatcher(specs, **dispatcher_kwargs)
        tasks = []
        for worker in workers:
            tasks += await _attach(dispatcher, worker)
        outcomes = await asyncio.wait_for(dispatcher.outcomes(), timeout)
        await _teardown(tasks, grace=grace)
        await dispatcher.aclose()
        for worker in workers:
            await worker.aclose()
        return dispatcher, outcomes

    return asyncio.run(main())


# ----------------------------------------------------------------------
# Wire framing
# ----------------------------------------------------------------------
def _reader_with(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_frame_roundtrip():
    message = {"type": "hello", "jobs": 3, "protocol": 1}

    async def main():
        reader = _reader_with(wire.encode_frame(message))
        first = await wire.read_frame(reader)
        second = await wire.read_frame(reader)
        return first, second

    first, second = asyncio.run(main())
    assert first == message
    assert second is None  # clean EOF at a frame boundary


def test_frame_uses_canonical_json_bytes():
    message = {"b": 1, "a": 2, "type": "next"}
    encoded = wire.encode_frame(message)
    assert encoded[4:] == canonical_json(message)
    assert int.from_bytes(encoded[:4], "big") == len(encoded) - 4


@pytest.mark.parametrize("raw, match", [
    (b"\x00\x00", "mid frame header"),
    (b"\x00\x00\x00\x10{}", "mid frame body"),
    (b"\xff\xff\xff\xff", "exceeds cap"),
    (b"\x00\x00\x00\x02[]", "typed message"),
    (b"\x00\x00\x00\x03abc", "not JSON"),
    (b"\x00\x00\x00\x02{}", "typed message"),
])
def test_malformed_frames_raise_wire_error(raw, match):
    async def main():
        await wire.read_frame(_reader_with(raw))

    with pytest.raises(wire.WireError, match=match):
        asyncio.run(main())


def test_encode_frame_rejects_oversized_payload():
    huge = {"type": "outcome", "blob": "x" * (wire.MAX_FRAME_BYTES + 1)}
    with pytest.raises(wire.WireError, match="exceeds cap"):
        wire.encode_frame(huge)


def test_spec_codec_roundtrips_exactly():
    spec = _tiny_spec(
        "codec", seed=11, out="logs/a.jsonl.gz",
        warmup_hours=0.5, ping_interval_s=15.0, jitter=0.0,
    )
    assert wire.spec_from_wire(wire.spec_to_wire(spec)) == spec
    bare = _tiny_spec("bare")
    assert wire.spec_from_wire(wire.spec_to_wire(bare)) == bare
    # The wire form itself is canonical-JSON encodable.
    canonical_json(wire.spec_to_wire(spec))


def test_spec_codec_rejects_malformed_payloads():
    good = wire.spec_to_wire(_tiny_spec("x"))
    for mutilate in (
        lambda p: p.pop("key"),
        lambda p: p.update(seed="not-a-number"),
        lambda p: p.update(max_clients="lots"),
        lambda p: p.update(key=""),
    ):
        payload = json.loads(json.dumps(good))
        mutilate(payload)
        with pytest.raises(wire.WireError, match="malformed spec"):
            wire.spec_from_wire(payload)


def test_outcome_codec_roundtrips_and_tolerates_missing_wall_s():
    outcome = CampaignOutcome(
        key="k", ok=True, truth_digest="d" * 64,
        metrics={"rounds": 3.0}, out_path="x.jsonl", wall_s=1.25,
    )
    assert wire.outcome_from_wire(wire.outcome_to_wire(outcome)) == outcome
    # Pre-cluster outcome JSON had no wall_s: schema stays loadable.
    legacy = wire.outcome_to_wire(outcome)
    del legacy["wall_s"]
    revived = wire.outcome_from_wire(legacy)
    assert revived.wall_s is None
    assert revived.identity() == outcome.identity()
    with pytest.raises(wire.WireError, match="malformed outcome"):
        wire.outcome_from_wire({"ok": True})


def test_parse_hostport():
    assert parse_hostport("127.0.0.1:9001") == ("127.0.0.1", 9001)
    assert parse_hostport("[::1]:80") == ("[::1]", 80)
    for bad in ("nohost", ":9001", "host:", "host:port", "host:70000"):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_hostport(bad)


# ----------------------------------------------------------------------
# Dispatcher construction contracts
# ----------------------------------------------------------------------
def test_duplicate_keys_rejected_at_submit_time():
    specs = [_tiny_spec("dup"), _tiny_spec("dup", seed=4)]
    with pytest.raises(ValueError, match="duplicate campaign keys"):
        SweepDispatcher(specs)
    with pytest.raises(ValueError, match="duplicate campaign keys"):
        ensure_unique_keys(specs)


def test_dispatcher_parameter_validation():
    with pytest.raises(ValueError, match="max_attempts"):
        SweepDispatcher([_tiny_spec("a")], max_attempts=0)
    with pytest.raises(ValueError, match="spec_timeout_s"):
        SweepDispatcher([_tiny_spec("a")], spec_timeout_s=0.0)


def test_empty_sweep_completes_immediately():
    async def main():
        dispatcher = SweepDispatcher([])
        return await asyncio.wait_for(dispatcher.outcomes(), 5)

    assert asyncio.run(main()) == []


def test_run_cluster_sweep_requires_workers():
    with pytest.raises(ValueError, match="at least one worker"):
        run_cluster_sweep([_tiny_spec("a")], [])


# ----------------------------------------------------------------------
# Byte identity: cluster dispatch vs local run_sweep
# ----------------------------------------------------------------------
class TestClusterByteIdentity:
    SPECS = [
        _tiny_spec("mhtn-s3"),
        _tiny_spec("mhtn-s4", seed=4),
        _tiny_spec("sf-s3", city="sf"),
        # A failing spec: its structured error outcome must cross the
        # wire byte-identical to the local one.
        _tiny_spec("broken", city="atlantis"),
    ]

    def test_outcomes_identical_to_local_sweep(self):
        local = run_sweep(self.SPECS, jobs=1)
        workers = [
            ClusterWorker(jobs=2, executor_factory=_thread_executor)
            for _ in range(2)
        ]
        dispatcher, clustered = _run_cluster(self.SPECS, workers)

        assert [o.key for o in clustered] == [s.key for s in self.SPECS]
        # Identity (everything except wall_s) is byte-identical — the
        # canonical-JSON bytes are the currency digests trade in.
        assert (
            canonical_json([o.identity() for o in clustered])
            == canonical_json([o.identity() for o in local])
        )
        assert [o.ok for o in clustered] == [True, True, True, False]
        assert clustered[3].error == local[3].error
        assert clustered[3].traceback == local[3].traceback
        # wall_s rides along as metadata on every executed campaign.
        assert all(o.wall_s is not None and o.wall_s >= 0
                   for o in clustered)
        assert dispatcher.workers_seen == 2
        assert dispatcher.requeues == 0
        assert dispatcher.duplicates_dropped == 0
        # Both workers were exercised and together ran every campaign.
        assert sum(w.campaigns_run for w in workers) == len(self.SPECS)

    def test_single_worker_single_job_matches_sequential(self):
        local = run_sweep(self.SPECS[:2], jobs=1)
        worker = ClusterWorker(jobs=1, executor_factory=_thread_executor)
        _, clustered = _run_cluster(self.SPECS[:2], [worker])
        assert ([o.identity() for o in clustered]
                == [o.identity() for o in local])


# ----------------------------------------------------------------------
# Worker death, requeue, exactly-once merge
# ----------------------------------------------------------------------
class _DyingWorker(ClusterWorker):
    """Aborts its connection (worker "killed") on a chosen spec key."""

    def __init__(self, die_on_key, die_times=1, **kwargs):
        super().__init__(**kwargs)
        self.die_on_key = die_on_key
        self.die_times = die_times
        self.deaths = 0

    async def _run_one(self, writer, index, spec):
        if spec.key == self.die_on_key and self.deaths < self.die_times:
            self.deaths += 1
            writer.transport.abort()
            return
        await super()._run_one(writer, index, spec)


class _StallingWorker(ClusterWorker):
    """Sits on a chosen spec (first N assignments) without answering."""

    def __init__(self, stall_on_key, stall_times=1, **kwargs):
        super().__init__(**kwargs)
        self.stall_on_key = stall_on_key
        self.stall_times = stall_times
        self.stalls = 0

    async def _execute(self, spec):
        if spec.key == self.stall_on_key and self.stalls < self.stall_times:
            self.stalls += 1
            await asyncio.sleep(3600.0)
        return await super()._execute(spec)


def _timeout_outlasting(local) -> float:
    """A spec timeout that the real campaigns of a *local* sweep fit in
    with room to spare, on a slow host too: 20x the slowest one's
    ``wall_s``, and at least 0.3 s.  A stalled spec sleeps for an hour,
    so only a real campaign has to outlast it.  The tests add two of
    these to ``_run_cluster``'s 60 s hang guard, so a slow host
    stretches the guard too."""
    return max(0.3, 20.0 * max(o.wall_s for o in local))


class TestRequeueSemantics:
    SPECS = [_tiny_spec("a"), _tiny_spec("b", seed=4), _tiny_spec("c", seed=5)]

    def test_worker_killed_mid_campaign_spec_requeued_once(self):
        local = run_sweep(self.SPECS, jobs=1)

        async def main():
            dispatcher = SweepDispatcher(self.SPECS)
            dying = _DyingWorker(
                "b", jobs=1, executor_factory=_thread_executor
            )
            first = await _attach(dispatcher, dying)
            # jobs=1 pulls specs one at a time: "a" completes, then the
            # connection is aborted mid-"b" — a worker kill with one
            # spec in flight.
            await asyncio.wait(first, timeout=30)
            assert dying.deaths == 1
            recovery = ClusterWorker(
                jobs=2, executor_factory=_thread_executor
            )
            second = await _attach(dispatcher, recovery)
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 60)
            await _teardown(first + second)
            await dispatcher.aclose()
            await dying.aclose()
            await recovery.aclose()
            return dispatcher, outcomes

        dispatcher, outcomes = asyncio.run(main())
        # The killed worker's spec was requeued, merged exactly once,
        # and the merged sweep is byte-identical to the local one.
        assert dispatcher.requeues == 1
        assert dispatcher.duplicates_dropped == 0
        assert ([o.identity() for o in outcomes]
                == [o.identity() for o in local])
        assert all(o.ok for o in outcomes)

    def test_timeout_requeues_to_free_slot_same_result(self):
        local = run_sweep(self.SPECS[:2], jobs=1)
        worker = _StallingWorker(
            "a", jobs=2, executor_factory=_thread_executor
        )
        spec_timeout_s = _timeout_outlasting(local)
        dispatcher, outcomes = _run_cluster(
            self.SPECS[:2], [worker], timeout=60.0 + 2 * spec_timeout_s,
            spec_timeout_s=spec_timeout_s, grace=0.3,
        )
        # First assignment of "a" stalled past the timeout; the retry
        # (second attempt, same worker's freed slot) completed it.
        assert dispatcher.timeouts == 1
        assert dispatcher.requeues == 1
        assert worker.stalls == 1
        assert ([o.identity() for o in outcomes]
                == [o.identity() for o in local])

    def test_retries_exhausted_becomes_structured_failure(self):
        local = run_sweep(self.SPECS[1:2], jobs=1)
        worker = _StallingWorker(
            "a", stall_times=99, jobs=2, executor_factory=_thread_executor
        )
        spec_timeout_s = _timeout_outlasting(local)
        dispatcher, outcomes = _run_cluster(
            self.SPECS[:2], [worker], timeout=60.0 + 2 * spec_timeout_s,
            spec_timeout_s=spec_timeout_s, max_attempts=1, grace=0.3,
        )
        abandoned, sibling = outcomes
        assert not abandoned.ok
        assert abandoned.key == "a"
        assert "no outcome within" in abandoned.error
        assert "attempt 1/1" in abandoned.error
        assert "spec abandoned" in abandoned.error
        # Crash isolation: the sibling campaign is untouched.
        assert sibling.ok
        assert sibling.identity() == local[0].identity()

    def test_repeated_disconnects_exhaust_attempts(self):
        spec = [_tiny_spec("doomed")]

        async def main():
            dispatcher = SweepDispatcher(spec, max_attempts=2)
            tasks = []
            for _ in range(2):
                worker = _DyingWorker(
                    "doomed", die_times=99, jobs=1,
                    executor_factory=_thread_executor,
                )
                attached = await _attach(dispatcher, worker)
                tasks += attached
                await asyncio.wait(attached, timeout=30)
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 30)
            await _teardown(tasks)
            await dispatcher.aclose()
            return dispatcher, outcomes

        dispatcher, outcomes = asyncio.run(main())
        (outcome,) = outcomes
        assert not outcome.ok
        assert "worker connection lost mid-campaign" in outcome.error
        assert "attempt 2/2" in outcome.error
        assert dispatcher.requeues == 1  # first loss requeued, second gave up


# ----------------------------------------------------------------------
# Protocol-level adversaries (scripted peer, no ClusterWorker)
# ----------------------------------------------------------------------
class TestProtocolDiscipline:
    def test_late_duplicate_outcome_dropped(self):
        specs = [_tiny_spec("solo")]
        local = run_sweep(specs, jobs=1)

        async def main():
            dispatcher = SweepDispatcher(specs)
            (ra, wa), (rb, wb) = await _stream_pair()
            handler = asyncio.create_task(
                dispatcher.handle_connection(ra, wa)
            )
            wire.write_frame(wb, wire.hello_message(1))
            wire.write_frame(wb, wire.next_message())
            await wb.drain()
            assignment = await wire.read_frame(rb)
            assert assignment["type"] == wire.MSG_SPEC
            outcome = local[0]
            # Answer twice: only the first merge may count.
            wire.write_frame(wb, wire.outcome_message(0, outcome))
            wire.write_frame(wb, wire.outcome_message(0, outcome))
            wire.write_frame(wb, wire.next_message())
            await wb.drain()
            done = await wire.read_frame(rb)
            assert done["type"] == wire.MSG_DONE
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 10)
            wb.close()
            await _teardown([handler])
            await dispatcher.aclose()
            return dispatcher, outcomes

        dispatcher, outcomes = asyncio.run(main())
        assert dispatcher.duplicates_dropped == 1
        assert [o.identity() for o in outcomes] == [local[0].identity()]

    def test_protocol_mismatch_rejected_then_good_worker_completes(self):
        specs = [_tiny_spec("solo")]

        async def main():
            dispatcher = SweepDispatcher(specs)
            (ra, wa), (rb, wb) = await _stream_pair()
            handler = asyncio.create_task(
                dispatcher.handle_connection(ra, wa)
            )
            # A version-1 peer (specs still carried engine_flags).
            wire.write_frame(
                wb, {"type": wire.MSG_HELLO, "protocol": 1, "jobs": 1}
            )
            wire.write_frame(wb, wire.next_message())
            await wb.drain()
            # The dispatcher hangs up instead of assigning work.
            assert await wire.read_frame(rb) is None
            wb.close()
            await wb.wait_closed()
            await _teardown([handler])
            assert dispatcher.workers_seen == 0
            worker = ClusterWorker(
                jobs=1, executor_factory=_thread_executor
            )
            tasks = await _attach(dispatcher, worker)
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 60)
            await _teardown(tasks)
            await dispatcher.aclose()
            await worker.aclose()
            return outcomes

        outcomes = asyncio.run(main())
        assert [o.ok for o in outcomes] == [True]

    def test_mismatched_outcome_key_treated_as_dead_worker(self):
        specs = [_tiny_spec("real")]

        async def main():
            dispatcher = SweepDispatcher(specs, max_attempts=1)
            (ra, wa), (rb, wb) = await _stream_pair()
            handler = asyncio.create_task(
                dispatcher.handle_connection(ra, wa)
            )
            wire.write_frame(wb, wire.hello_message(1))
            wire.write_frame(wb, wire.next_message())
            await wb.drain()
            assert (await wire.read_frame(rb))["type"] == wire.MSG_SPEC
            forged = CampaignOutcome(key="forged", ok=True)
            wire.write_frame(wb, wire.outcome_message(0, forged))
            await wb.drain()
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 10)
            wb.close()
            await _teardown([handler])
            await dispatcher.aclose()
            return outcomes

        (outcome,) = asyncio.run(main())
        # The forged outcome is refused; with max_attempts=1 the spec
        # is abandoned as a structured failure, never a wrong merge.
        assert not outcome.ok
        assert outcome.key == "real"
        assert "spec abandoned" in outcome.error


# ----------------------------------------------------------------------
# Worker-side crash isolation
# ----------------------------------------------------------------------
class _BrokenExecutor:
    def submit(self, fn, *args):
        raise RuntimeError("pool is broken")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_worker_executor_failure_is_a_structured_outcome():
    specs = [_tiny_spec("a")]
    worker = ClusterWorker(jobs=1, executor_factory=lambda n: _BrokenExecutor())
    dispatcher, outcomes = _run_cluster(specs, [worker])
    (outcome,) = outcomes
    assert not outcome.ok
    assert outcome.key == "a"
    assert "pool is broken" in outcome.error
    assert outcome.traceback is not None
    assert dispatcher.requeues == 0


# ----------------------------------------------------------------------
# Real sockets + CLI subprocesses (skipped where binding is forbidden)
# ----------------------------------------------------------------------
def _sockets_available() -> bool:
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probe.close()
        return True
    except OSError:
        return False


class TestRealSocketCluster:
    SPECS = [_tiny_spec("m3"), _tiny_spec("m4", seed=4)]

    def _skip_unless_sockets(self):
        if not _sockets_available():
            pytest.skip("socket binding unavailable in this sandbox")

    def test_worker_listens_dispatcher_dials(self):
        self._skip_unless_sockets()
        local = run_sweep(self.SPECS, jobs=1)

        async def main():
            worker = ClusterWorker(jobs=2, executor_factory=_thread_executor)
            host, port = await worker.listen("127.0.0.1", 0)
            dispatcher = SweepDispatcher(self.SPECS)
            await dispatcher.dial(host, port)
            outcomes = await asyncio.wait_for(dispatcher.outcomes(), 60)
            await dispatcher.aclose()
            await worker.aclose()
            return outcomes

        outcomes = asyncio.run(main())
        assert ([o.identity() for o in outcomes]
                == [o.identity() for o in local])

    def test_cli_cluster_survives_worker_kill(self, tmp_path):
        """Two `repro worker` subprocesses, one SIGKILLed mid-sweep.

        The CLI smoke the CI cluster job runs: digests from the cluster
        dispatch must equal the local run_sweep digests, and the sweep
        must complete despite losing a worker.
        """
        self._skip_unless_sockets()
        seeds = [3, 4, 5, 6]
        specs = [
            CampaignSpec(
                key=f"manhattan-s{seed}", city="manhattan", seed=seed,
                hours=0.05, warmup_hours=0.0, ping_interval_s=5.0,
                jitter=0.25,
                out=str(tmp_path / f"mhtn.s{seed}.jsonl"),
            )
            for seed in seeds
        ]
        expected = {
            o.key: o.truth_digest for o in run_sweep(
                [dataclasses.replace(s, out=None) for s in specs], jobs=1
            )
        }

        procs = []
        addresses = []
        try:
            for _ in range(2):
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "worker",
                     "--listen", "127.0.0.1:0", "--jobs", "1"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, env=_worker_env(),
                )
                procs.append(proc)
                line = proc.stdout.readline()
                assert "listening on" in line, line
                addresses.append(line.split("listening on ")[1].split()[0])

            killer = _KillAfter(procs[1], delay_s=1.0)
            killer.start()
            outcomes = run_cluster_sweep(specs, addresses)
            killer.join()
        finally:
            for proc in procs:
                proc.kill()
                proc.wait(timeout=10)
                proc.stdout.close()

        assert [o.key for o in outcomes] == [s.key for s in specs]
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        assert {o.key: o.truth_digest for o in outcomes} == expected

    def test_pool_children_die_with_a_killed_worker(self):
        """A SIGKILLed `repro worker` takes its pool processes along.

        Nothing tells the pool of a killed process to shut down, so
        without the parent watch its children stay blocked on the call
        queue, reparented, for as long as the host runs.
        """
        self._skip_unless_sockets()
        if not os.path.isdir("/proc/self"):
            pytest.skip("needs /proc to find a process's children")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--listen", "127.0.0.1:0", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=_worker_env(),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            address = line.split("listening on ")[1].split()[0]
            [outcome] = run_cluster_sweep(self.SPECS[:1], [address])
            assert outcome.ok, outcome.error
            children = _children_of(proc.pid)
            assert children  # the pool outlives the sweep
        finally:
            proc.kill()
            proc.wait(timeout=10)
            proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while _running(children) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not _running(children)


def _proc_stat(pid):
    """The fields of ``/proc/<pid>/stat`` after the command name, or
    ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rpartition(")")[2].split()
    except OSError:
        return None


def _children_of(pid):
    """Pids whose parent is *pid*, read from ``/proc/*/stat``."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat is not None and int(stat[1]) == pid:
                children.append(int(entry))
    return children


def _running(pids):
    """The pids in *pids* that still run (a zombie has exited)."""
    return [pid for pid in pids
            if (stat := _proc_stat(pid)) is not None and stat[0] != "Z"]


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class _KillAfter(threading.Thread):
    """SIGKILL a worker subprocess after a delay, mid-sweep."""

    def __init__(self, proc, delay_s):
        super().__init__(daemon=True)
        self.proc = proc
        self.delay_s = delay_s

    def run(self):
        time.sleep(self.delay_s)
        self.proc.send_signal(signal.SIGKILL)
