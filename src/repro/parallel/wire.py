"""Wire protocol for the distributed sweep cluster.

Length-prefixed canonical-JSON frames: a 4-byte big-endian length
header followed by the message body encoded with
:func:`repro.api.serialize.canonical_json` — the same byte encoding
the socket service uses, so a :class:`CampaignOutcome` that crossed the
wire hashes identically to one produced in-process.

Message vocabulary (all frames are JSON objects with a ``type`` key):

* ``hello``   — worker -> dispatcher, once per session: protocol
  version + local job slots.
* ``next``    — worker -> dispatcher: one pull request for one spec
  (the worker sends one per free slot, so the queue is pull-based and
  heterogeneous hosts load-balance naturally).
* ``spec``    — dispatcher -> worker: an assigned
  :class:`CampaignSpec` plus its sweep index.
* ``outcome`` — worker -> dispatcher: the finished
  :class:`CampaignOutcome` for a sweep index.
* ``done``    — dispatcher -> worker: no work left; drain and hang up.

Codec invariants:

* ``spec_from_wire(spec_to_wire(s)) == s`` exactly.
* ``outcome_from_wire`` tolerates payloads without ``wall_s`` so old
  recorded outcomes stay loadable (schema is backward-compatible).
* Frames above :data:`MAX_FRAME_BYTES` are refused on both sides —
  outcomes are scalar digests/metrics by contract, never logs.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional

from repro.api.serialize import canonical_json
from repro.parallel.orchestrator import CampaignOutcome, CampaignSpec

#: Bump on any incompatible message/codec change; ``hello`` carries it
#: and the dispatcher refuses mismatched workers instead of guessing.
#: Version 2 dropped the spec's ``engine_flags`` field.
PROTOCOL_VERSION = 2

#: Hard cap on one frame.  Outcomes are digest + scalar metrics
#: (campaign logs go to disk on the worker via ``spec.out``), so a
#: frame anywhere near this is a protocol violation, not real data.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER_BYTES = 4

MSG_HELLO = "hello"
MSG_NEXT = "next"
MSG_SPEC = "spec"
MSG_OUTCOME = "outcome"
MSG_DONE = "done"


class WireError(ValueError):
    """A malformed, truncated, oversized, or out-of-protocol frame."""


def encode_frame(message: Dict[str, Any]) -> bytes:
    """Serialize one message to ``[u32 length][canonical JSON]`` bytes."""
    body = canonical_json(message)
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return len(body).to_bytes(_HEADER_BYTES, "big") + body


def write_frame(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    """Queue one encoded frame on ``writer`` (caller awaits ``drain``).

    The frame is handed to the transport in a single ``write`` call, so
    concurrent senders on one connection can never interleave partial
    frames.
    """
    writer.write(encode_frame(message))


async def read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    EOF mid-frame, an oversized length, a non-JSON body, or a body that
    is not an object with a ``type`` key all raise :class:`WireError` —
    a half-frame is a dead peer, never silently dropped data.
    """
    try:
        header = await reader.readexactly(_HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise WireError("connection closed mid frame header") from exc
        return None
    length = int.from_bytes(header, "big")
    if length > MAX_FRAME_BYTES:
        raise WireError(
            f"frame of {length} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError("connection closed mid frame body") from exc
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame body is not JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("type"), str
    ):
        raise WireError("frame body is not a typed message object")
    return payload


# ----------------------------------------------------------------------
# Message constructors
# ----------------------------------------------------------------------


def hello_message(jobs: int) -> Dict[str, Any]:
    return {
        "type": MSG_HELLO,
        "protocol": PROTOCOL_VERSION,
        "jobs": int(jobs),
    }


def next_message() -> Dict[str, Any]:
    return {"type": MSG_NEXT}


def spec_message(index: int, spec: CampaignSpec) -> Dict[str, Any]:
    return {"type": MSG_SPEC, "index": int(index), "spec": spec_to_wire(spec)}


def outcome_message(index: int, outcome: CampaignOutcome) -> Dict[str, Any]:
    return {
        "type": MSG_OUTCOME,
        "index": int(index),
        "outcome": outcome_to_wire(outcome),
    }


def done_message() -> Dict[str, Any]:
    return {"type": MSG_DONE}


# ----------------------------------------------------------------------
# Dataclass codecs
# ----------------------------------------------------------------------


def spec_to_wire(spec: CampaignSpec) -> Dict[str, Any]:
    """JSON-safe :class:`CampaignSpec` (tuples become lists)."""
    return {
        "key": spec.key,
        "city": spec.city,
        "seed": spec.seed,
        "hours": spec.hours,
        "warmup_hours": spec.warmup_hours,
        "ping_interval_s": spec.ping_interval_s,
        "jitter": spec.jitter,
        "max_clients": spec.max_clients,
        "out": spec.out,
    }


def spec_from_wire(payload: Dict[str, Any]) -> CampaignSpec:
    """Inverse of :func:`spec_to_wire`; raises :class:`WireError`."""
    try:
        return CampaignSpec(
            key=str(payload["key"]),
            city=str(payload["city"]),
            seed=int(payload["seed"]),
            hours=float(payload["hours"]),
            warmup_hours=float(payload["warmup_hours"]),
            ping_interval_s=float(payload["ping_interval_s"]),
            jitter=float(payload["jitter"]),
            max_clients=(
                None
                if payload["max_clients"] is None
                else int(payload["max_clients"])
            ),
            out=None if payload["out"] is None else str(payload["out"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed spec payload: {exc}") from exc


def outcome_to_wire(outcome: CampaignOutcome) -> Dict[str, Any]:
    """JSON-safe :class:`CampaignOutcome` — exactly ``to_json()``."""
    return outcome.to_json()


def outcome_from_wire(payload: Dict[str, Any]) -> CampaignOutcome:
    """Inverse of :func:`outcome_to_wire`; raises :class:`WireError`.

    ``wall_s`` is optional so pre-cluster outcome JSON stays loadable.
    """
    try:
        metrics = payload.get("metrics")
        return CampaignOutcome(
            key=str(payload["key"]),
            ok=bool(payload["ok"]),
            truth_digest=payload.get("truth_digest"),
            metrics=(
                None
                if metrics is None
                else {str(k): float(v) for k, v in metrics.items()}
            ),
            out_path=payload.get("out_path"),
            error=payload.get("error"),
            traceback=payload.get("traceback"),
            wall_s=(
                None
                if payload.get("wall_s") is None
                else float(payload["wall_s"])
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WireError(f"malformed outcome payload: {exc}") from exc
