"""Parallel execution layer: independent campaigns across processes and
hosts.

The engine itself is serial; parallelism lives *above* one campaign,
never inside it:

* :mod:`repro.parallel.orchestrator` — a process-pool runner for
  *independent* campaigns (multi-seed replications, dual-city runs,
  ablation sweeps): per-campaign seeding, structured JSON-serializable
  results (truth digests + metrics), crash isolation with per-campaign
  error capture, and a deterministic merge ordered by campaign key.
  Exposed as ``repro measure --jobs N`` and the
  :func:`~repro.parallel.orchestrator.run_sweep` API the benchmarks
  adopt.

* :mod:`repro.parallel.cluster` (+ :mod:`repro.parallel.wire`) — the
  multi-host extension of the orchestrator: an asyncio TCP
  dispatcher/worker pair in which workers listen
  (``repro worker --listen``) and the dispatcher dials them
  (``repro measure --workers``).  It distributes the same
  ``CampaignSpec``s over length-prefixed canonical-JSON frames and
  merges ``CampaignOutcome``s in spec order, byte-identical to a local
  ``run_sweep`` — including requeue-on-death with exactly-once merge
  (tier-1 enforced).
"""
