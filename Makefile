# One command per gate.  `make check` is the whole pre-merge gate:
# determinism lint, strict typing (where mypy is installed), tier-1
# tests.  Every target works on the bare CI image — tools that are not
# installed skip with a message instead of failing, mirroring the
# skip-with-reason behaviour of tests/test_static_analysis.py.

PY ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint typecheck test perfbench-selftest \
	perfbench-digests fig02-check fig04-check bench-quick serve-bench \
	bench-cluster coverage check

## Both lint passes (determinism REP001-REP006 + concurrency
## REP101-REP103, REP105) over the source tree; the same command line
## as `repro lint`.
lint:
	$(PY) -m repro.devtools.lint src

## Strict mypy on repro.marketplace + repro.geo + repro.parallel +
## repro.service + repro.devtools (config in pyproject).
typecheck:
	@if $(PY) -c "import mypy" 2>/dev/null; then \
		$(PY) -m mypy -p repro.marketplace -p repro.geo \
			-p repro.parallel -p repro.service \
			-p repro.devtools; \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi

## Tier-1 test suite, including the production-vs-oracle equivalence
## and golden-digest tests.
test:
	$(PY) -m pytest -x -q

## The repo benchmark's self-test (perfbench/): builds each workload's
## truth digest and reply hashes from the source tree and proves the
## checks catch one altered log line and one altered reply byte.  It
## calls into src by name, so a rename or deletion there fails here.
perfbench-selftest:
	$(PY) perfbench/run.py --self-test

## Output bytes at scale: the repo benchmark's two campaign workloads,
## Manhattan x20 (6 540 drivers) and x153 (50 031), at the seed
## perfbench/expected.json records, for the minimum three repetitions
## each.  Fails unless every repetition's log, audit report and truth
## digests equal the record.  Not a CI step: the record was made on
## Python 3.11 with numpy 2.4, and CI's 3.10 and 3.12 legs have not
## been seen to reproduce it.
perfbench-digests:
	$(PY) perfbench/run.py --workload campaign-x20 --seed 2015 --seconds 1
	$(PY) perfbench/run.py --workload metro-x153 --seed 2015 --seconds 1

## Fig 2's walk-outward calibration (four clients pinging in lock-step
## rounds, every two simulated hours of a day, in both cities), with its
## table pinned: the bench rewrites
## benchmarks/out/fig02_visibility_radius.txt, and any byte that
## differs from the committed file fails the target.  Not a CI step
## until it has been seen to pass on CI's 3.10 and 3.12 legs.
fig02-check:
	$(PY) -m pytest benchmarks/bench_fig02_visibility_radius.py -q \
		--benchmark-disable
	git diff --exit-code -- benchmarks/out/fig02_visibility_radius.txt

## Fig 4's taxi validation end to end (trace generator, replayer,
## measurement fleet, capture-rate scoring), with its table pinned: the
## bench rewrites benchmarks/out/fig04_taxi_validation.txt, and any
## byte that differs from the committed file fails the target.
fig04-check:
	$(PY) -m pytest benchmarks/bench_fig04_taxi_validation.py -q \
		--benchmark-disable
	git diff --exit-code -- benchmarks/out/fig04_taxi_validation.txt

## Quick perf bench: the production engine against the oracle
## (use_vectorized_step on/off) and batched against per-client ping
## serving, the production-vs-oracle bit-identity check in both
## cities, plus the orchestrator sweep leg.  The three quick benches
## write their JSON under the ignored .benchmarks/, so quick-mode
## numbers never overwrite the full-mode records in benchmarks/out/.
bench-quick:
	$(PY) benchmarks/bench_perf_engine.py --quick \
		--out .benchmarks/BENCH_perf_engine.json

## Quick service load bench: real localhost sockets, concurrent
## WebSocket ping clients + REST clients against the asyncio server;
## checks throughput floors and the 429/Retry-After contract.
serve-bench:
	$(PY) benchmarks/bench_api_service.py --quick \
		--out .benchmarks/BENCH_api_service.json

## Quick cluster bench: the 8-campaign sweep dispatched sequentially,
## through the local process pool, and to 2- and 4-worker localhost
## clusters (real `repro worker` subprocesses over TCP), with a
## byte-identity cross-check of every dispatch mode's outcomes.
bench-cluster:
	$(PY) benchmarks/bench_sweep_cluster.py --quick \
		--out .benchmarks/BENCH_sweep_cluster.json

## Coverage gate (fail_under=90 on repro.marketplace + repro.parallel;
## needs `coverage`, which CI installs — locally it skips when absent).
coverage:
	@if $(PY) -c "import coverage" 2>/dev/null; then \
		$(PY) -m coverage run -m pytest -q \
			&& $(PY) -m coverage report; \
	else \
		echo "coverage not installed; skipping coverage gate"; \
	fi

## The whole pre-merge gate.
check: lint typecheck test
