"""Tier-1 static-analysis gate.

Three layers, strongest always-on first:

1. **Lint** — ``repro.devtools.lint`` (both passes: determinism
   REP001-REP006 and concurrency REP101-REP103, REP105) over ``src/``
   must report zero non-suppressed findings, and every suppression must
   carry a written justification.  Pure stdlib, so this gate always runs.
2. **Injection canaries** — deliberately planting the
   acceptance-criteria bugs must trip the gate: an unseeded
   ``random.random()`` in the engine, a ``math.hypot`` in the distance
   module, and the three historical concurrency bug shapes (an
   unlocked guarded-by attribute — the PR 6 RateLimiter split; a
   weakly-referenced ``create_task`` — the PR 7 RoundAccumulator GC
   bug; a blocking call in ``async def`` service code).  This keeps
   the gate honest: a linter that cannot catch the planted bug would
   pass an empty tree too.
3. **Tool gates** — strict mypy on
   ``repro.marketplace``/``repro.geo``/``repro.parallel``/
   ``repro.service``/``repro.devtools`` and the PR 2 coverage
   configuration.  The bare CI image ships without mypy/coverage, so
   these skip with an explicit reason there and run wherever the tools
   are installed.
"""

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    FLAG_MATRIX_FILES,
    render_text,
    run_lint,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


# ----------------------------------------------------------------------
# 1. The lint gate proper
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def src_lint():
    """One lint run over src/, shared by the two gate tests below."""
    return run_lint([SRC])


def test_source_tree_lints_clean(src_lint):
    """Zero non-suppressed findings across src/ — the hard gate."""
    result = src_lint
    assert result.files_checked > 50  # the walk really found the tree
    assert result.active == [], (
        "determinism lint must pass on src/:\n" + render_text(result)
    )


def test_every_suppression_is_justified(src_lint):
    """No bare noqa anywhere: each suppression carries its reason.

    (A bare noqa would already fail the gate above via REP000; this
    test states the contract directly and keeps the justification text
    non-trivial.)
    """
    result = src_lint
    for finding in result.suppressed:
        assert len(finding.justification) >= 10, (
            f"{finding.path}:{finding.line}: suppression needs a real "
            f"justification, got {finding.justification!r}"
        )


def test_flag_matrix_files_exist():
    """REP006's evidence files are where the linter expects them."""
    for rel in FLAG_MATRIX_FILES:
        assert (REPO / rel).is_file(), rel


# ----------------------------------------------------------------------
# 2. Injection canaries (the acceptance criteria, literally)
# ----------------------------------------------------------------------
def _lint_with_injection(tmp_path, source_rel, injected):
    """Copy one real source file, append a planted bug, lint the copy."""
    original = REPO / source_rel
    target_dir = tmp_path / Path(source_rel).parent.name
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / Path(source_rel).name
    shutil.copy(original, target)
    with target.open("a", encoding="utf-8") as fh:
        fh.write(injected)
    return run_lint([target])


def test_injected_unseeded_random_fails_gate(tmp_path):
    result = _lint_with_injection(
        tmp_path,
        "src/repro/marketplace/engine.py",
        "\n\ndef _injected_entropy():\n"
        "    return random.random()\n",
    )
    assert any(f.code == "REP001" for f in result.active), (
        "planting random.random() in the engine must trip REP001"
    )


def test_injected_hypot_fails_gate(tmp_path):
    result = _lint_with_injection(
        tmp_path,
        "src/repro/geo/latlon.py",
        "\n\ndef _injected_distance(dx: float, dy: float) -> float:\n"
        "    return math.hypot(dx, dy)\n",
    )
    assert any(f.code == "REP004" for f in result.active), (
        "planting math.hypot in the distance module must trip REP004"
    )


def test_injected_wall_clock_fails_gate(tmp_path):
    result = _lint_with_injection(
        tmp_path,
        "src/repro/marketplace/engine.py",
        "\n\nimport time\n\n"
        "def _injected_stamp():\n"
        "    return time.time()\n",
    )
    assert any(f.code == "REP002" for f in result.active)


def test_injected_unlocked_guarded_attr_fails_gate(tmp_path):
    """The PR 6 bug shape: a limiter whose read path forgot the lock."""
    result = _lint_with_injection(
        tmp_path,
        "src/repro/api/ratelimit.py",
        "\n\nclass _InjectedSplitLimiter:\n"
        "    def __init__(self) -> None:\n"
        "        self._histories: Dict[str, Deque[float]] = {}"
        "  # guarded-by: _lock\n"
        "        self._lock = threading.Lock()\n"
        "\n"
        "    def check(self, account: str, now: float) -> None:\n"
        "        with self._lock:\n"
        "            self._histories.setdefault(account, deque())"
        ".append(now)\n"
        "\n"
        "    def remaining(self, account: str) -> int:\n"
        "        return len(self._histories.get(account, ()))\n",
    )
    assert any(f.code == "REP101" for f in result.active), (
        "an unlocked read of a guarded-by attribute must trip REP101"
    )


def test_injected_weak_task_reference_fails_gate(tmp_path):
    """The PR 7 bug shape: a drain task spawned without a strong ref."""
    result = _lint_with_injection(
        tmp_path,
        "src/repro/service/rounds.py",
        "\n\nasync def _injected_schedule(accumulator:"
        " RoundAccumulator) -> None:\n"
        "    loop = asyncio.get_running_loop()\n"
        "    loop.create_task(accumulator._drain())\n",
    )
    assert any(f.code == "REP102" for f in result.active), (
        "a create_task whose result is dropped must trip REP102"
    )


def test_injected_blocking_call_in_async_fails_gate(tmp_path):
    """A time.sleep on the event loop in the service layer."""
    result = _lint_with_injection(
        tmp_path,
        "src/repro/service/rounds.py",
        "\n\nimport time\n\n"
        "async def _injected_wait(window_s: float) -> None:\n"
        "    time.sleep(window_s)\n",
    )
    assert any(f.code == "REP103" for f in result.active), (
        "a blocking sleep inside async service code must trip REP103"
    )


# ----------------------------------------------------------------------
# 3. Tool gates: skip-with-reason on the bare image
# ----------------------------------------------------------------------
def _have(module):
    return importlib.util.find_spec(module) is not None


@pytest.mark.skipif(
    not _have("mypy"),
    reason="mypy not installed on this image; strict typing gate runs "
           "wherever the tool is available (see pyproject [tool.mypy])",
)
def test_mypy_strict_on_contract_packages():
    proc = subprocess.run(
        [sys.executable, "-m", "mypy",
         "-p", "repro.marketplace", "-p", "repro.geo",
         "-p", "repro.parallel", "-p", "repro.service",
         "-p", "repro.devtools"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, (
        "strict mypy must pass on repro.marketplace + repro.geo "
        "+ repro.parallel + repro.service + repro.devtools:\n"
        + proc.stdout + proc.stderr
    )


@pytest.mark.skipif(
    not _have("coverage"),
    reason="coverage not installed on this image; the PR 2 coverage "
           "gate (fail_under=90 on repro.marketplace) runs wherever "
           "the tool is available (`make coverage`)",
)
def test_coverage_tool_reads_gate_config():
    proc = subprocess.run(
        [sys.executable, "-m", "coverage", "debug", "config"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fail_under" in proc.stdout
    assert "90" in proc.stdout


def test_coverage_gate_config_is_committed():
    """The pyproject coverage gate stays intact even without the tool."""
    try:
        import tomllib
    except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
        pytest.skip("tomllib unavailable to parse pyproject")
    config = tomllib.loads(
        (REPO / "pyproject.toml").read_text(encoding="utf-8")
    )
    assert config["tool"]["coverage"]["report"]["fail_under"] == 90
    assert "src/repro/marketplace" in (
        config["tool"]["coverage"]["run"]["source"]
    )
    # The mypy strict scope is committed alongside it.
    overrides = config["tool"]["mypy"]["overrides"]
    strict = [o for o in overrides
              if "repro.marketplace.*" in o["module"]]
    assert strict and strict[0]["disallow_untyped_defs"] is True
    assert "repro.geo.*" in strict[0]["module"]
    assert "repro.parallel.*" in strict[0]["module"]
    assert "repro.service.*" in strict[0]["module"]
    assert "repro.devtools.*" in strict[0]["module"]
