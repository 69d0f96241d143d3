"""Per-rule tests for the static analysis passes.

Both series are covered: the determinism rules (REP001-REP006) and the
concurrency/async hazard rules (REP101-REP103, REP105).  Every rule
gets a paired fire / no-fire fixture under ``tests/lint_fixtures/``;
the catalogue in ``docs/static_analysis.md`` and the combined rule
registry must stay in one-to-one correspondence.
"""

import re
from pathlib import Path

import pytest

from repro.devtools.concurrency import CONCURRENCY_RULES
from repro.devtools.lint import (
    ALL_CODE_SUMMARIES,
    ALL_LINT_RULES,
    explain_rule,
    run_lint,
)
from repro.devtools.rules import ALL_RULES, META_CODE

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
DOCS = Path(__file__).resolve().parent.parent / "docs" / "static_analysis.md"

RULE_CODES = [rule.code for rule in ALL_LINT_RULES]


def lint_codes(path):
    """All finding codes for one fixture (suppressed included)."""
    result = run_lint([path])
    return [f.code for f in result.findings]


# ----------------------------------------------------------------------
# Fire / no-fire pairs
# ----------------------------------------------------------------------
FIRE_EXPECTATIONS = {
    # code -> (fixture, minimum number of findings of that code)
    "REP001": ("rep001_fire.py", 6),
    "REP002": ("rep002_fire.py", 5),
    "REP003": ("rep003_fire.py", 2),
    "REP004": ("rep004_fire.py", 3),
    "REP005": ("rep005_fire.py", 5),
    "REP006": ("marketplace/rep006_fire.py", 2),
    "REP101": ("rep101_fire.py", 3),
    "REP102": ("rep102_fire.py", 2),
    "REP103": ("service/rep103_fire.py", 4),
    "REP105": ("rep105_fire.py", 3),
}

OK_FIXTURES = {
    "REP001": "rep001_ok.py",
    "REP002": "rep002_ok.py",
    "REP003": "rep003_ok.py",
    "REP004": "rep004_ok.py",
    "REP005": "rep005_ok.py",
    "REP006": "marketplace/rep006_ok.py",
    "REP101": "rep101_ok.py",
    "REP102": "rep102_ok.py",
    "REP103": "service/rep103_ok.py",
    "REP105": "rep105_ok.py",
}


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_fires_on_fixture(code):
    fixture, minimum = FIRE_EXPECTATIONS[code]
    codes = lint_codes(FIXTURES / fixture)
    assert codes.count(code) >= minimum, (
        f"{fixture} should produce >= {minimum} {code} findings, "
        f"got {codes}"
    )


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_quiet_on_clean_fixture(code):
    fixture = OK_FIXTURES[code]
    result = run_lint([FIXTURES / fixture])
    assert result.findings == [], (
        f"{fixture} should lint clean, got "
        f"{[f.render() for f in result.findings]}"
    )


def test_every_rule_has_both_fixtures():
    for code in RULE_CODES:
        assert code in FIRE_EXPECTATIONS
        assert code in OK_FIXTURES
        assert (FIXTURES / FIRE_EXPECTATIONS[code][0]).is_file()
        assert (FIXTURES / OK_FIXTURES[code]).is_file()


def test_registry_is_both_series_in_order():
    assert RULE_CODES == [r.code for r in ALL_RULES] + [
        r.code for r in CONCURRENCY_RULES
    ]


# ----------------------------------------------------------------------
# Specific rule behaviours worth pinning beyond fire/no-fire
# ----------------------------------------------------------------------
def test_rep001_seeded_constructions_pass(tmp_path):
    f = tmp_path / "seeded.py"
    f.write_text(
        "import random\n"
        "import numpy as np\n"
        "rng = random.Random  # class reference, not a draw\n"
        "def make(seed):\n"
        "    return random.Random(seed), np.random.default_rng(seed)\n"
    )
    assert lint_codes(f) == []


def test_rep002_exempts_benchmarks_paths(tmp_path):
    bench_dir = tmp_path / "benchmarks"
    bench_dir.mkdir()
    f = bench_dir / "bench_thing.py"
    f.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert lint_codes(f) == []
    g = tmp_path / "engine_thing.py"
    g.write_text("import time\n\ndef t():\n    return time.time()\n")
    assert lint_codes(g) == ["REP002"]


def test_rep003_requires_rng_or_log_in_scope(tmp_path):
    f = tmp_path / "noscope.py"
    f.write_text(
        "def count(items):\n"
        "    out = []\n"
        "    for x in set(items):\n"
        "        out.append(x)\n"
        "    return out\n"
    )
    assert lint_codes(f) == []


def test_rep004_pow_half_only_fires_next_to_np_sqrt(tmp_path):
    plain = tmp_path / "plain.py"
    plain.write_text("def norm(x, y):\n    return (x * x + y * y) ** 0.5\n")
    assert lint_codes(plain) == []
    mixed = tmp_path / "mixed.py"
    mixed.write_text(
        "import numpy as np\n"
        "def norm(x, y):\n"
        "    return (x * x + y * y) ** 0.5\n"
        "def anorm(x):\n"
        "    return np.sqrt(x)\n"
    )
    assert lint_codes(mixed) == ["REP004"]


def test_rep006_skips_matrix_check_without_project(tmp_path):
    mp = tmp_path / "marketplace"
    mp.mkdir()
    f = mp / "engine.py"
    # Branched flag, but no pyproject.toml above tmp_path: only the
    # dead-flag half runs, so this is clean even though the flag is not
    # in any matrix file.
    f.write_text(
        "class E:\n"
        "    def __init__(self, use_warp: bool = True) -> None:\n"
        "        self.mode = 1 if use_warp else 0\n"
    )
    assert run_lint([f], flag_matrix_text=None).findings == []
    # With a matrix supplied that lacks the flag, the parity half fires.
    res = run_lint([f], flag_matrix_text="use_spatial_index only here")
    assert [x.code for x in res.findings] == ["REP006"]


def test_rep101_event_loop_guard_requires_async(tmp_path):
    f = tmp_path / "loopstate.py"
    f.write_text(
        "class Acc:\n"
        "    def __init__(self):\n"
        "        self._pending = []  # guarded-by: <event-loop>\n"
        "    async def submit(self, x):\n"
        "        self._pending.append(x)\n"
        "    def peek(self):\n"
        "        return len(self._pending)\n"
    )
    result = run_lint([f])
    assert [x.code for x in result.findings] == ["REP101"]
    assert "async" in result.findings[0].message
    # The async method's access is the one that did NOT fire.
    assert result.findings[0].line == 7


def test_rep101_annotated_method_body_checked_as_if_held(tmp_path):
    f = tmp_path / "heldbody.py"
    f.write_text(
        "import threading\n"
        "class S:\n"
        "    def __init__(self):\n"
        "        self._spend = {}  # guarded-by: _lock\n"
        "        self._lock = threading.Lock()\n"
        "    def _live(self, k):  # guarded-by: _lock\n"
        "        return self._spend.get(k)\n"
        "    def read(self, k):\n"
        "        with self._lock:\n"
        "            return self._live(k)\n"
    )
    assert lint_codes(f) == []


def test_rep102_from_import_name_form_fires(tmp_path):
    f = tmp_path / "spawn.py"
    f.write_text(
        "from asyncio import create_task\n"
        "async def go(worker):\n"
        "    create_task(worker())\n"
    )
    assert lint_codes(f) == ["REP102"]


def test_rep103_only_scopes_service_paths(tmp_path):
    f = tmp_path / "engine.py"
    f.write_text(
        "import time\n"
        "async def poll():\n"
        "    time.sleep(0.1)\n"
    )
    # Not under a service/ directory: REP103 stays quiet (the sleep is
    # still an event-loop stall, but only the service layer's contract
    # demands the async discipline).
    assert lint_codes(f) == []


def test_rep105_submit_on_non_executor_receiver_ignored(tmp_path):
    f = tmp_path / "notpool.py"
    f.write_text(
        "def enqueue(rounds, request):\n"
        "    rounds.submit(request)\n"
    )
    # `rounds.submit` is the service accumulator, not an executor: no
    # future is being dropped.
    assert lint_codes(f) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_with_justification_silences():
    result = run_lint([FIXTURES / "suppression_ok.py"])
    assert result.active == []
    assert [f.code for f in result.suppressed] == ["REP004"]
    assert result.suppressed[0].justification


def test_suppression_without_justification_does_not_silence():
    result = run_lint([FIXTURES / "suppression_fire.py"])
    codes = sorted(f.code for f in result.active)
    assert codes == [META_CODE, "REP004"]
    assert result.suppressed == []


def test_stale_suppression_reports_meta():
    result = run_lint([FIXTURES / "suppression_stale.py"])
    assert [f.code for f in result.active] == [META_CODE]
    assert "stale" in result.active[0].message


def test_stale_suppression_names_each_unused_code(tmp_path):
    f = tmp_path / "partial.py"
    f.write_text(
        "import math\n"
        "def d(a, b):\n"
        "    return math.hypot(a, b)"
        "  # repro: noqa=REP004,REP002 -- hypot is deliberate here\n"
    )
    result = run_lint([f])
    # REP004 matched (and is suppressed); REP002 never fired, so the
    # stale half of the comma list is reported by name.
    assert [x.code for x in result.suppressed] == ["REP004"]
    assert [x.code for x in result.active] == [META_CODE]
    assert "REP002" in result.active[0].message
    assert "REP004" not in result.active[0].message


def test_unparseable_file_reports_meta(tmp_path):
    f = tmp_path / "broken.py"
    f.write_text("def broken(:\n")
    result = run_lint([f])
    assert [x.code for x in result.findings] == [META_CODE]
    assert "parse" in result.findings[0].message


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------
def test_explain_returns_doc_section_for_every_code():
    for code in RULE_CODES + [META_CODE]:
        entry = explain_rule(code)
        assert entry is not None
        assert code in entry


def test_explain_unknown_code_returns_none():
    assert explain_rule("REP999") is None


# ----------------------------------------------------------------------
# Docs <-> registry parity
# ----------------------------------------------------------------------
def test_codes_unique_and_well_formed():
    assert len(set(RULE_CODES)) == len(RULE_CODES)
    for code in RULE_CODES + [META_CODE]:
        assert re.fullmatch(r"REP\d{3}", code)
        assert code in ALL_CODE_SUMMARIES


def test_every_rule_code_is_documented():
    doc = DOCS.read_text(encoding="utf-8")
    documented = set(re.findall(r"### (REP\d{3})", doc))
    implemented = set(RULE_CODES) | {META_CODE}
    assert implemented <= documented, (
        f"rules missing from docs/static_analysis.md: "
        f"{sorted(implemented - documented)}"
    )
    assert documented <= implemented, (
        f"documented codes with no implementation: "
        f"{sorted(documented - implemented)}"
    )
