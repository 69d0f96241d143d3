"""Tests for the command-line interface."""

import hashlib

import pytest

from repro.cli import build_parser, main

#: ``repro analyze`` stdout on the log of ``test_measure_then_analyze``
#: (Manhattan, seed 2015, 0.25 h at 30 s pings after 0.5 h of warm-up),
#: and the sha256 of ``repro analyze --full`` stdout on it.  A change to
#: the campaign runner or to the audit that moves one byte fails here.
ANALYZE_SUMMARY = """\
campaign: manhattan, 30 rounds, 42 clients, 30 s pings
supply/5min: mean 18.0, max 18
demand/5min: mean 3.0, max 3 (upper bound)
surge: active 18% of samples, mean x1.05, max x1.4
surge episodes: 27, median 3.5 min
jitter events detected: 3
"""
ANALYZE_FULL_SHA256 = (
    "7b91c9cf67c42be6aa88460caf844fcde0c507516ef1fe3c5943bf3478e631ee"
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_measure_defaults(self):
        args = build_parser().parse_args(
            ["measure", "--out", "x.jsonl"]
        )
        assert args.city == "manhattan"
        assert args.hours == 2.0
        assert args.func.__name__ == "cmd_measure"

    def test_rejects_unknown_city(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["measure", "--city", "tokyo", "--out", "x"]
            )

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["measure", "--hours", "0"], "--hours"),
            (["measure", "--warmup-hours", "-1"], "--warmup-hours"),
            (["measure", "--ping-interval", "0"], "--ping-interval"),
            (["measure", "--jitter", "1.5"], "--jitter"),
            (["measure", "--seeds", "1,2", "--jobs", "-3"], "--jobs"),
            (["measure", "--seeds", "1,x"], "--seeds"),
            (["measure", "--max-attempts", "0",
              "--workers", "127.0.0.1:9"], "--max-attempts"),
            (["measure", "--spec-timeout", "-1",
              "--workers", "127.0.0.1:9"], "--spec-timeout"),
            (["worker", "--jobs", "0", "--listen", "127.0.0.1:9"],
             "--jobs"),
            (["worker", "--listen", "nohost"], "--listen"),
            (["worker", "--listen", "127.0.0.1:70000"], "--listen"),
            (["measure", "--workers", "bad"], "--workers"),
            (["measure", "--workers", "127.0.0.1:9,127.0.0.1:70000"],
             "--workers"),
            (["validate", "--cabs", "0"], "--cabs"),
            (["validate", "--hours", "-2"], "--hours"),
            (["validate", "--ping-interval", "0"], "--ping-interval"),
            (["tracestats", "--cabs", "-5"], "--cabs"),
            (["tracestats", "--days", "-1"], "--days"),
            (["tracestats", "--max-rows", "0"], "--max-rows"),
            (["surgemap", "--hour", "-3"], "--hour"),
            (["calibrate", "--hour", "nan"], "--hour"),
            (["serve", "--hour", "-1"], "--hour"),
            (["serve", "--jitter", "-0.1"], "--jitter"),
            (["serve", "--port", "65536"], "--port"),
            (["serve", "--rate-limit", "0"], "--rate-limit"),
            (["serve", "--coalesce-ms", "inf"], "--coalesce-ms"),
        ],
        ids=[
            "hours-zero", "warmup-negative", "ping-interval-zero",
            "jitter-above-one", "jobs-negative", "seeds-not-integers",
            "max-attempts-zero", "spec-timeout-negative",
            "worker-jobs-zero", "worker-listen-no-port",
            "worker-listen-port-above-65535", "workers-no-port",
            "workers-port-above-65535", "validate-cabs-zero",
            "validate-hours-negative", "validate-ping-interval-zero",
            "tracestats-cabs-negative", "tracestats-days-negative",
            "tracestats-max-rows-zero", "surgemap-hour-negative",
            "calibrate-hour-nan", "serve-hour-negative",
            "serve-jitter-negative", "serve-port-above-65535",
            "serve-rate-limit-zero", "serve-coalesce-infinite",
        ],
    )
    def test_malformed_numbers_are_usage_errors(self, argv, flag, capsys):
        """Out-of-range or unparsable numbers, ports included, stop at
        the parser with a usage error naming the flag (exit 2) — never
        a traceback from deep inside a campaign, and never a silently
        clamped run."""
        if argv[0] == "measure":
            argv = argv + ["--out", "x.jsonl"]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["calibrate", "--bogus", "x"],
            ["measure", "--out", "x.jsonl", "--bogus"],
            ["tracestats", "a.csv", "b.csv"],
        ],
        ids=["calibrate", "measure", "tracestats-extra-positional"],
    )
    def test_unknown_arguments_are_usage_errors(self, argv, capsys):
        """Only `lint` hands the rest of its command line on (to
        repro.devtools.lint); every other subcommand rejects what it
        does not know before doing any work."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: " in capsys.readouterr().err

    def test_worker_requires_listen(self, capsys):
        """A worker only listens: without --listen it stops at the
        parser before binding anything."""
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2
        assert "required: --listen" in capsys.readouterr().err

    def test_serve_defaults_parse(self):
        args = build_parser().parse_args(["serve"])
        assert (args.city, args.hour, args.seed, args.jitter) == (
            "sf", 9.0, 2015, 0.25
        )
        assert args.coalesce_ms == 2.0

    def test_serve_edge_values_parse(self):
        """Port 0 asks for an ephemeral port and hour 0 skips the
        warm-up; both stay accepted."""
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--hour", "0", "--coalesce-ms", "0"]
        )
        assert (args.port, args.hour, args.coalesce_ms) == (0, 0.0, 0.0)


class TestEndToEnd:
    def test_measure_then_analyze(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        rc = main([
            "measure", "--city", "manhattan",
            "--hours", "0.25", "--warmup-hours", "0.5",
            "--ping-interval", "30", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "rounds" in captured.out

        rc = main(["analyze", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ANALYZE_SUMMARY

        rc = main(["analyze", "--full", str(out)])
        assert rc == 0
        full = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(full).hexdigest() == ANALYZE_FULL_SHA256

    def test_measure_multi_seed_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        rc = main([
            "measure", "--city", "manhattan",
            "--hours", "0.05", "--warmup-hours", "0",
            "--seeds", "3,4", "--jobs", "2", "--out", str(out),
        ])
        assert rc == 0
        assert (tmp_path / "sweep.s3.jsonl").exists()
        assert (tmp_path / "sweep.s4.jsonl").exists()
        captured = capsys.readouterr()
        assert "manhattan-s3" in captured.out
        assert "manhattan-s4" in captured.out

    def test_measure_sweep_reports_failures(self, tmp_path, capsys,
                                            monkeypatch):
        # Duplicate seeds are a spec error the CLI must reject early.
        with pytest.raises(SystemExit):
            main([
                "measure", "--seeds", "3,3", "--jobs", "2",
                "--out", str(tmp_path / "x.jsonl"),
            ])

    def test_calibrate(self, capsys):
        rc = main(["calibrate", "--city", "manhattan", "--hour", "1"])
        captured = capsys.readouterr()
        # Either a radius was measured or the quiet hour had no cars;
        # both are legitimate outcomes the command must report cleanly.
        assert rc in (0, 1)
        assert captured.out


class TestTraceStats:
    def test_synthetic_summary(self, capsys):
        from repro.cli import main
        rc = main(["tracestats", "--cabs", "30", "--days", "1.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "synthetic trace:" in out
        assert "medallions" in out

    def test_tlc_file(self, tmp_path, capsys):
        from repro.cli import main
        header = (
            "medallion,hack_license,vendor_id,rate_code,"
            "store_and_fwd_flag,pickup_datetime,dropoff_datetime,"
            "passenger_count,trip_time_in_secs,trip_distance,"
            "pickup_longitude,pickup_latitude,dropoff_longitude,"
            "dropoff_latitude"
        )
        row = (
            "M1,H,V,1,N,2013-04-04 08:00:00,2013-04-04 08:10:00,1,600,"
            "1.2,-73.985,40.755,-73.98,40.76"
        )
        path = tmp_path / "trip_data.csv"
        path.write_text(header + "\n" + row + "\n")
        rc = main(["tracestats", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tlc trace:" in out


class TestSurgeMapCommand:
    def test_renders(self, capsys):
        from repro.cli import main
        rc = main(["surgemap", "--city", "manhattan", "--hour", "0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "surge map" in out
        assert "area 0" in out


class TestLintCommand:
    """The `repro lint` subcommand (determinism + concurrency passes)."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(
            "import random\n\n\n"
            "def make(seed: int) -> random.Random:\n"
            "    return random.Random(seed)\n"
        )
        rc = main(["lint", str(clean)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_findings_exit_nonzero_with_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import random\n\n\n"
            "def roll() -> float:\n"
            "    return random.random()\n"
        )
        rc = main(["lint", str(dirty)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "dirty.py:5" in out

    def test_json_report(self, tmp_path, capsys):
        import json as jsonlib

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n\n\n"
            "def stamp() -> float:\n"
            "    return time.time()\n"
        )
        rc = main(["lint", "--format", "json", str(dirty)])
        assert rc == 1
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        codes = [f["code"] for f in payload["findings"]]
        assert codes == ["REP002"]

    def test_missing_path_exits_two(self, capsys):
        rc = main(["lint", "definitely/not/a/path.py"])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_repo_source_tree_is_clean_via_cli(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        rc = main(["lint", str(src)])
        assert rc == 0
        assert "0 findings" in capsys.readouterr().out

    def test_sarif_report(self, tmp_path, capsys):
        import json as jsonlib

        dirty = tmp_path / "dirty.py"
        dirty.write_text(
            "import time\n\n\n"
            "def stamp() -> float:\n"
            "    return time.time()\n"
        )
        rc = main(["lint", "--format", "sarif", str(dirty)])
        assert rc == 1
        payload = jsonlib.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"REP001", "REP101", "REP105"} <= rule_ids
        results = run["results"]
        assert [r["ruleId"] for r in results] == ["REP002"]
        assert results[0]["level"] == "error"
        region = results[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 5

    def test_sarif_suppressed_finding_carries_justification(
        self, tmp_path, capsys
    ):
        import json as jsonlib

        justified = tmp_path / "justified.py"
        justified.write_text(
            "import math\n\n\n"
            "def d(a: float, b: float) -> float:\n"
            "    return math.hypot(a, b)"
            "  # repro: noqa=REP004 -- exercising sarif suppression\n"
        )
        rc = main(["lint", "--format", "sarif", str(justified)])
        assert rc == 0
        payload = jsonlib.loads(capsys.readouterr().out)
        results = payload["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["level"] == "note"
        assert results[0]["suppressions"][0]["kind"] == "inSource"
        assert "sarif" in results[0]["suppressions"][0]["justification"]

    def test_output_writes_report_to_file(self, tmp_path, capsys):
        import json as jsonlib

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        out_file = tmp_path / "report.sarif"
        rc = main([
            "lint", "--format", "sarif",
            "--output", str(out_file), str(clean),
        ])
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = jsonlib.loads(out_file.read_text())
        assert payload["runs"][0]["results"] == []

    def test_explain_prints_rule_entry(self, capsys):
        rc = main(["lint", "--explain", "REP102"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "REP102" in out
        assert "weak" in out.lower()

    def test_explain_unknown_code_exits_two(self, capsys):
        rc = main(["lint", "--explain", "REP999"])
        assert rc == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_help_lists_the_lint_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro lint")
        assert "--show-suppressed" in out and "--explain" in out

    def test_concurrency_finding_via_cli(self, tmp_path, capsys):
        dirty = tmp_path / "spawn.py"
        dirty.write_text(
            "import asyncio\n\n\n"
            "async def go(worker) -> None:\n"
            "    asyncio.create_task(worker())\n"
        )
        rc = main(["lint", str(dirty)])
        assert rc == 1
        assert "REP102" in capsys.readouterr().out
