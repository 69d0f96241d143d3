"""The lint driver: file discovery, suppressions, reporting.

Every run applies both analysis passes: the determinism rules
(REP001-REP006, ``repro.devtools.rules``) and the concurrency/async
hazard rules (REP101-REP103 and REP105, ``repro.devtools.concurrency``).
One command line, :func:`run_cli`, serves both ways of starting it::

    repro lint src/                       # CLI subcommand
    python -m repro.devtools.lint src/    # module entry point (make lint)
    run_lint(["src"])                     # library API (the tier-1 gate)

Reports come as text, ``--format json``, or ``--format sarif`` (SARIF
2.1.0, uploaded by CI so findings annotate PRs inline); ``--explain
REPxxx`` prints a rule's catalogue entry from
``docs/static_analysis.md``.

Suppressions are inline comments on the reported line::

    x = math.hypot(a, b)  # repro: noqa=REP004 -- circular stats, no numpy mirror

The justification after ``--`` is mandatory: a bare ``# repro:
noqa=REP004`` does *not* suppress and additionally reports REP000, so
every silenced finding carries a written reason in the source.  A
suppression that matches no finding also reports REP000 (stale noqa).
Multiple codes may be listed comma-separated.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Type

from repro.devtools.concurrency import (
    CONCURRENCY_CODE_SUMMARIES,
    CONCURRENCY_RULES,
)
from repro.devtools.rules import (
    ALL_RULES,
    CODE_SUMMARIES,
    META_CODE,
    ModuleContext,
    ProjectContext,
    Rule,
)

#: Both analysis passes, in code order: determinism (REP001-REP006) +
#: concurrency (REP101-REP103, REP105).
ALL_LINT_RULES: List[Type[Rule]] = list(ALL_RULES) + list(
    CONCURRENCY_RULES
)

#: code -> one-line summary across both passes (REP000 included).
ALL_CODE_SUMMARIES: Dict[str, str] = dict(CODE_SUMMARIES)
ALL_CODE_SUMMARIES.update(CONCURRENCY_CODE_SUMMARIES)

#: Files whose text constitutes the flag-matrix equivalence evidence for
#: REP006, relative to the project root (the directory with pyproject.toml).
FLAG_MATRIX_FILES = (
    "tests/test_perf_regression.py",
    "benchmarks/bench_perf_engine.py",
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*noqa\s*=\s*"
    r"(?P<codes>REP\d{3}(?:\s*,\s*REP\d{3})*)"
    r"(?:\s*--\s*(?P<why>\S.*?))?\s*$"
)

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".hypothesis"}


@dataclass(frozen=True)
class Finding:
    """One lint finding, after suppression handling."""

    path: str
    line: int
    col: int
    code: str
    message: str
    suppressed: bool = False
    justification: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: " \
               f"{self.code} {self.message}"
        if self.suppressed:
            text += f"  [suppressed: {self.justification}]"
        return text

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "suppressed": self.suppressed,
            "justification": self.justification,
        }


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def active(self) -> List[Finding]:
        """Findings that are not justified-suppressed (these gate CI)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]


@dataclass
class _Suppression:
    codes: List[str]
    justification: str
    line: int
    #: Codes that actually matched a finding — tracked per code so a
    #: comma-list like ``noqa=REP004,REP002`` where only REP004 fires
    #: still reports the stale REP002 by name.
    used_codes: Set[str] = field(default_factory=set)


def _parse_suppressions(source: str) -> Dict[int, _Suppression]:
    """Map line number -> suppression for every noqa comment."""
    out: Dict[int, _Suppression] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if match is None:
                continue
            codes = [
                c.strip() for c in match.group("codes").split(",")
            ]
            out[tok.start[0]] = _Suppression(
                codes=codes,
                justification=(match.group("why") or "").strip(),
                line=tok.start[0],
            )
    except tokenize.TokenizeError:
        pass  # the ast parse will report the file as unparseable
    return out


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Every .py file under *paths*, sorted for stable output."""
    files: List[Path] = []
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                parts = set(sub.parts)
                if parts & _SKIP_DIR_NAMES:
                    continue
                if any(p.endswith(".egg-info") for p in sub.parts):
                    continue
                files.append(sub)
    return sorted(set(files))


def find_project_root(start: Path) -> Optional[Path]:
    """The nearest directory at or above *start* with a pyproject.toml."""
    probe = start.resolve()
    if probe.is_file():
        probe = probe.parent
    for candidate in [probe, *probe.parents]:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def read_flag_matrix_text(root: Optional[Path]) -> Optional[str]:
    """Concatenated flag-matrix test text of the project at *root*."""
    if root is None:
        return None
    chunks = [
        (root / rel).read_text(encoding="utf-8")
        for rel in FLAG_MATRIX_FILES
        if (root / rel).is_file()
    ]
    return "\n".join(chunks) if chunks else None


def lint_file(path: Path, project: ProjectContext) -> List[Finding]:
    """Lint one file; suppression handling included."""
    display = str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(
                path=display,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=META_CODE,
                message=f"could not parse file: {exc.msg}",
            )
        ]

    module = ModuleContext(
        display_path=display,
        path_parts=path.resolve().parts,
        tree=tree,
        source=source,
        project=project,
    )
    suppressions = _parse_suppressions(source)
    findings: List[Finding] = []
    for rule in (r() for r in ALL_LINT_RULES):
        for raw in rule.check(module):
            sup = suppressions.get(raw.line)
            if sup is not None and rule.code in sup.codes:
                sup.used_codes.add(rule.code)
                if sup.justification:
                    findings.append(
                        Finding(
                            path=display,
                            line=raw.line,
                            col=raw.col,
                            code=rule.code,
                            message=raw.message,
                            suppressed=True,
                            justification=sup.justification,
                        )
                    )
                    continue
                findings.append(
                    Finding(
                        path=display,
                        line=sup.line,
                        col=0,
                        code=META_CODE,
                        message=(
                            f"suppression of {rule.code} lacks a "
                            "justification; write `# repro: "
                            f"noqa={rule.code} -- <reason>`"
                        ),
                    )
                )
            findings.append(
                Finding(
                    path=display,
                    line=raw.line,
                    col=raw.col,
                    code=rule.code,
                    message=raw.message,
                )
            )
    for sup in suppressions.values():
        stale = [code for code in sup.codes if code not in sup.used_codes]
        for code in stale:
            findings.append(
                Finding(
                    path=display,
                    line=sup.line,
                    col=0,
                    code=META_CODE,
                    message=(
                        f"suppression of {code} matches no {code} "
                        "finding on this line; remove the stale noqa "
                        "code"
                    ),
                )
            )
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def run_lint(
    paths: Sequence[object],
    flag_matrix_text: Optional[str] = "auto",
) -> LintResult:
    """Lint every .py file under *paths* with both passes.

    *flag_matrix_text* is ``"auto"`` (discover the project's matrix test
    files by walking up to pyproject.toml; each project's files are
    read once per call), ``None`` (REP006 skips its matrix check), or
    explicit text.
    """
    roots = [Path(p) for p in paths]
    files = iter_python_files(roots)
    result = LintResult()
    projects: Dict[Optional[Path], ProjectContext] = {}
    for path in files:
        if flag_matrix_text == "auto":
            root = find_project_root(path)
            if root not in projects:
                projects[root] = ProjectContext(
                    flag_matrix_text=read_flag_matrix_text(root)
                )
            project = projects[root]
        else:
            project = ProjectContext(flag_matrix_text=flag_matrix_text)
        result.findings.extend(lint_file(path, project))
        result.files_checked += 1
    return result


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    lines = [f.render() for f in result.active]
    if show_suppressed:
        lines.extend(f.render() for f in result.suppressed)
    lines.append(
        f"{result.files_checked} files checked: "
        f"{len(result.active)} findings, "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "files_checked": result.files_checked,
        "findings": [f.as_dict() for f in result.active],
        "suppressed": [f.as_dict() for f in result.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 report (``repro lint --format sarif``).

    Suppressed findings are emitted at level ``note`` with an
    ``inSource`` suppression object carrying the written justification,
    so code-scanning UIs show them greyed-out instead of losing them.
    """
    rules_meta = [
        {
            "id": code,
            "name": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {
                "level": "note" if code == META_CODE else "error"
            },
        }
        for code, summary in sorted(ALL_CODE_SUMMARIES.items())
    ]
    results = []
    for finding in result.findings:
        entry: Dict[str, object] = {
            "ruleId": finding.code,
            "level": "note" if finding.suppressed else "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if finding.suppressed:
            entry["suppressions"] = [
                {
                    "kind": "inSource",
                    "justification": finding.justification,
                }
            ]
        results.append(entry)
    payload = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "docs/static_analysis.md"
                        ),
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# --explain: rule documentation lookup
# ----------------------------------------------------------------------
def _docs_path() -> Optional[Path]:
    """Locate docs/static_analysis.md: cwd-upwards first (the checkout
    being linted), then relative to this file (installed layout)."""
    candidates = [Path.cwd(), *Path.cwd().parents]
    here = Path(__file__).resolve()
    candidates.extend(here.parents)
    for root in candidates:
        doc = root / "docs" / "static_analysis.md"
        if doc.is_file():
            return doc
    return None


def explain_rule(code: str) -> Optional[str]:
    """The rule's catalogue entry from docs/static_analysis.md, or the
    registry one-liner when the docs are not on disk; ``None`` for an
    unknown code."""
    if code not in ALL_CODE_SUMMARIES:
        return None
    doc = _docs_path()
    if doc is not None:
        text = doc.read_text(encoding="utf-8")
        pattern = re.compile(
            rf"^###\s+{code}\b.*?(?=^###\s+REP\d{{3}}|^##\s|\Z)",
            re.MULTILINE | re.DOTALL,
        )
        match = pattern.search(text)
        if match is not None:
            return match.group(0).rstrip()
    return f"{code}: {ALL_CODE_SUMMARIES[code]}"


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    """The lint command line: ``repro lint`` and
    ``python -m repro.devtools.lint`` both run it."""
    prog = "repro lint"
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Static analysis: determinism (REP001-REP006) and "
            "concurrency/async hazards (REP101-REP103, REP105)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also list justified-suppressed findings in text output",
    )
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print the documentation entry for a rule code and exit",
    )
    args = parser.parse_args(argv)

    if args.explain:
        entry = explain_rule(args.explain.upper())
        if entry is None:
            known = ", ".join(sorted(ALL_CODE_SUMMARIES))
            print(
                f"{prog}: unknown rule code {args.explain!r} "
                f"(known: {known})",
                file=sys.stderr,
            )
            return 2
        print(entry)
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"{prog}: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    result = run_lint(args.paths)
    if args.fmt == "json":
        report = render_json(result)
    elif args.fmt == "sarif":
        report = render_sarif(result)
    else:
        report = render_text(
            result, show_suppressed=args.show_suppressed
        )
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 1 if result.active else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(run_cli())
