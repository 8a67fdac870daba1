"""Driver for the parallel-hazard lint: file collection, suppression
handling, and text/JSON rendering.

The rules themselves live in :mod:`repro.analysis.rules`; this module turns
their :class:`~repro.analysis.rules.base.RawFinding` hits into
:class:`Finding` records with severity, hint, and ``# repro:
ignore[RAxxx]`` suppression applied, and renders them for humans (text) or
CI (JSON + exit code).

Suppression syntax
------------------
A comment of the form ``# repro: ignore[RA001]`` (comma-separated list
allowed: ``ignore[RA001, RA003]``) on the flagged line **or the line
directly above it** suppresses matching findings.  Suppressed findings are
retained (``suppressed=True``) so the CLI can report them with ``-v`` and
tests can assert a suppression actually matched something.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.callgraph import Project
from repro.analysis.rules import ALL_RULES, PROJECT_RULES, ProjectRule, Rule

__all__ = [
    "Finding",
    "collect_files",
    "lint_file",
    "lint_paths",
    "lint_project",
    "render_text",
    "render_json",
]

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Finding:
    """One lint hit, post-suppression."""

    rule: str
    severity: str  # "error" | "warning"
    path: str
    line: int
    col: int
    message: str
    hint: str
    suppressed: bool = False


def collect_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            out.extend(
                f for f in sorted(p.rglob("*.py"))
                if "__pycache__" not in f.parts
            )
        elif p.suffix == ".py":
            out.append(p)
    return out


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> rule ids suppressed *at* that line.

    A directive on line N covers findings on line N and line N+1, matching
    the documented "same line or the line above" contract.
    """
    by_line: dict[int, set[str]] = {}
    for i, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        ids = {part.strip() for part in m.group(1).split(",") if part.strip()}
        by_line.setdefault(i, set()).update(ids)
        by_line.setdefault(i + 1, set()).update(ids)
    return by_line


def lint_file(path: str | Path,
              rules: tuple[Rule, ...] = ALL_RULES,
              source: str | None = None) -> list[Finding]:
    """Lint one file.  A syntax error yields a single PARSE error finding
    rather than crashing the whole run."""
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [Finding(
            rule="PARSE", severity="error", path=str(path),
            line=exc.lineno or 0, col=exc.offset or 0,
            message=f"could not parse file: {exc.msg}", hint="",
        )]
    suppressed_at = _suppressions(source)
    findings: list[Finding] = []
    for rule in rules:
        if not rule.applies_to(str(path)):
            continue
        for raw in rule.check(tree, str(path)):
            sup = rule.id in suppressed_at.get(raw.line, ())
            findings.append(Finding(
                rule=rule.id, severity=rule.severity, path=str(path),
                line=raw.line, col=raw.col, message=raw.message,
                hint=rule.hint, suppressed=sup,
            ))
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_project(files: list[Path],
                 project_rules: tuple[ProjectRule, ...] = PROJECT_RULES,
                 sources: dict[str, str] | None = None) -> list[Finding]:
    """Run the project-level (cross-module) rules over ``files``.

    Suppression directives work exactly as for per-file rules: findings
    are anchored to a concrete file/line, and a ``# repro: ignore[RAxxx]``
    on (or directly above) that line suppresses them.
    """
    if not project_rules or not files:
        return []
    project = Project.load(files, sources=sources)
    sup_by_path: dict[str, dict[int, set[str]]] = {}

    def suppressed_at(path: str) -> dict[int, set[str]]:
        if path not in sup_by_path:
            src = (sources or {}).get(path)
            if src is None:
                try:
                    src = Path(path).read_text(encoding="utf-8")
                except OSError:
                    src = ""
            sup_by_path[path] = _suppressions(src)
        return sup_by_path[path]

    findings: list[Finding] = []
    for rule in project_rules:
        for raw in rule.check_project(project):
            sup = rule.id in suppressed_at(raw.path).get(raw.line, ())
            findings.append(Finding(
                rule=rule.id, severity=rule.severity, path=raw.path,
                line=raw.line, col=raw.col, message=raw.message,
                hint=rule.hint, suppressed=sup,
            ))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: list[str | Path],
               rules: tuple[Rule, ...] = ALL_RULES,
               project_rules: tuple[ProjectRule, ...] = PROJECT_RULES,
               cache=None) -> list[Finding]:
    """Lint every ``.py`` file under ``paths``: per-file rules, then the
    project rules over the same file set.

    ``cache`` is an optional :class:`repro.analysis.cache.LintCache`;
    per-file results are reused when a file's content hash is unchanged,
    and the project-rule pass is reused when the whole file set is
    unchanged.  The caller saves the cache.
    """
    files = collect_files(paths)
    sources: dict[str, str] = {}
    for f in files:
        try:
            sources[str(f)] = f.read_text(encoding="utf-8")
        except OSError:
            continue
    files = [f for f in files if str(f) in sources]

    findings: list[Finding] = []
    for f in files:
        src = sources[str(f)]
        if cache is not None:
            hit = cache.get_file(str(f), src)
            if hit is not None:
                findings.extend(hit)
                continue
        per_file = lint_file(f, rules, source=src)
        if cache is not None:
            cache.put_file(str(f), src, per_file)
        findings.extend(per_file)

    if cache is not None:
        digest = cache.project_digest(files, sources)
        hit = cache.get_project(digest)
        if hit is not None:
            findings.extend(hit)
            return findings
        proj = lint_project(files, project_rules, sources=sources)
        cache.put_project(digest, proj)
        findings.extend(proj)
        return findings

    findings.extend(lint_project(files, project_rules, sources=sources))
    return findings


def render_text(findings: list[Finding], *, verbose: bool = False) -> str:
    """Human-readable report: one line per finding plus its fix hint."""
    lines: list[str] = []
    active = [f for f in findings if not f.suppressed]
    for f in active:
        lines.append(
            f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        )
        if f.hint:
            lines.append(f"    hint: {f.hint}")
    if verbose:
        for f in findings:
            if f.suppressed:
                lines.append(
                    f"{f.path}:{f.line}:{f.col}: {f.rule} suppressed: "
                    f"{f.message}"
                )
    n_err = sum(1 for f in active if f.severity == "error")
    n_warn = sum(1 for f in active if f.severity == "warning")
    n_sup = sum(1 for f in findings if f.suppressed)
    lines.append(
        f"{n_err} error(s), {n_warn} warning(s), {n_sup} suppressed"
    )
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """Machine-readable report for CI consumption."""
    active = [f for f in findings if not f.suppressed]
    payload = {
        "findings": [asdict(f) for f in findings],
        "summary": {
            "errors": sum(1 for f in active if f.severity == "error"),
            "warnings": sum(1 for f in active if f.severity == "warning"),
            "suppressed": sum(1 for f in findings if f.suppressed),
        },
    }
    return json.dumps(payload, indent=2)
