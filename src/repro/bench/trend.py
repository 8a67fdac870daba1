"""Cross-PR regression tracking over committed benchmark history.

The per-PR speed scoreboard: load every normalized results file
committed under ``results/`` (one baseline record per
``(benchmark, case, host_class)``, which
:func:`repro.bench.schema.load_history` enforces), diff a current run
against it, render
a trend report (text table and/or JSON) and **fail loudly** — nonzero
exit status, offending benchmarks named — when a case got slower than
the tolerance allows.

Tolerance is two-sided on purpose: a *relative* band (default ±25 %,
matching the ~20–30 % run-to-run noise EXPERIMENTS.md documents for the
1-CPU container) and an *absolute floor* (default 50 µs) below which a
difference is never a verdict — microsecond-scale kernels on a shared
core jitter by more than their own cost.  Both knobs are CLI-exposed so
a quiet many-core host can tighten them.

Baselines are matched by :func:`repro.bench.env.host_class` — an
``x86_64-1cpu`` container never diffs against a 12-core Xeon's history.
"""

from __future__ import annotations

import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.bench.env import host_class_of
from repro.bench.schema import load_history

__all__ = [
    "TrendResult",
    "Comparison",
    "compare",
    "render_text",
    "render_json",
    "EXIT_OK",
    "EXIT_REGRESSION",
]

#: Exit codes of ``repro-bench trend`` (and :func:`repro.bench.cli.main`).
EXIT_OK = 0
EXIT_REGRESSION = 3

DEFAULT_TOLERANCE = 0.25
DEFAULT_ABS_FLOOR_S = 5e-5


def _median(record: dict) -> float:
    return float(record["timing"]["median_s"])


def _key(record: dict) -> tuple[str, str, str]:
    return (
        record["benchmark"],
        record["case"],
        host_class_of(record.get("host", {})),
    )


def _rev_label(record: dict) -> str:
    rev = record.get("host", {}).get("git_rev") or "unknown"
    label = rev[:10]
    if record.get("host", {}).get("git_dirty"):
        label += "+dirty"
    return label


@dataclass(frozen=True)
class Comparison:
    """One case diffed against its baseline."""

    benchmark: str
    case: str
    host_class: str
    current_s: float
    baseline_s: float | None
    baseline_rev: str | None
    baseline_file: str | None
    ratio: float | None
    status: str  # "regression" | "improvement" | "ok" | "no-baseline"


@dataclass
class TrendResult:
    """Outcome of one trend evaluation."""

    comparisons: list[Comparison] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S

    @property
    def regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.status == "regression"]

    @property
    def improvements(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.status == "improvement"]

    @property
    def exit_code(self) -> int:
        return EXIT_REGRESSION if self.regressions else EXIT_OK


def select_baselines(
    history: Sequence[dict],
) -> dict[tuple[str, str, str], dict]:
    """Baseline record per (benchmark, case, host_class).

    History holds one record per key (:func:`repro.bench.schema.load_history`
    rejects duplicates), so the baseline is that record.
    """
    return {_key(record): record for record in history}


def compare(
    current: Sequence[dict],
    history: Sequence[dict],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> TrendResult:
    """Diff current records against history baselines.

    A case is a **regression** when its median exceeds the baseline by
    more than ``tolerance`` relatively *and* ``abs_floor_s`` absolutely;
    an **improvement** mirrors that on the fast side; everything in the
    band is **ok**.  Cases with no same-host-class baseline are reported
    as ``no-baseline`` (informational, never failing).
    """
    baselines = select_baselines(history)
    result = TrendResult(
        tolerance=float(tolerance), abs_floor_s=float(abs_floor_s)
    )
    for record in current:
        key = _key(record)
        cur = _median(record)
        base = baselines.get(key)
        if base is None:
            result.comparisons.append(Comparison(
                benchmark=key[0], case=key[1], host_class=key[2],
                current_s=cur, baseline_s=None, baseline_rev=None,
                baseline_file=None, ratio=None, status="no-baseline",
            ))
            continue
        base_s = _median(base)
        ratio = cur / base_s if base_s > 0 else float("inf")
        delta = cur - base_s
        if delta > abs_floor_s and (base_s <= 0 or ratio > 1.0 + tolerance):
            status = "regression"
        elif -delta > abs_floor_s and base_s > 0 and ratio < 1.0 - tolerance:
            status = "improvement"
        else:
            status = "ok"
        result.comparisons.append(Comparison(
            benchmark=key[0], case=key[1], host_class=key[2],
            current_s=cur, baseline_s=base_s,
            baseline_rev=_rev_label(base),
            baseline_file=base.get("context", {}).get("file"),
            ratio=ratio, status=status,
        ))
    return result


def evaluate(
    current: Sequence[dict],
    results_dir: str,
    *,
    exclude_files: Sequence[str] = (),
    tolerance: float = DEFAULT_TOLERANCE,
    abs_floor_s: float = DEFAULT_ABS_FLOOR_S,
) -> TrendResult:
    """:func:`compare` against the history committed in ``results_dir``."""
    history = load_history(results_dir, exclude=exclude_files)
    return compare(
        current, history, tolerance=tolerance, abs_floor_s=abs_floor_s
    )


_STATUS_MARK = {
    "regression": "REGRESSION",
    "improvement": "improved",
    "ok": "ok",
    "no-baseline": "no-baseline",
}


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def render_text(result: TrendResult, out=None) -> None:
    """Human trend report: one row per case, regressions summarized last."""
    out = out or sys.stdout
    header = ["benchmark", "case", "host-class", "baseline", "current",
              "ratio", "status", "baseline-rev"]
    rows = []
    for c in sorted(result.comparisons,
                    key=lambda c: (c.benchmark, c.case)):
        rows.append([
            c.benchmark,
            c.case,
            c.host_class,
            _fmt_seconds(c.baseline_s),
            _fmt_seconds(c.current_s),
            f"{c.ratio:.2f}x" if c.ratio is not None else "-",
            _STATUS_MARK[c.status],
            c.baseline_rev or "-",
        ])
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows
        else len(header[i])
        for i in range(len(header))
    ]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)), file=out)
    print("  ".join("-" * w for w in widths), file=out)
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)), file=out)
    print(
        f"\n{len(result.comparisons)} case(s): "
        f"{len(result.regressions)} regression(s), "
        f"{len(result.improvements)} improvement(s), "
        f"{sum(1 for c in result.comparisons if c.status == 'no-baseline')} "
        f"without baseline "
        f"(tolerance={result.tolerance:.0%}, "
        f"floor={_fmt_seconds(result.abs_floor_s)})",
        file=out,
    )
    if result.regressions:
        names = sorted({f"{c.benchmark}:{c.case}" for c in result.regressions})
        print("REGRESSED: " + ", ".join(names), file=out)


def render_json(result: TrendResult) -> dict:
    """Machine-readable trend report (the text table's exact content)."""
    return {
        "kind": "repro-bench-trend",
        "tolerance": result.tolerance,
        "abs_floor_s": result.abs_floor_s,
        "exit_code": result.exit_code,
        "regressions": [f"{c.benchmark}:{c.case}" for c in result.regressions],
        "comparisons": [
            {
                "benchmark": c.benchmark,
                "case": c.case,
                "host_class": c.host_class,
                "current_s": c.current_s,
                "baseline_s": c.baseline_s,
                "baseline_rev": c.baseline_rev,
                "baseline_file": c.baseline_file,
                "ratio": c.ratio,
                "status": c.status,
            }
            for c in result.comparisons
        ],
    }


def save_json(result: TrendResult, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(render_json(result), fh, indent=1)
        fh.write("\n")
    return path
