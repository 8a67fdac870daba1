"""One normalized result schema for every benchmark this repo runs.

Every :mod:`repro.bench.registry` runner emits the **same versioned
record**; :mod:`repro.bench.trend` and the figure tables of
:mod:`repro.bench.figures` consume nothing else.

A record is a plain JSON-able dict::

    {
      "schema_version": 1,
      "benchmark": "fig5",               # registry id
      "case": "N=3/n=1/twostep/T2",      # one measured point
      "params": {"shape": [194,194,194], "rank": 25, "threads": 2, ...},
      "timing": {"mean_s": ..., "median_s": ..., "min_s": ..., "max_s": ...,
                 "std_s": ..., "repeats": 5},
      "counters": {"flops": ..., "bytes_read": ..., "bytes_written": ...,
                   "gemm_calls": ..., "imbalance_max": ..., ...},
      "host": host_fingerprint(),        # incl. git_rev / git_dirty
      "context": {"source": "repro-bench", "scale": 0.002, ...},
      "created_unix": 1754000000.0,
      "phases": {"full_krp": ..., "gemm": ...}   # optional
    }

``timing.median_s`` is the headline number (the paper's MTTKRP protocol);
``counters`` carries the analytic FLOP/byte totals and load-imbalance
captured from :mod:`repro.obs`, which is what makes an
achieved-vs-lower-bound ratio reportable at all.

Result *files* wrap a list of records with a small envelope
(:func:`write_results` / :func:`load_results`); committed history lives
as ``results/<suite>.bench.json``, one baseline record per
``(benchmark, case, host_class)``.
"""

from __future__ import annotations

import json
import os
import time
from collections.abc import Iterable, Sequence

from repro.bench.env import host_class_of, host_fingerprint

__all__ = [
    "SCHEMA_VERSION",
    "RESULTS_SUFFIX",
    "SchemaError",
    "new_record",
    "timing_from_stats",
    "validate_record",
    "validate_results_doc",
    "write_results",
    "load_results",
    "load_history",
]

SCHEMA_VERSION = 1

#: Filename suffix that marks a normalized results file inside ``results/``.
RESULTS_SUFFIX = ".bench.json"

_RESULTS_KIND = "repro-bench-results"

_TIMING_KEYS = ("mean_s", "median_s", "min_s", "max_s", "std_s")


class SchemaError(ValueError):
    """A record or results document violates the normalized schema."""


def timing_from_stats(samples: Sequence[float]) -> dict:
    """Timing-stats dict from raw per-repeat wall times (seconds)."""
    if not samples:
        raise SchemaError("timing needs at least one sample")
    xs = sorted(float(s) for s in samples)
    n = len(xs)
    mean = sum(xs) / n
    mid = n // 2
    median = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    std = (sum((x - mean) ** 2 for x in xs) / n) ** 0.5
    return {
        "mean_s": mean,
        "median_s": median,
        "min_s": xs[0],
        "max_s": xs[-1],
        "std_s": std,
        "repeats": n,
    }


def new_record(
    benchmark: str,
    case: str,
    *,
    timing: dict,
    params: dict | None = None,
    counters: dict | None = None,
    host: dict | None = None,
    context: dict | None = None,
    phases: dict | None = None,
) -> dict:
    """Build one schema-valid record (host fingerprint captured here).

    ``timing`` must contain at least ``median_s``; missing stats are
    filled with ``None`` so consumers can rely on the key set.
    """
    filled = {key: timing.get(key) for key in _TIMING_KEYS}
    filled["repeats"] = timing.get("repeats")
    if filled["median_s"] is None and filled["mean_s"] is not None:
        filled["median_s"] = filled["mean_s"]
    record = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": str(benchmark),
        "case": str(case),
        "params": dict(params or {}),
        "timing": filled,
        "counters": {k: float(v) for k, v in (counters or {}).items()},
        "host": dict(host) if host is not None else host_fingerprint(),
        "context": dict(context or {}),
        "created_unix": time.time(),
    }
    if phases:
        record["phases"] = {k: float(v) for k, v in phases.items()}
    validate_record(record)
    return record


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def validate_record(record: dict) -> dict:
    """Validate one record against the schema; returns it unchanged.

    Raises :class:`SchemaError` naming the offending field — the error
    messages are part of the contract (tests assert on them).
    """
    _require(isinstance(record, dict), "record must be a dict")
    for key in ("schema_version", "benchmark", "case", "params", "timing",
                "counters", "host", "context", "created_unix"):
        _require(key in record, f"record missing required key {key!r}")
    _require(
        record["schema_version"] == SCHEMA_VERSION,
        f"unsupported schema_version {record['schema_version']!r} "
        f"(supported: {SCHEMA_VERSION})",
    )
    for key in ("benchmark", "case"):
        _require(
            isinstance(record[key], str) and record[key],
            f"record[{key!r}] must be a non-empty string",
        )
    for key in ("params", "timing", "counters", "host", "context"):
        _require(isinstance(record[key], dict), f"record[{key!r}] must be a dict")
    timing = record["timing"]
    _require(
        isinstance(timing.get("median_s"), (int, float)),
        "record['timing']['median_s'] must be a number",
    )
    _require(timing["median_s"] >= 0, "record['timing']['median_s'] must be >= 0")
    for key in _TIMING_KEYS:
        value = timing.get(key)
        _require(
            value is None or isinstance(value, (int, float)),
            f"record['timing'][{key!r}] must be a number or null",
        )
    for key, value in record["counters"].items():
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"record['counters'][{key!r}] must be numeric",
        )
    host = record["host"]
    for key in ("cpus", "platform", "python"):
        _require(key in host, f"record['host'] missing key {key!r}")
    _require(
        isinstance(record["created_unix"], (int, float)),
        "record['created_unix'] must be a unix timestamp",
    )
    return record


def validate_results_doc(doc: dict) -> list[dict]:
    """Validate a results-file envelope; returns its records."""
    _require(isinstance(doc, dict), "results document must be a dict")
    _require(
        doc.get("kind") == _RESULTS_KIND,
        f"results document kind must be {_RESULTS_KIND!r}, "
        f"got {doc.get('kind')!r}",
    )
    _require(
        doc.get("schema_version") == SCHEMA_VERSION,
        f"unsupported schema_version {doc.get('schema_version')!r} "
        f"(supported: {SCHEMA_VERSION})",
    )
    records = doc.get("records")
    _require(isinstance(records, list), "results document 'records' must be a list")
    for record in records:
        validate_record(record)
    return records


def write_results(path: str, records: Iterable[dict], *, meta: dict | None = None) -> str:
    """Write records to a normalized results file; returns the path.

    Records are validated first — an invalid record must fail the writer,
    not the eventual trend run that tries to load it.
    """
    records = [validate_record(r) for r in records]
    doc = {
        "kind": _RESULTS_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "meta": dict(meta or {}),
        "records": records,
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return path


def load_results(path: str) -> list[dict]:
    """Load and validate one normalized results file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    try:
        return validate_results_doc(doc)
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def load_history(
    results_dir: str,
    *,
    exclude: Sequence[str] = (),
    strict: bool = False,
) -> list[dict]:
    """All records from every ``*.bench.json`` under ``results_dir``.

    Files that fail validation are skipped with a warning unless
    ``strict`` (history may span schema versions; one bad file must not
    brick the scoreboard).  ``exclude`` removes specific paths — the
    trend CLI uses it so a current-run file is not its own baseline.

    Raises :class:`SchemaError` naming both files when two records share
    a ``(benchmark, case, host_class)`` key: history holds one baseline
    per case and host class, so there is nothing to choose between.
    """
    import warnings

    excluded = {os.path.abspath(p) for p in exclude}
    records: list[dict] = []
    seen: dict[tuple[str, str, str], str] = {}
    if not os.path.isdir(results_dir):
        return records
    for name in sorted(os.listdir(results_dir)):
        if not name.endswith(RESULTS_SUFFIX):
            continue
        path = os.path.join(results_dir, name)
        if os.path.abspath(path) in excluded:
            continue
        try:
            loaded = load_results(path)
        except SchemaError as exc:
            if strict:
                raise
            warnings.warn(f"skipping unreadable results file: {exc}",
                          stacklevel=2)
            continue
        for record in loaded:
            key = (record["benchmark"], record["case"],
                   host_class_of(record["host"]))
            if key in seen:
                raise SchemaError(
                    f"duplicate baseline for {key[0]}:{key[1]} on "
                    f"{key[2]} in {seen[key]} and {name}"
                )
            seen[key] = name
            record = dict(record)
            record["context"] = {**record["context"], "file": name}
            records.append(record)
    return records
