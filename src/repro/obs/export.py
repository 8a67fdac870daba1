"""Trace exporters: Chrome trace-event JSON and phase-breakdown tables.

Two consumers of a :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`save_chrome_trace` — the Chrome
  trace-event format (the ``traceEvents`` JSON loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev).  Every span becomes a
  complete ("X") event on its recording thread's lane; span args and
  counters ride along in ``args``, so FLOPs, byte counts and per-region
  imbalance are inspectable per event.
* :func:`summary` — a text table reproducing the paper's Figure 6/8
  phase-breakdown view from a single trace: phases aggregated by name
  (calls, seconds, share, achieved GFLOP/s where a ``flops`` counter is
  present), followed by a per-region load-imbalance table.
  :func:`phase_totals` returns the same breakdown as a dict.

The phase rule
--------------
A phase is a leaf span once the bookkeeping around it is dropped: the
parallel-region spans, the pool's per-worker wrapper spans, and any
``krp.parallel`` span nested in another span (the KRP building block's
time belongs to the phase that called it, e.g. ``lr_krp``).  Phase spans
that pool workers record inside one parallel region are charged once, at
the **maximum** over that region's workers (each worker's spans of a name
summed first) — the paper times each OpenMP region from the orchestrating
thread the same way.  All other phase spans add up.  A region's worker
phases count as children of the span that launched the region, so that
span (e.g. a batched-kernel call) is not a phase itself.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right

from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace",
    "save_chrome_trace",
    "summary",
    "summarize_records",
    "records_from_events",
    "phase_totals",
    "counter_total",
    "counters_snapshot",
]

#: Counters aggregated into benchmark records by :func:`counters_snapshot`.
_SNAPSHOT_COUNTERS = (
    "flops",
    "bytes_read",
    "bytes_written",
    "bytes_lower_bound",
    "gemm_calls",
    "gemv_calls",
)


def counter_total(tracer: Tracer, name: str) -> float:
    """Sum of counter ``name`` across all spans plus the tracer level.

    Counters recorded while a span was open live on that span
    (:meth:`~repro.obs.tracer.Span.add`); counters recorded outside any
    span accumulate on the tracer itself.  A trace-wide total needs
    both.
    """
    total = float(getattr(tracer, "counters", {}).get(name, 0.0))
    for span in tracer.spans():
        total += float(span.counters.get(name, 0.0))
    return total


def counters_snapshot(tracer: Tracer) -> dict[str, float]:
    """Flatten a trace into the counter dict benchmark records carry.

    The export hook the benchmark harness runs each measured point
    through: analytic FLOP/byte totals and GEMM/GEMV call counts summed
    across all spans (plus tracer-level spillover), and the per-region
    load-imbalance distilled to ``regions`` / ``imbalance_mean`` /
    ``imbalance_max``.  Zero-valued totals are omitted — a missing key
    reads as "not instrumented", a present key as a real measurement.
    """
    snapshot: dict[str, float] = {}
    for name in _SNAPSHOT_COUNTERS:
        total = counter_total(tracer, name)
        if total:
            snapshot[name] = total
    imbalances = [
        sp.counters["imbalance"]
        for sp in tracer.spans()
        if "imbalance" in sp.counters
    ]
    if imbalances:
        snapshot["regions"] = float(len(imbalances))
        snapshot["imbalance_mean"] = sum(imbalances) / len(imbalances)
        snapshot["imbalance_max"] = max(imbalances)
    return snapshot


def _json_default(obj):
    """Coerce numpy scalars (and anything else numeric-ish) for json."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer as a Chrome trace-event dict.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}``;
    timestamps are microseconds relative to the tracer's epoch.
    """
    pid = os.getpid()
    events: list[dict] = []
    thread_names: dict[int, str] = {}
    for sp in tracer.spans():
        thread_names.setdefault(sp.tid, sp.thread_name)
        args = {"path": sp.path}
        args.update(sp.args)
        args.update(sp.counters)
        events.append(
            {
                "name": sp.name,
                "cat": sp.path.split("/", 1)[0],
                "ph": "X",
                "ts": (sp.start - tracer.epoch) * 1e6,
                "dur": sp.duration * 1e6,
                "pid": pid,
                "tid": sp.tid,
                "args": args,
            }
        )
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "epoch_unix_s": tracer.epoch_unix,
            "tracer_counters": dict(tracer.counters),
        },
    }


def save_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    trace = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, default=_json_default)
    return path


# --------------------------------------------------------------------- #
# Aggregation (shared between live tracers and loaded trace files)
# --------------------------------------------------------------------- #


def _records_from_tracer(tracer: Tracer) -> list[dict]:
    return [
        {
            "name": sp.name,
            "path": sp.path,
            "seconds": sp.duration,
            "counters": sp.counters,
            "tid": sp.tid,
            "start": sp.start,
            "region": sp.args.get("region"),
        }
        for sp in tracer.spans()
    ]


def records_from_events(events: list[dict]) -> list[dict]:
    """Normalize loaded Chrome trace events into aggregation records.

    Only complete ("X") events are considered; counters are recovered from
    the numeric entries of each event's ``args``.
    """
    records = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {}) or {}
        counters = {
            k: v
            for k, v in args.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        records.append(
            {
                "name": ev.get("name", "?"),
                "path": args.get("path", ev.get("name", "?")),
                "seconds": float(ev.get("dur", 0.0)) / 1e6,
                "counters": counters,
                "tid": ev.get("tid", 0),
                "start": float(ev.get("ts", 0.0)) / 1e6,
                "region": args.get("region"),
            }
        )
    return records


def _parent(path: str) -> str:
    return path.rpartition("/")[0]


def _is_worker(rec: dict) -> bool:
    return rec["name"].endswith(".worker")


def _is_region(rec: dict) -> bool:
    return "imbalance" in rec["counters"]


def _worker_keys(records: list[dict], spans: list[dict]) -> list:
    """``(region, worker)`` of the pool worker span enclosing each span.

    ``None`` for a span recorded outside any worker.  A worker span runs
    one task on one thread, so the enclosing one is the latest-started
    worker span on the same thread that is still open at the span's
    start.  Worker spans without a ``region`` tag each count as their
    own region.
    """
    by_tid: dict = {}
    for rec in records:
        if _is_worker(rec):
            by_tid.setdefault(rec["tid"], []).append(rec)
    starts = {}
    for tid, workers in by_tid.items():
        workers.sort(key=lambda rec: rec["start"])
        starts[tid] = [rec["start"] for rec in workers]
    keys = []
    for span in spans:
        key = None
        if ".worker/" in span["path"] and span["tid"] in by_tid:
            workers = by_tid[span["tid"]]
            i = bisect_right(starts[span["tid"]], span["start"]) - 1
            while i >= 0 and (
                workers[i]["start"] + workers[i]["seconds"] < span["start"]
            ):
                i -= 1
            if i >= 0:
                worker = workers[i]
                region = worker["region"]
                key = (id(worker) if region is None else region, id(worker))
        keys.append(key)
    return keys


def _phase_leaves(records: list[dict]) -> list[tuple[dict, tuple | None]]:
    """Phase leaves (module docstring), each with its worker key.

    Dropping the bookkeeping spans *before* the leaf computation both
    avoids double-counting their wall time and lets an enclosing phase
    span (``reduce`` around a reduction region, ``lr_krp`` around
    ``krp.parallel``) surface as the leaf.  Phases recorded by a region's
    workers count as children of the span that launched the region, so
    a kernel span around such a region is not a leaf itself.
    """
    kept = [
        rec for rec in records if not (_is_region(rec) or _is_worker(rec))
    ]
    paths = {rec["path"] for rec in kept}
    kept = [
        rec
        for rec in kept
        if rec["name"] != "krp.parallel" or _parent(rec["path"]) not in paths
    ]
    keys = _worker_keys(records, kept)
    busy = {key[0] for key in keys if key is not None}
    parents = {_parent(rec["path"]) for rec in kept}
    parents.update(
        _parent(rec["path"])
        for rec in records
        if _is_region(rec) and rec["region"] in busy
    )
    return [
        (rec, key)
        for rec, key in zip(kept, keys)
        if rec["path"] not in parents
    ]


def _phase_table(records: list[dict]) -> dict[str, dict]:
    """Per phase name: leaf ``calls``, ``seconds`` (region rule), ``flops``."""
    table: dict[str, dict] = {}
    in_regions: dict[tuple, dict] = {}
    for leaf, key in _phase_leaves(records):
        agg = table.setdefault(
            leaf["name"], {"calls": 0, "seconds": 0.0, "flops": 0.0}
        )
        agg["calls"] += 1
        agg["flops"] += leaf["counters"].get("flops", 0.0)
        if key is None:
            agg["seconds"] += leaf["seconds"]
        else:
            region, worker = key
            per_worker = in_regions.setdefault((region, leaf["name"]), {})
            per_worker[worker] = per_worker.get(worker, 0.0) + leaf["seconds"]
    for (_, name), per_worker in in_regions.items():
        table[name]["seconds"] += max(per_worker.values())
    return table


def phase_totals(source: Tracer | list[dict]) -> dict[str, float]:
    """Phase wall time by name: the paper's Figure 6/8 breakdown.

    ``source`` is a live tracer or a list of aggregation records
    (:func:`records_from_events`).  Phases recorded by pool workers are
    charged at their per-region maximum over workers (module docstring),
    so a T-thread region is charged once, not T times.
    """
    records = (
        _records_from_tracer(source) if isinstance(source, Tracer) else source
    )
    return {
        name: agg["seconds"] for name, agg in _phase_table(records).items()
    }


def summarize_records(records: list[dict]) -> str:
    """Text summary (phase breakdown + region imbalance) of trace records."""
    lines: list[str] = []
    by_name = _phase_table(records)
    total = sum(a["seconds"] for a in by_name.values()) or 1.0

    lines.append("phase breakdown (leaf spans; regions at max over workers)")
    lines.append(
        f"{'phase':<28} {'calls':>7} {'seconds':>10} {'share':>7} "
        f"{'GFLOP/s':>9}"
    )
    for name, agg in sorted(
        by_name.items(), key=lambda kv: -kv[1]["seconds"]
    ):
        rate = (
            f"{agg['flops'] / agg['seconds'] / 1e9:9.2f}"
            if agg["flops"] > 0 and agg["seconds"] > 0
            else f"{'-':>9}"
        )
        lines.append(
            f"{name:<28} {agg['calls']:>7d} {agg['seconds']:>10.4f} "
            f"{agg['seconds'] / total:>6.1%} {rate}"
        )

    flop_spans = [r for r in records if r["counters"].get("flops", 0.0) > 0]
    if flop_spans:
        by_algo: dict[str, dict] = {}
        for rec in flop_spans:
            agg = by_algo.setdefault(
                rec["name"],
                {"calls": 0, "seconds": 0.0, "flops": 0.0, "bytes": 0.0},
            )
            agg["calls"] += 1
            agg["seconds"] += rec["seconds"]
            agg["flops"] += rec["counters"]["flops"]
            agg["bytes"] += rec["counters"].get("bytes_read", 0.0)
            agg["bytes"] += rec["counters"].get("bytes_written", 0.0)
        lines.append("")
        lines.append("algorithm spans (analytic FLOP/byte counters)")
        lines.append(
            f"{'span':<28} {'calls':>7} {'seconds':>10} {'GFLOP/s':>9} "
            f"{'GB/s':>9}"
        )
        for name, agg in sorted(
            by_algo.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            secs = agg["seconds"] or float("inf")
            lines.append(
                f"{name:<28} {agg['calls']:>7d} {agg['seconds']:>10.4f} "
                f"{agg['flops'] / secs / 1e9:>9.2f} "
                f"{agg['bytes'] / secs / 1e9:>9.2f}"
            )

    regions = [r for r in records if "imbalance" in r["counters"]]
    if regions:
        by_region: dict[str, dict] = {}
        for rec in regions:
            agg = by_region.setdefault(
                rec["name"],
                {"regions": 0, "seconds": 0.0, "imb_sum": 0.0,
                 "imb_max": 0.0, "workers": 0.0},
            )
            agg["regions"] += 1
            agg["seconds"] += rec["seconds"]
            agg["imb_sum"] += rec["counters"]["imbalance"]
            agg["imb_max"] = max(agg["imb_max"], rec["counters"]["imbalance"])
            agg["workers"] = max(
                agg["workers"], rec["counters"].get("workers", 0.0)
            )
        lines.append("")
        lines.append("parallel regions (load imbalance = max/mean worker time)")
        lines.append(
            f"{'region':<32} {'regions':>7} {'seconds':>10} {'workers':>7} "
            f"{'imb avg':>8} {'imb max':>8}"
        )
        for name, agg in sorted(
            by_region.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:<32} {agg['regions']:>7d} {agg['seconds']:>10.4f} "
                f"{int(agg['workers']):>7d} "
                f"{agg['imb_sum'] / agg['regions']:>8.3f} "
                f"{agg['imb_max']:>8.3f}"
            )
    return "\n".join(lines)


def summary(tracer: Tracer) -> str:
    """Figure 6/8-style phase-breakdown text table for a live tracer."""
    return summarize_records(_records_from_tracer(tracer))
