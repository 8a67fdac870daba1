"""Command-line report over an exported Chrome trace file.

Usage::

    python -m repro.obs.report trace.json
    repro-trace-report trace.json            # console script

Prints the Figure 6/8-style phase breakdown (leaf spans aggregated by
name under :func:`repro.obs.phase_totals`'s rule, with achieved GFLOP/s
where FLOP counters are present) and the
per-region load-imbalance table, reconstructed purely from the exported
JSON — no live tracer required.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.export import records_from_events, summarize_records

__all__ = ["main", "report_from_file"]


def report_from_file(path: str) -> str:
    """Load a Chrome trace-event JSON file and render the summary table."""
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    if not isinstance(events, list):
        raise ValueError(
            f"{path}: expected a Chrome trace (traceEvents list), "
            f"got {type(events).__name__}"
        )
    return summarize_records(records_from_events(events))


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.obs.report`` / the console script."""
    parser = argparse.ArgumentParser(
        prog="repro-trace-report",
        description=(
            "Summarize a repro Chrome trace: phase breakdown and "
            "per-region load imbalance."
        ),
    )
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    args = parser.parse_args(argv)
    try:
        print(report_from_file(args.trace))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
