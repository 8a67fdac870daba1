"""``repro-bench`` — one CLI for the whole benchmark registry.

Subcommands::

    repro-bench list [--tag TAG]
    repro-bench run NAME... [--scale S] [--threads 1,2] [--repeats K]
                            [--rng SEED] [--out FILE]
    repro-bench trend [--results DIR] [--current FILE]
                      [--tolerance F] [--abs-floor S] [--json FILE]

``run`` executes any subset of registered benchmarks at a chosen scale
and writes one normalized results file (default ``current.bench.json``,
outside ``results/`` so it never joins the committed history; a
suite's baseline is re-recorded by replacing its committed
``results/<suite>.bench.json``).  ``trend`` then diffs the current file
against the committed history and exits with status ``3`` naming the
regressed benchmarks.

Also reachable as ``python -m repro.bench``.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import trend as trend_mod
from repro.bench.env import host_class
from repro.bench.registry import get_spec, list_specs, run_benchmark
from repro.bench.schema import SchemaError, load_results, write_results

__all__ = ["main", "build_parser"]

DEFAULT_RESULTS_DIR = "results"
DEFAULT_CURRENT = "current.bench.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run, list and trend this repo's benchmark registry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered benchmarks")
    p_list.add_argument("--tag", help="only benchmarks carrying this tag")

    p_run = sub.add_parser("run", help="run benchmarks, write normalized records")
    p_run.add_argument("names", nargs="+", metavar="NAME",
                       help="registered benchmark names (see 'list')")
    p_run.add_argument("--scale", type=float, default=None,
                       help="volumetric fraction of the paper workload "
                            "(default: per-benchmark)")
    p_run.add_argument("--threads", default="1,2",
                       help="comma-separated thread counts (default: 1,2)")
    p_run.add_argument("--repeats", type=int, default=None,
                       help="timed repetitions per point (default: per-benchmark)")
    p_run.add_argument("--rng", type=int, default=0, help="random seed")
    p_run.add_argument("--out", default=DEFAULT_CURRENT,
                       help=f"results file to write (default: {DEFAULT_CURRENT})")

    p_trend = sub.add_parser(
        "trend", help="diff a current run against committed history")
    p_trend.add_argument("--results", default=DEFAULT_RESULTS_DIR,
                         help="history directory (default: results)")
    p_trend.add_argument("--current", default=DEFAULT_CURRENT,
                         help="current-run results file to evaluate "
                              f"(default: {DEFAULT_CURRENT})")
    p_trend.add_argument("--tolerance", type=float,
                         default=trend_mod.DEFAULT_TOLERANCE,
                         help="relative slowdown tolerated before failing "
                              "(default: %(default)s)")
    p_trend.add_argument("--abs-floor", type=float,
                         default=trend_mod.DEFAULT_ABS_FLOOR_S,
                         help="absolute seconds below which differences are "
                              "noise (default: %(default)s)")
    p_trend.add_argument("--json", dest="json_out", default=None,
                         help="also write the report as JSON to this path")
    p_trend.add_argument("--chart", action="store_true",
                         help="render a terminal ratio chart of the diffs")

    return parser


def _cmd_list(args) -> int:
    specs = list_specs(tag=args.tag)
    if not specs:
        print("no benchmarks registered" +
              (f" with tag {args.tag!r}" if args.tag else ""))
        return 1
    width = max(len(s.name) for s in specs)
    for spec in specs:
        tags = f"  [{', '.join(spec.tags)}]" if spec.tags else ""
        print(f"{spec.name.ljust(width)}  scale={spec.default_scale:<6g}"
              f" repeats={spec.default_repeats}  {spec.title}{tags}")
    return 0


def _cmd_run(args) -> int:
    threads = tuple(int(t) for t in str(args.threads).split(",") if t.strip())
    for name in args.names:
        get_spec(name)  # fail on unknown names before running anything
    records: list[dict] = []
    for name in args.names:
        spec = get_spec(name)
        scale = spec.default_scale if args.scale is None else args.scale
        print(f"running {name} (scale={scale:g}, threads={threads}) ...",
              flush=True)
        records.extend(run_benchmark(
            name, scale=args.scale, threads=threads,
            repeats=args.repeats, rng=args.rng,
        ))
    path = write_results(args.out, records, meta={
        "benchmarks": list(args.names),
        "invocation": "repro-bench run",
        "host_class": host_class(),
    })
    print(f"{len(records)} record(s) -> {path}")
    for record in records:
        timing = record["timing"]
        print(f"  {record['benchmark']}:{record['case']}  "
              f"median={timing['median_s']:.6g}s")
    return 0


def _cmd_trend(args) -> int:
    try:
        current = load_results(args.current)
    except FileNotFoundError:
        print(f"no current run at {args.current!r} — "
              "run 'repro-bench run <name>' first", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"current run unreadable: {exc}", file=sys.stderr)
        return 2
    result = trend_mod.evaluate(
        current,
        args.results,
        exclude_files=(args.current,),
        tolerance=args.tolerance,
        abs_floor_s=args.abs_floor,
    )
    print(f"host-class: {host_class()}")
    trend_mod.render_text(result)
    if args.chart:
        from repro.bench.plot import ratio_chart

        ratios = {
            f"{c.benchmark}:{c.case}": c.ratio
            for c in result.comparisons if c.ratio is not None
        }
        if ratios:
            print()
            print(ratio_chart("current / baseline (median)", ratios))
    if args.json_out:
        trend_mod.save_json(result, args.json_out)
        print(f"JSON report -> {args.json_out}")
    return result.exit_code


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trend": _cmd_trend,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyError as exc:
        # get_spec's unknown-benchmark error carries the available names
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
