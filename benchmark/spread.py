"""Measure the run-to-run spread of the end-to-end metrics, for baselines and bounds.

    python3 benchmark/spread.py --label same-seed --sets 2 --runs 5 --seed 0 \\
        --out benchmark/baseline-x86_64-2cpu.json
    python3 benchmark/spread.py --label varied-seed --sets 2 --runs 10 --seed 1 --vary-seed \\
        --out benchmark/baseline-x86_64-2cpu.json

Runs ``benchmark/run.py --trace 0`` ``sets x runs`` times per workload,
interleaving the workloads within a set.  Per set and metric it records
every value, the median and quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median``; across sets, how much worse the
last set's median is than the first's, as a share of the first.  The
summary is stored under ``plans[<label>]`` of ``--out`` (other plans in
the file are kept), next to each metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    return {"wall_s": wall, **json.loads(proc.stdout.strip().splitlines()[-1])}


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vary-seed", action="store_true",
                        help="run k of a set uses seed SEED + k")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or declared["run_seconds"]
    names = args.workload or [w["name"] for w in declared["workloads"]]
    metrics = {m["name"]: m for m in declared["end_to_end"]}

    runs: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(args.sets):
        for w in names:
            runs[w].append([])
        for k in range(args.runs):
            seed = args.seed + k if args.vary_seed else args.seed
            for w in names:
                r = run_once(w, seed, seconds)
                runs[w][s].append({"seed": seed, **r})
                print(f"set {s} run {k} {w} seed {seed}: {r['wall_s']:.1f} s "
                      f"correct={r['correct']} "
                      + " ".join(f"{m}={v['value']:.6g}" for m, v in r["metrics"].items()),
                      flush=True)

    summary = {}
    for w, sets in runs.items():
        per_set = [{m: describe([r["metrics"][m]["value"] for r in rs]) for m in metrics}
                   for rs in sets]
        worse = {}
        for m, spec in metrics.items():
            first, last = per_set[0][m]["median"], per_set[-1][m]["median"]
            sign = 1 if spec["better"] == "lower" else -1
            worse[m] = sign * (last - first) / first
        summary[w] = {
            "sets": per_set,
            "last_vs_first_worse": worse,
            "failed": sum(r["failed"] for rs in sets for r in rs),
            "all_correct": all(r["correct"] for rs in sets for r in rs),
            "wall_s": [r["wall_s"] for rs in sets for r in rs],
        }
    plan = {
        "settings": {"sets": args.sets, "runs": args.runs, "seed": args.seed,
                     "vary_seed": args.vary_seed, "seconds": seconds},
        "host": {"host_class": f"{platform.machine()}-{os.cpu_count()}cpu",
                 "python": platform.python_version()},
        "bounds": {m: spec["bound"] for m, spec in metrics.items()},
        "max_spread": {m: max(s[m]["spread"] for w in summary.values() for s in w["sets"])
                       for m in metrics},
        "max_last_vs_first_worse": {m: max(w["last_vs_first_worse"][m]
                                           for w in summary.values()) for m in metrics},
        "workloads": summary,
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"plans": {}}
    doc["plans"][args.label] = plan
    args.out.write_text(json.dumps(doc, indent=1) + "\n")

    print(f"{'metric':18} {'bound':>6} {'max spread':>11} {'max worse':>10}")
    for m in metrics:
        print(f"{m:18} {plan['bounds'][m]:>6.2f} {plan['max_spread'][m]:>11.4f} "
              f"{plan['max_last_vs_first_worse'][m]:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
