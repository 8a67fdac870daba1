"""Repository benchmark: CP-ALS iteration time and serve-job latency/throughput.

    python3 benchmark/run.py --workload serve-tiny-closed --seed 0 --trace 0
    python -m benchmark.run --seed 0          # every workload, one table each
    python -m benchmark.run --smoke           # every workload at toy size

Per workload, the inputs are generated from ``--seed`` and saved once;
then ``PROBES`` fresh child processes each time a cold set-up, and one
more child runs the timed phase, the correctness checks and, with
``--trace 1``, the per-layer profile.  Children import ``repro`` from
this checkout's ``src/`` with the ``REPRO_*`` variables in
``CLEARED_ENV`` removed.

Standard output is a table per workload (metric, unit, sample count,
median, quartiles), then one JSON line ``{"correct", "attempted",
"failed", "metrics"}`` holding the end-to-end metrics, or with
``--trace 1`` the per-layer metrics every workload measures.  Without
``--workload`` its metric names are ``<workload>/<metric>``, and a
traced run adds the serve-path layer metrics of the workloads that have
them.  The exit status is 1 if a check fails, and 1 with no JSON line if
a child fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

if not __package__:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmark import inputs, workloads  # noqa: E402  (needs the path above)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "benchmark" / "out"

#: How a child process is started, after ``sys.executable``.
CHILD = ["-m", "benchmark.workloads"]

#: Variables that change what the program does; a stale tuning cache,
#: for one, changes whether the serve scheduler coalesces.
CLEARED_ENV = ("REPRO_TRACE", "REPRO_SANITIZE", "REPRO_TUNE_CACHE", "REPRO_NUM_THREADS",
               "REPRO_BACKEND", "REPRO_BENCH_SCALE", "REPRO_MP_START")

PROBES = 5
DEFAULT_SECONDS = 20.0
SMOKE_SECONDS = 0.5

#: Wall-time budget per workload, under the 180 s a run may take.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A child process failed; the run prints no result."""


def child_env() -> tuple[dict, dict]:
    """The children's environment, and the cleared variables' former values."""
    env = dict(os.environ)
    cleared = {k: env.pop(k) for k in CLEARED_ENV if k in env}
    path = [str(ROOT / "src"), str(ROOT), *filter(None, [env.get("PYTHONPATH")])]
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env, cleared


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    """Run one child to completion; its last stdout line is its JSON result.

    The child leads its own process group, which is killed afterwards,
    so no server worker it forked outlives it.
    """
    proc = subprocess.Popen([sys.executable, *CHILD, *args], stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True, start_new_session=True)
    out = None
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if out is None:
        raise BenchError(f"{args[0]} child passed the {DEADLINE_S:.0f} s budget")
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} child exited with status {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    src = ROOT / "src"
    if not Path(result["repro"]).resolve().is_relative_to(src):
        raise BenchError(f"child imported repro from {result['repro']}, not {src}")
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 env: dict) -> dict:
    """Probes plus one measured child; the summaries of every metric."""
    deadline = time.monotonic() + DEADLINE_S
    w = workloads.workload(name, smoke)
    OUT.mkdir(exist_ok=True)
    data = OUT / f"inputs-{name}-{seed}-{os.getpid()}.npz"
    trace_out = OUT / f"trace-{name}-{seed}.json"
    common = ["--workload", name, "--seed", str(seed), "--inputs", str(data)]
    common += ["--smoke"] if smoke else []
    try:
        inputs.save(data, *workloads.make_inputs(w, seed))
        probes = [run_child(["probe", *common], env, deadline) for _ in range(PROBES)]
        measured = run_child(["measure", *common, "--seconds", str(seconds),
                              *(["--trace-out", str(trace_out)] if trace else [])],
                             env, deadline)
    finally:
        data.unlink(missing_ok=True)

    def probed(values: list[float], unit: str) -> dict:
        values = sorted(values)
        return workloads.summary(values, values[len(values) // 2], unit)

    e2e = {"setup_s": probed([p["setup_s"] for p in probes], "s"), **measured["e2e"]}
    layers = {}
    if trace:
        units = workloads.layer_units(w)
        layers = {k: workloads.summary([v], v, units[k]) for k, v in measured["layers"].items()}
        layers.update({k: probed([p["layers"][k] for p in probes], units[k])
                       for k in probes[0]["layers"]})
        if layers.keys() != units.keys():
            raise BenchError(f"{name}: per-layer metrics missing "
                             f"{sorted(units.keys() - layers.keys())}"
                             f", unexpected {sorted(layers.keys() - units.keys())}")
    return {
        "correct": measured["correct"], "attempted": measured["attempted"],
        "failed": measured["failed"], "failures": measured["failures"],
        "host": measured["host"], "e2e": e2e, "layers": layers,
        "trace_file": str(trace_out.relative_to(ROOT)) if trace else None,
    }


def print_table(name: str, seed: int, seconds: float, r: dict, cleared: dict) -> None:
    h = r["host"]
    rev = f"{h['git_rev'] or 'unknown'}{'+dirty' if h['git_dirty'] else ''}"
    print(f"== {name}  seed={seed}  seconds={seconds:g}")
    print(f"   host {h['host_class']} nproc={h['nproc']} python {h['python']} "
          f"numpy {h['numpy']} blas {h['blas']} "
          f"blas_thread_control={h['blas_thread_control']} git {rev}")
    print(f"   cleared env: {cleared or 'none'}")
    print(f"   {'metric':34} {'unit':8} {'n':>6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'value':>12}")
    for key, s in {**r["e2e"], **r["layers"]}.items():
        print(f"   {key:34} {s['unit']:8} {s['n']:>6} {s['median']:>12.6g} {s['q1']:>12.6g} "
              f"{s['q3']:>12.6g} {s['value']:>12.6g}")
    print(f"   checks: {'pass' if r['correct'] else 'FAIL'}  attempted={r['attempted']} "
          f"failed={r['failed']}")
    for line in r["failures"]:
        print(f"     {line}")
    if r["trace_file"]:
        print(f"   chrome trace: {r['trace_file']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help=f"timed phase length (default {DEFAULT_SECONDS:g}, "
                             f"{SMOKE_SECONDS:g} with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: report per-layer metrics and write a Chrome trace")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for testing")
    args = parser.parse_args(argv)
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)

    env, cleared = child_env()
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, bool(args.trace),
                                         args.smoke, env)
            print_table(name, args.seed, seconds, results[name], cleared)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    def metrics(r: dict) -> dict:
        return {k: {"value": s["value"], "unit": s["unit"]}
                for k, s in (r["layers"] if args.trace else r["e2e"]).items()}

    if args.workload:
        # One workload reports the declared metrics only; its serve-path
        # layer metrics are in the table above.
        declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
        shown = {k: m for k, m in metrics(results[args.workload]).items() if k in declared}
    else:
        shown = {f"{name}/{k}": m for name, r in results.items() for k, m in metrics(r).items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": shown}))
    return 0 if correct else 1


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit, so the running child's group is killed
    # and the inputs file removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
