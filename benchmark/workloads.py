"""Benchmark workloads: cold set-up probes, timed phases, checks and layer profiles.

Everything here reaches ``repro`` through its public functions and times
each layer from outside, around the calls into it; nothing under ``src/``
is patched.  :mod:`benchmark.run` starts this module as a fresh child
process per probe and per measured run (``python -m benchmark.workloads
probe|measure ...``); ``repro`` is imported lazily so that a set-up probe
can time the import itself.

Benchmark spans go to a private :class:`repro.obs.Tracer` that is never
installed with ``obs.enable``, so the program's own spans stay off; an
untraced run records into ``obs.NULL_TRACER`` through the same code.
A workload reports a layer metric only when its requests pass through
that layer (:func:`layer_units`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from benchmark import inputs

ROOT = Path(__file__).resolve().parent.parent
NPROC = os.cpu_count() or 1

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: MTTKRP modes by their role in the paper's algorithms: the two external
#: modes, whose matricization needs no reordering, and the internal modes
#: between them, summed.  Every workload tensor has at least 3 modes.
ROLES = ("first", "internal", "last")

#: Per-layer metrics that every workload measures on its own job class.
#: A traced run's result line holds exactly these.
PER_LAYER = {
    **{f"core.{kind}.{role}": "s"
       for kind in ("mttkrp_s", "mttkrp_t1_s", "gemm_floor_s") for role in ROLES},
    "core.flops_per_iter": "flop",
    "core.bytes_per_iter": "B",
    "core.bytes_lower_bound_per_iter": "B",
    "core.gflops": "GFLOP/s",
    "cpd.job_compute_s": "s",
    "cpd.residual_s": "s",
    "cpd.residual_frac": "ratio",
    "parallel.region_launch_s": "s",
    "parallel.cpals_speedup": "ratio",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "obs.trace_overhead_frac": "ratio",
}

#: Layer metrics of the serve path, on the ``serve-*`` workloads only.
SERVE_LAYER = {
    "serve.submit_s.p50": "s",
    "serve.wait_s.p50": "s",
    "serve.wait_s.p95": "s",
    "serve.run_s.p50": "s",
    "serve.run_s.p95": "s",
    "serve.overhead_s.p50": "s",
    "serve.overhead_frac": "ratio",
    "serve.client_residual_s.p50": "s",
    "serve.payload_bytes": "B",
    "serve.server_start_s": "s",
    "serve.first_job_s": "s",
}

#: Layer metrics of coalescing, the queue and the load generator, on the
#: open loop only: a closed loop never holds two jobs in the queue.
OPEN_LAYER = {
    "serve.coalesced_frac": "ratio",
    "serve.group_size_mean": "count",
    "serve.queue_depth.p95": "count",
    "serve.backlog_end": "count",
    "serve.gen_late_s.p50": "s",
    "serve.gen_late_s.max": "s",
    "batch.fleet_s": "s",
    "batch.per_job_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One input set: a job class and how the load generator drives it."""

    kind: str  #: "cpals" (in-process), "closed" or "open" (through repro.serve)
    shape: tuple[int, ...]
    rank: int
    iters: int  #: CP-ALS iterations per job; tol=-1 makes the work fixed
    pool: int = 4  #: distinct tensors the jobs draw from
    check_every: int = 25  #: serve: compare every k-th job with a direct call
    rate: float = 0.0  #: open loop: Poisson arrivals per second


WORKLOADS = {
    "cpals-dense4": Workload("cpals", (80,) * 4, 25, 8, pool=1),
    "serve-tiny-closed": Workload("closed", (6, 5, 4), 4, 3),
    "serve-medium-closed": Workload("closed", (128,) * 3, 10, 5, check_every=10),
    "serve-small-open": Workload("open", (10, 9, 8), 8, 5, pool=64, rate=400.0),
}

#: ``--smoke`` sizes: every workload at toy size, the whole suite in ~30 s.
_SMOKE = {
    "cpals-dense4": {"shape": (12,) * 4, "rank": 4, "iters": 3},
    "serve-medium-closed": {"shape": (24,) * 3},
    "serve-small-open": {"rate": 150.0},
}

#: Open loop: share of ``--seconds`` spent at the Poisson rate; the rest
#: is the saturation phase.
_OPEN_SHARE = 2 / 3
_WARMUP_JOBS = 3
_JOB_TIMEOUT_S = 60.0
#: Open loop: pause between submits of a job the full queue turned away.
_RETRY_S = 0.002


def workload(name: str, smoke: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **_SMOKE.get(name, {})) if smoke else w


def layer_units(w: Workload) -> dict[str, str]:
    """Every per-layer metric workload ``w`` reports, with its unit."""
    units = dict(PER_LAYER)
    if w.kind != "cpals":
        units.update(SERVE_LAYER)
    if w.kind == "open":
        units.update(OPEN_LAYER)
    return units


def make_inputs(w: Workload, seed: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The workload's tensors (flat, natural layout) and seeded initial factors."""
    rng = np.random.default_rng(seed)
    tensors = [inputs.planted(w.shape, w.rank, rng) for _ in range(w.pool)]
    init = [rng.random((s, w.rank)) for s in w.shape]
    return tensors, init


# --------------------------------------------------------------------- #
# Set-up probe
# --------------------------------------------------------------------- #


def setup_probe(w: Workload, seed: int, tensors, init) -> dict:
    """Cold set-up: from before ``import repro`` to the first warm-up result.

    ``cpals`` warms up with a 1-iteration ``cp_als`` on the workload
    tensor; serve workloads with ``JobServer()`` plus one job.
    """
    t0 = time.perf_counter()
    import repro

    if w.kind == "cpals":
        t_import = time.perf_counter()
        repro.cp_als(repro.DenseTensor(tensors[0], w.shape), w.rank, n_iter_max=1,
                     tol=-1, init=init, num_threads=NPROC)
        t_end = time.perf_counter()
        serve = {}
    else:
        from repro.serve import JobServer

        t_import = time.perf_counter()
        server = JobServer(workers=NPROC)
        started = time.perf_counter()
        try:
            server.submit(tensor=tensors[0].reshape(w.shape, order="F"), rank=w.rank,
                          n_iter_max=w.iters, tol=-1,
                          seed=inputs.job_seed(seed, 0)).result(timeout=_JOB_TIMEOUT_S)
            t_end = time.perf_counter()
        finally:
            server.shutdown()
        serve = {"serve.server_start_s": started - t_import,
                 "serve.first_job_s": t_end - started}
    return {
        "repro": repro.__file__,
        "setup_s": t_end - t0,
        "layers": {"setup.import_s": t_import - t0, "setup.first_call_s": t_end - t_import,
                   **serve},
    }


# --------------------------------------------------------------------- #
# Measured child
# --------------------------------------------------------------------- #


def measure(w: Workload, seed: int, seconds: float, trace: bool, tensors, init) -> dict:
    """Run one workload's timed phase, its checks and (traced) layer profile.

    Returns ``correct``/``attempted``/``failed``, the end-to-end metric
    summaries (all but ``setup_s``), the per-layer values (traced runs,
    all but those the set-up probes time) and host facts.
    """
    import repro
    import repro.obs as obs

    tracer = obs.Tracer() if trace else obs.NULL_TRACER
    host = _host_facts()
    run = {"cpals": _cpals, "closed": _closed, "open": _open}[w.kind]
    out = run(w, seed, float(seconds), tracer, tensors, init)
    out["host"] = host
    out["repro"] = repro.__file__
    if trace:
        out["layers"].update(_parallel_layers(tracer))
        out["chrome_trace"] = obs.chrome_trace(tracer)
    return out


def _host_facts() -> dict:
    """Host class, versions, git revision and whether BLAS threads are settable."""
    from repro.bench.env import host_class_of, host_fingerprint
    from repro.parallel.blas import get_blas_threads, set_blas_threads

    fp = host_fingerprint(str(ROOT))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    # set_blas_threads reports whether it found a setter; only reading the
    # count back shows the setting took effect.
    before = get_blas_threads()
    control = set_blas_threads(1) and get_blas_threads() == 1
    if before is not None:
        set_blas_threads(before)
    return {
        "nproc": NPROC,
        "host_class": host_class_of(fp),
        "python": fp["python"],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_control": int(control),
        "git_rev": fp["git_rev"],
        "git_dirty": fp["git_dirty"],
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MB.

    This process's own peak is ``VmHWM``, not ``ru_maxrss``: Linux keeps
    ``ru_maxrss`` across ``exec``, so it would also count the RSS that
    the parent had when it started this process.
    """
    with open("/proc/self/status") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6


def summary(values, value: float, unit: str) -> dict:
    """A metric value with the count and quartiles of the samples behind it."""
    v = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return {"value": float(value), "unit": unit, "n": int(v.size),
            "q1": float(q1), "median": float(med), "q3": float(q3)}


def _e2e(latencies, rates, throughput: float, rss_mb: float) -> dict:
    lat = np.asarray(latencies, dtype=float)
    return {
        "latency_p50_s": summary(lat, np.percentile(lat, 50), "s"),
        "latency_p95_s": summary(lat, np.percentile(lat, 95), "s"),
        "throughput_per_s": summary(rates, throughput, "1/s"),
        "peak_rss_mb": summary([rss_mb], rss_mb, "MB"),
    }


def _window_rates(done_times, t0: float, t1: float, windows: int = 5) -> list[float]:
    """Completions per second in ``windows`` equal slices of ``[t0, t1]``."""
    width = (t1 - t0) / windows
    counts, _ = np.histogram(done_times, bins=windows, range=(t0, t1))
    return [c / width for c in counts]


def _median_time(fn, tracer, span: str, budget: float = 0.25, **args) -> float:
    """Median wall time of ``fn()`` over >= 3 calls filling ``budget`` seconds."""
    fn()
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < 3 or (time.perf_counter() - start < budget and len(times) < 200):
        times.append(_timed(fn, tracer, span, **args))
    return float(np.median(times))


def _timed(fn, tracer, span: str, **args) -> float:
    with tracer.span(span, **args):
        t = time.perf_counter()
        fn()
        return time.perf_counter() - t


def _span_cost_s() -> float:
    """Wall time one benchmark span adds, measured on a scratch tracer."""
    import repro.obs as obs

    scratch, n = obs.Tracer(), 2000
    start = time.perf_counter()
    for _ in range(n):
        with scratch.span("probe"):
            pass
    return (time.perf_counter() - start) / n


def _overhead_frac(tracer, spans_before: int, phase_s: float) -> float:
    """Share of the timed phase spent recording benchmark spans.

    Call it as the phase ends, before any span that follows the phase.
    """
    spans = len(tracer.spans()) - spans_before
    return spans * _span_cost_s() / phase_s if spans else 0.0


# -- in-process CP-ALS ------------------------------------------------- #


def _cpals(w, seed, seconds, tracer, tensors, init) -> dict:
    """Repeated ``cp_als`` calls; every iteration is one latency sample.

    ``cp_als`` times each iteration itself (``iteration_times``), which
    leaves out the call's set-up: the per-iteration time of the paper's
    Fig. 7.
    """
    from repro import DenseTensor, cp_als
    from repro.reference.tensor_toolbox import cp_als_ttb

    X = DenseTensor(tensors[0], w.shape)

    def call(iters: int = w.iters, threads: int = NPROC):
        return cp_als(X, w.rank, n_iter_max=iters, tol=-1, init=init, num_threads=threads)

    call(1)
    spans_before = len(tracer.spans())
    results, walls = [], []
    t0 = time.perf_counter()
    while not results or time.perf_counter() < t0 + seconds:
        with tracer.span("cpd.cp_als", threads=NPROC, iters=w.iters):
            t = time.perf_counter()
            results.append(call())
            walls.append(time.perf_counter() - t)
    overhead = _overhead_frac(tracer, spans_before, time.perf_counter() - t0)
    rss = _peak_rss_mb()

    iter_s = np.concatenate([r.iteration_times for r in results])
    rates = [len(r.iteration_times) / sum(r.iteration_times) for r in results]
    out = {"e2e": _e2e(iter_s, rates, iter_s.size / iter_s.sum(), rss)}

    failures = [f"call {k}: fit decreased by {-np.diff(r.fits).min():.3e}"
                for k, r in enumerate(results) if np.diff(r.fits).min(initial=0.0) < -1e-12]
    ttb = cp_als_ttb(X, w.rank, n_iter_max=2, tol=-1, init=init, num_threads=NPROC)
    gap = abs(ttb.fits[1] - results[0].fits[1])
    if gap > 1e-8:
        failures.append(f"fit after 2 iterations differs from cp_als_ttb by {gap:.3e}")
    out.update(correct=not failures, attempted=len(results) + 1, failed=len(failures),
               failures=failures)

    if tracer.enabled:
        job_s = float(np.median(walls))
        t1_s = float(np.median([_timed(lambda: call(threads=1), tracer, "cpd.cp_als",
                                       threads=1) for _ in range(2)]))
        layers = _core_layers(X, init, w, tracer)
        layers.update(_cpd_layers(layers, w, job_s, t1_s / job_s))
        layers["obs.trace_overhead_frac"] = overhead
        out["layers"] = layers
    return out


def _core_layers(X, U, w, tracer) -> dict:
    """MTTKRP per mode role at T=nproc and T=1, the GEMM floor, the analytic counters."""
    import repro.obs as obs
    from repro import cp_als
    from repro.core import mttkrp_gemm_lower_bound
    from repro.core.dispatch import mttkrp

    per_mode: dict[str, list[float]] = {"mttkrp_s": [], "mttkrp_t1_s": [], "gemm_floor_s": []}
    for n in range(X.ndim):
        scratch: dict = {}
        per_mode["mttkrp_s"].append(_median_time(
            lambda: mttkrp(X, U, n, num_threads=NPROC),
            tracer, "core.mttkrp", mode=n, threads=NPROC))
        per_mode["mttkrp_t1_s"].append(_median_time(
            lambda: mttkrp(X, U, n, num_threads=1), tracer, "core.mttkrp", mode=n, threads=1))
        per_mode["gemm_floor_s"].append(_median_time(
            lambda: mttkrp_gemm_lower_bound(X, U, n, num_threads=NPROC, _scratch=scratch),
            tracer, "core.gemm_floor", mode=n, threads=NPROC))
    modes = {"first": [0], "internal": range(1, X.ndim - 1), "last": [X.ndim - 1]}
    layers = {f"core.{kind}.{role}": sum(times[n] for n in modes[role])
              for kind, times in per_mode.items() for role in ROLES}

    with obs.capture() as counted:
        cp_als(X, w.rank, n_iter_max=1, tol=-1, init=U, num_threads=NPROC)
    snap = obs.counters_snapshot(counted)
    flops = snap["flops"]
    layers.update({
        "core.flops_per_iter": flops,
        "core.bytes_per_iter": snap["bytes_read"] + snap["bytes_written"],
        "core.bytes_lower_bound_per_iter": snap["bytes_lower_bound"],
        "core.gflops": flops / sum(per_mode["mttkrp_s"]) / 1e9,
    })
    return layers


def _cpd_layers(layers: dict, w, job_s: float, speedup: float) -> dict:
    """Driver residual: per-iteration in-process time not spent in MTTKRP."""
    per_iter = job_s / w.iters
    residual = per_iter - sum(layers[f"core.mttkrp_s.{role}"] for role in ROLES)
    return {
        "cpd.job_compute_s": job_s,
        "cpd.residual_s": residual,
        "cpd.residual_frac": residual / per_iter,
        "parallel.cpals_speedup": speedup,
    }


def _parallel_layers(tracer) -> dict:
    from repro.parallel.pool import get_pool

    pool, reps = get_pool(NPROC), 200

    def launches():
        for _ in range(reps):
            pool.parallel_for(lambda t, lo, hi: None, NPROC)

    return {"parallel.region_launch_s":
            _median_time(launches, tracer, "parallel.region_launch") / reps}


# -- through repro.serve ----------------------------------------------- #


@dataclass
class _Job:
    j: int
    k: int  #: index into the tensor pool
    seed: int
    handle: object | None = None
    submit_s: float = 0.0
    due: float = 0.0  #: open loop: scheduled send time (time.monotonic)
    late_s: float = 0.0
    latency_s: float | None = None
    result: object | None = None
    error: str | None = None


def _submit(server, w, views, job: _Job, tracer) -> None:
    with tracer.span("serve.submit", job=job.j):
        t = time.perf_counter()
        job.handle = server.submit(tensor=views[job.k], rank=w.rank, n_iter_max=w.iters,
                                   tol=-1, seed=job.seed)
        job.submit_s = time.perf_counter() - t


def _result(job: _Job, timeout: float) -> None:
    try:
        job.result = job.handle.result(timeout=timeout)
    except Exception as exc:  # the job failed; it counts in `failed`
        job.error = repr(exc)


def _warm_up(server, w, views) -> None:
    for j in range(_WARMUP_JOBS):
        server.submit(tensor=views[0], rank=w.rank, n_iter_max=w.iters, tol=-1,
                      seed=j).result(timeout=_JOB_TIMEOUT_S)


def _closed(w, seed, seconds, tracer, tensors, init) -> dict:
    """One client, closed loop: the next job is sent when the last returns."""
    from repro.serve import JobServer

    views = [t.reshape(w.shape, order="F") for t in tensors]
    jobs: list[_Job] = []
    server = JobServer(workers=NPROC)
    try:
        _warm_up(server, w, views)
        spans_before = len(tracer.spans())
        done_at = []
        t0 = time.perf_counter()
        while not jobs or time.perf_counter() < t0 + seconds:
            j = len(jobs)
            job = _Job(j, j % w.pool, inputs.job_seed(seed, j))
            start = time.perf_counter()
            _submit(server, w, views, job, tracer)
            with tracer.span("serve.result", job=j):
                _result(job, _JOB_TIMEOUT_S)
            done_at.append(time.perf_counter())
            job.latency_s = done_at[-1] - start
            jobs.append(job)
        t1 = time.perf_counter()
        overhead = _overhead_frac(tracer, spans_before, t1 - t0)
        shed = server.stats()["shed"]
    finally:
        server.shutdown()
    rss = _peak_rss_mb()

    ok = [job for job in jobs if job.result is not None]
    latencies = [job.latency_s for job in ok]
    out = {"e2e": _e2e(latencies, _window_rates(done_at, t0, t1), len(ok) / (t1 - t0), rss)}
    out.update(_serve_outcome(w, tensors, jobs, shed))
    if tracer.enabled:
        layers = _serve_job_class_layers(w, tensors, init, tracer)
        layers.update(_serve_layers(tensors, ok, layers["cpd.job_compute_s"]))
        layers["obs.trace_overhead_frac"] = overhead
        out["layers"] = layers
    return out


def _open(w, seed, seconds, tracer, tensors, init) -> dict:
    """Open loop: Poisson arrivals at ``w.rate``, then a saturation phase.

    Latency runs from each job's scheduled send time to its
    ``finished_at`` on the server's ``time.monotonic`` clock, so a stall
    charges the wait it imposes on later arrivals.  The saturation phase
    keeps ``queue_depth - batch_limit`` jobs outstanding, which the
    default queue bound admits without shedding, and counts completions.
    """
    from repro.serve import JobServer, QueueFullError

    rng = np.random.default_rng([seed, 1])
    views = [t.reshape(w.shape, order="F") for t in tensors]
    open_s = seconds * _OPEN_SHARE
    offsets = inputs.poisson_arrivals(w.rate, open_s, rng)
    jobs: list[_Job] = []
    shed = 0

    def new_job() -> _Job:
        j = len(jobs)
        jobs.append(_Job(j, int(rng.integers(w.pool)), inputs.job_seed(seed, j)))
        return jobs[-1]

    def send(job: _Job) -> None:
        # A stall of the host can fill the queue; the client then retries,
        # as a real one would, and the job's latency still runs from
        # `job.due`.  Only a job turned away for the whole job timeout is shed.
        nonlocal shed
        give_up = time.monotonic() + _JOB_TIMEOUT_S
        while True:
            try:
                _submit(server, w, views, job, tracer)
                return
            except QueueFullError as exc:
                if time.monotonic() > give_up:
                    shed += 1
                    job.error = repr(exc)
                    return
                time.sleep(_RETRY_S)

    server = JobServer(workers=NPROC)
    try:
        _warm_up(server, w, views)
        spans_before = len(tracer.spans())
        t0 = time.monotonic() + 0.01
        for offset in offsets:
            job = new_job()
            job.due = t0 + offset
            pause = job.due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            job.late_s = time.monotonic() - job.due
            send(job)
        t_open_end = time.monotonic()
        overhead = _overhead_frac(tracer, spans_before, t_open_end - t0)
        server.wait_idle(timeout=_JOB_TIMEOUT_S)
        open_stats = server.stats()
        n_open = len(jobs)

        window = server.config.queue_depth - server.config.batch_limit
        outstanding: deque = deque()
        s0 = time.monotonic()
        s1 = s0 + (seconds - open_s)
        while time.monotonic() < s1:
            if len(outstanding) < window:
                job = new_job()
                send(job)
                if job.handle is not None:
                    outstanding.append(job)
            else:
                outstanding.popleft().handle.wait(_JOB_TIMEOUT_S)
        server.wait_idle(timeout=_JOB_TIMEOUT_S)
        statuses = {}
        for job in jobs:
            if job.handle is not None:
                _result(job, 0)
                statuses[job.j] = server.status(job.handle.job_id)
    finally:
        server.shutdown()
    rss = _peak_rss_mb()

    ok = [job for job in jobs[:n_open] if job.result is not None]
    for job in ok:
        job.latency_s = statuses[job.j].finished_at - job.due
    in_window = [s.finished_at for j, s in statuses.items()
                 if j >= n_open and s.finished_at is not None and s.finished_at <= s1]
    out = {"e2e": _e2e([job.latency_s for job in ok], _window_rates(in_window, s0, s1),
                       len(in_window) / (s1 - s0), rss)}
    out.update(_serve_outcome(w, tensors, jobs, shed))
    if tracer.enabled:
        open_statuses = [s for j, s in statuses.items() if j < n_open]
        depths = _queued_ahead(open_statuses,
                               [s.submitted_at for s in open_statuses[::50]] + [t_open_end])
        late = [job.late_s for job in jobs[:n_open]]
        groups = open_stats["coalesced_groups"]
        group_size = open_stats["coalesced_jobs"] / max(groups, 1)
        layers = _serve_job_class_layers(w, tensors, init, tracer)
        layers.update(_serve_layers(tensors, ok, layers["cpd.job_compute_s"]))
        layers.update({
            "serve.coalesced_frac": open_stats["coalesced_jobs"] / open_stats["completed"],
            "serve.group_size_mean": group_size,
            "serve.queue_depth.p95": float(np.percentile(depths[:-1], 95)),
            "serve.backlog_end": float(depths[-1]),
            "serve.gen_late_s.p50": float(np.median(late)),
            "serve.gen_late_s.max": float(np.max(late)),
            "obs.trace_overhead_frac": overhead,
        })
        layers.update(_fleet_layers(w, tensors, group_size, server.config.batch_limit,
                                    seed, tracer))
        out["layers"] = layers
    return out


def _serve_outcome(w, tensors, jobs: list[_Job], shed: int) -> dict:
    """Failures (shed, failed, timed out, wrong) against jobs attempted.

    Every ``check_every``-th job is decomposed again in-process: a solo
    job must match ``cp_als(..., rng=seed)`` bit for bit, a coalesced
    one to ``rtol=1e-10`` (the fleet engine stacks the GEMMs).  The
    absolute floor is 1e-10 of the array's largest entry: the changed
    summation order moves near-zero entries by up to ~1e-9 of their own
    size, but by at most ~5e-13 of the largest.
    """
    from repro import DenseTensor, cp_als

    errors = [f"job {job.j}: {job.error}" for job in jobs if job.result is None]
    wrong = []
    for job in jobs:
        if job.result is None or job.j % w.check_every:
            continue
        ref = cp_als(DenseTensor(tensors[job.k], w.shape), w.rank, n_iter_max=w.iters,
                     tol=-1, rng=job.seed).model
        got = [job.result.weights, *job.result.factors]
        want = [ref.weights, *ref.factors]
        if job.result.batched:
            same = all(np.allclose(g, x, rtol=1e-10, atol=1e-10 * np.abs(x).max())
                       for g, x in zip(got, want))
        else:
            same = all(np.array_equal(g, x) for g, x in zip(got, want))
        if not same:
            how = "coalesced, not allclose" if job.result.batched else "solo, not bitwise equal"
            wrong.append(f"job {job.j}: result differs from direct cp_als ({how})")
    failures = errors + wrong
    return {"correct": not wrong and len(errors) == shed, "attempted": len(jobs),
            "failed": len(failures), "failures": failures[:20]}


def _serve_job_class_layers(w, tensors, init, tracer) -> dict:
    """Core and cpd layers on one job of the class, run in-process.

    The job runs at the package-default thread count, as a serve worker
    runs it.
    """
    from repro import DenseTensor, cp_als

    X = DenseTensor(tensors[0], w.shape)
    layers = _core_layers(X, init, w, tracer)

    def job(threads):
        return lambda: cp_als(X, w.rank, n_iter_max=w.iters, tol=-1, rng=0,
                              num_threads=threads)

    tn_s = _median_time(job(None), tracer, "cpd.cp_als", threads=NPROC)
    t1_s = _median_time(job(1), tracer, "cpd.cp_als", threads=1)
    layers.update(_cpd_layers(layers, w, tn_s, t1_s / tn_s))
    return layers


def _queued_ahead(statuses, times) -> np.ndarray:
    """Jobs submitted before each instant in ``times`` and not yet started then.

    Rebuilt after the run from the server's own ``submitted_at`` and
    ``started_at`` stamps, so sampling the queue costs the timed phase
    nothing.  A job dropped before it started leaves the queue when it
    finished.
    """
    submitted = np.sort([s.submitted_at for s in statuses])
    left = np.sort([s.started_at if s.started_at is not None else s.finished_at
                    for s in statuses])
    return (np.searchsorted(submitted, times, side="left")
            - np.searchsorted(left, times, side="right"))


def _serve_layers(tensors, ok: list[_Job], compute_s: float) -> dict:
    """Per-job serve-path times, from the client and from ``JobResult``."""
    wait = [job.result.wait_seconds for job in ok]
    run = [job.result.run_seconds for job in ok]
    residual = [job.latency_s - job.submit_s - job.result.wait_seconds - job.result.run_seconds
                for job in ok]
    run_p50 = float(np.median(run))
    return {
        "serve.submit_s.p50": float(np.median([job.submit_s for job in ok])),
        "serve.wait_s.p50": float(np.median(wait)),
        "serve.wait_s.p95": float(np.percentile(wait, 95)),
        "serve.run_s.p50": run_p50,
        "serve.run_s.p95": float(np.percentile(run, 95)),
        "serve.overhead_s.p50": run_p50 - compute_s,
        "serve.overhead_frac": (run_p50 - compute_s) / run_p50,
        "serve.client_residual_s.p50": float(np.median(residual)),
        "serve.payload_bytes": float(tensors[0].nbytes),
    }


def _fleet_layers(w, tensors, group_size_mean: float, batch_limit: int, seed: int,
                  tracer) -> dict:
    """``cp_als_fleet`` on G pool members, G the mean coalesced group size."""
    from repro import DenseTensor
    from repro.batch.fleet import cp_als_fleet

    G = int(min(max(round(group_size_mean), 1), batch_limit))
    members = [DenseTensor(t, w.shape) for t in tensors[:G]]
    seeds = [inputs.job_seed(seed, j) for j in range(G)]
    fleet_s = _median_time(
        lambda: cp_als_fleet(members, w.rank, seeds=seeds, n_iter_max=w.iters, tol=-1),
        tracer, "batch.cp_als_fleet", group=G)
    return {"batch.fleet_s": fleet_s, "batch.per_job_s": fleet_s / G}


# --------------------------------------------------------------------- #
# Child entry point
# --------------------------------------------------------------------- #


def main(argv: list[str] | None = None) -> int:
    """``probe`` or ``measure`` one workload; print one JSON line."""
    parser = argparse.ArgumentParser(prog="python -m benchmark.workloads")
    parser.add_argument("kind", choices=("probe", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True, help=".npz written by inputs.save")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace-out", help="measure with spans; write the Chrome trace here")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    w = workload(args.workload, args.smoke)
    tensors, init = inputs.load(args.inputs)
    if args.kind == "probe":
        out = setup_probe(w, args.seed, tensors, init)
    else:
        out = measure(w, args.seed, args.seconds, args.trace_out is not None, tensors, init)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump(out.pop("chrome_trace"), fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
