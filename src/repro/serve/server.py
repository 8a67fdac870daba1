"""The decomposition job server: admission, scheduling, workers, metrics.

:class:`JobServer` is the synchronous core the async facade
(:mod:`repro.serve.api`) and the CLI wrap.  One instance owns

* a bounded :class:`~repro.serve.queue.PriorityJobQueue` fed by
  :meth:`submit` (admission-checked, backpressure via
  :class:`~repro.serve.job.QueueFullError`),
* a pool of :class:`~repro.serve.worker.WorkerHandle` processes, each
  driven by one parent-side *tender* thread that pops jobs, dispatches
  them, relays progress, detects worker death
  (:class:`~repro.serve.worker.WorkerDied` -> fail only the in-flight
  job(s) with a chained :class:`~repro.parallel.pool.WorkerError`,
  respawn, keep serving),
* the coalescing policy (:mod:`repro.serve.scheduler`): a tender pops
  with a group claim, and same-(shape, rank, dtype, options) small jobs
  ride one :func:`~repro.batch.fleet.cp_als_fleet` invocation whenever
  two or more of them are popped together,
* service metrics — queue depth, shed count, wait/run latency
  percentiles, respawns — via :meth:`stats`.

Determinism contract: a solo job with ``seed=s`` returns bits equal to
``cp_als(tensor, rank, ..., rng=s)``; a coalesced group returns bits
equal to ``cp_als_fleet(members, rank, seeds=[...])`` over the same
ordered member list.  ``tests/test_oracle_serve.py`` pins both.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.serve import budget as _budget
from repro.serve.job import (
    JobNotFoundError,
    JobResult,
    JobSpec,
    JobState,
    JobStatus,
    QueueFullError,
    ServerClosedError,
)
from repro.serve.queue import PriorityJobQueue
from repro.serve.scheduler import group_key
from repro.serve.worker import WorkerDied, WorkerHandle

__all__ = ["ServeConfig", "JobServer", "JobHandle"]

_clock = time.monotonic

#: How long a tender waits on its worker's pipe before it also checks
#: that the process is alive.  Replies and a clean death (EOF) wake the
#: tender at once; this only bounds how late a wedged pipe is noticed.
_LIVENESS_POLL_S = 0.1

#: The ``done`` event of every finished job: a finished job drops its
#: own :class:`threading.Event` so it keeps only its result.
_FINISHED = threading.Event()
_FINISHED.set()


@dataclass(frozen=True)
class ServeConfig:
    """Server knobs (all have serving-safe defaults).

    Attributes
    ----------
    workers:
        Worker processes (= concurrent jobs).  Defaults to 2.
    queue_depth:
        Backpressure bound on *queued* (not running) jobs; submissions
        past it raise :class:`~repro.serve.job.QueueFullError`.
    max_threads:
        Per-job thread-budget ceiling; defaults to the machine model's
        core count.
    max_bytes:
        Per-job working-set ceiling; defaults to a quarter of physical
        RAM (:func:`repro.serve.budget.default_bytes_cap`).
    batching:
        Enable the coalescing scheduler.
    batch_limit:
        Most jobs one fleet invocation may absorb.
    max_item_elems:
        Elements above which a ``batchable=None`` job is never
        coalesced (matches the batched engine's small-tensor regime).
    progress_every:
        Stream a progress message every N iterations (0 disables).
    start_method:
        ``multiprocessing`` start method for the worker pool; defaults
        to ``$REPRO_MP_START`` or ``fork`` where available.
    paused:
        Start with dispatch paused (tests submit a deterministic batch,
        then :meth:`JobServer.resume`).
    """

    workers: int = 2
    queue_depth: int = 64
    max_threads: int | None = None
    max_bytes: int | None = None
    batching: bool = True
    batch_limit: int = 16
    max_item_elems: int = 1 << 14
    progress_every: int = 1
    start_method: str | None = None
    paused: bool = False


class _Job:
    """Server-internal mutable job record (guarded by the server lock)."""

    __slots__ = (
        "job_id", "spec", "tensor", "state", "submitted_at", "started_at",
        "finished_at", "deadline", "error", "exception", "progress",
        "batched", "group_size", "result", "done", "handle", "token_sent",
    )

    def __init__(self, job_id: str, spec: JobSpec, now: float) -> None:
        self.job_id = job_id
        self.spec = spec
        self.tensor = spec.tensor  # None for ref jobs
        self.state = JobState.QUEUED
        self.submitted_at = now
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.deadline = (
            None if spec.timeout is None else now + float(spec.timeout)
        )
        self.error: str | None = None
        self.exception: BaseException | None = None
        self.progress: tuple[int, float] | None = None
        self.batched = False
        self.group_size = 1
        self.result: JobResult | None = None
        self.done = threading.Event()
        self.handle: WorkerHandle | None = None
        self.token_sent = False


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _mp_context(start_method: str | None):
    method = start_method or os.environ.get("REPRO_MP_START")
    if method is None:
        method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
    return multiprocessing.get_context(method)


class JobHandle:
    """Client-side convenience: one submitted job's id + accessors."""

    __slots__ = ("_server", "job_id")

    def __init__(self, server: "JobServer", job_id: str) -> None:
        self._server = server
        self.job_id = job_id

    def status(self) -> JobStatus:
        return self._server.status(self.job_id)

    def result(self, timeout: float | None = None) -> JobResult:
        return self._server.result(self.job_id, timeout=timeout)

    def wait(self, timeout: float | None = None) -> bool:
        return self._server.wait(self.job_id, timeout=timeout)

    def cancel(self, reason: str = "cancelled") -> bool:
        return self._server.cancel(self.job_id, reason=reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobHandle({self.job_id!r})"


class JobServer:
    """See module docstring.  Thread-safe; one instance per pool."""

    def __init__(self, config: ServeConfig | None = None, **overrides) -> None:
        if config is None:
            config = ServeConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        if config.workers < 1:
            raise ValueError(f"need >= 1 worker, got {config.workers}")
        self.config = config
        from repro.machine.model import host_model_default

        cores = host_model_default().cores
        self._max_threads = (
            int(config.max_threads) if config.max_threads is not None
            else int(cores)
        )
        self._max_bytes = (
            int(config.max_bytes) if config.max_bytes is not None
            else _budget.default_bytes_cap()
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, _Job] = {}
        self._seq = itertools.count(1)
        self._queue = PriorityJobQueue(config.queue_depth)
        self._closed = False
        self._resume = threading.Event()
        if not config.paused:
            self._resume.set()
        # metrics (guarded by the server lock)
        self._shed = 0
        self._timeouts = 0
        self._wait_times: list[float] = []
        self._run_times: list[float] = []
        self._completed = 0
        self._failed = 0
        self._cancelled = 0
        self._coalesced_groups = 0
        self._coalesced_jobs = 0
        self._dispatch_log: list[tuple[str, ...]] = []

        ctx = _mp_context(config.start_method)
        self._handles = [WorkerHandle(r, ctx) for r in range(config.workers)]
        self._tenders = [
            threading.Thread(
                target=self._tend, args=(h,), name=f"repro-serve-tender-{h.rank}",
                daemon=True,
            )
            for h in self._handles
        ]
        for t in self._tenders:
            t.start()
        atexit.register(self._atexit)

    # ------------------------------------------------------------------ #
    # Client API
    # ------------------------------------------------------------------ #

    def submit(self, spec: JobSpec | None = None, /, **kwargs) -> JobHandle:
        """Admit one job; returns its handle or raises a typed rejection.

        Accepts a prebuilt :class:`JobSpec` or its keyword fields.
        Raises :class:`~repro.serve.job.AdmissionError` (malformed),
        :class:`~repro.serve.job.BudgetError` (over budget),
        :class:`~repro.serve.job.QueueFullError` (backpressure), or
        :class:`~repro.serve.job.ServerClosedError` (after shutdown).
        """
        if spec is None:
            spec = JobSpec(**kwargs)
        elif kwargs:
            spec = replace(spec, **kwargs)
        if self._closed:
            raise ServerClosedError("server is shut down")
        spec = _budget.validate_spec(spec)
        if spec.tensor is not None:
            _budget.admit(
                spec,
                shape=spec.tensor.shape,
                dtype=spec.tensor.data.dtype,
                max_threads=self._max_threads,
                max_bytes=self._max_bytes,
            )
        elif spec.num_threads > self._max_threads:
            # Ref jobs: the tensor never transits the parent, so only
            # the thread budget is checkable at admission.
            from repro.serve.job import BudgetError

            raise BudgetError(
                "num_threads", spec.num_threads, self._max_threads,
                f"requested {spec.num_threads} threads; the machine model "
                f"allows {self._max_threads}",
            )
        now = _clock()
        job_id = f"job-{next(self._seq):06d}"
        job = _Job(job_id, spec, now)
        key = None
        if self.config.batching:
            key = group_key(job, max_item_elems=self.config.max_item_elems)
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is shut down")
            self._jobs[job_id] = job
        try:
            self._queue.put(job_id, job, priority=spec.priority, key=key)
        except QueueFullError:
            with self._lock:
                self._shed += 1
                del self._jobs[job_id]
            raise
        return JobHandle(self, job_id)

    def status(self, job_id: str) -> JobStatus:
        job = self._get(job_id)
        with self._lock:
            return JobStatus(
                job_id=job.job_id,
                state=job.state,
                priority=job.spec.priority,
                submitted_at=job.submitted_at,
                started_at=job.started_at,
                finished_at=job.finished_at,
                error=job.error,
                progress=job.progress,
                batched=job.batched,
                group_size=job.group_size,
            )

    def wait(self, job_id: str, timeout: float | None = None) -> bool:
        """Block until the job is terminal; True if it reached a state."""
        return self._get(job_id).done.wait(timeout)

    def result(self, job_id: str, timeout: float | None = None) -> JobResult:
        """The job's :class:`JobResult`; blocks until terminal.

        Raises :class:`TimeoutError` if the wait times out, or re-raises
        the job's failure: the shipped worker exception (``__cause__``
        chain intact) for ``FAILED``, :class:`~repro.util.cancel.Cancelled`
        for ``CANCELLED``, :class:`~repro.util.cancel.DeadlineExceeded`
        for ``TIMEOUT``.
        """
        job = self._get(job_id)
        if not job.done.wait(timeout):
            raise TimeoutError(
                f"{job_id} still {job.state.value} after {timeout}s"
            )
        if job.state is JobState.DONE:
            assert job.result is not None
            return job.result
        if job.exception is not None:
            raise job.exception
        from repro.util.cancel import Cancelled, DeadlineExceeded

        if job.state is JobState.TIMEOUT:
            raise DeadlineExceeded(job.deadline or 0.0)
        raise Cancelled(job.error or "cancelled")

    def cancel(self, job_id: str, reason: str = "cancelled") -> bool:
        """Cancel a job; True if the cancellation will take effect.

        Queued jobs drop immediately.  Running solo jobs get a
        cooperative cancel delivered to their worker (the run stops at
        the next iteration boundary).  Running *coalesced* members are
        not cancellable — a fleet advances in lock-step, and stopping it
        would take the co-tenants down too — so those return ``False``,
        as do already-terminal jobs.
        """
        job = self._get(job_id)
        if self._queue.cancel(job_id) is not None:
            self._finalize(job, JobState.CANCELLED, error=reason)
            return True
        with self._lock:
            if job.state is not JobState.RUNNING:
                return False
            if job.batched and job.group_size > 1:
                return False
            handle = job.handle
            if job.token_sent or handle is None:
                return job.token_sent
            job.token_sent = True
        try:
            handle.send(("cancel", job_id, reason))
        except WorkerDied:
            # The tender will observe the death and fail the job anyway.
            return True
        return True

    def stats(self) -> dict:
        """Service metrics snapshot (JSON-ready)."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "queue_depth": len(self._queue),
                "queue_bound": self.config.queue_depth,
                "workers": len(self._handles),
                "respawns": sum(h.respawns for h in self._handles),
                "states": states,
                "admitted": sum(states.values()),
                "shed": self._shed,
                "completed": self._completed,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "timeouts": self._timeouts,
                "coalesced_groups": self._coalesced_groups,
                "coalesced_jobs": self._coalesced_jobs,
                "wait_p50": _percentile(self._wait_times, 0.50),
                "wait_p99": _percentile(self._wait_times, 0.99),
                "run_p50": _percentile(self._run_times, 0.50),
                "run_p99": _percentile(self._run_times, 0.99),
            }

    def dispatch_log(self) -> list[tuple[str, ...]]:
        """Ordered record of dispatches: ``(kind, job_id, ...)`` tuples.

        ``("solo", job_id)`` or ``("group", head_id, member_id, ...)`` —
        the oracle tests use this to learn the actual grouping.
        """
        with self._lock:
            return list(self._dispatch_log)

    def pause(self) -> None:
        """Stop dispatching (running jobs finish; the queue holds)."""
        self._resume.clear()

    def resume(self) -> None:
        self._resume.set()

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until the queue is empty and no job is running."""
        end = None if timeout is None else _clock() + timeout
        while True:
            with self._lock:
                busy = any(
                    j.state in (JobState.QUEUED, JobState.RUNNING)
                    for j in self._jobs.values()
                )
            if not busy:
                return True
            if end is not None and _clock() >= end:
                return False
            time.sleep(0.005)

    def shutdown(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the server.

        ``drain=True`` (default): stop admitting, let tenders finish
        everything queued and running, then stop the workers.
        ``drain=False``: drop queued jobs as ``CANCELLED``, deliver a
        cooperative cancel to running jobs, and tear down.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self._resume.set()
            self._queue.wait_empty(timeout)
            remaining = self._queue.close()
        else:
            remaining = self._queue.close()
        # Finalize dropped entries *before* waiting for idle — wait_idle
        # watches job states, and these will never be dispatched.
        for job in remaining:
            self._finalize(job, JobState.CANCELLED, error="server shutdown")
        if not drain:
            with self._lock:
                running = [
                    j for j in self._jobs.values()
                    if j.state is JobState.RUNNING
                ]
            for job in running:
                if job.handle is not None:
                    try:
                        job.handle.send(
                            ("cancel", job.job_id, "server shutdown")
                        )
                    except WorkerDied:
                        pass
        self._resume.set()
        self.wait_idle(timeout)
        for t in self._tenders:
            t.join(timeout)
        for h in self._handles:
            h.stop()
        atexit.unregister(self._atexit)

    def _atexit(self) -> None:  # pragma: no cover - interpreter teardown
        for h in self._handles:
            try:
                h.stop(timeout=0.5)
            except Exception:
                pass

    def __enter__(self) -> "JobServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown(drain=exc == (None, None, None))

    # ------------------------------------------------------------------ #
    # Tender loop (one thread per worker)
    # ------------------------------------------------------------------ #

    def _tend(self, handle: WorkerHandle) -> None:
        cfg = self.config
        group_limit = cfg.batch_limit if cfg.batching else 1

        def key_of(job: _Job):
            if not cfg.batching:
                return None
            return group_key(job, max_item_elems=cfg.max_item_elems)

        while True:
            self._resume.wait(0.1)
            if not self._resume.is_set():
                if self._queue.closed and len(self._queue) == 0:
                    return
                continue
            popped = self._queue.pop(
                timeout=0.1, group_key=key_of, group_limit=group_limit
            )
            if popped is None:
                if self._queue.closed:
                    return
                continue
            now = _clock()
            live: list[_Job] = []
            for job in popped:
                if job.deadline is not None and now > job.deadline:
                    with self._lock:
                        self._timeouts += 1
                    self._finalize(
                        job, JobState.TIMEOUT,
                        error="deadline passed while queued",
                    )
                else:
                    live.append(job)
            if not live:
                continue
            if len(live) > 1 and key_of(live[0]) is not None:
                self._run_group(handle, live)
                continue
            for job in live:
                self._run_solo(handle, job)

    # -- dispatch ------------------------------------------------------- #

    def _mark_running(self, jobs: list[_Job], handle: WorkerHandle,
                      batched: bool) -> None:
        now = _clock()
        with self._lock:
            for job in jobs:
                job.state = JobState.RUNNING
                job.started_at = now
                job.handle = handle
                job.batched = batched
                job.group_size = len(jobs)
                self._wait_times.append(now - job.submitted_at)
            if batched:
                self._coalesced_groups += 1
                self._coalesced_jobs += len(jobs)
                self._dispatch_log.append(
                    ("group",) + tuple(j.job_id for j in jobs)
                )
            else:
                self._dispatch_log.append(("solo", jobs[0].job_id))

    def _solo_payload(self, job: _Job) -> dict:
        spec = job.spec
        now = _clock()
        return {
            "kind": "solo",
            "job_id": job.job_id,
            "rank": spec.rank,
            "data": None if job.tensor is None else job.tensor.data,
            "shape": None if job.tensor is None else tuple(job.tensor.shape),
            "ref": spec.tensor_ref,
            "n_iter_max": spec.n_iter_max,
            "tol": spec.tol,
            "method": spec.method,
            "num_threads": spec.num_threads,
            "seed": spec.seed,
            "trace": spec.trace,
            "progress_every": self.config.progress_every,
            "timeout_remaining": (
                None if job.deadline is None else max(0.0, job.deadline - now)
            ),
        }

    def _group_payload(self, jobs: list[_Job]) -> dict:
        head = jobs[0].spec
        return {
            "kind": "group",
            "job_id": jobs[0].job_id,
            "rank": head.rank,
            "shape": tuple(jobs[0].tensor.shape),
            "datas": [j.tensor.data for j in jobs],
            "seeds": [j.spec.seed for j in jobs],
            "n_iter_max": head.n_iter_max,
            "tol": head.tol,
            "num_threads": head.num_threads,
            "trace": False,
            "progress_every": self.config.progress_every,
            "timeout_remaining": None,
        }

    def _run_solo(self, handle: WorkerHandle, job: _Job) -> None:
        self._mark_running([job], handle, batched=False)
        self._dispatch([job], handle, self._solo_payload(job))

    def _run_group(self, handle: WorkerHandle, jobs: list[_Job]) -> None:
        self._mark_running(jobs, handle, batched=True)
        self._dispatch(jobs, handle, self._group_payload(jobs))

    def _dispatch(self, jobs: list[_Job], handle: WorkerHandle,
                  payload: dict) -> None:
        try:
            try:
                handle.send_job(payload)
            except WorkerDied:
                # Dead before the job ever started: respawn and retry once
                # (the retry cannot double-run — nothing was dispatched).
                handle.respawn()
                try:
                    handle.send_job(payload)
                except WorkerDied as died:
                    self._fail_with_death(jobs, died)
                    return
        except OSError as exc:  # no memfd for the tensor; nothing was sent
            for job in jobs:
                self._finalize(job, JobState.FAILED, error=repr(exc),
                               exception=exc)
            return
        self._await(jobs, handle)

    def _await(self, jobs: list[_Job], handle: WorkerHandle) -> None:
        """Pump the worker pipe until this dispatch resolves."""
        head_id = jobs[0].job_id
        while True:
            try:
                msg = handle.recv(timeout=_LIVENESS_POLL_S)
            except WorkerDied as died:
                self._fail_with_death(jobs, died)
                handle.respawn()
                return
            if msg is None:
                continue
            kind = msg[0]
            if kind == "progress":
                _, job_id, it, fit = msg
                with self._lock:
                    for job in jobs:
                        job.progress = (int(it), float(fit))
                continue
            if msg[1] != head_id:  # stale reply from a cancelled epoch
                continue
            if kind == "done":
                self._complete(jobs[0], msg[2])
            elif kind == "done-group":
                for job, rd in zip(jobs, msg[2]):
                    self._complete(job, rd)
            elif kind == "failed":
                _, _, exc_bytes, exc_repr, tb_text = msg
                exc: BaseException
                if exc_bytes is not None:
                    import pickle

                    try:
                        exc = pickle.loads(exc_bytes)
                    except Exception:
                        exc = RuntimeError(exc_repr)
                else:
                    exc = RuntimeError(exc_repr)
                for job in jobs:
                    self._finalize(
                        job, JobState.FAILED,
                        error=f"{exc_repr}\n{tb_text}", exception=exc,
                    )
            elif kind == "cancelled":
                reason = msg[2]
                state = (
                    JobState.TIMEOUT
                    if reason == "deadline exceeded" else JobState.CANCELLED
                )
                if state is JobState.TIMEOUT:
                    with self._lock:
                        self._timeouts += 1
                for job in jobs:
                    self._finalize(job, state, error=reason)
            return

    def _fail_with_death(self, jobs: list[_Job], died: WorkerDied) -> None:
        for job in jobs:
            err = died.as_worker_error()
            self._finalize(
                job, JobState.FAILED, error=str(err), exception=err,
            )

    # -- completion ----------------------------------------------------- #

    def _complete(self, job: _Job, rd: dict) -> None:
        now = _clock()
        result = JobResult(
            job_id=job.job_id,
            weights=np.asarray(rd["weights"]),
            factors=[np.asarray(f) for f in rd["factors"]],
            fit=rd["fit"],
            iterations=rd["iterations"],
            converged=rd["converged"],
            batched=job.batched,
            group_size=job.group_size,
            wait_seconds=(
                (job.started_at or job.submitted_at) - job.submitted_at
            ),
            run_seconds=now - (job.started_at or now),
            counters=rd.get("counters") or {},
            trace=rd.get("trace"),
        )
        with self._lock:
            job.result = result
        self._finalize(job, JobState.DONE)

    def _finalize(self, job: _Job, state: JobState, error: str | None = None,
                  exception: BaseException | None = None) -> None:
        now = _clock()
        with self._lock:
            if job.state.terminal:
                return
            job.state = state
            job.finished_at = now
            job.error = error
            job.exception = exception
            # Keep only what status() and result() read: the tensor (an
            # admission copy for C-order input) and the per-job Event go.
            job.tensor = None
            if job.spec.tensor is not None:
                job.spec = replace(job.spec, tensor=None)
            done, job.done = job.done, _FINISHED
            if job.started_at is not None:
                self._run_times.append(now - job.started_at)
            if state is JobState.DONE:
                self._completed += 1
            elif state is JobState.FAILED:
                self._failed += 1
            elif state is JobState.CANCELLED:
                self._cancelled += 1
        done.set()  # wakes a thread that took the old Event before the swap

    # ------------------------------------------------------------------ #

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(job_id)
        return job
