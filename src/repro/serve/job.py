"""Job vocabulary for the decomposition service: specs, states, results.

Everything a client hands the server is a :class:`JobSpec` (an inline
tensor *or* a ``repro.io`` file ref, a rank, solver options, scheduling
hints); everything the server hands back is a :class:`JobStatus`
snapshot while the job is in flight and a :class:`JobResult` once it is
terminal.  The typed error hierarchy is the admission-control contract:
a malformed or over-budget submission raises a subclass of
:class:`AdmissionError` *at submit time* — it never enters the queue and
can never crash the serving loop — while backpressure sheds load with
:class:`QueueFullError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "JobSpec",
    "JobState",
    "JobStatus",
    "JobResult",
    "ServeError",
    "AdmissionError",
    "BudgetError",
    "QueueFullError",
    "JobNotFoundError",
    "ServerClosedError",
]


class ServeError(RuntimeError):
    """Base class for service-level failures."""


class AdmissionError(ServeError, ValueError):
    """A submission rejected at admission: malformed payload or options.

    ``field`` names the offending part of the spec (``"tensor"``,
    ``"rank"``, ...) so clients can machine-route rejections.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__(f"{field}: {message}")
        self.field = field


class BudgetError(AdmissionError):
    """A submission whose resource budget cannot be honoured.

    Carries the requested and allowed amounts so a client can resize
    and resubmit.
    """

    def __init__(self, field: str, requested, allowed, message: str) -> None:
        super().__init__(field, message)
        self.requested = requested
        self.allowed = allowed


class QueueFullError(ServeError):
    """Backpressure: the bounded queue is at depth; the job was shed."""

    def __init__(self, depth: int) -> None:
        super().__init__(
            f"queue is at its depth bound ({depth}); job shed — retry "
            f"later or raise ServeConfig.queue_depth"
        )
        self.depth = depth


class JobNotFoundError(ServeError, KeyError):
    """An id that was never issued (or was evicted from the registry)."""

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job id {job_id!r}")
        self.job_id = job_id


class ServerClosedError(ServeError):
    """Submission after shutdown began."""


class JobState(str, enum.Enum):
    """Lifecycle of an admitted job.

    ``QUEUED -> RUNNING -> {DONE, FAILED, CANCELLED, TIMEOUT}``; queued
    jobs may also go straight to ``CANCELLED`` (dropped before dispatch)
    or ``TIMEOUT`` (deadline passed while waiting).  Rejected
    submissions never get a state: :meth:`repro.serve.JobServer.submit`
    raises instead.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE, JobState.FAILED, JobState.CANCELLED,
            JobState.TIMEOUT,
        )


@dataclass(frozen=True)
class JobSpec:
    """One decomposition request.

    Parameters
    ----------
    rank:
        CP rank.
    tensor:
        Inline payload: a natural-layout :class:`numpy.ndarray` (or a
        :class:`~repro.tensor.dense.DenseTensor`, unwrapped at submit).
        Exactly one of ``tensor`` / ``tensor_ref`` must be given.
    tensor_ref:
        Path to an ``.npz`` written by :func:`repro.io.save_tensor`; the
        *worker* loads it, so large tensors never transit the queue.
        Ref jobs always run solo (the parent cannot group what it has
        not seen).
    n_iter_max / tol / method / num_threads / seed:
        Solver options, forwarded to :func:`repro.cpd.cp_als.cp_als`
        (solo) or :func:`repro.batch.fleet.cp_als_fleet` (coalesced) —
        ``seed`` becomes the ``rng`` so reruns are bit-reproducible.
    priority:
        Higher runs earlier; FIFO within a priority level.
    timeout:
        Wall-clock budget in seconds from submission, enforced while
        queued (dropped as ``TIMEOUT`` at dispatch) and while running
        (cooperative deadline at iteration boundaries).
    arena_bytes:
        Per-job memory budget validated at admission against the
        estimated working set (see :func:`repro.serve.budget.estimate_job_bytes`).
    batchable:
        ``None`` — the scheduler decides from size and the tuning
        cache's stacked-vs-loop crossover; ``False`` — force solo;
        ``True`` — always eligible for coalescing.
    trace:
        Capture a per-job :mod:`repro.obs` Chrome trace + counters in
        the worker and replay them in :attr:`JobResult.trace` /
        :attr:`JobResult.counters`.
    """

    rank: int
    tensor: object | None = None
    tensor_ref: str | None = None
    n_iter_max: int = 50
    tol: float = 1e-8
    method: str = "auto"
    num_threads: int | None = None
    seed: int | None = None
    priority: int = 0
    timeout: float | None = None
    arena_bytes: int | None = None
    batchable: bool | None = None
    trace: bool = False


@dataclass(frozen=True)
class JobStatus:
    """Point-in-time snapshot of one job (safe to hold across threads)."""

    job_id: str
    state: JobState
    priority: int
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    error: str | None
    progress: tuple[int, float] | None  #: last (iteration, fit) streamed
    batched: bool  #: dispatched as part of a coalesced group
    group_size: int  #: 1 for solo jobs

    def as_dict(self) -> dict:
        """JSON-ready form (used by the socket protocol and CLI)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "priority": self.priority,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "progress": list(self.progress) if self.progress else None,
            "batched": self.batched,
            "group_size": self.group_size,
        }


@dataclass
class JobResult:
    """Terminal output of a successful job.

    ``weights``/``factors`` are the fitted model exactly as the
    underlying API returns it (normalized, weight-sorted) — bit-identical
    to a direct :func:`~repro.cpd.cp_als.cp_als` (solo) or
    :func:`~repro.batch.fleet.cp_als_fleet` (coalesced) call with the
    same seed and options.
    """

    job_id: str
    weights: np.ndarray
    factors: list[np.ndarray]
    fit: float
    iterations: int
    converged: bool
    batched: bool = False
    group_size: int = 1
    wait_seconds: float = 0.0
    run_seconds: float = 0.0
    counters: dict = field(default_factory=dict)
    trace: dict | None = None

    @property
    def model(self):
        """The fitted :class:`~repro.cpd.kruskal.KruskalTensor`."""
        from repro.cpd.kruskal import KruskalTensor

        return KruskalTensor(self.factors, self.weights)
