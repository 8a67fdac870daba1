"""Admission control: payload validation and per-job resource budgets.

Everything here runs at :meth:`JobServer.submit` time, on the caller's
thread, *before* a job can touch the queue — the serving loop itself
never sees a malformed payload.  Two layers:

* :func:`validate_spec` — structural checks with typed
  :class:`~repro.serve.job.AdmissionError` rejections: exactly one
  payload source, float32/float64 dtype, order >= 2 with positive
  dimensions, finite entries (a NaN tensor can never converge — the fit
  goes NaN and burns the whole ``n_iter_max`` budget), positive rank,
  sane solver options;
* :func:`admit` — resource budgets validated against the machine model:
  the requested thread count against the model's cores, and the
  estimated working set (:func:`estimate_job_bytes`) against both the
  job's own ``arena_bytes`` budget and the server-wide cap.  Violations
  raise :class:`~repro.serve.job.BudgetError` carrying the
  requested/allowed numbers, so clients can resize and resubmit rather
  than guess.
"""

from __future__ import annotations

import os

import numpy as np

from repro.serve.job import AdmissionError, BudgetError, JobSpec
from repro.util import prod

__all__ = [
    "validate_spec",
    "admit",
    "estimate_job_bytes",
    "default_bytes_cap",
]

_ALLOWED_DTYPES = (np.float32, np.float64)


def default_bytes_cap() -> int:
    """Server-wide per-job memory cap default: a quarter of physical RAM.

    Falls back to 1 GiB where ``sysconf`` cannot say.
    """
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if total > 0:
            return int(total // 4)
    except (ValueError, OSError, AttributeError):  # pragma: no cover
        pass
    return 1 << 30  # pragma: no cover - sysconf-less platforms


def estimate_job_bytes(
    shape: tuple[int, ...], rank: int, dtype, num_threads: int
) -> int:
    """Conservative working-set estimate for one CP-ALS job.

    Counts the resident tensor, the factor matrices, the MTTKRP output
    and KRP panel (the 1-step kernel's ``(max I_k, C)`` panels, one per
    worker), and the Gram/Hadamard stacks — roughly the
    :class:`~repro.parallel.workspace.Workspace` arena a run warms up
    to, padded 2x for kernel-private scratch (the 2-step partials are
    bounded by one extra tensor-sized buffer).
    """
    shape = tuple(int(s) for s in shape)
    rank = int(rank)
    itemsize = int(np.dtype(dtype).itemsize)
    volume = prod(shape)
    factors = sum(shape) * rank
    panels = max(shape) * rank * (int(num_threads) + 1)
    grams = rank * rank * (len(shape) + 2)
    return 2 * itemsize * (2 * volume + 2 * factors + panels + grams)


def validate_spec(spec: JobSpec) -> JobSpec:
    """Structural admission checks; returns a normalized copy.

    Inline tensors are unwrapped (:class:`~repro.tensor.dense.DenseTensor`
    accepted) and validated; ref payloads are checked for existence only
    (the worker loads them).  ``num_threads=None`` is resolved to the
    package default here, once, so the count admission charges is the
    count the worker runs.  Raises :class:`AdmissionError` naming the
    offending field — never anything untyped.
    """
    from dataclasses import replace

    from repro.parallel.config import resolve_threads
    from repro.tensor.dense import DenseTensor

    if (spec.tensor is None) == (spec.tensor_ref is None):
        raise AdmissionError(
            "tensor", "exactly one of tensor / tensor_ref must be given"
        )
    rank = spec.rank
    if not isinstance(rank, (int, np.integer)) or isinstance(rank, bool):
        raise AdmissionError("rank", f"must be an int, got {type(rank).__name__}")
    if rank < 1:
        raise AdmissionError("rank", f"must be >= 1, got {rank}")
    if spec.n_iter_max < 1:
        raise AdmissionError(
            "n_iter_max", f"must be >= 1, got {spec.n_iter_max}"
        )
    if not np.isfinite(spec.tol):
        raise AdmissionError("tol", f"must be finite, got {spec.tol}")
    if spec.timeout is not None and not spec.timeout > 0:
        raise AdmissionError(
            "timeout", f"must be positive seconds, got {spec.timeout}"
        )
    if spec.num_threads is not None and spec.num_threads < 1:
        raise AdmissionError(
            "num_threads", f"must be >= 1, got {spec.num_threads}"
        )
    spec = replace(spec, num_threads=resolve_threads(spec.num_threads))

    if spec.tensor_ref is not None:
        if not os.path.exists(spec.tensor_ref):
            raise AdmissionError(
                "tensor_ref", f"no such file: {spec.tensor_ref!r}"
            )
        return spec

    tensor = spec.tensor
    if not isinstance(tensor, DenseTensor):
        try:
            arr = np.asarray(tensor)
        except Exception as exc:
            raise AdmissionError(
                "tensor", f"not array-like: {exc}"
            ) from exc
        if arr.dtype not in _ALLOWED_DTYPES:
            raise AdmissionError(
                "tensor", f"dtype must be float32/float64, got {arr.dtype}"
            )
        if arr.ndim < 2:
            raise AdmissionError(
                "tensor", f"must be order >= 2, got order {arr.ndim}"
            )
        if any(s < 1 for s in arr.shape):
            raise AdmissionError(
                "tensor",
                f"all dimensions must be positive, got {arr.shape}",
            )
        tensor = DenseTensor(arr)  # one copy into natural layout
    else:
        if tensor.data.dtype not in _ALLOWED_DTYPES:
            raise AdmissionError(
                "tensor",
                f"dtype must be float32/float64, got {tensor.data.dtype}",
            )
        if tensor.ndim < 2:
            raise AdmissionError(
                "tensor", f"must be order >= 2, got order {tensor.ndim}"
            )
    if not np.isfinite(tensor.data).all():
        raise AdmissionError("tensor", "contains NaN or Inf entries")
    return replace(spec, tensor=tensor)


def admit(
    spec: JobSpec,
    *,
    shape: tuple[int, ...],
    dtype,
    max_threads: int,
    max_bytes: int,
) -> None:
    """Resource-budget admission for a spec :func:`validate_spec` returned.

    ``max_threads`` comes from the machine model's core count,
    ``max_bytes`` from the server config; the job's own ``arena_bytes``
    can only tighten the latter.
    """
    threads = spec.num_threads
    if threads > max_threads:
        raise BudgetError(
            "num_threads", threads, max_threads,
            f"requested {threads} threads; the machine model allows "
            f"{max_threads}",
        )
    cap = max_bytes
    if spec.arena_bytes is not None:
        if spec.arena_bytes < 1:
            raise AdmissionError(
                "arena_bytes", f"must be positive, got {spec.arena_bytes}"
            )
        cap = min(cap, int(spec.arena_bytes))
    estimate = estimate_job_bytes(shape, spec.rank, dtype, threads)
    if estimate > cap:
        raise BudgetError(
            "arena_bytes", estimate, cap,
            f"estimated working set {estimate} B exceeds the budget "
            f"{cap} B (shape {tuple(shape)}, rank {spec.rank})",
        )
