"""Batched MTTKRP: the 1-step formulation lifted over a batch axis.

For one small tensor the 1-step kernel is a KRP plus one GEMM; at fleet
scale (``B`` small same-shape tensors) the Python/dispatch overhead of
``B`` separate kernel calls dwarfs the arithmetic.  This module lifts
the formulation to 3-D: per-item Khatri-Rao panels are formed into a
cache-resident stacked buffer (chunked by the machine model's cache
capacity, :attr:`~repro.machine.model.MachineModel.cache_bytes`), then one batched
``np.matmul`` — ``(bc, I_n, J) @ (bc, J, C)`` — computes a whole chunk
of MTTKRPs in a single call.  Internal modes use the 4-D form
``(bc, I^R_n, I_n, I^L_n) @ (bc, I^R_n, I^L_n, C)`` summed over the
block axis.

NumPy executes a stacked matmul as one BLAS call per 2-D slice with
exactly the strides the per-item kernel would pass, so ``"batched"``
and the ``"batched-loop"`` reference lane are **bit-identical** — and,
items being independent, results are invariant to thread count
and batch partition.  The differential oracle
(``tests/test_oracle_batch.py``) pins both properties.

Methods (``BATCHED_MTTKRP_METHODS``):

* ``"auto"`` — the stacked kernel (``"batched"``);
* ``"batched"`` — stacked panels + one batched GEMM per chunk;
* ``"batched-loop"`` — the per-item 2-D loop over the same stacked
  storage (the oracle's bit-identity reference and the ``batch``
  bench suite's baseline).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from time import perf_counter as _clock

import numpy as np

from repro.batch.tensor import BatchedTensor
from repro.core.flops import record_mttkrp_cost
from repro.core.krp import khatri_rao
from repro.machine.model import resolve_cache_bytes
from repro.obs import get_tracer
from repro.parallel.config import resolve_threads
from repro.parallel.pool import get_pool
from repro.parallel.reduction import allocate_shared
from repro.tensor.layout import mode_products
from repro.util.validation import check_mode

__all__ = [
    "BATCHED_MTTKRP_METHODS",
    "BatchPlan",
    "choose_batch_chunk",
    "mttkrp_batched",
    "mttkrp_batched_stacked",
    "mttkrp_batched_loop",
]

BATCHED_MTTKRP_METHODS = (
    "auto",
    "batched",
    "batched-loop",
)


@dataclass(frozen=True)
class BatchPlan:
    """Chunking decision for one batched MTTKRP invocation.

    ``chunk`` items are processed per stacked GEMM so that the panel
    chunk, the tensor chunk, and the output chunk together stay within
    half the machine model's fast-memory capacity
    (:func:`~repro.machine.model.resolve_cache_bytes`).
    """

    chunk: int
    num_chunks: int
    cache_bytes: float


def choose_batch_chunk(
    shape: Sequence[int],
    n: int,
    C: int,
    batch: int,
    itemsize: int = 8,
    cache_bytes: float | None = None,
) -> BatchPlan:
    """Pick the batch-chunk size for ``batch`` items of ``shape``.

    Per item the working set is the KRP panel (``I^o_n * C``), the
    tensor row (``prod(shape)``), the output (``I_n * C``) and, for
    internal modes, the pre-reduction product (``I^R_n * I_n * C``).
    The chunk is the largest item count whose working set fits in half
    of ``cache_bytes`` (floored at 1, capped at ``batch``).
    """
    shape = [int(s) for s in shape]
    batch = int(batch)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    cache = resolve_cache_bytes(cache_bytes)
    p = mode_products(shape, n)
    C = int(C)
    target_words = max(int(cache) // 2 // int(itemsize), 1)
    per_item = p.other * C + p.total + p.size * C
    if 0 < n < len(shape) - 1:
        per_item += p.right * p.size * C
    chunk = min(max(target_words // per_item, 1), batch)
    return BatchPlan(int(chunk), -(-batch // int(chunk)), float(cache))


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #


def mttkrp_batched(
    batch: BatchedTensor,
    factors: Sequence[np.ndarray],
    n: int,
    method: str = "auto",
    num_threads: int | None = None,
    **kwargs,
) -> np.ndarray:
    """Mode-``n`` MTTKRP for every item of a batch in one call.

    ``out[b] = X_b_(n) . (U_{N-1}[b] krp ... krp U_0[b])`` for each of
    the ``B`` stacked tensors.

    Parameters
    ----------
    batch:
        ``B`` same-shape dense tensors (:class:`BatchedTensor`).
    factors:
        One stacked ``(B, I_k, C)`` factor array per mode.
    n:
        Output mode (negative values allowed, numpy-style).
    method:
        One of ``BATCHED_MTTKRP_METHODS`` (see module docstring).
    num_threads:
        Worker count; workers split the **batch axis** into contiguous
        blocks (items are independent, so no reduction is needed and
        any split is bit-identical).
    **kwargs:
        Forwarded to the selected lane (``workspace=``, ``slot=``,
        ``cache_bytes=``).

    Traced phases (:mod:`repro.obs` spans) are ``"full_krp"`` and
    ``"gemm"``, one pair per chunk (stacked lane) or item (loop lane).

    Returns
    -------
    numpy.ndarray
        The stacked ``(B, I_n, C)`` MTTKRP results.  With a
        ``workspace=``, the array is arena-owned and overwritten by the
        next call on the same slot — copy it to keep it.
    """
    if not isinstance(batch, BatchedTensor):
        raise TypeError(
            f"batch must be a BatchedTensor, got {type(batch).__name__}"
        )
    n = check_mode(n, batch.ndim)
    if method == "auto":
        method = "batched"
    if method not in BATCHED_MTTKRP_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{BATCHED_MTTKRP_METHODS}"
        )

    tracer = get_tracer()
    if not tracer.enabled:
        return _run(batch, factors, n, method, num_threads, kwargs)
    with tracer.span(
        f"batch.mttkrp.{method}", mode=n, batch=batch.batch,
        shape=list(batch.shape),
    ) as span:
        out = _run(batch, factors, n, method, num_threads, kwargs)
        span.args["rank"] = int(out.shape[-1])
        return out


def _run(batch, factors, n, method, num_threads, kwargs):
    if method == "batched":
        return mttkrp_batched_stacked(
            batch, factors, n, num_threads=num_threads, **kwargs
        )
    assert method == "batched-loop"
    return mttkrp_batched_loop(
        batch, factors, n, num_threads=num_threads, **kwargs
    )


# --------------------------------------------------------------------- #
# Shared pieces
# --------------------------------------------------------------------- #


def _validate(
    batch: BatchedTensor, factors: Sequence[np.ndarray], n: int
) -> tuple[int, int]:
    if not isinstance(batch, BatchedTensor):
        raise TypeError(
            f"batch must be a BatchedTensor, got {type(batch).__name__}"
        )
    n = check_mode(n, batch.ndim)
    if len(factors) != batch.ndim:
        raise ValueError(
            f"expected {batch.ndim} stacked factors, got {len(factors)}"
        )
    rank = None
    for k, f in enumerate(factors):
        f = np.asarray(f)
        if f.ndim != 3:
            raise ValueError(
                f"stacked factor {k} must be 3-D (B, I_k, C), got "
                f"{f.ndim}-D"
            )
        if f.shape[0] != batch.batch:
            raise ValueError(
                f"stacked factor {k} has batch {f.shape[0]}, tensor batch "
                f"is {batch.batch}"
            )
        if f.shape[1] != batch.shape[k]:
            raise ValueError(
                f"stacked factor {k} has {f.shape[1]} rows, mode extent "
                f"is {batch.shape[k]}"
            )
        if rank is None:
            rank = int(f.shape[2])
        elif f.shape[2] != rank:
            raise ValueError(
                f"stacked factor {k} has {f.shape[2]} columns, expected "
                f"{rank}"
            )
    return n, rank


def _stacked_operands(
    factors: Sequence[np.ndarray], n: int
) -> list[np.ndarray]:
    """KRP operand stacks in row-convention order (first = slowest)."""
    return [
        np.ascontiguousarray(factors[k])
        for k in range(len(factors) - 1, -1, -1)
        if k != n
    ]


def _acquire(workspace, name, shape, dtype):
    if workspace is not None:
        return workspace.buffer(name, shape, dtype)
    return np.empty(shape, dtype=dtype, order="C")


def _shared(workspace, name, shape, dtype=np.float64):
    """A buffer pool workers write: the workspace's, or a fresh one."""
    if workspace is not None:
        return workspace.buffer(name, shape, dtype)
    return allocate_shared(shape, dtype=dtype)


def _stacked_chunk(flat, shape, n, ops, b0, b1, out, pan, prod):
    """One chunk ``[b0, b1)``: per-item KRP panels, then stacked GEMMs.

    ``out``/``pan``/``prod`` are the chunk-sized views; ``prod`` is the
    pre-reduction ``(bc, I^R_n, I_n, C)`` buffer (internal modes only).
    """
    bc = b1 - b0
    t0 = _clock()
    for i in range(bc):
        khatri_rao([op[b0 + i] for op in ops], out=pan[i])
    t1 = _clock()
    N = len(shape)
    p = mode_products(shape, n)
    if n == N - 1:
        X3 = flat.reshape(flat.shape[0], p.size, p.left)
        np.matmul(X3[b0:b1], pan, out=out)
    elif n == 0:
        X3 = flat.reshape(flat.shape[0], p.other, p.size)
        np.matmul(X3[b0:b1].transpose(0, 2, 1), pan, out=out)
    else:
        X4 = flat.reshape(flat.shape[0], p.right, p.size, p.left)
        K4 = pan.reshape(bc, p.right, p.left, pan.shape[-1])
        np.matmul(X4[b0:b1], K4, out=prod)
        np.sum(prod, axis=1, out=out)
    _record_phases(t0, t1)


def _loop_item(flat, shape, n, ops, b, out2, pan, prod):
    """Item ``b`` with per-item 2-D arithmetic (the reference lane)."""
    t0 = _clock()
    khatri_rao([op[b] for op in ops], out=pan)
    t1 = _clock()
    N = len(shape)
    p = mode_products(shape, n)
    row = flat[b]
    if n == N - 1:
        np.matmul(row.reshape(p.size, p.left), pan, out=out2)
    elif n == 0:
        np.matmul(row.reshape(p.other, p.size).T, pan, out=out2)
    else:
        X3 = row.reshape(p.right, p.size, p.left)
        K3 = pan.reshape(p.right, p.left, pan.shape[-1])
        np.matmul(X3, K3, out=prod)
        np.sum(prod, axis=0, out=out2)
    _record_phases(t0, t1)


def _record_phases(t0: float, t1: float) -> None:
    """Trace a ``full_krp`` span over ``[t0, t1)`` and a ``gemm`` span
    from ``t1`` to now, on the calling thread, when tracing is on."""
    tr = get_tracer()
    if tr.enabled:
        tr.record("full_krp", t0, t1)
        tr.record("gemm", t1, _clock())


# --------------------------------------------------------------------- #
# Region kernels (all shared writes are worker- or partition-indexed)
# --------------------------------------------------------------------- #


def _k_batched_stacked(
    worker: int,
    start: int,
    stop: int,
    flat: np.ndarray,
    shape: tuple,
    n: int,
    ops: list,
    chunk: int,
    out: np.ndarray,
    panel: np.ndarray,
    prod: np.ndarray | None,
) -> None:
    pan = panel[worker]
    pr = None if prod is None else prod[worker]
    for b0 in range(start, stop, chunk):
        b1 = min(b0 + chunk, stop)
        bc = b1 - b0
        _stacked_chunk(
            flat, shape, n, ops, b0, b1, out[b0:b1], pan[:bc],
            None if pr is None else pr[:bc],
        )


def _k_batched_loop(
    worker: int,
    start: int,
    stop: int,
    flat: np.ndarray,
    shape: tuple,
    n: int,
    ops: list,
    out: np.ndarray,
    panel: np.ndarray,
    prod: np.ndarray | None,
) -> None:
    pan = panel[worker]
    pr = None if prod is None else prod[worker]
    for b in range(start, stop):
        _loop_item(flat, shape, n, ops, b, out[b], pan, pr)


# --------------------------------------------------------------------- #
# Kernel entries
# --------------------------------------------------------------------- #


def mttkrp_batched_stacked(
    batch: BatchedTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    workspace=None,
    slot: str = "batch",
    cache_bytes: float | None = None,
) -> np.ndarray:
    """The stacked lane: chunked panels + one batched GEMM per chunk."""
    n, rank = _validate(batch, factors, n)
    T = resolve_threads(num_threads)
    tr = get_tracer()
    record_mttkrp_cost(
        tr, batch.shape, n, rank, "batched", T, cache_bytes=cache_bytes,
        batch=batch.batch,
    )
    dtype = np.result_type(
        batch.dtype, *[np.asarray(f).dtype for f in factors]
    )
    p = mode_products(batch.shape, n)
    B = batch.batch
    plan = choose_batch_chunk(
        batch.shape, n, rank, B,
        itemsize=np.dtype(dtype).itemsize, cache_bytes=cache_bytes,
    )
    ops = _stacked_operands(factors, n)
    internal = 0 < n < batch.ndim - 1
    flat = batch.flat
    pfx = f"{slot}.m{n}"

    if T == 1:
        out = _acquire(workspace, f"{pfx}.out", (B, p.size, rank), dtype)
        pan = _acquire(
            workspace, f"{pfx}.stacked.panel",
            (plan.chunk, p.other, rank), dtype,
        )
        prod = (
            _acquire(
                workspace, f"{pfx}.stacked.prod",
                (plan.chunk, p.right, p.size, rank), dtype,
            )
            if internal else None
        )
        _k_batched_stacked(
            0, 0, B, flat, batch.shape, n, ops, plan.chunk, out, pan[None],
            None if prod is None else prod[None],
        )
        tr.add_counter("gemm_calls", plan.num_chunks)
        return out

    pool = get_pool(T)
    out = _shared(workspace, f"{pfx}.out", (B, p.size, rank), dtype)
    panel = _shared(
        workspace, f"{pfx}.stacked.panel", (T, plan.chunk, p.other, rank),
        dtype,
    )
    prod = (
        _shared(
            workspace, f"{pfx}.stacked.prod",
            (T, plan.chunk, p.right, p.size, rank), dtype,
        )
        if internal else None
    )
    pool.parallel_for(
        lambda w, lo, hi: _k_batched_stacked(
            w, lo, hi, flat, batch.shape, n, ops, plan.chunk, out, panel,
            prod,
        ),
        B,
        label="batch.mttkrp.stacked",
    )
    tr.add_counter("gemm_calls", plan.num_chunks)
    return out


def mttkrp_batched_loop(
    batch: BatchedTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    workspace=None,
    slot: str = "batch",
    cache_bytes: float | None = None,
) -> np.ndarray:
    """The per-item reference lane: one 2-D kernel call per item.

    Identical arithmetic to the stacked lane item by item (the stacked
    GEMM is executed per 2-D slice anyway); exists as the oracle's
    bit-identity anchor and the ``batch`` bench suite's baseline.
    """
    n, rank = _validate(batch, factors, n)
    T = resolve_threads(num_threads)
    tr = get_tracer()
    record_mttkrp_cost(
        tr, batch.shape, n, rank, "batched", T, cache_bytes=cache_bytes,
        batch=batch.batch,
    )
    dtype = np.result_type(
        batch.dtype, *[np.asarray(f).dtype for f in factors]
    )
    p = mode_products(batch.shape, n)
    B = batch.batch
    ops = _stacked_operands(factors, n)
    internal = 0 < n < batch.ndim - 1
    flat = batch.flat
    pfx = f"{slot}.m{n}"

    if T == 1:
        out = _acquire(workspace, f"{pfx}.out", (B, p.size, rank), dtype)
        pan = _acquire(
            workspace, f"{pfx}.loop.panel", (p.other, rank), dtype
        )
        prod = (
            _acquire(
                workspace, f"{pfx}.loop.prod",
                (p.right, p.size, rank), dtype,
            )
            if internal else None
        )
        _k_batched_loop(
            0, 0, B, flat, batch.shape, n, ops, out, pan[None],
            None if prod is None else prod[None],
        )
        tr.add_counter("gemm_calls", B)
        return out

    pool = get_pool(T)
    out = _shared(workspace, f"{pfx}.out", (B, p.size, rank), dtype)
    panel = _shared(workspace, f"{pfx}.loop.panel", (T, p.other, rank), dtype)
    prod = (
        _shared(
            workspace, f"{pfx}.loop.prod", (T, p.right, p.size, rank), dtype
        )
        if internal else None
    )
    pool.parallel_for(
        lambda w, lo, hi: _k_batched_loop(
            w, lo, hi, flat, batch.shape, n, ops, out, panel, prod
        ),
        B,
        label="batch.mttkrp.loop",
    )
    tr.add_counter("gemm_calls", B)
    return out
