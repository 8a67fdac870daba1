"""Parallel row-wise Khatri-Rao product (Section 4.1.2).

The parallel variant of Algorithm 1 assigns the rows of the output matrix
to threads in contiguous blocks.  Each thread initializes its multi-index
and intermediate products according to its starting row (rather than row 0)
and then proceeds exactly as in the sequential case, stopping after its last
assigned row — which is precisely what :func:`repro.core.krp.krp_rows` does
for an arbitrary row range.

The output rows live in a single shared matrix; because the blocks are
disjoint there are no write conflicts and no reduction is needed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.flops import krp_cost
from repro.core.krp import krp_rows, krp_rows_naive
from repro.obs import get_tracer
from repro.parallel.config import resolve_threads
from repro.parallel.pool import ThreadPool, get_pool
from repro.parallel.reduction import allocate_shared
from repro.util import prod
from repro.util.validation import check_same_columns

__all__ = ["khatri_rao_parallel"]


def khatri_rao_parallel(
    matrices: Sequence[np.ndarray],
    num_threads: int | None = None,
    out: np.ndarray | None = None,
    schedule: str = "reuse",
    pool: ThreadPool | None = None,
) -> np.ndarray:
    """Khatri-Rao product computed by a team of workers over row blocks.

    Parameters
    ----------
    matrices:
        KRP inputs (first matrix's row index slowest, as in
        :func:`repro.core.krp.khatri_rao`).
    num_threads:
        Worker count; defaults to the package-wide setting
        (:func:`repro.parallel.config.get_num_threads`).
    out:
        Optional preallocated ``(prod J_z, C)`` row-major output.
    schedule:
        ``"reuse"`` (Algorithm 1) or ``"naive"`` (the Figure 4 baseline);
        both are parallelized identically.
    pool:
        Explicit pool to run on; defaults to the shared
        :func:`~repro.parallel.pool.get_pool` team of ``num_threads``.

    Returns
    -------
    numpy.ndarray
        The ``prod(J_z) x C`` Khatri-Rao product.
    """
    mats = [np.asarray(m) for m in matrices]
    C = check_same_columns(mats, "matrices")
    rows = prod(m.shape[0] for m in mats)
    T = resolve_threads(num_threads)
    if schedule == "reuse":
        kernel = krp_rows
    elif schedule == "naive":
        kernel = krp_rows_naive
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    dtype = np.result_type(*mats)
    if out is not None and out.shape != (rows, C):
        raise ValueError(f"out has shape {out.shape}, expected {(rows, C)}")

    tracer = get_tracer()
    with tracer.span("krp.parallel", rows=rows, C=C, schedule=schedule) as sp:
        if tracer.enabled:
            cost = krp_cost([m.shape[0] for m in mats], C, schedule=schedule)
            sp.add("flops", cost.flops)
            sp.add("bytes_read", cost.read_bytes)
            sp.add("bytes_written", cost.write_bytes)
        if T == 1 and pool is None:
            if out is None:
                out = np.empty((rows, C), dtype=dtype)
            return kernel(mats, 0, rows, out=out)

        if pool is None:
            pool = get_pool(T)
        if out is None:
            out = allocate_shared((rows, C), dtype)

        def rows_block(worker: int, start: int, stop: int) -> None:
            # Each worker writes only its disjoint row block; the kernel
            # re-derives the multi-index state from ``start``, so results
            # are independent of the partition.
            kernel(mats, start, stop, out=out[start:stop])

        pool.parallel_for(rows_block, rows, label="krp.rows")
        return out
