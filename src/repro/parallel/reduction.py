"""Worker-written buffers and the parallel reduction of Algorithm 3.

Both 1-step parallel schemes let every thread accumulate into a private copy
of the ``I_n x C`` output matrix and then sum the copies (Alg. 3 line 19:
``M <- sum_t M_t``).  The paper notes this choice explicitly — the optimal
parallelization of the inner-product-shaped GEMM "involves write conflicts,
for which we use temporary private memory and a parallel reduction".

Every array a pool worker writes comes from :func:`allocate_shared` or
:func:`allocate_private`.  With the write-set sanitizer on
(``REPRO_SANITIZE=1``) both return instrumented arrays, so the pool's
region barrier race-checks every worker write; with it off they are plain
zero-filled ``ndarray``\\ s.

:func:`parallel_reduce` implements the reduction as a binary tree over the
pool: at each level, thread ``t`` adds buffer ``t + stride`` into buffer
``t``; ``log2(T)`` levels, each a GIL-releasing vectorized add.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.pool import ThreadPool
from repro.parallel.sanitizer import get_sanitizer

__all__ = ["allocate_shared", "allocate_private", "parallel_reduce"]


def allocate_shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """Zero-initialized array that pool workers write and the caller reads.

    Sanitizer-wrapped when the sanitizer is enabled (the wrap is the
    identity otherwise), so worker writes are race-checked at the barrier.
    """
    return get_sanitizer().wrap(np.zeros(tuple(shape), dtype=dtype))


def allocate_private(
    num_threads: int, shape: tuple[int, ...], dtype=np.float64
) -> np.ndarray:
    """Allocate zero-initialized per-thread private buffers.

    Returns a ``(num_threads, *shape)`` array; ``buffers[t]`` is thread
    ``t``'s private output (Alg. 3's ``M_t``).  A single allocation keeps
    the buffers dense and lets the final reduction operate on contiguous
    slabs.
    """
    num_threads = int(num_threads)
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")
    return allocate_shared((num_threads,) + tuple(shape), dtype=dtype)


def parallel_reduce(
    buffers: np.ndarray, pool: ThreadPool | None = None
) -> np.ndarray:
    """Sum private buffers along axis 0 with a parallel binary tree.

    Parameters
    ----------
    buffers:
        ``(T, ...)`` array of private partial results.  **Mutated in
        place**: on return ``buffers[0]`` holds the total (and is also the
        returned array); other slots hold partial sums.
    pool:
        Pool to parallelize the tree levels on.  ``None`` (or a single
        buffer, or a one-thread pool) reduces sequentially.

    Returns
    -------
    numpy.ndarray
        ``buffers[0]``, now containing the sum over all buffers.
    """
    buffers = np.asarray(buffers)
    if buffers.ndim < 1 or buffers.shape[0] == 0:
        raise ValueError("buffers must have a leading thread axis of size >= 1")
    T = buffers.shape[0]
    if T == 1:
        return buffers[0]
    if pool is None or pool.num_threads == 1:
        np.sum(buffers, axis=0, out=buffers[0])
        return buffers[0]

    stride = 1
    while stride < T:
        pairs = [
            (t, t + stride) for t in range(0, T - stride, 2 * stride)
        ]

        def level(worker: int, start: int, stop: int, pairs=pairs) -> None:
            for dst, src in pairs[start:stop]:
                buffers[dst] += buffers[src]

        pool.parallel_for(level, len(pairs), label="reduce.tree")
        stride *= 2
    return buffers[0]
