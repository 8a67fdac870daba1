"""Shared-memory parallel runtime substrate.

The paper parallelizes with OpenMP ``parallel for`` loops over contiguous
blocks plus multithreaded BLAS.  This subpackage provides the Python
equivalents:

* :mod:`~repro.parallel.pool` — a persistent worker-thread pool with an
  OpenMP-style ``parallel_for`` (static contiguous scheduling).  NumPy's
  BLAS-backed kernels release the GIL, so worker threads genuinely overlap
  on multi-core hosts.  Every parallel region runs on
  :func:`~repro.parallel.pool.get_pool`;
* :mod:`~repro.parallel.partition` — static contiguous block partitioning
  (the paper's ``b = ceil(I/T)`` blocking) and conformal partitions;
* :mod:`~repro.parallel.reduction` — worker-written buffers (per-thread
  private outputs) and the parallel tree reduction used by Algorithm 3
  line 19;
* :mod:`~repro.parallel.workspace` — the named buffer arena CP-ALS reuses
  across iterations;
* :mod:`~repro.parallel.blas` — best-effort control of the BLAS library's
  internal thread count (the "multithreaded BLAS" half of the paper's
  hybrid scheme);
* :mod:`~repro.parallel.config` — the package-wide default thread count;
* :mod:`~repro.parallel.sanitizer` — the opt-in write-set race sanitizer
  the pool brackets its regions with (``REPRO_SANITIZE=1``).
"""

from repro.parallel.blas import blas_threads, get_blas_threads, set_blas_threads
from repro.parallel.config import get_num_threads, num_threads, set_num_threads
from repro.parallel.partition import (
    block_bounds,
    contiguous_blocks,
    owner_of,
)
from repro.parallel.pool import ThreadPool, get_pool, shutdown_all_pools
from repro.parallel.reduction import (
    allocate_private,
    allocate_shared,
    parallel_reduce,
)
from repro.parallel.workspace import Workspace, WorkspaceStats

__all__ = [
    "ThreadPool",
    "get_pool",
    "shutdown_all_pools",
    "Workspace",
    "WorkspaceStats",
    "contiguous_blocks",
    "block_bounds",
    "owner_of",
    "allocate_shared",
    "allocate_private",
    "parallel_reduce",
    "set_blas_threads",
    "get_blas_threads",
    "blas_threads",
    "get_num_threads",
    "set_num_threads",
    "num_threads",
]
