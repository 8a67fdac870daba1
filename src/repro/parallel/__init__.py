"""Shared-memory parallel runtime substrate.

The paper parallelizes with OpenMP ``parallel for`` loops over contiguous
blocks plus multithreaded BLAS.  This subpackage provides the Python
equivalents:

* :mod:`~repro.parallel.pool` — a persistent worker-thread pool with an
  OpenMP-style ``parallel_for`` (static contiguous scheduling).  NumPy's
  BLAS-backed kernels release the GIL, so worker threads genuinely overlap
  on multi-core hosts;
* :mod:`~repro.parallel.backend` — the execution-backend abstraction
  (:class:`~repro.parallel.backend.Executor`) with a thread implementation
  over the pool and a **process** implementation whose workers address the
  operands through :mod:`multiprocessing.shared_memory` segments
  (:mod:`~repro.parallel.shm`), freeing the Python-level hot loops from
  the GIL;
* :mod:`~repro.parallel.partition` — static contiguous block partitioning
  (the paper's ``b = ceil(I/T)`` blocking) and conformal partitions;
* :mod:`~repro.parallel.reduction` — per-thread private output buffers and
  the parallel tree reduction used by Algorithm 3 line 19;
* :mod:`~repro.parallel.blas` — best-effort control of the BLAS library's
  internal thread count (the "multithreaded BLAS" half of the paper's
  hybrid scheme);
* :mod:`~repro.parallel.config` — the package-wide default thread count
  and execution backend (``set_backend()`` / ``REPRO_BACKEND``);
* :mod:`~repro.parallel.sanitizer` — the opt-in write-set race sanitizer
  the pool brackets its regions with (``REPRO_SANITIZE=1``).
"""

from repro.parallel.backend import (
    Executor,
    ProcessExecutor,
    ThreadExecutor,
    get_executor,
    reset_worker_runtime_state,
    shutdown_all_executors,
)
from repro.parallel.blas import blas_threads, get_blas_threads, set_blas_threads
from repro.parallel.config import (
    get_backend,
    get_num_threads,
    num_threads,
    set_backend,
    set_num_threads,
    use_backend,
)
from repro.parallel.partition import (
    block_bounds,
    contiguous_blocks,
    owner_of,
)
from repro.parallel.pool import ThreadPool, get_pool, shutdown_all_pools
from repro.parallel.reduction import allocate_private, parallel_reduce
from repro.parallel.shm import ShmArena, ShmHandle
from repro.parallel.workspace import Workspace, WorkspaceStats

__all__ = [
    "ThreadPool",
    "get_pool",
    "shutdown_all_pools",
    "Executor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
    "reset_worker_runtime_state",
    "shutdown_all_executors",
    "ShmArena",
    "ShmHandle",
    "Workspace",
    "WorkspaceStats",
    "contiguous_blocks",
    "block_bounds",
    "owner_of",
    "allocate_private",
    "parallel_reduce",
    "set_blas_threads",
    "get_blas_threads",
    "blas_threads",
    "get_num_threads",
    "set_num_threads",
    "num_threads",
    "get_backend",
    "set_backend",
    "use_backend",
]
