"""Microbenchmarks of the parallel runtime substrate itself.

Quantifies the costs the algorithm benchmarks build on: parallel-region
launch/join overhead of the persistent pool (the analog of OpenMP's region
overhead, a constant in the machine model), the tree reduction, and the
static-vs-dynamic schedule trade on imbalanced work.

Run: ``pytest benchmarks/test_pool_overhead.py --benchmark-only``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import bench_threads, cached_problem, record_paper_context
from repro.parallel.pool import get_pool
from repro.parallel.reduction import allocate_private, parallel_reduce

pytestmark = pytest.mark.bench

_THREADS = [t for t in bench_threads() if t > 1] or [2]


@pytest.mark.parametrize("threads", _THREADS, ids=lambda t: f"T{t}")
def test_region_launch_overhead(benchmark, threads):
    """Cost of an empty parallel region (launch + join)."""
    pool = get_pool(threads)
    record_paper_context(
        benchmark, ablation="pool-overhead", kind="empty-region",
        threads=threads,
    )
    benchmark(pool.parallel_for, lambda t, a, b: None, threads)


@pytest.mark.parametrize("threads", _THREADS, ids=lambda t: f"T{t}")
def test_reduction_overhead(benchmark, threads):
    """Tree reduction of private 256x25 outputs (Alg. 3 line 19's shape)."""
    pool = get_pool(threads)
    buffers = allocate_private(threads, (256, 25))
    record_paper_context(
        benchmark, ablation="pool-overhead", kind="reduce",
        threads=threads,
    )

    def kernel():
        buffers[:] = 1.0
        parallel_reduce(buffers, pool)

    benchmark(kernel)


@pytest.mark.parametrize("schedule", ["static", "dynamic"])
def test_schedule_on_imbalanced_work(benchmark, schedule):
    """Static vs dynamic scheduling on a skewed workload: item i costs
    O(i) — the worst case for contiguous static blocks."""
    T = max(_THREADS)
    pool = get_pool(T)
    n_items = 64
    sizes = [64 * (i + 1) for i in range(n_items)]  # linearly growing work
    mats = [np.ones((s, 16)) for s in sizes]
    out = [np.empty(16) for _ in range(n_items)]

    def work(t, start, stop):
        for i in range(start, stop):
            out[i][:] = mats[i].sum(axis=0)

    record_paper_context(
        benchmark, ablation="pool-schedule", schedule=schedule, threads=T,
    )
    if schedule == "static":
        benchmark(pool.parallel_for, work, n_items)
    else:
        benchmark(
            lambda: pool.parallel_for(
                work, n_items, schedule="dynamic", chunk=2
            )
        )


# --------------------------------------------------------------------- #
# Pool-parallel kernels
# --------------------------------------------------------------------- #


def test_python_bound_loop(benchmark):
    """GIL-bound Python loop: per-row work too small for BLAS to dominate,
    so the pool's workers serialize on the GIL."""
    T = max(_THREADS)
    pool = get_pool(T)
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((64, 48)), rng.standard_normal((64, 48))
    out = np.zeros(512)

    def work(t, start, stop):
        for i in range(start, stop):
            out[i] = a[i % a.shape[0]] @ b[i % b.shape[0]]

    record_paper_context(benchmark, ablation="python-loop", threads=T)
    benchmark(pool.parallel_for, work, 512)


def test_krp_with_reuse(benchmark):
    """Row-wise KRP with reuse (Alg. 1) on the pool."""
    from repro.core.krp_parallel import khatri_rao_parallel

    T = max(_THREADS)
    rng = np.random.default_rng(1)
    mats = [rng.standard_normal((48, 16)) for _ in range(3)]
    record_paper_context(benchmark, ablation="krp", threads=T)
    benchmark(lambda: khatri_rao_parallel(mats, num_threads=T))


def test_mttkrp_onestep(benchmark):
    """Full GEMM-phase 1-step MTTKRP on the pool."""
    from repro.core.dispatch import mttkrp

    T = max(_THREADS)
    X, U = cached_problem((48, 32, 24), 16)
    record_paper_context(
        benchmark, ablation="mttkrp", threads=T, method="onestep",
    )
    benchmark(lambda: mttkrp(X, U, 1, method="onestep", num_threads=T))
