"""Measured experiment runners: one paper-figure point in, one record out.

Each ``run_*_point`` function measures one point of one figure (a specific
algorithm / workload / thread count) and returns a normalized schema
record (:mod:`repro.bench.schema`).  The registry runners in
:mod:`repro.bench.suites` call them for their case lists, and the figure
drivers in :mod:`repro.bench.figures` render those records as the
paper's tables, so every figure number comes from the same measurement
as the trend history.  All runners accept preconstructed inputs where
reuse matters so repeated timings measure the kernel, not setup.

KRP, STREAM and MTTKRP points go through
:func:`repro.bench.registry.measure_case`: the timed repetitions run
untraced, and one extra repetition under a private
:func:`repro.obs.capture` tracer supplies the obs counters and, for
MTTKRP, the Figure 6/8 ``phases``.  A CP-ALS point times its own
iterations (Figure 7 reports per-iteration time).
"""

from __future__ import annotations

import threading
from collections.abc import Sequence

import numpy as np

import repro.obs as obs
from repro.bench.registry import measure_case
from repro.bench.schema import new_record, timing_from_stats
from repro.bench.stream import stream_buffers, stream_scale
from repro.core.dispatch import mttkrp
from repro.core.krp import krp_rows
from repro.core.krp_parallel import khatri_rao_parallel
from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
from repro.cpd.cp_als import cp_als
from repro.parallel.pool import get_pool
from repro.parallel.reduction import allocate_private, parallel_reduce
from repro.reference.tensor_toolbox import cp_als_ttb
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_factors
from repro.util import prod

__all__ = [
    "run_krp_point",
    "run_stream_point",
    "run_mttkrp_point",
    "run_cpals_point",
    "accumulation_mttkrp",
]


def run_krp_point(
    benchmark: str,
    case: str,
    matrices: Sequence[np.ndarray],
    threads: int,
    schedule: str = "reuse",
    repeats: int = 3,
) -> dict:
    """Measure one parallel-KRP configuration (Figure 4 protocol)."""
    mats = [np.asarray(m) for m in matrices]
    C = mats[0].shape[1]
    rows = prod(m.shape[0] for m in mats)
    out = np.empty((rows, C))
    return measure_case(
        benchmark,
        case,
        lambda: khatri_rao_parallel(
            mats, num_threads=threads, out=out, schedule=schedule
        ),
        params={"Z": len(mats), "C": C, "rows": rows, "threads": threads,
                "schedule": schedule},
        repeats=repeats,
    )


def run_stream_point(
    benchmark: str,
    case: str,
    entries: int,
    C: int,
    threads: int,
    repeats: int = 3,
    *,
    params: dict | None = None,
) -> dict:
    """Measure the STREAM scale kernel at the KRP output size."""
    src, dst = stream_buffers(int(entries) * int(C))
    return measure_case(
        benchmark,
        case,
        lambda: stream_scale(src, dst, num_threads=threads),
        params={"C": C, "rows": int(entries), "threads": threads,
                "schedule": "stream", **(params or {})},
        repeats=repeats,
    )


def run_mttkrp_point(
    benchmark: str,
    case: str,
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    algorithm: str,
    threads: int,
    repeats: int = 3,
    *,
    params: dict | None = None,
) -> dict:
    """Measure one MTTKRP configuration (Figure 5 protocol: median of k).

    ``algorithm`` is a kernel-table method or ``"gemm-baseline"`` (the
    paper's GEMM-only lower bound).  The record's ``phases`` are the
    Figure 6/8 breakdown of the one traced repetition.
    """
    if algorithm == "gemm-baseline":
        scratch: dict = {}

        def kernel() -> None:
            mttkrp_gemm_lower_bound(
                tensor, factors, mode, num_threads=threads, _scratch=scratch
            )
    else:

        def kernel() -> None:
            mttkrp(
                tensor, factors, mode, method=algorithm, num_threads=threads
            )

    return measure_case(
        benchmark,
        case,
        kernel,
        params={"shape": list(tensor.shape),
                "C": int(np.asarray(factors[0]).shape[1]),
                "mode": int(mode), "algorithm": algorithm,
                "threads": int(threads), **(params or {})},
        repeats=repeats,
    )


def run_cpals_point(
    benchmark: str,
    case: str,
    tensor: DenseTensor,
    rank: int,
    implementation: str,
    threads: int,
    iterations: int = 3,
    rng: int = 0,
    *,
    params: dict | None = None,
) -> dict:
    """Measure per-iteration CP-ALS time (Figure 7 protocol).

    Every implementation gets identical random initial factors so they
    do identical arithmetic per iteration; ``tol=0`` fixes the iteration
    count, and the record's timing is taken over the run's
    per-iteration wall times.  The whole run executes under a capture
    tracer, so the counters are totals over all ``iterations``.
    """
    init = random_factors(tensor.shape, rank, rng=rng)
    with obs.capture() as tracer:
        if implementation in ("repro", "dimtree"):
            res = cp_als(
                tensor,
                rank,
                n_iter_max=iterations,
                tol=0.0,
                init=init,
                num_threads=threads,
                mode_strategy=(
                    "dimtree" if implementation == "dimtree" else "per-mode"
                ),
            )
        elif implementation == "ttb":
            res = cp_als_ttb(
                tensor,
                rank,
                n_iter_max=iterations,
                tol=0.0,
                init=init,
                num_threads=threads,
            )
        else:
            raise ValueError(f"unknown implementation {implementation!r}")
    return new_record(
        benchmark,
        case,
        timing=timing_from_stats(res.iteration_times),
        params={"shape": list(tensor.shape), "rank": int(rank),
                "implementation": implementation, "threads": int(threads),
                **(params or {})},
        counters=obs.counters_snapshot(tracer),
    )


class _LockedSum:
    """One shared output that every task adds into while holding a lock."""

    def __init__(self, shape: tuple[int, ...]) -> None:
        self.total = np.zeros(shape, order="C")
        self._lock = threading.Lock()

    def add(self, part: np.ndarray) -> None:
        with self._lock:
            self.total += part


def accumulation_mttkrp(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    strategy: str,
    threads: int,
) -> np.ndarray:
    """Internal-mode 1-step MTTKRP with the chosen accumulation scheme.

    ``"private"`` is the paper's (DESIGN decision 5): each thread sums its
    chunks into a private output and a tree reduction combines them.
    ``"locked"`` adds every chunk into one shared output under a lock, so
    the updates serialize.  Both use the same dynamic chunks, so a timing
    difference isolates the accumulation scheme.
    """
    if strategy not in ("private", "locked"):
        raise ValueError(f"unknown accumulation strategy {strategy!r}")
    KL = khatri_rao_parallel(
        [np.asarray(factors[k]) for k in range(n - 1, -1, -1)],
        num_threads=threads,
    )
    right_ops = [np.asarray(factors[k]) for k in range(tensor.ndim - 1, n, -1)]
    blocks3 = tensor.mode_blocks_view(n)
    pool = get_pool(threads)
    out_shape = (tensor.shape[n], KL.shape[1])

    def chunk_sum(j0: int, j1: int) -> np.ndarray:
        Kt = krp_rows(right_ops, j0, j1)[:, None, :] * KL[None, :, :]
        return np.matmul(blocks3[j0:j1], Kt).sum(axis=0)

    if strategy == "private":
        out = allocate_private(threads, out_shape)

        def work(t: int, j0: int, j1: int) -> None:
            out[t] += chunk_sum(j0, j1)

        pool.parallel_for(work, len(blocks3), schedule="dynamic", chunk=8)
        return parallel_reduce(out, pool)
    shared = _LockedSum(out_shape)
    pool.parallel_for(lambda t, j0, j1: shared.add(chunk_sum(j0, j1)),
                      len(blocks3), schedule="dynamic", chunk=8)
    return shared.total
