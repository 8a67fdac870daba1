"""Measured experiment runners for the figure drivers and the registry.

Each ``run_*_point`` function measures one point of one figure (a specific
algorithm / workload / thread count) and returns a small result record;
the figure drivers in :mod:`repro.bench.figures` assemble those into the
paper's tables, and the registry runners in :mod:`repro.bench.suites`
convert them into normalized schema records.  All runners accept
preconstructed inputs where reuse matters so repeated timings measure the
kernel, not setup.

Since the registry refactor every point carries, beyond the headline
``seconds``:

* ``stats`` — the full timing distribution (mean/median/min/max/std over
  the repeats), feeding ``timing`` in the normalized schema;
* ``counters`` — analytic FLOP/byte totals, GEMM/GEMV call counts and
  per-region load imbalance captured by running one instrumented
  repetition under a private :func:`repro.obs.capture` tracer (the
  measured repetitions themselves stay untraced, so instrumentation
  cannot skew the timings).  MTTKRP points also take their Figure 6/8
  ``phases`` from that trace (:func:`repro.obs.phase_totals`).
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.bench.stream import stream_buffers, stream_scale
from repro.bench.timing import time_samples
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
    "KRPPoint",
    "MTTKRPPoint",
    "CPALSPoint",
    "run_krp_point",
    "run_stream_point",
    "run_mttkrp_point",
    "run_cpals_point",
    "accumulation_mttkrp",
]


def _stats_from_samples(samples: Sequence[float]) -> dict:
    from repro.bench.schema import timing_from_stats

    return timing_from_stats(samples)


def _captured_counters(fn: Callable[[], object]) -> dict[str, float]:
    """Counters from one instrumented invocation of ``fn``."""
    return obs.counters_snapshot(_captured_trace(fn))


def _captured_trace(fn: Callable[[], object]) -> obs.Tracer:
    """The trace of one instrumented invocation of ``fn``."""
    with obs.capture() as tracer:
        fn()
    return tracer


@dataclass(frozen=True)
class KRPPoint:
    """One measured Figure 4 point."""

    schedule: str  # "reuse" | "naive" | "stream"
    Z: int
    C: int
    rows: int
    threads: int
    seconds: float
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MTTKRPPoint:
    """One measured Figure 5/6/8 point."""

    algorithm: str
    shape: tuple[int, ...]
    mode: int
    C: int
    threads: int
    seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CPALSPoint:
    """One measured Figure 7 point (per-iteration CP-ALS time)."""

    implementation: str  # "repro" | "dimtree" | "ttb"
    shape: tuple[int, ...]
    rank: int
    threads: int
    seconds_per_iteration: float
    final_fit: float
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def run_krp_point(
    matrices: Sequence[np.ndarray],
    threads: int,
    schedule: str = "reuse",
    repeats: int = 3,
) -> KRPPoint:
    """Measure one parallel-KRP configuration (Figure 4 protocol)."""
    mats = [np.asarray(m) for m in matrices]
    C = mats[0].shape[1]
    rows = prod(m.shape[0] for m in mats)
    out = np.empty((rows, C))

    def kernel() -> None:
        khatri_rao_parallel(mats, num_threads=threads, out=out, schedule=schedule)

    samples = time_samples(kernel, repeats=repeats)
    return KRPPoint(
        schedule=schedule,
        Z=len(mats),
        C=C,
        rows=rows,
        threads=threads,
        seconds=float(np.mean(samples)),
        stats=_stats_from_samples(samples),
        counters=_captured_counters(kernel),
    )


def run_stream_point(entries: int, C: int, threads: int, repeats: int = 3) -> KRPPoint:
    """Measure the STREAM scale kernel at the KRP output size."""
    src, dst = stream_buffers(int(entries) * int(C))

    def kernel() -> None:
        stream_scale(src, dst, num_threads=threads)

    samples = time_samples(kernel, repeats=repeats)
    return KRPPoint(
        schedule="stream",
        Z=0,
        C=C,
        rows=int(entries),
        threads=threads,
        seconds=float(np.mean(samples)),
        stats=_stats_from_samples(samples),
        counters=_captured_counters(kernel),
    )


def run_mttkrp_point(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    algorithm: str,
    threads: int,
    repeats: int = 3,
) -> MTTKRPPoint:
    """Measure one MTTKRP configuration (Figure 5 protocol: median of k).

    The phase breakdown (Figure 6/8) and obs counters of one extra
    instrumented repetition are attached; the timed repetitions run
    untraced.
    """
    C = np.asarray(factors[0]).shape[1]
    scratch: dict = {}

    if algorithm == "gemm-baseline":

        def kernel() -> None:
            mttkrp_gemm_lower_bound(
                tensor, factors, mode, num_threads=threads, _scratch=scratch
            )
    else:

        def kernel() -> None:
            mttkrp(
                tensor, factors, mode, method=algorithm, num_threads=threads
            )

    samples = time_samples(kernel, repeats=repeats)
    tracer = _captured_trace(kernel)
    return MTTKRPPoint(
        algorithm=algorithm,
        shape=tensor.shape,
        mode=int(mode),
        C=int(C),
        threads=int(threads),
        seconds=float(np.median(samples)),
        phases=obs.phase_totals(tracer),
        stats=_stats_from_samples(samples),
        counters=obs.counters_snapshot(tracer),
    )


def run_cpals_point(
    tensor: DenseTensor,
    rank: int,
    implementation: str,
    threads: int,
    iterations: int = 3,
    rng: int = 0,
) -> CPALSPoint:
    """Measure per-iteration CP-ALS time (Figure 7 protocol).

    Both implementations get identical random initial factors so they do
    identical arithmetic per iteration; ``tol=0``-style fixed iteration
    counts make the per-iteration average well-defined.  The whole
    measured run executes under a capture tracer, so the attached
    counters are totals over all ``iterations``.
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
            per_iter = res.mean_iteration_time
            fit = res.final_fit
        elif implementation == "ttb":
            res = cp_als_ttb(
                tensor,
                rank,
                n_iter_max=iterations,
                tol=0.0,
                init=init,
                num_threads=threads,
            )
            per_iter = res.mean_iteration_time
            fit = res.final_fit
        else:
            raise ValueError(f"unknown implementation {implementation!r}")
    return CPALSPoint(
        implementation=implementation,
        shape=tensor.shape,
        rank=int(rank),
        threads=int(threads),
        seconds_per_iteration=per_iter,
        final_fit=fit,
        stats={
            "mean_s": float(per_iter),
            "median_s": float(per_iter),
            "repeats": int(iterations),
        },
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
