"""Predicted times for every algorithm/mode/thread point in the figures.

Combines the exact phase costs (:mod:`repro.core.flops`) with a
:class:`~repro.machine.model.MachineModel`, adding the one piece of
information the raw counts lack: *how each phase is parallelized*, which
differs between the paper's algorithms and is the source of their different
scaling behaviour.

Parallelization classes
-----------------------
``explicit``
    OpenMP-style: work divides evenly across ``T`` threads with private
    outputs (1-step GEMMs, thread-local KRP blocks).  Linear compute
    scaling at the shaped single-core rate — no BLAS output-tile cap,
    because the algorithm splits the inner dimension itself and pays in
    the ``reduce`` phase instead.
``blas``
    Parallelism inside one BLAS call (2-step GEMM/GEMV, baseline GEMM).
    The model's :meth:`~repro.machine.model.MachineModel.blas_speedup`
    curve applies — this is what makes the baseline's inner-product-shaped
    GEMM stop scaling (Section 5.3.1).
``memory``
    Streaming phases (KRP formation, reductions): additive
    compute-plus-traffic time at streaming rates.
``serial``
    Single-threaded phases (the straightforward baseline's reorder/KRP).
``matlab``
    Matlab's implicitly multithreaded built-ins (the TTB reference's
    permute and khatrirao): internal parallelism that saturates around 2x.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.flops import (
    AlgorithmCost,
    PhaseCost,
    baseline_cost,
    gemm_lower_bound_cost,
    krp_cost,
    onestep_cost,
    stream_cost,
    twostep_cost,
)
from repro.machine.model import MachineModel
from repro.tensor.layout import mode_products

__all__ = [
    "predict_phase_times",
    "predict_algorithm_time",
    "predict_cpals_iteration",
    "predict_krp_time",
    "predict_stream_time",
    "ALGORITHMS",
]

ALGORITHMS = ("onestep", "twostep", "baseline", "gemm-baseline", "ttb")

# (algorithm, phase) -> parallelization class.
_PARALLEL_CLASS: dict[tuple[str, str], str] = {
    ("onestep", "full_krp"): "memory",
    ("onestep", "lr_krp"): "memory",
    ("onestep", "gemm"): "explicit",
    ("onestep", "reduce"): "memory",
    ("twostep", "lr_krp"): "memory",
    ("twostep", "gemm"): "blas",
    ("twostep", "gemv"): "blas",
    ("baseline", "reorder"): "serial",
    ("baseline", "full_krp"): "serial",
    ("baseline", "gemm"): "blas",
    ("gemm-baseline", "gemm"): "blas",
    ("ttb", "reorder"): "matlab",
    ("ttb", "full_krp"): "matlab",
    ("ttb", "gemm"): "blas",
}


def _phase_time(
    model: MachineModel,
    algorithm: str,
    phase: PhaseCost,
    threads: int,
    per_thread_gemm_shape: tuple[int, int, int] | None = None,
) -> float:
    """Time of one phase under its algorithm's parallelization class."""
    klass = _PARALLEL_CLASS.get((algorithm, phase.name))
    if klass is None:
        raise KeyError(f"no parallel class for {(algorithm, phase.name)!r}")
    if klass == "serial":
        return model.serial_time(phase)
    if klass == "matlab":
        return model.matlab_time(phase, threads)
    if klass == "memory":
        return model.stream_time(phase, threads)
    if klass == "blas":
        return model.blas_time(phase, threads)
    if klass == "explicit":
        return model.explicit_time(phase, threads, per_thread_gemm_shape)
    raise AssertionError(f"unknown class {klass}")


def predict_phase_times(
    model: MachineModel,
    algorithm: str,
    cost: AlgorithmCost,
    threads: int,
    per_thread_gemm_shape: tuple[int, int, int] | None = None,
) -> dict[str, float]:
    """Per-phase predicted seconds for one algorithm invocation."""
    return {
        p.name: _phase_time(model, algorithm, p, threads, per_thread_gemm_shape)
        for p in cost.phases
    }


def predict_algorithm_time(
    model: MachineModel,
    shape: Sequence[int],
    n: int,
    C: int,
    threads: int,
    algorithm: str,
    side: str = "auto",
) -> tuple[float, dict[str, float]]:
    """Predicted (total seconds, per-phase seconds) for one MTTKRP.

    ``algorithm``:

    * ``"onestep"`` — Algorithm 3;
    * ``"twostep"`` — Algorithm 4 (internal modes; external modes are
      scored as 1-step, which the 2-step degenerates to);
    * ``"baseline"`` — straightforward approach (reorder + reuse-KRP +
      one BLAS GEMM);
    * ``"gemm-baseline"`` — the paper's DGEMM-only Baseline benchmark;
    * ``"ttb"`` — the Matlab reference profile (serial reorder + serial
      naive KRP + BLAS GEMM).
    """
    shape = tuple(int(s) for s in shape)
    N = len(shape)
    p = mode_products(shape, n)
    external = n == 0 or n == N - 1
    per_thread_shape: tuple[int, int, int] | None = None
    if algorithm == "twostep" and external:
        algorithm = "onestep"
    if algorithm == "onestep":
        cost = onestep_cost(shape, n, C, threads)
        if external:
            # Each thread multiplies an I_n x (I_other/T) slice by its own
            # KRP rows: per-thread GEMM is (I_n, C, I_other/T).
            per_thread_shape = (p.size, C, max(p.other // threads, 1))
        else:
            # Per-block GEMMs of shape (I_n, C, I^L_n).
            per_thread_shape = (p.size, C, p.left)
    elif algorithm == "twostep":
        cost = twostep_cost(shape, n, C, side=side)
    elif algorithm == "baseline":
        cost = baseline_cost(shape, n, C)
    elif algorithm == "gemm-baseline":
        cost = gemm_lower_bound_cost(shape, n, C)
    elif algorithm == "ttb":
        base = baseline_cost(shape, n, C)
        # Same structure as "baseline" but with the naive (no-reuse) KRP the
        # Matlab khatrirao performs; scored via the naive-penalty multiplier
        # below rather than the raw counts (see predict_krp_time).
        cost = AlgorithmCost("ttb", base.phases)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")

    phase_times = predict_phase_times(
        model, cost.algorithm, cost, threads, per_thread_shape
    )
    if algorithm == "ttb":
        Z = N - 1
        phase_times["full_krp"] *= 1.0 + model.naive_recompute_penalty * max(
            Z - 2, 0
        )
    return sum(phase_times.values()), phase_times


def predict_cpals_iteration(
    model: MachineModel,
    shape: Sequence[int],
    C: int,
    threads: int,
    implementation: str,
) -> float:
    """Predicted seconds for one CP-ALS iteration (Figure 7's quantity).

    ``implementation``:

    * ``"repro"`` — the paper's policy: one MTTKRP per mode, 1-step for
      external modes and 2-step for internal modes;
    * ``"ttb"`` — the Matlab reference profile per mode;
    * ``"dimtree"`` — the Phan et al. Section III.C extension
      (:mod:`repro.core.dimtree`): two shared partial contractions per
      iteration plus per-mode node contractions.

    The ALS gram/solve work (``O(C^2 sum I_n + C^3)``) is negligible at
    the paper's scales and is not modeled.
    """
    shape = tuple(int(s) for s in shape)
    N = len(shape)
    if implementation == "repro":
        return sum(
            predict_algorithm_time(
                model,
                shape,
                n,
                C,
                threads,
                "twostep" if 0 < n < N - 1 else "onestep",
            )[0]
            for n in range(N)
        )
    if implementation == "ttb":
        return sum(
            predict_algorithm_time(model, shape, n, C, threads, "ttb")[0]
            for n in range(N)
        )
    if implementation == "dimtree":
        from repro.core.dimtree import split_point
        from repro.core.flops import PhaseCost, gemm_cost
        from repro.util import prod

        m = split_point(N)
        left_rows = prod(shape[:m])
        right_rows = prod(shape[m:])
        total = 0.0
        # Two partial-MTTKRP GEMMs (each touches all tensor entries).
        total += model.blas_time(
            gemm_cost(left_rows, C, right_rows), threads
        )
        total += model.blas_time(
            gemm_cost(right_rows, C, left_rows), threads
        )
        # Partial KRPs (streaming).
        for rows, dims in ((right_rows, shape[m:]), (left_rows, shape[:m])):
            total += model.stream_time(krp_cost(list(dims), C), threads)
        # Node contractions: each mode of a half reads its node once.
        for half_rows, half_len in ((left_rows, m), (right_rows, N - m)):
            node_entries = half_rows * C
            per_mode = PhaseCost(
                "gemv",
                2.0 * node_entries,
                node_entries * 8.0,
                0.0,
            )
            total += half_len * model.stream_time(per_mode, threads)
        return total
    raise ValueError(f"unknown implementation {implementation!r}")


def predict_krp_time(
    model: MachineModel,
    dims: Sequence[int],
    C: int,
    threads: int,
    schedule: str = "reuse",
) -> float:
    """Predicted seconds for a parallel KRP (the Figure 4 kernel).

    The naive schedule is scored as the reuse time scaled by
    ``1 + naive_recompute_penalty * (Z-2)``: the extra Hadamard passes are
    cache-resident recomputation, not extra DRAM traffic, and the linear
    penalty reproduces the measured 1.5-2.5x range of Figure 4.
    """
    dims = [int(d) for d in dims]
    base = model.stream_time(krp_cost(dims, C, schedule="reuse"), threads)
    if schedule == "reuse":
        return base
    if schedule == "naive":
        Z = len(dims)
        return base * (1.0 + model.naive_recompute_penalty * max(Z - 2, 0))
    raise ValueError(f"unknown schedule {schedule!r}")


def predict_stream_time(
    model: MachineModel, entries: int, threads: int
) -> float:
    """Predicted seconds for the STREAM scale kernel on ``entries`` doubles."""
    return model.stream_time(stream_cost(entries), threads)
