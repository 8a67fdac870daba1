"""CP-ALS: alternating least squares for the CP decomposition (Section 2.2).

Each factor update consists of the three operations the paper lists:

1. MTTKRP: ``M = X_(n) (U_{N-1} krp ... krp U_{n+1} krp U_{n-1} ... U_0)``,
   by default from the dimension tree (two partial contractions per
   iteration shared by all modes, :mod:`repro.core.dimtree`), or per mode
   with the best algorithm (1-step for external modes, 2-step for
   internal modes — the paper's Section 5.3.3 policy);
2. Gram/Hadamard: ``H = (*)_{k != n} U_k^T U_k`` (cached, single-mode
   refresh);
3. linear solve: ``U_n = M H^+``.

Since MTTKRP dominates (``O(I C)`` vs ``O(C^2 sum I_k)`` and ``O(C^3)``),
per-iteration time is essentially ``N`` MTTKRPs under the per-mode
strategy — which is what Figure 7 measures — or two tensor passes under
the dimension tree.  The fit is computed per iteration by *reusing the
final mode's MTTKRP* (standard trick, also used by Tensor Toolbox), so
convergence checking adds no extra pass over the tensor.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.dimtree import (
    left_partial,
    node_mttkrp,
    right_partial,
    split_point,
)
from repro.core.dispatch import mttkrp
from repro.core.flops import record_mttkrp_cost
from repro.cpd.gram import GramCache
from repro.obs import get_tracer
from repro.cpd.init import initialize_factors
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor

__all__ = ["cp_als", "CPALSResult"]


@dataclass
class CPALSResult:
    """Outcome of a CP-ALS run.

    Attributes
    ----------
    model:
        The fitted :class:`~repro.cpd.kruskal.KruskalTensor` (normalized,
        components sorted by weight).
    fits:
        Model fit ``1 - |X - Y|/|X|`` after each iteration.
    converged:
        Whether the fit change dropped below ``tol`` before ``n_iter_max``.
    iterations:
        Number of iterations executed.
    iteration_times:
        Wall-clock seconds per iteration (Figure 7's quantity).  The
        per-phase breakdown (MTTKRP phases plus ``"gram"`` and
        ``"solve"``) comes from a traced run: :func:`repro.obs.capture`
        and :func:`repro.obs.phase_totals`.
    tuning:
        Per-mode :class:`~repro.tune.cache.TuneRecord` list when the run
        was started with ``tune=True`` (``None`` otherwise).  Each
        record's :attr:`~repro.tune.cache.TuneRecord.label` is a method
        spec accepted back by :func:`cp_als`/:func:`~repro.core.dispatch.mttkrp`,
        so a tuned run is exactly replayable.
    """

    model: KruskalTensor
    fits: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    iteration_times: list[float] = field(default_factory=list)
    tuning: list | None = None

    @property
    def final_fit(self) -> float:
        """Fit after the last iteration."""
        if not self.fits:
            raise ValueError("no iterations were run")
        return self.fits[-1]

    @property
    def mean_iteration_time(self) -> float:
        """Average per-iteration wall time (excludes the first iteration
        when more than two iterations ran, to skip warm-up effects)."""
        times = self.iteration_times
        if not times:
            raise ValueError("no iterations were run")
        if len(times) > 2:
            times = times[1:]
        return float(np.mean(times))


def cp_als(
    tensor: DenseTensor,
    rank: int,
    n_iter_max: int = 50,
    tol: float = 1e-8,
    init: str | Sequence[np.ndarray] = "random",
    method: str | Sequence[str] = "auto",
    mode_strategy: str = "auto",
    num_threads: int | None = None,
    rng: np.random.Generator | int | None = None,
    verbose: bool = False,
    workspace: "Workspace | None" = None,
    tune: bool = False,
    cancel: "CancelToken | None" = None,
) -> CPALSResult:
    """Fit a rank-``C`` CP decomposition with alternating least squares.

    Parameters
    ----------
    tensor:
        Dense tensor in natural layout.
    rank:
        Number of CP components ``C``.
    n_iter_max:
        Maximum ALS iterations (each updates every mode once).
    tol:
        Convergence tolerance on the fit change between iterations;
        ``tol <= 0`` disables early stopping (useful for benchmarking a
        fixed iteration count, as Figure 7 does).
    init:
        ``"random"``, ``"hosvd"``, or explicit initial factor matrices.
    method:
        MTTKRP method passed to :func:`repro.core.dispatch.mttkrp` by
        per-mode runs (``"auto"`` = the paper's per-mode policy;
        ``"baseline"`` gives the Tensor-Toolbox-style comparison point),
        or a sequence of one method spec per mode (spec forms like
        ``"twostep:left"`` allowed) — the shape ``result.tuning`` picks
        replay as.  Any value other than ``"auto"`` pins the kernel, so
        ``mode_strategy="auto"`` runs per-mode.  Ignored when
        ``mode_strategy="dimtree"`` (a string is tolerated there; a
        per-mode list is an error) and when ``tune=True``.
    mode_strategy:
        ``"dimtree"`` — the Phan et al. Section III.C extension the
        paper's conclusion proposes: two partial contractions per
        iteration shared across all modes (see
        :mod:`repro.core.dimtree`), cutting the passes over the tensor
        from ``N`` to 2; ``"per-mode"`` — one independent MTTKRP per mode
        per iteration (the paper's implementation); ``"auto"`` (the
        default) — ``"dimtree"`` when ``method="auto"``, ``tune=False``
        and ``N >= 3``, ``"per-mode"`` otherwise, so a caller that names
        a kernel, passes a per-mode list or tunes gets exactly that.  Both
        strategies produce mathematically identical iterates (equal to
        roundoff, not bitwise).  The ``cp_als`` trace span records the
        resolved strategy.
    num_threads:
        Thread count for the MTTKRP kernels.
    rng:
        Seed/generator for random initialization.
    verbose:
        Print fit per iteration.
    workspace:
        Optional :class:`~repro.parallel.workspace.Workspace` for
        iteration-reused buffers: the dimtree strategy's node buffers,
        KRP panels and per-worker private outputs (so default runs use
        it), the autotuner's measurement scratch (released after tuning
        so it does not pollute the arena), and any per-mode ``"dimtree"``
        picks.  By default one is created internally and closed when the
        run finishes; pass your own to inspect its allocation stats
        (after warm-up, iterations allocate nothing) or to share buffers
        across runs on equal shapes.  Ignored by per-mode runs that
        neither tune nor use a dimtree pick.
    tune:
        Run the empirical autotuner (:func:`repro.tune.autotune`) once
        per mode before the iteration loop and use its picks for every
        iteration (requires ``mode_strategy="per-mode"``; overrides
        ``method``).  Decisions come from / go to the persisted tuning
        cache, so only the first run on a new configuration pays
        measurement time; the picks are recorded in ``result.tuning``.
    cancel:
        Optional :class:`~repro.util.cancel.CancelToken` polled at every
        iteration boundary: a cancelled token (or an expired deadline)
        raises :class:`~repro.util.cancel.Cancelled` /
        :class:`~repro.util.cancel.DeadlineExceeded` *between* iterations
        — never mid-kernel, so no factor update is ever torn.  The
        token's ``on_progress(iteration, fit)`` hook, if set, fires once
        per iteration before the check (progress streaming for services).

    Returns
    -------
    CPALSResult

    Raises
    ------
    ValueError
        On rank/shape inconsistencies or a zero input tensor.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if n_iter_max <= 0:
        raise ValueError(f"n_iter_max must be positive, got {n_iter_max}")
    N = tensor.ndim
    if N < 2:
        raise ValueError("CP-ALS requires an order >= 2 tensor")

    if isinstance(init, str):
        factors = initialize_factors(tensor, rank, method=init, rng=rng)
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != N:
            raise ValueError(
                f"expected {N} initial factors, got {len(factors)}"
            )
        for n, f in enumerate(factors):
            if f.shape != (tensor.shape[n], rank):
                raise ValueError(
                    f"init[{n}] has shape {f.shape}, expected "
                    f"{(tensor.shape[n], rank)}"
                )

    norm_x = tensor.norm()
    if norm_x == 0.0:
        raise ValueError("cannot decompose a zero tensor")
    if mode_strategy == "auto":
        # The dimension tree unless the caller pinned a kernel (a named
        # method, a per-mode list or the tuner's picks); order 2 has no
        # partial to share.
        unpinned = isinstance(method, str) and method == "auto"
        mode_strategy = (
            "dimtree" if unpinned and not tune and N >= 3 else "per-mode"
        )
    elif mode_strategy not in ("per-mode", "dimtree"):
        raise ValueError(
            f"mode_strategy must be 'auto', 'per-mode' or 'dimtree', "
            f"got {mode_strategy!r}"
        )
    if isinstance(method, str):
        methods = [method] * N
    else:
        if mode_strategy != "per-mode":
            raise ValueError(
                "a per-mode method list requires mode_strategy='per-mode'"
            )
        methods = [str(m) for m in method]
        if len(methods) != N:
            raise ValueError(
                f"expected {N} per-mode methods, got {len(methods)}"
            )
    if tune and mode_strategy != "per-mode":
        raise ValueError("tune=True requires mode_strategy='per-mode'")

    weights = np.ones(rank)
    grams = GramCache(factors)
    tracer = get_tracer()
    result = CPALSResult(model=KruskalTensor(factors, weights))
    previous_fit = -np.inf

    def update_mode(n: int, M: np.ndarray, it: int) -> None:
        nonlocal weights
        with tracer.span("gram"):
            H = grams.hadamard(skip=n)
        with tracer.span("solve"):
            factors[n] = _solve_update(M, H)
            # Column normalization keeps factor magnitudes balanced
            # across modes (2-norms first iteration, max-norms after,
            # following Tensor Toolbox's cp_als).
            if it == 0:
                weights = np.linalg.norm(factors[n], axis=0)
            else:
                weights = np.maximum(np.abs(factors[n]).max(axis=0), 1.0)
            weights = np.where(weights > 0, weights, 1.0)
            factors[n] /= weights
        grams.update(n)

    def update_half(node, lo: int, hi: int, slot: str, it: int) -> np.ndarray:
        """Dimension tree: update modes ``lo..hi-1`` from their partial."""
        for n in range(lo, hi):
            with tracer.span(f"mode[{n}]"):
                M = node_mttkrp(
                    node, factors[lo:hi], keep=n - lo,
                    num_threads=num_threads, pool=pool, workspace=ws,
                    slot=f"{slot}[{n - lo}]",
                )
                update_mode(n, M, it)
                # The partial GEMM and node spans hold the flops and
                # bytes; the lower bound is recorded per mode update.
                record_mttkrp_cost(tracer, tensor.shape, n, rank, None)
        return M

    with tracer.span(
        "cp_als",
        rank=rank,
        shape=list(tensor.shape),
        mode_strategy=mode_strategy,
        method=method if isinstance(method, str) else list(methods),
        tune=tune,
    ):
        # Long-lived runtime state, acquired once and reused by every
        # iteration: the thread pool and the workspace arena owning the
        # node buffers, KRP panels and private outputs (zero per-iteration
        # allocations after the first iteration warms the arena up).  The
        # arena also backs the autotuner's measurement runs and any
        # per-mode "dimtree" picks.
        ws = None
        own_ws = False
        pool = None
        needs_ws = (
            mode_strategy == "dimtree"
            or tune
            or any(spec == "dimtree" for spec in methods)
        )
        if needs_ws:
            from repro.parallel.config import resolve_threads
            from repro.parallel.pool import get_pool
            from repro.parallel.workspace import Workspace

            T = resolve_threads(num_threads)
            pool = get_pool(T) if T > 1 else None
            ws = workspace if workspace is not None else Workspace()
            own_ws = workspace is None
        m = split_point(N)  # the dimension tree's left-half mode count
        mode_kwargs: list[dict] = [{} for _ in range(N)]
        if tune:
            # Tune once, before the loop; every iteration then replays
            # the recorded picks, so the iterates are bit-identical to a
            # run with an explicit per-mode method list matching them.
            from repro.tune.tuner import autotune

            records = [
                autotune(
                    tensor, factors, n,
                    num_threads=num_threads, workspace=ws,
                )
                for n in range(N)
            ]
            result.tuning = records
            methods = [r.method for r in records]
            mode_kwargs = [dict(r.kwargs) for r in records]
            # Measurement scratch is dead weight from here on; drop it so
            # the arena holds only what the iterations will reuse.
            ws.release("tune.")
            if not any(spec == "dimtree" for spec in methods):
                ws.release("dimtree.")
        for n in range(N):
            if methods[n] == "dimtree":
                mode_kwargs[n]["workspace"] = ws
                mode_kwargs[n]["pool"] = pool
        try:
            if cancel is not None:
                cancel.raise_if_cancelled()
            for it in range(n_iter_max):
                with tracer.span(f"iter[{it}]"):
                    t_start = perf_counter()
                    M = None
                    if mode_strategy == "per-mode":
                        for n in range(N):
                            with tracer.span(f"mode[{n}]"):
                                M = mttkrp(
                                    tensor,
                                    factors,
                                    n,
                                    method=methods[n],
                                    num_threads=num_threads,
                                    **mode_kwargs[n],
                                )
                                update_mode(n, M, it)
                    else:
                        # Dimension tree (Phan et al. III.C): one partial
                        # contraction per half-iteration, shared by all
                        # modes of that half.
                        # T_L depends only on the right factors -> valid
                        # while the left modes update in sequence.
                        with tracer.span("partial[left]"):
                            T_L = left_partial(
                                tensor, factors, m,
                                num_threads=num_threads, pool=pool,
                                workspace=ws,
                            )
                        update_half(T_L, 0, m, "nodeL", it)
                        # T_R must see the freshly updated left factors.
                        with tracer.span("partial[right]"):
                            T_R = right_partial(
                                tensor, factors, m,
                                num_threads=num_threads, pool=pool,
                                workspace=ws,
                            )
                        M = update_half(T_R, m, N, "nodeR", it)
                    result.iteration_times.append(perf_counter() - t_start)

                    # Fit via the last mode's MTTKRP (no extra tensor
                    # pass): <X, Y> = sum_{i,c} M(i,c) U_{N-1}(i,c) w_c ;
                    # |Y|^2 = w^T H* w.
                    assert M is not None
                    inner = float(
                        np.einsum("ic,ic,c->", M, factors[N - 1], weights)
                    )
                    norm_y_sq = float(
                        weights @ grams.hadamard_all() @ weights
                    )
                    residual_sq = max(
                        norm_x**2 - 2.0 * inner + norm_y_sq, 0.0
                    )
                    fit = 1.0 - np.sqrt(residual_sq) / norm_x
                    result.fits.append(fit)
                    result.iterations = it + 1
                    if verbose:
                        print(f"iter {it + 1:3d}: fit = {fit:.8f}")
                    # Iteration boundary: stream progress first (so the
                    # final fit is observable even when the next line
                    # stops the run), then honour cancellation/deadline.
                    if cancel is not None and cancel.on_progress is not None:
                        cancel.on_progress(it, float(fit))
                    if tol > 0 and abs(fit - previous_fit) < tol:
                        result.converged = True
                        break
                    previous_fit = fit
                    if cancel is not None:
                        cancel.raise_if_cancelled()
        finally:
            if own_ws and ws is not None:
                ws.close()

    result.model = KruskalTensor(
        [f.copy() for f in factors], weights.copy()
    ).normalize()
    return result


def _solve_update(M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Solve ``U = M H^+`` (Section 2.2's linear-system step).

    Tries a Cholesky-backed symmetric solve first (``H`` is a Hadamard
    product of Gram matrices, hence positive semidefinite and usually
    positive definite); falls back to the pseudoinverse when ``H`` is
    singular (e.g. duplicate components).
    """
    try:
        # Solve H U^T = M^T; H is symmetric so no transpose is needed.
        return np.linalg.solve(H, M.T).T
    except np.linalg.LinAlgError:
        return M @ np.linalg.pinv(H)
