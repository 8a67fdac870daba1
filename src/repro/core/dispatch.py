"""Unified MTTKRP entry point and the one kernel table behind it.

Section 5.3.3: "Our C implementation of CP-ALS employs Algorithm 3 (1-step)
for both outer modes and Algorithm 4 (2-step) for all inner modes."  That is
exactly what ``method="auto"`` does (noting the two algorithms coincide for
external modes anyway).

:data:`KERNELS` is the single registry of runnable MTTKRP kernels.
Dispatch, the autotuner's candidate set and stale-record check, the
tuner's model prior, the oracle tests and the bench suites all iterate
it, so adding a kernel is one :class:`KernelSpec` row.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.dimtree import mttkrp_dimtree
from repro.core.flops import record_mttkrp_cost
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.core.mttkrp_onestep import mttkrp_onestep, mttkrp_onestep_sequential
from repro.core.mttkrp_twostep import mttkrp_twostep
from repro.obs import get_tracer
from repro.parallel.config import resolve_threads, use_backend
from repro.tensor.dense import DenseTensor
from repro.util.timing import PhaseTimer
from repro.util.validation import check_mode

__all__ = ["mttkrp", "MTTKRP_METHODS", "KERNELS", "KernelSpec"]


def _any_mode(shape: Sequence[int], n: int) -> bool:
    return True


def _internal_mode(shape: Sequence[int], n: int) -> bool:
    return 0 < n < len(shape) - 1


@dataclass(frozen=True)
class KernelSpec:
    """One row of the kernel table.

    Attributes
    ----------
    name:
        The ``method=`` name and the ``mttkrp.<name>`` span name.
    entry:
        The kernel, called as ``entry(tensor, factors, n,
        num_threads=..., timers=..., **kwargs)``.
    eligible:
        ``eligible(shape, n)`` — whether the kernel is defined for mode
        ``n``.  The tuner measures only eligible kernels; dispatch runs
        the paper's policy kernel in place of an ineligible one.
    variants:
        Named kwarg presets, spelled ``"<name>:<variant>"`` (tuning
        records use these labels, so a recorded pick replays verbatim).
        The tuner measures each variant as its own candidate.
    cost_kind:
        Kind passed to :func:`repro.core.flops.record_mttkrp_cost` after
        each traced call; ``None`` for kernels whose nested spans carry
        their own counters.
    prior:
        Algorithm name given to
        :func:`repro.machine.predict.predict_algorithm_time` for the
        tuner's model prior; ``None`` leaves the kernel unscored.
    tunable:
        Whether the autotuner measures this kernel.
    env_kwargs:
        Execution-environment kwargs the entry accepts (workspace and
        friends); forwarded from the caller when ``method="autotune"``
        resolves to this kernel.
    """

    name: str
    entry: Callable[..., np.ndarray]
    eligible: Callable[[Sequence[int], int], bool] = _any_mode
    variants: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    cost_kind: str | None = None
    prior: str | None = None
    tunable: bool = True
    env_kwargs: tuple[str, ...] = ()

    def labels(self) -> list[tuple[str, dict]]:
        """``(label, kwargs)`` for every variant, or the bare name."""
        if not self.variants:
            return [(self.name, {})]
        return [
            (f"{self.name}:{variant}", dict(kwargs))
            for variant, kwargs in self.variants.items()
        ]

    def run(
        self,
        tensor: DenseTensor,
        factors: Sequence[np.ndarray],
        n: int,
        num_threads: int | None = None,
        timers: PhaseTimer | None = None,
        **kwargs,
    ) -> np.ndarray:
        """Call the kernel and record its analytic cost on the open span."""
        out = self.entry(
            tensor, factors, n, num_threads=num_threads, timers=timers,
            **kwargs,
        )
        if self.cost_kind is not None:
            record_mttkrp_cost(
                get_tracer(), tensor.shape, n, int(out.shape[1]),
                self.cost_kind, resolve_threads(num_threads),
            )
        return out


def _onestep_sequential(tensor, factors, n, num_threads=None, timers=None):
    # Algorithm 2 is sequential by definition: the thread count is unused.
    return mttkrp_onestep_sequential(tensor, factors, n, timers=timers)


KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec(
            "onestep", mttkrp_onestep, cost_kind="onestep", prior="onestep"
        ),
        # Strictly dominated by "onestep" at every thread count, so the
        # tuner never measures it; kept for the ablation suite.
        KernelSpec(
            "onestep-seq", _onestep_sequential, cost_kind="onestep-seq",
            tunable=False,
        ),
        KernelSpec(
            "twostep", mttkrp_twostep, eligible=_internal_mode,
            variants={"left": {"side": "left"}, "right": {"side": "right"}},
            cost_kind="twostep", prior="twostep",
        ),
        KernelSpec(
            "dimtree", mttkrp_dimtree, prior="dimtree",
            env_kwargs=("workspace", "executor", "slot"),
        ),
        KernelSpec(
            "baseline", mttkrp_baseline, cost_kind="baseline",
            prior="baseline",
        ),
    )
}

MTTKRP_METHODS = ("auto", "autotune", *KERNELS)


def _policy(external: bool) -> str:
    """The paper's Section 5.3.3 per-mode choice."""
    return "onestep" if external else "twostep"


def _unknown(method: str) -> ValueError:
    labels = [label for spec in KERNELS.values() for label, _ in spec.labels()
              if label != spec.name]
    return ValueError(
        f"unknown method {method!r}; expected one of {MTTKRP_METHODS} "
        f"or a variant label {tuple(labels)}"
    )


def mttkrp(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    method: str = "auto",
    num_threads: int | None = None,
    timers: PhaseTimer | None = None,
    backend: str | None = None,
    **kwargs,
) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product for mode ``n``.

    ``M = X_(n) . (U_{N-1} krp ... krp U_{n+1} krp U_{n-1} krp ... krp U_0)``

    Parameters
    ----------
    tensor:
        Dense tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode (the mode-``n`` matrix does
        not enter the computation but fixes shapes, matching CP-ALS usage).
    n:
        Output mode (negative values allowed, numpy-style).
    method:
        * ``"auto"`` — the paper's CP-ALS policy: 1-step for external
          modes, 2-step for internal modes;
        * ``"autotune"`` — empirical selection (:mod:`repro.tune`): the
          fastest kernel measured for this ``(shape, rank, mode,
          threads, backend, dtype)`` key, served from the persisted
          tuning cache after the first call.  2-way tensors skip
          measurement entirely (every kernel is the same single GEMM).
          Caller kwargs other than the selected kernel's
          ``env_kwargs`` are ignored — the tuning record supplies the
          kernel kwargs;
        * ``"onestep"`` — Algorithm 3 (the recommended 1-step variant,
          also for ``num_threads=1``);
        * ``"onestep-seq"`` — Algorithm 2 (explicit full KRP);
        * ``"twostep"`` — Algorithm 4 (internal modes only; external modes
          fall back to 1-step, which it degenerates to).  The spec forms
          ``"twostep:left"``/``"twostep:right"`` pin the ordering (same
          as ``side=``) — this is the label syntax tuning records use,
          so a recorded pick can be replayed verbatim;
        * ``"dimtree"`` — the dimension-tree node path for a single mode
          (half-tensor partial contraction + node MTTKRP, see
          :func:`repro.core.dimtree.mttkrp_dimtree`); accepts
          ``workspace=``/``executor=``/``slot=``;
        * ``"baseline"`` — explicit reorder + full KRP + single GEMM.

        The non-policy names are the rows of :data:`KERNELS`.
    num_threads:
        Thread count; defaults to the package-wide setting.
    timers:
        Optional :class:`~repro.util.timing.PhaseTimer` for breakdowns.
    backend:
        Execution backend for the parallel regions, ``"thread"`` or
        ``"process"`` (see :mod:`repro.parallel.backend`); defaults to the
        package-wide setting (``set_backend()`` / ``REPRO_BACKEND``).
    **kwargs:
        Forwarded to the selected implementation (e.g. ``side=`` for
        ``"twostep"``).

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP result.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    external = n == 0 or n == tensor.ndim - 1
    if method == "auto":
        method = _policy(external)
    autotuned = method == "autotune"
    if autotuned:
        from repro.tune.tuner import autotune

        record = autotune(
            tensor,
            factors,
            n,
            num_threads=num_threads,
            backend=backend,
            workspace=kwargs.get("workspace"),
        )
        passthrough = KERNELS[record.method].env_kwargs
        resolved_kwargs = dict(record.kwargs)
        resolved_kwargs.update(
            (key, kwargs[key]) for key in passthrough if key in kwargs
        )
        method, kwargs = record.method, resolved_kwargs
    name, _, variant = method.partition(":")
    spec = KERNELS.get(name)
    if spec is None or (variant and variant not in spec.variants):
        raise _unknown(method)
    if variant:
        for key, value in spec.variants[variant].items():
            kwargs.setdefault(key, value)
    if not spec.eligible(tensor.shape, n):
        # E.g. the paper: "for external modes, the 2-step algorithm
        # degenerates to the 1-step algorithm."
        fallback = _policy(external)
        if kwargs:
            warnings.warn(
                f"mttkrp(method={name!r}) degenerates to {fallback!r} for "
                f"mode {n} of an order-{tensor.ndim} tensor; ignoring "
                f"keyword arguments {sorted(kwargs)} that the {fallback!r} "
                f"implementation does not accept",
                UserWarning,
                stacklevel=2,
            )
            kwargs = {}
        spec = KERNELS[fallback]

    tracer = get_tracer()
    backend_scope = use_backend(backend) if backend is not None else nullcontext()
    with backend_scope:
        if not tracer.enabled:
            return spec.run(tensor, factors, n, num_threads, timers, **kwargs)
        with tracer.span(
            f"mttkrp.{spec.name}", mode=n, shape=list(tensor.shape),
            autotuned=autotuned,
        ) as span:
            # The row's runner attaches the analytic flop/byte counters to
            # this open span; the dimtree path's phases carry theirs on
            # the nested partial/node spans.
            out = spec.run(tensor, factors, n, num_threads, timers, **kwargs)
            span.args["rank"] = int(out.shape[1])
            return out
