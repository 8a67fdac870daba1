"""Unified MTTKRP entry point and the one kernel table behind it.

Section 5.3.3: "Our C implementation of CP-ALS employs Algorithm 3 (1-step)
for both outer modes and Algorithm 4 (2-step) for all inner modes."  That is
exactly what ``method="auto"`` does (noting the two algorithms coincide for
external modes anyway).

:data:`KERNELS` is the single registry of runnable MTTKRP kernels.
Dispatch, the method check (:func:`check_method`, shared with serve
admission), the oracle tests and the bench suites all iterate it, so
adding a kernel is one :class:`KernelSpec` row.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.dimtree import mttkrp_dimtree
from repro.core.flops import record_mttkrp_cost
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.core.mttkrp_onestep import mttkrp_onestep, mttkrp_onestep_sequential
from repro.core.mttkrp_twostep import mttkrp_twostep
from repro.obs import get_tracer
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.util.validation import check_mode

__all__ = ["mttkrp", "check_method", "MTTKRP_METHODS", "KERNELS", "KernelSpec"]


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
        num_threads=..., **kwargs)``.
    eligible:
        ``eligible(shape, n)`` — whether the kernel is defined for mode
        ``n``.  Dispatch runs the paper's policy kernel in place of an
        ineligible one.
    variants:
        Named kwarg presets, spelled ``"<name>:<variant>"``.
    cost_kind:
        Kind passed to :func:`repro.core.flops.record_mttkrp_cost` after
        each traced call; ``None`` for kernels whose nested spans carry
        their own flop/byte counters (the call then records only
        ``bytes_lower_bound``).
    """

    name: str
    entry: Callable[..., np.ndarray]
    eligible: Callable[[Sequence[int], int], bool] = _any_mode
    variants: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    cost_kind: str | None = None

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
        **kwargs,
    ) -> np.ndarray:
        """Call the kernel and record its analytic cost on the open span."""
        out = self.entry(tensor, factors, n, num_threads=num_threads, **kwargs)
        record_mttkrp_cost(
            get_tracer(), tensor.shape, n, int(out.shape[1]),
            self.cost_kind, resolve_threads(num_threads),
        )
        return out


def _onestep_sequential(tensor, factors, n, num_threads=None):
    # Algorithm 2 is sequential by definition: the thread count is unused.
    return mttkrp_onestep_sequential(tensor, factors, n)


KERNELS: dict[str, KernelSpec] = {
    spec.name: spec
    for spec in (
        KernelSpec("onestep", mttkrp_onestep, cost_kind="onestep"),
        # Strictly dominated by "onestep" at every thread count; kept for
        # the ablation suite.
        KernelSpec(
            "onestep-seq", _onestep_sequential, cost_kind="onestep-seq"
        ),
        KernelSpec(
            "twostep", mttkrp_twostep, eligible=_internal_mode,
            variants={"left": {"side": "left"}, "right": {"side": "right"}},
            cost_kind="twostep",
        ),
        KernelSpec("dimtree", mttkrp_dimtree),
        KernelSpec("baseline", mttkrp_baseline, cost_kind="baseline"),
    )
}

MTTKRP_METHODS = ("auto", *KERNELS)


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


def check_method(method, ndim: int | None = None) -> list[str]:
    """Validate a ``method=`` value as :func:`~repro.cpd.cp_als.cp_als` takes it.

    A string (``"auto"``, a :data:`KERNELS` name or a variant label such
    as ``"twostep:left"``) applies to every mode; a sequence names one
    spec per mode and must have ``ndim`` entries (checked only when
    ``ndim`` is given).  Returns the per-mode list (a string is repeated
    ``ndim`` times, or returned alone when ``ndim`` is ``None``); raises
    :class:`ValueError` on an unknown spec or a wrong length.
    """
    if isinstance(method, str):
        methods = [method] * (1 if ndim is None else ndim)
    else:
        methods = [str(m) for m in method]
        if ndim is not None and len(methods) != ndim:
            raise ValueError(
                f"expected {ndim} per-mode methods, got {len(methods)}"
            )
    for spec in dict.fromkeys(methods):
        name, _, variant = spec.partition(":")
        kernel = KERNELS.get(name)
        if spec != "auto" and (
            kernel is None or (variant and variant not in kernel.variants)
        ):
            raise _unknown(spec)
    return methods


def mttkrp(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    method: str = "auto",
    num_threads: int | None = None,
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
        * ``"onestep"`` — Algorithm 3 (the recommended 1-step variant,
          also for ``num_threads=1``);
        * ``"onestep-seq"`` — Algorithm 2 (explicit full KRP);
        * ``"twostep"`` — Algorithm 4 (internal modes only; external modes
          fall back to 1-step, which it degenerates to).  The spec forms
          ``"twostep:left"``/``"twostep:right"`` pin the ordering (same
          as ``side=``), as in a per-mode ``cp_als`` method list;
        * ``"dimtree"`` — the dimension-tree node path for a single mode
          (half-tensor partial contraction + node MTTKRP, see
          :func:`repro.core.dimtree.mttkrp_dimtree`); accepts
          ``workspace=``/``pool=``/``slot=``;
        * ``"baseline"`` — explicit reorder + full KRP + single GEMM.

        The non-policy names are the rows of :data:`KERNELS`.
    num_threads:
        Thread count; defaults to the package-wide setting.
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
    if not isinstance(method, str):
        raise TypeError(
            f"method must be a string, got {type(method).__name__}"
        )
    check_method(method)
    external = n == 0 or n == tensor.ndim - 1
    if method == "auto":
        method = _policy(external)
    name, _, variant = method.partition(":")
    spec = KERNELS[name]
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
    if not tracer.enabled:
        return spec.run(tensor, factors, n, num_threads, **kwargs)
    with tracer.span(
        f"mttkrp.{spec.name}", mode=n, shape=list(tensor.shape),
    ) as span:
        # The row's runner attaches the analytic flop/byte counters
        # and the lower bound to this open span; the dimtree path's
        # phases carry their flops/bytes on the nested gemm/node spans.
        out = spec.run(tensor, factors, n, num_threads, **kwargs)
        span.args["rank"] = int(out.shape[1])
        return out
