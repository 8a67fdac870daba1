"""Exact arithmetic and traffic counts for every algorithm phase.

These counts drive two things:

* the **machine model** (:mod:`repro.machine`), which turns them into
  predicted times for the paper's 12-core machine (and any other), and
* the benchmark harness, which reports achieved GFLOP/s and GB/s so the
  measured results are interpretable (e.g. Figure 4's claim that KRP runs
  at STREAM bandwidth).

Conventions: one fused multiply-add counts as 2 flops (matching how GEMM
peak rates are quoted); traffic counts are *algorithmic* reads/writes of
8-byte doubles — compulsory traffic, ignoring caches, which is the right
granularity for the streaming kernels here (KRP, reorder, reduction) and a
standard approximation for large GEMMs.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.tensor.layout import mode_products
from repro.util import prod

__all__ = [
    "PhaseCost",
    "AlgorithmCost",
    "krp_cost",
    "stream_cost",
    "gemm_cost",
    "onestep_cost",
    "twostep_cost",
    "baseline_cost",
    "batched_cost",
    "gemm_lower_bound_cost",
    "mttkrp_comm_lower_bound",
    "multi_ttv_cost",
    "node_mttkrp_cost",
    "record_mttkrp_cost",
]

_DOUBLE = 8  # bytes per entry, double precision throughout the paper

#: Fast-memory capacity when no calibrated machine model is in scope: the
#: default of ``repro.machine.model.MachineModel.cache_bytes``, so also
#: the uncalibrated host model's.  8 MiB of last-level cache is a
#: conservative lower bound for any machine this package targets.  Kept
#: here so a traced call never imports :mod:`repro.machine` inside its
#: kernel span.
DEFAULT_CACHE_BYTES = 8 << 20


@dataclass(frozen=True)
class PhaseCost:
    """Arithmetic (flops) and memory traffic (bytes) of one phase.

    ``gemm_shape`` records the (m, n, k) of the dominant matrix multiply,
    if any — the machine model uses it to estimate BLAS efficiency, which
    the paper identifies as shape-dependent (Section 5.3.1).
    """

    name: str
    flops: float
    read_bytes: float
    write_bytes: float
    gemm_shape: tuple[int, int, int] | None = None

    @property
    def bytes(self) -> float:
        """Total traffic."""
        return self.read_bytes + self.write_bytes

    def scaled(self, factor: float) -> "PhaseCost":
        """Cost with all counts multiplied by ``factor``."""
        return PhaseCost(
            self.name,
            self.flops * factor,
            self.read_bytes * factor,
            self.write_bytes * factor,
            self.gemm_shape,
        )


@dataclass(frozen=True)
class AlgorithmCost:
    """Phase-decomposed cost of one algorithm invocation."""

    algorithm: str
    phases: tuple[PhaseCost, ...] = field(default_factory=tuple)

    @property
    def flops(self) -> float:
        return sum(p.flops for p in self.phases)

    @property
    def bytes(self) -> float:
        return sum(p.bytes for p in self.phases)

    def phase(self, name: str) -> PhaseCost:
        """Look up a phase by name (raises ``KeyError`` if absent)."""
        for p in self.phases:
            if p.name == name:
                return p
        raise KeyError(f"{self.algorithm} has no phase {name!r}")


# --------------------------------------------------------------------- #
# Building blocks
# --------------------------------------------------------------------- #


def krp_cost(dims: Sequence[int], C: int, schedule: str = "reuse") -> PhaseCost:
    """Cost of a Khatri-Rao product of matrices ``J_z x C``.

    * ``"reuse"`` (Algorithm 1): each prefix's Hadamard products are
      computed once — ``C * sum_z prod(J_0..J_z)`` multiplies for
      ``z >= 1`` — and every level is written once and read once by the
      next level (the final level only written).
    * ``"naive"``: ``(Z-1)`` Hadamard products per output row.

    For ``Z == 1`` the KRP is a copy (zero flops).
    """
    dims = [int(d) for d in dims]
    C = int(C)
    Z = len(dims)
    if Z == 0:
        raise ValueError("KRP requires at least one matrix")
    rows = prod(dims)
    out_entries = rows * C
    input_entries = sum(d * C for d in dims)
    if schedule == "reuse":
        flops = 0.0
        level_entries = []
        r = dims[0]
        for d in dims[1:]:
            r *= d
            flops += r * C
            level_entries.append(r * C)
        # Each intermediate level is written then read by the next level.
        inter = sum(level_entries[:-1]) if level_entries else 0
        reads = (input_entries + inter) * _DOUBLE
        writes = out_entries * _DOUBLE + inter * _DOUBLE
    elif schedule == "naive":
        flops = max(Z - 1, 0) * rows * C
        # Z gathered operands per output row (reads served from the small
        # inputs but charged per access: this is the stream the naive
        # algorithm actually issues), one write.
        reads = Z * out_entries * _DOUBLE
        writes = out_entries * _DOUBLE
    else:
        raise ValueError(f"unknown schedule {schedule!r}")
    return PhaseCost("krp", float(flops), float(reads), float(writes))


def stream_cost(entries: int) -> PhaseCost:
    """The STREAM scale benchmark on ``entries`` doubles: read + write."""
    entries = int(entries)
    return PhaseCost(
        "stream",
        float(entries),
        float(entries * _DOUBLE),
        float(entries * _DOUBLE),
    )


def gemm_cost(m: int, n: int, k: int, name: str = "gemm") -> PhaseCost:
    """``(m x k) . (k x n)``: ``2mnk`` flops, compulsory traffic."""
    m, n, k = int(m), int(n), int(k)
    return PhaseCost(
        name,
        2.0 * m * n * k,
        float((m * k + k * n) * _DOUBLE),
        float(m * n * _DOUBLE),
        gemm_shape=(m, n, k),
    )


def multi_ttv_cost(out_dim: int, inner: int, C: int) -> PhaseCost:
    """Second step of 2-step MTTKRP: ``C`` GEMVs of ``out_dim x inner``."""
    out_dim, inner, C = int(out_dim), int(inner), int(C)
    return PhaseCost(
        "gemv",
        2.0 * C * out_dim * inner,
        float(C * (out_dim * inner + inner) * _DOUBLE),
        float(C * out_dim * _DOUBLE),
        gemm_shape=(out_dim, 1, inner),
    )


def node_mttkrp_cost(dims: Sequence[int], keep: int, C: int) -> PhaseCost:
    """Dimension-tree node MTTKRP (:func:`repro.core.dimtree.node_mttkrp`).

    The node ``(d_0, ..., d_{k-1}, C)`` is contracted against the
    Kronecker panels of the modes right of ``keep`` (``DR`` rows) and then
    left of it (``DL`` rows), for all ``C`` rank columns at once.  When
    both sides are present the ``(C, DL, d_keep)`` intermediate is
    written by the first contraction and read by the second.
    """
    dims = [int(d) for d in dims]
    C = int(C)
    d_keep = dims[keep]
    DL = prod(dims[:keep])
    DR = prod(dims[keep + 1:])
    right = keep < len(dims) - 1
    left = keep > 0
    flops = 2.0 * C * DL * d_keep * (DR if right else 0)
    flops += 2.0 * C * DL * d_keep if left else 0.0
    panels = C * ((DR if right else 0) + (DL if left else 0))
    inter = C * DL * d_keep if right and left else 0
    return PhaseCost(
        "node",
        flops,
        float((prod(dims) * C + panels + inter) * _DOUBLE),
        float((d_keep * C + inter) * _DOUBLE),
    )


# --------------------------------------------------------------------- #
# Full algorithms
# --------------------------------------------------------------------- #


def onestep_cost(
    shape: Sequence[int], n: int, C: int, num_threads: int = 1
) -> AlgorithmCost:
    """Cost of 1-step MTTKRP (Algorithm 3) for mode ``n``.

    External modes: full KRP (reuse schedule) + one GEMM slice per thread +
    reduction.  Internal modes: left partial KRP + per-block right-KRP row
    and Hadamard broadcast + one GEMM per block + reduction.
    """
    shape = [int(s) for s in shape]
    N = len(shape)
    C = int(C)
    T = int(num_threads)
    p = mode_products(shape, n)
    phases: list[PhaseCost] = []
    if n == 0 or n == N - 1:
        other_dims = [shape[k] for k in range(N - 1, -1, -1) if k != n]
        phases.append(
            krp_cost(other_dims, C).scaled(1.0)._replace_name("full_krp")
        )
        phases.append(gemm_cost(p.size, C, p.other))
    else:
        left_dims = [shape[k] for k in range(n - 1, -1, -1)]
        phases.append(krp_cost(left_dims, C)._replace_name("lr_krp"))
        # Per block j: right-KRP row ((N-n-2) row Hadamards, negligible) and
        # the broadcast K_t = K_L * k_r (I^L_n * C multiplies + traffic).
        per_block = PhaseCost(
            "lr_krp",
            float(p.left * C + max(N - n - 2, 0) * C),
            float((p.left * C + C) * _DOUBLE),
            float(p.left * C * _DOUBLE),
        )
        phases.append(per_block.scaled(p.right))
        phases.append(gemm_cost(p.size, C, p.other, name="gemm"))
    if T > 1:
        # Tree reduction of private I_n x C outputs: T-1 pairwise adds.
        entries = p.size * C
        phases.append(
            PhaseCost(
                "reduce",
                float((T - 1) * entries),
                float(2 * (T - 1) * entries * _DOUBLE),
                float((T - 1) * entries * _DOUBLE),
            )
        )
    return AlgorithmCost("onestep", tuple(_merge(phases)))


def twostep_cost(
    shape: Sequence[int], n: int, C: int, side: str = "auto"
) -> AlgorithmCost:
    """Cost of 2-step MTTKRP (Algorithm 4) for internal mode ``n``."""
    shape = [int(s) for s in shape]
    N = len(shape)
    C = int(C)
    if n <= 0 or n >= N - 1:
        raise ValueError(f"2-step cost defined for internal modes, got n={n}")
    p = mode_products(shape, n)
    if side == "auto":
        side = "left" if p.left > p.right else "right"
    left_dims = [shape[k] for k in range(n - 1, -1, -1)]
    right_dims = [shape[k] for k in range(N - 1, n, -1)]
    phases = [
        krp_cost(left_dims, C)._replace_name("lr_krp"),
        krp_cost(right_dims, C)._replace_name("lr_krp"),
    ]
    if side == "left":
        # L = X_(0:n-1)^T . K_L : (In*IRn x ILn) . (ILn x C)
        phases.append(gemm_cost(p.size * p.right, C, p.left))
        phases.append(multi_ttv_cost(p.size, p.right, C))
    elif side == "right":
        # R = X_(0:n) . K_R : (ILn*In x IRn) . (IRn x C)
        phases.append(gemm_cost(p.left * p.size, C, p.right))
        phases.append(multi_ttv_cost(p.size, p.left, C))
    else:
        raise ValueError(f"side must be 'auto', 'left' or 'right', got {side!r}")
    return AlgorithmCost("twostep", tuple(_merge(phases)))


def baseline_cost(shape: Sequence[int], n: int, C: int) -> AlgorithmCost:
    """Cost of the straightforward baseline (reorder + full KRP + GEMM)."""
    shape = [int(s) for s in shape]
    N = len(shape)
    C = int(C)
    p = mode_products(shape, n)
    phases: list[PhaseCost] = []
    if 0 < n < N - 1 or n == N - 1:
        # Entry reordering: read + write of the whole tensor (memory-bound).
        total = p.total
        phases.append(
            PhaseCost(
                "reorder", 0.0, float(total * _DOUBLE), float(total * _DOUBLE)
            )
        )
    other_dims = [shape[k] for k in range(N - 1, -1, -1) if k != n]
    phases.append(krp_cost(other_dims, C)._replace_name("full_krp"))
    phases.append(gemm_cost(p.size, C, p.other))
    return AlgorithmCost("baseline", tuple(_merge(phases)))


def gemm_lower_bound_cost(shape: Sequence[int], n: int, C: int) -> AlgorithmCost:
    """The paper's DGEMM-only Baseline benchmark for mode ``n``."""
    shape = [int(s) for s in shape]
    p = mode_products(shape, n)
    return AlgorithmCost("gemm-baseline", (gemm_cost(p.size, C, p.other),))


def mttkrp_comm_lower_bound(
    shape: Sequence[int],
    n: int,
    C: int,
    cache_bytes: float = DEFAULT_CACHE_BYTES,
) -> float:
    """Ballard-Rouse-Knight data-movement floor for one mode-``n`` MTTKRP.

    For a fast memory of ``M`` words, the Loomis-Whitney box argument of
    "Communication Lower Bounds for MTTKRP" (PAPERS.md) bounds the work an
    ``M``-word segment of the execution can cover: a tensor-index box of
    side ``b`` with ``b^N <= M`` combined with a rank block ``c = M / b``
    covers at most ``M^(2 - 1/N)`` elementary multiplies, so the whole
    ``I * C``-multiply computation moves at least

        ``W >= I * C / M^(1 - 1/N)``

    words, in addition to the compulsory traffic (read the tensor and the
    ``N-1`` input factors once, write the output once).  For ``N = 2``
    this recovers the classical ``Omega(m n k / sqrt(M))`` GEMM bound.

    Returns the bound in **bytes** under this module's 8-bytes-per-word
    convention (the same convention every achieved-traffic count here
    uses, so achieved/bound ratios are internally consistent regardless
    of the run's dtype).
    """
    shape = [int(s) for s in shape]
    N = len(shape)
    C = int(C)
    if not 0 <= n < N:
        raise ValueError(f"mode {n} out of range for order-{N} shape")
    total = prod(shape)
    M_words = max(float(cache_bytes) / _DOUBLE, 2.0)
    # Compulsory: tensor read + factor reads (all modes but n) + output
    # write; the output has I_n rows, so the factor/output terms together
    # are C * sum(shape).
    compulsory = float(total) + float(C) * float(sum(shape))
    loomis_whitney = float(total) * C / M_words ** (1.0 - 1.0 / N)
    return max(compulsory, loomis_whitney) * _DOUBLE


def batched_cost(
    shape: Sequence[int], n: int, C: int, batch: int, num_threads: int = 1
) -> AlgorithmCost:
    """Cost of the batched MTTKRP (:mod:`repro.batch.mttkrp`).

    Per item: a full KRP panel (reuse schedule, materialized into the
    chunk buffer) and the mode-``n`` GEMM; internal modes add the
    pre-reduction product traffic and the block-axis sum.  Scaled by
    ``batch``.  Workers own disjoint batch blocks, so unlike the
    single-tensor kernels there is **no** reduction term at any ``T``.
    """
    shape = [int(s) for s in shape]
    N = len(shape)
    C = int(C)
    batch = int(batch)
    p = mode_products(shape, n)
    other_dims = [shape[k] for k in range(N - 1, -1, -1) if k != n]
    phases = [
        krp_cost(other_dims, C)._replace_name("full_krp"),
        gemm_cost(p.size, C, p.other),
    ]
    if 0 < n < N - 1:
        # The (I^R_n, I_n, C) product is written by the batched GEMM and
        # re-read by the block-axis sum ((I^R_n - 1) * I_n * C adds).
        entries = p.right * p.size * C
        phases.append(
            PhaseCost(
                "reduce",
                float(max(p.right - 1, 0) * p.size * C),
                float(entries * _DOUBLE),
                float(entries * _DOUBLE),
            )
        )
    return AlgorithmCost(
        "batched", tuple(q.scaled(batch) for q in _merge(phases))
    )


# --------------------------------------------------------------------- #
# Tracer accounting
# --------------------------------------------------------------------- #


def record_mttkrp_cost(
    tracer,
    shape: Sequence[int],
    n: int,
    rank: int,
    kind: str | None,
    num_threads: int = 1,
    cache_bytes: float | None = None,
    batch: int = 1,
) -> None:
    """Attach one MTTKRP call's analytic cost as obs counters.

    The kernel table's runner (:meth:`repro.core.dispatch.KernelSpec.run`)
    calls this once per call with the row's ``cost_kind``, so the
    counters land on the innermost open span — the ``mttkrp.<method>``
    span when the call came through :func:`repro.core.dispatch.mttkrp`,
    the enclosing span (or the tracer-level counters) on a direct runner
    call (bench suites).  Alongside the achieved flop/byte
    counts, every call carries ``bytes_lower_bound`` — the Ballard-Rouse-Knight
    data-movement floor for this (shape, mode, rank) — so any traced run
    can report its achieved-vs-lower-bound byte ratio.

    ``kind=None`` records only ``bytes_lower_bound``: the dimension-tree
    paths put their flop/byte counts on their nested partial-GEMM and
    node spans, and call this once per mode update for the bound.

    ``batch`` scales the batched kind (``kind="batched"``, both the
    stacked and loop lanes of :mod:`repro.batch.mttkrp`) and the lower
    bound by the number of stacked items; single-tensor kinds leave it
    at 1.

    No-op when ``tracer`` is ``None`` or disabled, so untraced hot loops
    pay only the guard.
    """
    if tracer is None or not getattr(tracer, "enabled", False):
        return
    if cache_bytes is None:
        cache_bytes = float(DEFAULT_CACHE_BYTES)
    if kind is None:
        cost = None
    elif kind == "onestep":
        cost = onestep_cost(shape, n, rank, num_threads)
    elif kind == "onestep-seq":  # Algorithm 2 always runs sequentially
        cost = onestep_cost(shape, n, rank, 1)
    elif kind == "twostep":
        cost = twostep_cost(shape, n, rank)
    elif kind == "baseline":
        cost = baseline_cost(shape, n, rank)
    elif kind == "batched":
        cost = batched_cost(shape, n, rank, batch, num_threads)
    else:
        raise ValueError(f"unknown cost kind {kind!r}")
    if cost is not None:
        tracer.add_counter("flops", cost.flops)
        tracer.add_counter("bytes_read", sum(p.read_bytes for p in cost.phases))
        tracer.add_counter(
            "bytes_written", sum(p.write_bytes for p in cost.phases)
        )
    tracer.add_counter(
        "bytes_lower_bound",
        float(batch)
        * mttkrp_comm_lower_bound(shape, n, rank, cache_bytes=cache_bytes),
    )


# --------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------- #


def _merge(phases: list[PhaseCost]) -> list[PhaseCost]:
    """Merge same-named phases, preserving first-seen order."""
    order: list[str] = []
    acc: dict[str, PhaseCost] = {}
    for p in phases:
        if p.name not in acc:
            order.append(p.name)
            acc[p.name] = p
        else:
            q = acc[p.name]
            acc[p.name] = PhaseCost(
                p.name,
                p.flops + q.flops,
                p.read_bytes + q.read_bytes,
                p.write_bytes + q.write_bytes,
                q.gemm_shape or p.gemm_shape,
            )
    return [acc[name] for name in order]


def _replace_name(self: PhaseCost, name: str) -> PhaseCost:
    return PhaseCost(
        name, self.flops, self.read_bytes, self.write_bytes, self.gemm_shape
    )


# Attach as a method (keeps the dataclass frozen and the call sites tidy).
PhaseCost._replace_name = _replace_name  # type: ignore[attr-defined]
