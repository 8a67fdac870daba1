"""All-modes MTTKRP with cross-mode reuse (dimension tree).

The paper's conclusion names this as the natural next step: "implement the
algorithm proposed by Phan et al. [19, Section III.C] for avoiding
recomputation across MTTKRPs of different modes ... we could expect a
further reduction in per-iteration CP-ALS time of around 50% in the 3D
case and 2x in the 4D case (and higher for larger N)."

The idea: one ALS iteration needs the MTTKRP for *every* mode, and the
dominant cost of each is a partial contraction over roughly half the
tensor.  Split the modes into a left half ``L = {0..m-1}`` and right half
``R = {m..N-1}``:

* ``T_L = X_(0:m-1) . K_R`` contracts all right modes — **one** BLAS GEMM
  (exactly the right-first partial MTTKRP of Algorithm 4).  Every left
  mode's MTTKRP is then a cheap column-wise contraction of ``T_L`` over
  the *other* left modes.
* symmetrically, ``T_R = X_(0:m-1)^T . K_L`` contracts all left modes; it
  serves every right mode.

One iteration therefore does 2 large GEMMs instead of ``N`` — the
predicted ~``N/2``-fold reduction of the dominant term.

ALS update-order correctness: ``T_L`` depends only on the *right* factors,
so the left modes can be updated in sequence against a fixed ``T_L``
(each second-level contraction reads the current — possibly just updated —
left factors).  ``T_R`` is then computed from the *updated* left factors
before the right half proceeds.  The iterates are bitwise the mathematics
of standard CP-ALS, which the tests verify trajectory-for-trajectory.

Execution (this module's second generation):

* the first level (:func:`left_partial`/:func:`right_partial`) computes
  the partial KRP with :func:`~repro.core.krp_parallel.khatri_rao_parallel`
  on the thread pool and GEMMs into a preallocated node buffer via
  ``out=``;
* the second level (:func:`node_mttkrp`) is **batched**: the node is
  viewed as a ``(C, DL, d_keep, DR)`` stack of per-rank-column slabs (one
  zero-copy ``reshape``+``transpose`` of the natural layout) and both
  contractions run as batched BLAS calls over *all* rank columns at once,
  parallelized with a pool ``parallel_for`` over contiguous block
  ranges of the contracted axis into per-worker private outputs plus a
  tree reduction — the same pattern as
  :func:`~repro.core.mttkrp_onestep.mttkrp_onestep`;
* all scratch (KRP panels, node buffers, Kronecker panels, private
  outputs) comes from a :class:`~repro.parallel.workspace.Workspace`, so a
  caller that reuses one across iterations (as ``cp_als`` does) performs
  zero per-iteration allocations after warm-up.

The pre-batching implementation is kept as
:func:`node_mttkrp_columnwise` (one kron+GEMV chain per rank column):
it is the readable reference the batched kernel is tested bit-for-bit
against, and the baseline the benchmarks measure the rewrite's speedup
from.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter as _clock

import numpy as np

from repro.core.flops import gemm_cost, node_mttkrp_cost
from repro.core.krp_parallel import khatri_rao_parallel
from repro.obs import get_tracer
from repro.parallel.blas import blas_threads
from repro.parallel.config import resolve_threads
from repro.parallel.pool import ThreadPool, get_pool
from repro.parallel.reduction import parallel_reduce
from repro.parallel.workspace import Workspace
from repro.tensor.dense import DenseTensor
from repro.util import prod
from repro.util.validation import check_factor_matrices

__all__ = [
    "left_partial",
    "right_partial",
    "node_mttkrp",
    "node_mttkrp_columnwise",
    "mttkrp_dimtree",
    "split_point",
]


def mttkrp_dimtree(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    pool: ThreadPool | None = None,
    workspace: "Workspace | None" = None,
    slot: str | None = None,
) -> np.ndarray:
    """Single-mode MTTKRP through the dimension-tree node path.

    Computes the half-tensor partial contraction that covers mode ``n``
    (:func:`left_partial` or :func:`right_partial`) and finishes with one
    :func:`node_mttkrp`.  In CP-ALS the partial is shared across all
    modes of its half (``mode_strategy="dimtree"``); as a *single-mode*
    kernel the partial is paid in full, so this path wins only where the
    node contraction is disproportionately cheap — which is exactly the
    kind of machine/shape-dependent call the autotuner
    (:mod:`repro.tune`) measures instead of guessing.

    ``workspace``/``slot`` follow :func:`node_mttkrp`: with a reused
    workspace, repeated calls on equal shapes allocate nothing after the
    first.  The returned array is a workspace buffer when a workspace is
    passed (valid until the next same-slot call), a fresh array otherwise.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    N = tensor.ndim
    check_factor_matrices(list(factors), tensor.shape)
    if not -N <= n < N:
        raise ValueError(f"mode {n} out of range for order {N}")
    n = n % N
    m = split_point(N)
    if slot is None:
        slot = f"dimtree.mode[{n}]"
    if n < m:
        node = left_partial(
            tensor, factors, m, num_threads=num_threads, pool=pool,
            workspace=workspace,
        )
        return node_mttkrp(
            node, factors[:m], keep=n, num_threads=num_threads, pool=pool,
            workspace=workspace, slot=slot,
        )
    node = right_partial(
        tensor, factors, m, num_threads=num_threads, pool=pool,
        workspace=workspace,
    )
    return node_mttkrp(
        node, factors[m:], keep=n - m, num_threads=num_threads, pool=pool,
        workspace=workspace, slot=slot,
    )


def split_point(N: int) -> int:
    """Mode count of the left half (``ceil(N/2)``, at least 1, at most N-1).

    Both halves' partial contractions cost the same ``2*I*C`` flops, so
    the split only balances the *second*-level contraction sizes; the
    ceiling split keeps the left node no larger than the right.
    """
    if N < 2:
        raise ValueError(f"need at least 2 modes, got {N}")
    return max(min((N + 1) // 2, N - 1), 1)


def _partial_setup(tensor, factors, m, workspace, pool, num_threads):
    N = tensor.ndim
    C = check_factor_matrices(list(factors), tensor.shape)
    if not 1 <= m <= N - 1:
        raise ValueError(f"split m={m} out of range for order {N}")
    T = resolve_threads(num_threads)
    if pool is None and T > 1:
        pool = get_pool(T)
    ws = workspace if workspace is not None else Workspace()
    return N, C, T, pool, ws


def left_partial(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    m: int,
    num_threads: int | None = None,
    pool: ThreadPool | None = None,
    workspace: Workspace | None = None,
) -> DenseTensor:
    """``T_L``: contract modes ``m..N-1`` against the right partial KRP.

    Returns the order-``m+1`` node of shape ``(I_0, ..., I_{m-1}, C)`` in
    natural layout.  The KRP runs row-parallel on the pool
    (:func:`~repro.core.krp_parallel.khatri_rao_parallel`); the node is
    one GEMM on the column-major ``X_(0:m-1)`` view (Figure 3a of the
    paper, with ``n = m-1``) written ``out=`` into a workspace buffer.

    With a caller-provided ``workspace`` the KRP panel and node buffer are
    reused across calls: after the first call this function allocates
    nothing.  The returned node's flat data *is* the workspace buffer —
    valid until the next ``left_partial`` call on the same workspace.
    """
    N, C, T, pool, ws = _partial_setup(
        tensor, factors, m, workspace, pool, num_threads
    )
    tr = get_tracer()
    ops = [np.asarray(factors[k]) for k in range(N - 1, m - 1, -1)]
    rows = prod(tensor.shape[m:])
    dt_k = np.result_type(*ops)
    with tr.span("lr_krp"):
        KR = ws.buffer("dimtree.left.krp", (rows, C), dt_k)
        khatri_rao_parallel(ops, num_threads=T, out=KR, pool=pool)
    size_l = prod(tensor.shape[:m])
    dt = np.result_type(dt_k, tensor.dtype)
    node = ws.buffer("dimtree.left.node", (C * size_l,), dt)
    node2d = node.reshape(C, size_l)
    with blas_threads(T), tr.span("gemm", side="left") as sp:
        # Transposed GEMM so the C-contiguous output is the natural layout
        # of the node (same trick as mttkrp_twostep).
        np.matmul(KR.T, tensor.unfold_front(m - 1).T, out=node2d)
        tr.add_counter("gemm_calls", 1)
        if tr.enabled:
            _add_cost(sp, gemm_cost(size_l, C, rows))
    return DenseTensor(node, tensor.shape[:m] + (C,))


def right_partial(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    m: int,
    num_threads: int | None = None,
    pool: ThreadPool | None = None,
    workspace: Workspace | None = None,
) -> DenseTensor:
    """``T_R``: contract modes ``0..m-1`` against the left partial KRP.

    Returns the node of shape ``(I_m, ..., I_{N-1}, C)`` in natural
    layout.  One GEMM on the row-major ``X_(0:m-1)^T`` view (Figure 3c);
    KRP/workspace semantics as in :func:`left_partial`.
    """
    N, C, T, pool, ws = _partial_setup(
        tensor, factors, m, workspace, pool, num_threads
    )
    tr = get_tracer()
    ops = [np.asarray(factors[k]) for k in range(m - 1, -1, -1)]
    rows = prod(tensor.shape[:m])
    dt_k = np.result_type(*ops)
    with tr.span("lr_krp"):
        KL = ws.buffer("dimtree.right.krp", (rows, C), dt_k)
        khatri_rao_parallel(ops, num_threads=T, out=KL, pool=pool)
    size_r = prod(tensor.shape[m:])
    dt = np.result_type(dt_k, tensor.dtype)
    node = ws.buffer("dimtree.right.node", (C * size_r,), dt)
    node2d = node.reshape(C, size_r)
    with blas_threads(T), tr.span("gemm", side="right") as sp:
        np.matmul(KL.T, tensor.unfold_front(m - 1), out=node2d)
        tr.add_counter("gemm_calls", 1)
        if tr.enabled:
            _add_cost(sp, gemm_cost(size_r, C, rows))
    return DenseTensor(node, tensor.shape[m:] + (C,))


def _add_cost(span, cost) -> None:
    """Put one phase's analytic flop and byte counts on its span."""
    span.add("flops", cost.flops)
    span.add("bytes_read", cost.read_bytes)
    span.add("bytes_written", cost.write_bytes)


# --------------------------------------------------------------------- #
# Second level: node MTTKRP                                             #
# --------------------------------------------------------------------- #


def _validate_node(node, factors, keep):
    k = node.ndim - 1
    C = node.shape[-1]
    if len(factors) != k:
        raise ValueError(
            f"expected {k} factor matrices for the node's tensor modes, "
            f"got {len(factors)}"
        )
    for j, f in enumerate(factors):
        f = np.asarray(f)
        if f.shape != (node.shape[j], C):
            raise ValueError(
                f"factors[{j}] has shape {f.shape}, expected "
                f"{(node.shape[j], C)}"
            )
    if not 0 <= keep < k:
        raise ValueError(f"keep={keep} out of range for {k} node modes")
    return k, C


def _kron_panel_T(mats, C, ws, name):
    """Transposed Kronecker panel: row ``c`` is the natural-layout
    Kronecker product of the ``c``-th columns (first mode fastest).

    Built as a chain of broadcast multiplies entirely inside workspace
    buffers; each row is C-contiguous and bit-identical to the
    ``np.kron`` chain of :func:`_kron_column` on a contiguous start
    column (same association order, same operand order).
    """
    dt = np.result_type(*mats)
    PT = ws.buffer(f"{name}.0", (C, mats[0].shape[0]), dt)
    np.copyto(PT, mats[0].T)
    for i, mat in enumerate(mats[1:]):
        J, D = mat.shape[0], PT.shape[1]
        new = ws.buffer(f"{name}.{i + 1}", (C, J * D), dt)
        new3 = new.reshape(C, J, D)
        np.multiply(mat.T[:, :, None], PT[:, None, :], out=new3)
        PT = new
    return PT


def _k_node_right(
    worker, start, stop, node_buf, C, DL, d_keep, DR, KRT, priv
) -> None:
    """Region kernel: right contraction of DR-blocks ``[start, stop)``.

    The node's flat natural-layout buffer, viewed C-order as
    ``(C, DR, d_keep, DL)`` and transposed to ``(C, DL, d_keep, DR)``, is
    a stack of per-rank-column slabs with exactly the strides of the
    column-wise implementation's ``order="F"`` slab view.  Each worker
    contracts its contiguous DR range against the matching rows of the
    Kronecker panel into its private ``(C, DL, d_keep, 1)`` slab — one
    batched BLAS call over all rank columns; a tree reduce sums the
    partial contractions (the contracted sum is linear in the DR blocks).
    """
    if start >= stop:
        return
    t0 = _clock()
    S = node_buf.reshape((C, DR, d_keep, DL)).transpose(0, 3, 2, 1)
    np.matmul(
        S[..., start:stop], KRT[:, None, start:stop, None], out=priv[worker]
    )
    tr = get_tracer()
    if tr.enabled:
        tr.record("node_gemm", t0, _clock(), worker=worker)


def _k_node_left(
    worker, start, stop, node_buf, C, DL, d_keep, KLT, priv
) -> None:
    """Region kernel: left contraction of DL-blocks ``[start, stop)``.

    Used when the node has no right modes (``keep`` is the last node
    mode), where the left contraction is the dominant cost.  Each worker
    contracts its contiguous DL range into a private ``(C, 1, d_keep)``
    slab; the reduce sums the partials.
    """
    if start >= stop:
        return
    t0 = _clock()
    S = node_buf.reshape((C, 1, d_keep, DL)).transpose(0, 3, 2, 1)[..., 0]
    np.matmul(
        KLT[:, None, start:stop], S[:, start:stop, :], out=priv[worker]
    )
    tr = get_tracer()
    if tr.enabled:
        tr.record("node_gemm", t0, _clock(), worker=worker)


def node_mttkrp(
    node: DenseTensor,
    factors: Sequence[np.ndarray],
    keep: int,
    num_threads: int | None = None,
    pool: ThreadPool | None = None,
    workspace: Workspace | None = None,
    slot: str = "node",
) -> np.ndarray:
    """MTTKRP of a partial node for one of its tensor modes (batched).

    ``node`` has shape ``(d_0, ..., d_{k-1}, C)`` (trailing rank mode);
    ``factors`` are the ``d_j x C`` factor matrices of its ``k`` tensor
    modes.  Computes, for each rank column ``c``,

        M(i, c) = sum_{others} node(..., c) * prod_{j != keep} U_j(i_j, c)

    as two batched contractions over all rank columns at once: the slab
    stack ``(C, DL, d_keep, DR)`` is contracted against the right
    Kronecker panel (parallelized over DR blocks with private outputs and
    a tree reduce), then the left Kronecker panel contracts the ``DL``
    axis.  Results are bit-identical to
    :func:`node_mttkrp_columnwise` when run serially
    (``num_threads=1``); the parallel reduction changes summation order
    at the usual ulp level but is deterministic for a
    fixed thread count.

    Parameters
    ----------
    node, factors, keep:
        As above.
    num_threads:
        Worker count for the block-parallel contraction; defaults to the
        package-wide setting.
    pool:
        Explicit pool; defaults to the shared
        :func:`~repro.parallel.pool.get_pool` team when ``num_threads > 1``.
    workspace:
        :class:`~repro.parallel.workspace.Workspace` for all scratch; a
        caller looping over iterations passes one to make every call
        after warm-up allocation-free.  The returned array is a workspace
        buffer, valid until the next same-``slot`` call.
    slot:
        Workspace key namespace.  Callers issuing node MTTKRPs of
        different shapes in one loop (``cp_als`` does: one per mode) use
        distinct slots so each mode's buffers stay cached across
        iterations.

    Traced phases (:mod:`repro.obs` spans, inside a ``node_mttkrp``
    span): ``"node_krp"`` (Kronecker panels), ``"node_gemm"`` (batched
    contractions) and ``"node_reduce"``.

    Returns
    -------
    numpy.ndarray
        The ``d_keep x C`` MTTKRP output.
    """
    tr = get_tracer()
    k, C = _validate_node(node, factors, keep)
    T = resolve_threads(num_threads)
    if pool is None and T > 1:
        pool = get_pool(T)
    ws = workspace if workspace is not None else Workspace()

    dims = node.shape[:-1]
    d_keep = dims[keep]
    DL = prod(dims[:keep])
    DR = prod(dims[keep + 1 :])
    left = [np.asarray(factors[j]) for j in range(keep)]
    right = [np.asarray(factors[j]) for j in range(keep + 1, k)]

    with tr.span(
        "node_mttkrp", keep=keep, rank=C, shape=list(node.shape)
    ) as sp:
        with tr.span("node_krp"):
            KRT = _kron_panel_T(right, C, ws, f"{slot}.krpT_right") if right else None
            KLT = _kron_panel_T(left, C, ws, f"{slot}.krpT_left") if left else None
        buf = node.data
        dt_r = np.result_type(node.dtype, KRT.dtype) if right else node.dtype
        dt_o = np.result_type(dt_r, KLT.dtype) if left else dt_r
        if tr.enabled:
            _add_cost(sp, node_mttkrp_cost(dims, keep, C))

        use_parallel = T > 1 and pool is not None and (right or left)
        if use_parallel and right:
            priv = ws.private(f"{slot}.priv", T, (C, DL, d_keep, 1), dt_r)
            pool.parallel_for(
                lambda w, lo, hi: _k_node_right(
                    w, lo, hi, buf, C, DL, d_keep, DR, KRT, priv
                ),
                DR,
                label="dimtree.node",
            )
            tr.add_counter("gemm_calls", T)
            with tr.span("node_reduce"):
                tmp = parallel_reduce(priv, pool)[..., 0]
        elif use_parallel:  # right empty, left present: contract DL blocks
            priv = ws.private(f"{slot}.priv", T, (C, 1, d_keep), dt_o)
            pool.parallel_for(
                lambda w, lo, hi: _k_node_left(
                    w, lo, hi, buf, C, DL, d_keep, KLT, priv
                ),
                DL,
                label="dimtree.node",
            )
            tr.add_counter("gemm_calls", T)
            with tr.span("node_reduce"):
                out_c = parallel_reduce(priv, pool)[:, 0, :]
            out = ws.buffer(f"{slot}.out", (d_keep, C), node.dtype)
            np.copyto(out, out_c.T)
            return out
        elif right:
            S = buf.reshape((C, DR, d_keep, DL)).transpose(0, 3, 2, 1)
            tmp4 = ws.buffer(f"{slot}.tmp", (C, DL, d_keep, 1), dt_r)
            with tr.span("node_gemm"):
                np.matmul(S, KRT[:, None, :, None], out=tmp4)
                tr.add_counter("gemm_calls", 1)
            tmp = tmp4[..., 0]
        else:
            tmp = buf.reshape((C, DR, d_keep, DL)).transpose(0, 3, 2, 1)[..., 0]

        if left:
            oc = ws.buffer(f"{slot}.oc", (C, 1, d_keep), dt_o)
            with tr.span("node_gemm"):
                np.matmul(KLT[:, None, :], tmp, out=oc)
                tr.add_counter("gemm_calls", 1)
            out_c = oc[:, 0, :]
        else:
            out_c = tmp[:, 0, :]
        out = ws.buffer(f"{slot}.out", (d_keep, C), node.dtype)
        np.copyto(out, out_c.T)
        return out


def node_mttkrp_columnwise(
    node: DenseTensor,
    factors: Sequence[np.ndarray],
    keep: int,
) -> np.ndarray:
    """Reference node MTTKRP: one kron+GEMV chain per rank column.

    The pre-batching implementation, kept as the readable specification
    of the second-level contraction and the baseline the benchmarks
    measure :func:`node_mttkrp` against.  For each rank column ``c``,
    evaluates (left-Kronecker vector) x (matricized slab) x
    (right-Kronecker vector) on zero-copy views.

    :func:`node_mttkrp` run serially is bit-identical to this function:
    the batched contraction issues the same BLAS shapes per rank column
    on identically-strided slab views and contiguous Kronecker
    rows/columns.

    Returns the ``d_keep x C`` MTTKRP output.
    """
    k, C = _validate_node(node, factors, keep)
    dims = node.shape[:-1]
    d_keep = dims[keep]
    DL = prod(dims[:keep])
    DR = prod(dims[keep + 1 :])
    flat = node.unfold_front(node.ndim - 2)  # (prod dims, C) column-major
    out = np.empty((d_keep, C), dtype=node.dtype, order="C")
    left = [np.asarray(factors[j]) for j in range(keep)]
    right = [np.asarray(factors[j]) for j in range(keep + 1, k)]
    with get_tracer().span("gemv"):
        for c in range(C):
            slab = flat[:, c].reshape((DL, d_keep, DR), order="F")
            tmp = slab  # (DL, d_keep, DR)
            if right:
                colR = _kron_column(right, c)
                tmp = tmp @ colR  # (DL, d_keep)
            else:
                tmp = tmp[:, :, 0]
            if left:
                colL = _kron_column(left, c)
                out[:, c] = colL @ tmp
            else:
                out[:, c] = tmp[0]
    return out


def _kron_column(mats: list[np.ndarray], c: int) -> np.ndarray:
    """Column ``c`` of the natural-layout Kronecker product of factor
    columns (first listed mode's index fastest).

    The start column is densified so the single-matrix case hands BLAS a
    contiguous vector exactly like the multi-matrix ``np.kron`` outputs —
    keeping every GEMV's operand layout (and hence its bits) uniform, and
    matching the batched panel rows of :func:`_kron_panel_T`.
    """
    col = np.ascontiguousarray(mats[0][:, c])
    for m in mats[1:]:
        col = np.kron(m[:, c], col)
    return col
