"""2-step MTTKRP (Algorithm 4; Phan et al. [19] as presented in the paper).

The computation is split into a **partial MTTKRP** — one large GEMM between
a multi-mode matricization of the tensor (which the natural layout makes
column- or row-major, so no entries are reordered) and a *partial* KRP —
followed by a **multi-TTV** that contracts the intermediate against the
remaining factor matrices' columns, one GEMV per rank column.

Either ordering is mathematically valid:

* **right-first** (Figure 3a/3b): ``R_(0:n) = X_(0:n) . K_R`` (``X_(0:n)``
  is column-major), then the multi-TTV contracts modes ``0..n-1`` against
  ``K_L``'s columns;
* **left-first** (Figure 3c/3d): ``L = X_(0:n-1)^T . K_L`` (the transpose
  is row-major), then the multi-TTV contracts modes ``n+1..N-1`` against
  ``K_R``'s columns.

Both orderings do the same flops in step 1; Algorithm 4 picks the ordering
whose *second* step touches the smaller intermediate — left-first iff
``I^L_n > I^R_n``.  ``side="left"``/``"right"`` force an ordering (the
ablation benchmark uses this); ``side="auto"`` applies the paper's rule.

For external modes the 2-step algorithm degenerates to the 1-step
algorithm, so this module only defines behaviour for internal modes
(``0 < n < N-1``) and raises otherwise — callers wanting transparent
fallback should use :func:`repro.core.dispatch.mttkrp`.

Parallelism lives entirely inside the BLAS calls (the paper's Algorithm 4
serves as both the sequential and parallel variant); ``num_threads`` is
forwarded to the BLAS runtime via :func:`repro.parallel.blas.blas_threads`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.krp import khatri_rao
from repro.obs import get_tracer
from repro.parallel.blas import blas_threads
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from repro.tensor.ttv import multi_ttv
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp_twostep", "choose_side"]


def choose_side(shape: Sequence[int], n: int) -> str:
    """The paper's ordering rule: left-first iff ``I^L_n > I^R_n``.

    The 2nd step's flop count is ``2 * C * I_n * I^R_n`` (left-first) or
    ``2 * C * I_n * I^L_n`` (right-first); picking the larger of
    ``I^L_n, I^R_n`` for step 1 leaves the smaller for step 2.
    """
    p = mode_products(tuple(int(s) for s in shape), int(n))
    return "left" if p.left > p.right else "right"


def mttkrp_twostep(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    side: str = "auto",
) -> np.ndarray:
    """Algorithm 4: 2-step MTTKRP for an internal mode.

    Parameters
    ----------
    tensor:
        Input tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode.
    n:
        Output mode; must be internal (``0 < n < N-1``).
    num_threads:
        BLAS thread budget for the two steps; defaults to the package-wide
        setting.
    side:
        ``"auto"`` (paper rule), ``"left"``, or ``"right"``.

    Traced phases (:mod:`repro.obs` spans) are ``"lr_krp"`` (forming both
    partial KRPs), ``"gemm"`` (the partial MTTKRP) and ``"gemv"`` (the
    multi-TTV).

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
    check_factor_matrices(list(factors), tensor.shape)
    if tensor.ndim < 3 or n == 0 or n == tensor.ndim - 1:
        raise ValueError(
            f"2-step MTTKRP is defined only for internal modes "
            f"(0 < n < N-1); got n={n} for an order-{tensor.ndim} tensor. "
            f"Use repro.core.dispatch.mttkrp for automatic fallback."
        )
    if side not in ("auto", "left", "right"):
        raise ValueError(f"side must be 'auto', 'left' or 'right', got {side!r}")
    T = resolve_threads(num_threads)
    tr = get_tracer()
    N = tensor.ndim

    with tr.span("lr_krp"):
        # K_L = U_{n-1} krp ... krp U_0 (mode-0 index fastest);
        # K_R = U_{N-1} krp ... krp U_{n+1} (mode-(n+1) index fastest).
        KL = khatri_rao([np.asarray(factors[k]) for k in range(n - 1, -1, -1)])
        KR = khatri_rao([np.asarray(factors[k]) for k in range(N - 1, n, -1)])

    if side == "auto":
        side = choose_side(tensor.shape, n)

    C = KL.shape[1]
    with blas_threads(T):
        if side == "left":
            # Step 1 (Fig. 3c): L = X_(0:n-1)^T . K_L; the transpose view is
            # row-major, so this is a single well-shaped GEMM.
            with tr.span("gemm", side="left"):
                # Computed transposed (L^T = K_L^T . X_(0:n-1)) so the
                # C-contiguous GEMM output *is* the natural layout of L —
                # same BLAS call, no data movement afterwards.
                tr.add_counter("gemm_calls", 1)
                LmatT = KL.T @ tensor.unfold_front(n - 1)
            # L is the (I_n x I_{n+1} x ... x I_{N-1} x C) intermediate in
            # natural layout (rows of L linearize modes n.., mode n fastest),
            # reinterpreted for free.
            L = DenseTensor(LmatT.ravel(), tensor.shape[n:] + (C,))
            with tr.span("gemv", side="left"):
                # Step 2 (Fig. 3d): contract trailing modes against K_R's
                # columns, one GEMV per rank column.
                tr.add_counter("gemv_calls", C)
                return multi_ttv(
                    L, [np.asarray(factors[k]) for k in range(n + 1, N)],
                    leading=True,
                )
        else:
            # Step 1 (Fig. 3a): R = X_(0:n) . K_R on the column-major view.
            with tr.span("gemm", side="right"):
                # Transposed form (R^T = K_R^T . X_(0:n)^T) for the same
                # reason: the GEMM writes R directly in natural layout.
                tr.add_counter("gemm_calls", 1)
                RmatT = KR.T @ tensor.unfold_front(n).T
            R = DenseTensor(RmatT.ravel(), tensor.shape[: n + 1] + (C,))
            with tr.span("gemv", side="right"):
                # Step 2 (Fig. 3b): contract leading modes against K_L's
                # columns.
                tr.add_counter("gemv_calls", C)
                return multi_ttv(
                    R, [np.asarray(factors[k]) for k in range(n)],
                    leading=False,
                )

