"""Tensor-times-vector (TTV) and multi-TTV without reordering entries.

``Y = X x_n v`` contracts mode ``n`` of ``X`` with the vector ``v``:
``Y(i_0, .., i_{n-1}, i_{n+1}, ..) = sum_{i_n} X(...) * v(i_n)``.

The 2-step MTTKRP's second phase (Alg. 4 lines 6-9 / 12-15) is a
*multi-TTV*: for each of the ``C`` output columns, contract a subtensor of
the intermediate quantity with one column from each remaining factor matrix.
The paper observes each such TTV chain reduces to a single GEMV on a
contiguous matricization view; :func:`multi_ttv` implements exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.tensor.dense import DenseTensor
from repro.util import prod
from repro.util.validation import check_mode

__all__ = ["ttv", "ttv_chain", "multi_ttv"]


def ttv(tensor: DenseTensor, vector: np.ndarray, n: int) -> DenseTensor | float:
    """Contract mode ``n`` of ``tensor`` with ``vector`` (no reordering).

    Uses the block structure of ``X_(n)`` (Figure 2): each of the ``I^R_n``
    row-major ``I_n x I^L_n`` blocks contributes one GEMV
    ``block^T . v`` producing ``I^L_n`` contiguous output entries, so the
    output is built in natural layout directly.

    Returns
    -------
    DenseTensor or float
        The order-``N-1`` result, or a Python float when ``N == 1``.
    """
    n = check_mode(n, tensor.ndim)
    vector = np.asarray(vector)
    if vector.ndim != 1:
        raise ValueError(f"vector must be 1-D, got ndim={vector.ndim}")
    if vector.shape[0] != tensor.shape[n]:
        raise ValueError(
            f"vector length {vector.shape[0]} does not match mode-{n} size "
            f"{tensor.shape[n]}"
        )
    blocks = tensor.mode_blocks_view(n)  # (IRn, In, ILn)
    # Contract the middle axis with the vector: one matvec per block,
    # batched by numpy into a single einsum/GEMV sweep.
    out = np.einsum("jil,i->jl", blocks, vector, optimize=True)
    new_shape = tensor.shape[:n] + tensor.shape[n + 1 :]
    if len(new_shape) == 0:
        return float(out.ravel()[0])
    # out is (IRn, ILn) row-major: entry (r, l) sits at offset l + r*ILn,
    # which is exactly the natural layout of the contracted tensor.
    return DenseTensor(out.ravel(), new_shape)


def ttv_chain(
    tensor: DenseTensor, vectors: Sequence[np.ndarray], modes: Sequence[int]
) -> DenseTensor | float:
    """Apply a sequence of TTVs, tracking mode renumbering automatically.

    ``modes`` refer to modes of the *original* tensor; after each
    contraction the remaining modes shift down, which this helper accounts
    for (so callers can write ``ttv_chain(X, [u, w], [0, 2])`` naturally).
    """
    if len(vectors) != len(modes):
        raise ValueError("vectors and modes must have equal length")
    modes = [check_mode(m, tensor.ndim) for m in modes]
    if len(set(modes)) != len(modes):
        raise ValueError(f"modes must be distinct, got {modes}")
    result: DenseTensor | float = tensor
    # Process in decreasing mode order so earlier indices stay valid.
    for m, v in sorted(zip(modes, vectors), key=lambda t: -t[0]):
        if not isinstance(result, DenseTensor):
            raise ValueError("cannot contract a fully reduced tensor further")
        result = ttv(result, v, m)
    return result


def multi_ttv(
    intermediate: DenseTensor,
    factors: Sequence[np.ndarray],
    leading: bool,
) -> np.ndarray:
    """The 2nd step of 2-step MTTKRP: C independent TTV chains as GEMVs.

    Parameters
    ----------
    intermediate:
        The partial-MTTKRP result reinterpreted as a tensor whose **last**
        mode has size ``C`` (the rank).  For the right-first ordering this is
        ``R`` of shape ``I_0 x .. x I_n x C``; for left-first it is ``L`` of
        shape ``I_n x .. x I_{N-1} x C``.
    factors:
        The factor matrices whose columns are contracted against each
        subtensor — all modes of ``intermediate`` except the output mode and
        the trailing rank mode, in increasing mode order.
    leading:
        ``True`` when the *output* mode is the leading mode of
        ``intermediate`` (left-first ordering, Figure 3d: contract trailing
        modes); ``False`` when it is the last tensor mode before the rank
        mode (right-first ordering, Figure 3b: contract leading modes).

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP output.

    Notes
    -----
    For each column ``j``, the chain of TTVs against rank-``j`` factor
    columns is algebraically one matvec between a contiguous matricization
    of subtensor ``j`` and the ``j``-th KRP column of the factors
    (Figure 3b/3d).  We exploit that here: the per-column work is a single
    GEMV on a zero-copy view, exactly as in the paper.
    """
    C = intermediate.shape[-1]
    facs = [np.asarray(f) for f in factors]
    for f in facs:
        if f.ndim != 2 or f.shape[1] != C:
            raise ValueError(
                f"every factor must be 2-D with {C} columns, got {f.shape}"
            )
    inner_shape = intermediate.shape[:-1]
    if leading:
        out_dim = inner_shape[0]
        contract_dims = inner_shape[1:]
    else:
        out_dim = inner_shape[-1]
        contract_dims = inner_shape[:-1]
    if tuple(f.shape[0] for f in facs) != tuple(contract_dims):
        raise ValueError(
            f"factor row counts {tuple(f.shape[0] for f in facs)} "
            f"do not match contracted dims {tuple(contract_dims)}"
        )

    flat = intermediate.unfold_front(intermediate.ndim - 2)
    out = np.empty((out_dim, C), dtype=intermediate.dtype, order="C")
    if leading:
        ncols = prod(contract_dims)
        for j in range(C):
            sub = flat[:, j].reshape((out_dim, ncols), order="F")
            out[:, j] = sub @ _krp_column(facs, j)
    else:
        nrows = prod(contract_dims)
        for j in range(C):
            sub = flat[:, j].reshape((nrows, out_dim), order="F")
            out[:, j] = _krp_column(facs, j) @ sub
    return out


def _krp_column(factors: Sequence[np.ndarray], j: int) -> np.ndarray:
    """Column ``j`` of ``U_{Z-1} (krp) ... (krp) U_0`` for the given factors.

    With factors listed in *increasing mode order*, the natural-layout KRP
    column has the first factor's index varying fastest, i.e. it is the
    Kronecker product taken right-to-left.
    """
    col = np.asarray(factors[0])[:, j]
    for f in factors[1:]:
        col = np.kron(np.asarray(f)[:, j], col)
    return col
