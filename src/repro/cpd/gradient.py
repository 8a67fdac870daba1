"""CP gradients and a quasi-Newton CP-OPT driver.

Section 2.2 of the paper: "there are alternative optimization schemes to
CP-ALS, but because MTTKRP is part of the gradient, nearly all of them
require computing and are bottlenecked by MTTKRP."  This module makes that
concrete: the gradient of the CP objective

    f(U_0, ..., U_{N-1}) = 1/2 || X - [[U_0, ..., U_{N-1}]] ||_F^2

with respect to factor ``U_n`` is

    df/dU_n = U_n * H_n - M_n,

where ``M_n`` is the mode-``n`` MTTKRP of ``X`` and ``H_n`` the
Hadamard-of-Grams excluding mode ``n`` — i.e. one MTTKRP per mode per
gradient evaluation, the same kernels CP-ALS uses (and the same
cross-mode-reuse opportunity: :func:`cp_gradient` supports the dimension
tree).  :func:`cp_opt` wraps scipy's L-BFGS-B around it, the classic
CP-OPT method (Acar, Dunlavy & Kolda).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.dispatch import mttkrp
from repro.cpd.gram import gram_matrices, hadamard_of_grams
from repro.cpd.init import initialize_factors
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor

__all__ = ["cp_loss", "cp_gradient", "cp_opt"]


def cp_loss(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    norm_x: float | None = None,
) -> float:
    """``1/2 ||X - [[U]]||_F^2`` without materializing the model tensor.

    Uses the same Gram/MTTKRP identities as the CP-ALS fit computation:
    ``||X - Y||^2 = ||X||^2 - 2 <X, Y> + ||Y||^2`` with
    ``<X, Y> = sum(M_0 * U_0)`` for the mode-0 MTTKRP ``M_0``.
    """
    factors = [np.asarray(f) for f in factors]
    nx = tensor.norm() if norm_x is None else float(norm_x)
    M0 = mttkrp(tensor, factors, 0)
    inner = float(np.sum(M0 * factors[0]))
    grams = gram_matrices(factors)
    norm_y_sq = float(hadamard_of_grams(grams).sum())
    return 0.5 * max(nx**2 - 2.0 * inner + norm_y_sq, 0.0)


def cp_gradient(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    mode_strategy: str = "per-mode",
    num_threads: int | None = None,
) -> list[np.ndarray]:
    """Gradient of the CP objective with respect to every factor matrix.

    Parameters
    ----------
    tensor, factors:
        The data tensor and current factor matrices.
    mode_strategy:
        ``"per-mode"`` — one MTTKRP per mode; ``"dimtree"`` — all MTTKRPs
        via two shared partial contractions (:mod:`repro.core.dimtree`).
        Unlike ALS, a gradient evaluates all modes at the *same* iterate,
        so the dimension tree applies with no ordering subtleties.
    num_threads:
        Thread count for the kernels.

    Returns
    -------
    list of numpy.ndarray
        ``[U_n @ H_n - M_n for n]``, each shaped like its factor.
    """
    factors = [np.asarray(f) for f in factors]
    N = tensor.ndim
    grams = gram_matrices(factors)
    if mode_strategy == "per-mode":
        mttkrps = [
            mttkrp(tensor, factors, n, num_threads=num_threads)
            for n in range(N)
        ]
    elif mode_strategy == "dimtree":
        from repro.core.dimtree import (
            left_partial,
            node_mttkrp,
            right_partial,
            split_point,
        )

        m = split_point(N)
        T_L = left_partial(tensor, factors, m, num_threads=num_threads)
        T_R = right_partial(tensor, factors, m, num_threads=num_threads)
        mttkrps = [
            node_mttkrp(T_L, factors[:m], keep=n) for n in range(m)
        ] + [
            node_mttkrp(T_R, factors[m:], keep=n - m) for n in range(m, N)
        ]
    else:
        raise ValueError(
            f"mode_strategy must be 'per-mode' or 'dimtree', "
            f"got {mode_strategy!r}"
        )
    return [
        factors[n] @ hadamard_of_grams(grams, skip=n) - mttkrps[n]
        for n in range(N)
    ]


def rescale_init(
    factors: list[np.ndarray], target_norm: float
) -> list[np.ndarray]:
    """Scale factor matrices so the model norm matches ``target_norm``.

    Gradient-based CP fitting is sensitive to the initial model magnitude
    (a model orders of magnitude larger than the data puts L-BFGS on a
    plateau of near-identical quadratic-growth directions).  Scaling each
    factor by the ``N``-th root of the norm ratio is the standard fix and
    leaves ALS-style methods unaffected.
    """
    model_norm = KruskalTensor(factors).norm()
    if model_norm <= 0 or target_norm <= 0:
        return factors
    s = (target_norm / model_norm) ** (1.0 / len(factors))
    return [f * s for f in factors]


def _pack(factors: Sequence[np.ndarray]) -> np.ndarray:
    return np.concatenate([np.asarray(f).ravel() for f in factors])


def _unpack(
    x: np.ndarray, shape: tuple[int, ...], rank: int
) -> list[np.ndarray]:
    out = []
    pos = 0
    for s in shape:
        out.append(x[pos : pos + s * rank].reshape(s, rank))
        pos += s * rank
    return out


def cp_opt(
    tensor: DenseTensor,
    rank: int,
    n_iter_max: int = 200,
    gtol: float = 1e-7,
    init: str | Sequence[np.ndarray] = "random",
    mode_strategy: str = "dimtree",
    num_threads: int | None = None,
    rng: np.random.Generator | int | None = None,
):
    """All-at-once CP fitting with L-BFGS (CP-OPT).

    Often more robust than ALS against swamps, at the price of more
    gradient evaluations — each of which is exactly the all-modes MTTKRP
    workload this library optimizes (``mode_strategy="dimtree"`` by
    default, since gradients evaluate every mode at one iterate).

    Returns
    -------
    CPALSResult
        Reusing the ALS result type: fitted (normalized) model, per-
        evaluation fits, convergence flag.
    """
    from repro.cpd.cp_als import CPALSResult

    # scipy loads on first call only: no CP-ALS or serve path needs it.
    from scipy.optimize import minimize

    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    if isinstance(init, str):
        factors = initialize_factors(tensor, rank, method=init, rng=rng)
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != tensor.ndim:
            raise ValueError(
                f"expected {tensor.ndim} initial factors, got {len(factors)}"
            )
    norm_x = tensor.norm()
    if norm_x == 0.0:
        raise ValueError("cannot decompose a zero tensor")
    if isinstance(init, str):
        factors = rescale_init(factors, norm_x)
    shape = tensor.shape
    fits: list[float] = []

    def objective(x: np.ndarray):
        U = _unpack(x, shape, rank)
        loss = cp_loss(tensor, U, norm_x=norm_x)
        grad = cp_gradient(
            tensor, U, mode_strategy=mode_strategy, num_threads=num_threads
        )
        fits.append(1.0 - np.sqrt(max(2.0 * loss, 0.0)) / norm_x)
        return loss, _pack(grad)

    res = minimize(
        objective,
        _pack(factors),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": n_iter_max, "gtol": gtol},
    )
    final = _unpack(res.x, shape, rank)
    result = CPALSResult(model=KruskalTensor(final).normalize())
    result.fits = fits
    result.iterations = int(res.nit)
    result.converged = bool(res.success)
    return result
