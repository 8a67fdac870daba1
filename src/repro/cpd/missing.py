"""CP with missing data (CP-WOPT): weighted optimization over observed
entries.

The paper's introduction motivates CP with "predicting missing or future
data" (Acar, Dunlavy, Kolda & Morup [1]).  CP-WOPT fits only the observed
entries:

    f(U) = 1/2 || W * (X - [[U]]) ||_F^2 ,

with ``W`` a binary observation mask and ``*`` elementwise.  The gradient
is

    df/dU_n = MTTKRP_n( W * ([[U]] - X) ) ,

i.e. one *masked-residual* tensor build plus one all-modes MTTKRP per
gradient — again exactly the kernel this library optimizes (evaluated here
with the dimension tree, since all modes share one iterate).  L-BFGS-B
drives the optimization, as in the original CP-WOPT.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cpd.gradient import _pack, _unpack
from repro.cpd.init import initialize_factors
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import from_kruskal

__all__ = ["cp_wopt", "random_mask"]


def random_mask(
    shape: Sequence[int],
    fraction_observed: float,
    rng: np.random.Generator | int | None = None,
) -> DenseTensor:
    """Binary observation mask with roughly the given observed fraction.

    Returns a :class:`DenseTensor` of 0.0/1.0 entries.  A fraction below
    ~``rank * max(I_n) / prod(I_n)`` leaves CP underdetermined; the
    function does not police that, but :func:`cp_wopt`'s recovery degrades
    gracefully.
    """
    if not 0.0 < fraction_observed <= 1.0:
        raise ValueError(
            f"fraction_observed must be in (0, 1], got {fraction_observed}"
        )
    gen = np.random.default_rng(rng)
    import math

    size = math.prod(int(s) for s in shape)
    data = (gen.random(size) < fraction_observed).astype(np.float64)
    return DenseTensor(data, tuple(int(s) for s in shape))


def cp_wopt(
    tensor: DenseTensor,
    mask: DenseTensor,
    rank: int,
    n_iter_max: int = 300,
    gtol: float = 1e-7,
    init: str | Sequence[np.ndarray] = "random",
    num_threads: int | None = None,
    rng: np.random.Generator | int | None = None,
):
    """Fit a CP model to the *observed* entries of ``tensor``.

    Parameters
    ----------
    tensor:
        Data tensor; entries where ``mask`` is 0 are ignored (their values
        never enter the computation).
    mask:
        0/1 tensor of the same shape marking observed entries.
    rank:
        CP rank.
    n_iter_max, gtol:
        L-BFGS iteration cap and projected-gradient tolerance.
    init:
        ``"random"``, ``"hosvd"`` (computed on the zero-filled tensor), or
        explicit factors.
    num_threads:
        Thread count for the MTTKRP kernels.
    rng:
        Seed for random initialization.

    Returns
    -------
    CPALSResult
        ``fits`` holds the *observed-entry* fit
        ``1 - ||W*(X - Y)|| / ||W*X||`` per objective evaluation.
    """
    from repro.core.dimtree import (
        left_partial,
        node_mttkrp,
        right_partial,
        split_point,
    )
    from repro.cpd.cp_als import CPALSResult

    # scipy loads on first call only: no CP-ALS or serve path needs it.
    from scipy.optimize import minimize

    if not isinstance(tensor, DenseTensor) or not isinstance(
        mask, DenseTensor
    ):
        raise TypeError("tensor and mask must be DenseTensor instances")
    if tensor.shape != mask.shape:
        raise ValueError(
            f"mask shape {mask.shape} does not match tensor {tensor.shape}"
        )
    mvals = mask.data
    if not np.isin(mvals, (0.0, 1.0)).all():
        raise ValueError("mask entries must be 0 or 1")
    if not mvals.any():
        raise ValueError("mask observes no entries")
    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")

    N = tensor.ndim
    shape = tensor.shape
    # Zero unobserved entries once; they must not influence anything.
    x_obs = tensor.data * mvals
    norm_obs = float(np.linalg.norm(x_obs))
    if norm_obs == 0.0:
        raise ValueError("observed entries are all zero")
    X_obs = DenseTensor(x_obs, shape)

    if isinstance(init, str):
        from repro.cpd.gradient import rescale_init

        factors = initialize_factors(X_obs, rank, method=init, rng=rng)
        # Scale to the *full-tensor* norm estimate implied by the observed
        # fraction, so the initial model magnitude matches the data.
        frac = float(mvals.mean())
        factors = rescale_init(factors, norm_obs / np.sqrt(frac))
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != N:
            raise ValueError(f"expected {N} initial factors, got {len(factors)}")

    m = split_point(N)
    fits: list[float] = []

    def objective(x: np.ndarray):
        U = _unpack(x, shape, rank)
        model_dense = from_kruskal(U)
        resid = DenseTensor((model_dense.data - x_obs) * mvals, shape)
        loss = 0.5 * float(resid.data @ resid.data)
        T_L = left_partial(resid, U, m, num_threads=num_threads)
        T_R = right_partial(resid, U, m, num_threads=num_threads)
        grad = [
            node_mttkrp(T_L, U[:m], keep=n) for n in range(m)
        ] + [
            node_mttkrp(T_R, U[m:], keep=n - m) for n in range(m, N)
        ]
        fits.append(1.0 - np.sqrt(max(2.0 * loss, 0.0)) / norm_obs)
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
