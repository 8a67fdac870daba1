"""Batched CP-ALS: fleet sweeps must match per-item cp_als exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import BatchedTensor, cp_als_batched
from repro.cpd.cp_als import cp_als
from repro.parallel.workspace import Workspace
from repro.util import prod


def _fleet(rng, B, shape, rank):
    flat = rng.standard_normal((B, prod(shape)))
    bt = BatchedTensor(flat, shape)
    init = [rng.standard_normal((B, s, rank)) for s in shape]
    return bt, init


@pytest.mark.parametrize("shape", [(5, 4), (5, 4, 3), (3, 2, 4, 2)])
def test_matches_per_item_cp_als(shape):
    """Same init, same iterations: fits agree to roundoff per item."""
    rng = np.random.default_rng(30)
    B, rank, iters = 4, 3, 6
    bt, init = _fleet(rng, B, shape, rank)
    res = cp_als_batched(
        bt, rank, n_iter_max=iters, tol=-1.0, init=init, method="batched"
    )
    assert res.fits.shape == (B,)
    assert res.iterations.tolist() == [iters] * B
    for b in range(B):
        ref = cp_als(
            bt.item(b), rank, n_iter_max=iters, tol=0.0,
            init=[f[b] for f in init], method="onestep",
        )
        assert res.fits[b] == pytest.approx(ref.final_fit, abs=1e-12)


def test_convergence_mask_stops_items_independently():
    rng = np.random.default_rng(31)
    shape, rank = (6, 5, 4), 2
    # Noise items plateau (fit change < tol) within a few dozen sweeps;
    # exact rank-2 items keep improving through an ALS swamp and do not.
    exact_flat = np.stack([
        np.einsum(
            "ir,jr,kr->ijk",
            *[rng.standard_normal((s, rank)) for s in shape],
        ).ravel(order="F")
        for _ in range(2)
    ])
    noise_flat = rng.standard_normal((2, prod(shape)))
    bt = BatchedTensor(np.concatenate([noise_flat, exact_flat]), shape)
    res = cp_als_batched(
        bt, rank, n_iter_max=60, tol=1e-6, rng=np.random.default_rng(7)
    )
    assert res.converged[0] and res.converged[1]
    assert not res.converged[2] and not res.converged[3]
    assert res.iterations[0] < 60 and res.iterations[1] < 60
    assert res.iterations[2] == 60 and res.iterations[3] == 60
    # The per-item masks are independent: stopped items ran fewer sweeps
    # than the still-active ones.
    assert res.iterations.max() > res.iterations.min()


def test_results_invariant_to_threads():
    rng = np.random.default_rng(32)
    bt, init = _fleet(rng, 5, (4, 3, 2), 2)
    ref = cp_als_batched(bt, 2, n_iter_max=4, tol=-1.0, init=init)
    for T in (2, 3):
        out = cp_als_batched(
            bt, 2, n_iter_max=4, tol=-1.0, init=init, num_threads=T,
        )
        np.testing.assert_array_equal(out.weights, ref.weights)
        for a, b in zip(out.factors, ref.factors):
            np.testing.assert_array_equal(a, b)


def test_model_reconstructs_items():
    rng = np.random.default_rng(33)
    shape, rank = (5, 4, 3), 2
    factors = [rng.standard_normal((s, rank)) for s in shape]
    exact = np.einsum("ir,jr,kr->ijk", *factors)
    bt = BatchedTensor(
        np.stack([exact.ravel(order="F")] * 3), shape
    )
    res = cp_als_batched(bt, rank, n_iter_max=50, tol=1e-10,
                         rng=np.random.default_rng(5))
    model = res.model(1)
    np.testing.assert_allclose(model.full().to_ndarray(), exact, atol=1e-6)


def test_external_workspace_reuse_is_steady_state():
    rng = np.random.default_rng(34)
    bt, init = _fleet(rng, 4, (4, 3, 2), 2)
    with Workspace() as ws:
        cp_als_batched(
            bt, 2, n_iter_max=3, tol=-1.0, init=init, workspace=ws
        )
        warm = ws.stats.allocations
        cp_als_batched(
            bt, 2, n_iter_max=3, tol=-1.0, init=init, workspace=ws
        )
        assert ws.stats.allocations == warm


def test_rejects_zero_items_and_bad_init():
    rng = np.random.default_rng(36)
    flat = rng.standard_normal((3, 12))
    flat[1] = 0.0
    bt = BatchedTensor(flat, (4, 3))
    with pytest.raises(ValueError, match="zero tensors"):
        cp_als_batched(bt, 2, rng=np.random.default_rng(0))
    good = BatchedTensor(rng.standard_normal((3, 12)), (4, 3))
    with pytest.raises(ValueError):
        cp_als_batched(
            good, 2, init=[np.zeros((3, 4, 2))], rng=None
        )
