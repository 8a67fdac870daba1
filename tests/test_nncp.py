"""Tests for nonnegative CP via HALS."""

import numpy as np
import pytest

import repro.obs as obs
from repro.cpd.diagnostics import factor_match_score
from repro.cpd.kruskal import KruskalTensor
from repro.cpd.nncp import cp_nnhals
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import from_kruskal, random_factors, random_tensor


def _nonneg_lowrank(shape=(10, 11, 12), rank=3, seed=0):
    U = [np.abs(f) for f in random_factors(shape, rank, rng=seed)]
    return from_kruskal(U), KruskalTensor(U)


class TestConvergence:
    def test_exact_recovery_fit(self):
        X, _ = _nonneg_lowrank()
        res = cp_nnhals(X, 3, n_iter_max=300, tol=1e-13, rng=1)
        assert res.final_fit > 0.999

    def test_factor_recovery(self):
        X, truth = _nonneg_lowrank(seed=4)
        res = cp_nnhals(X, 3, n_iter_max=400, tol=1e-14, rng=5)
        assert factor_match_score(
            res.model, truth, weight_penalty=False
        ) > 0.99

    def test_fit_nondecreasing(self):
        X = random_tensor((8, 9, 10), rng=0)
        res = cp_nnhals(X, 4, n_iter_max=30, tol=0.0, rng=1)
        fits = np.array(res.fits)
        assert np.all(np.diff(fits) > -1e-9)

    def test_converged_flag(self):
        X, _ = _nonneg_lowrank()
        res = cp_nnhals(X, 3, n_iter_max=500, tol=1e-6, rng=1)
        assert res.converged


class TestNonnegativity:
    def test_factors_nonnegative(self):
        # Even on data with negative entries the model stays feasible.
        X = random_tensor((7, 8, 9), rng=2, distribution="normal")
        res = cp_nnhals(X, 3, n_iter_max=15, tol=0.0, rng=3)
        for f in res.model.factors:
            assert (f >= 0).all()

    def test_weights_nonnegative(self):
        X, _ = _nonneg_lowrank()
        res = cp_nnhals(X, 3, n_iter_max=10, tol=0.0, rng=1)
        assert (res.model.weights >= 0).all()

    def test_no_dead_components(self):
        X, _ = _nonneg_lowrank(rank=2)
        # Over-parameterized: extra components must not go identically 0.
        res = cp_nnhals(X, 4, n_iter_max=20, tol=0.0, rng=7)
        for f in res.model.factors:
            assert np.isfinite(f).all()


class TestOptions:
    def test_explicit_init(self):
        X, truth = _nonneg_lowrank()
        init = [f + 0.01 for f in truth.factors]
        res = cp_nnhals(X, 3, n_iter_max=80, tol=1e-12, init=init)
        assert res.final_fit > 0.999

    def test_negative_init_rejected(self):
        X, _ = _nonneg_lowrank()
        bad = [np.full((s, 3), -1.0) for s in X.shape]
        with pytest.raises(ValueError, match="negative"):
            cp_nnhals(X, 3, init=bad)

    def test_wrong_init_count(self):
        X, _ = _nonneg_lowrank()
        with pytest.raises(ValueError, match="initial factors"):
            cp_nnhals(X, 3, init=[np.ones((10, 3))])

    def test_named_init_must_be_random(self):
        X, _ = _nonneg_lowrank()
        with pytest.raises(ValueError, match="random"):
            cp_nnhals(X, 3, init="hosvd")

    def test_timers_and_iteration_times(self):
        X, _ = _nonneg_lowrank()
        with obs.capture() as tr:
            res = cp_nnhals(X, 2, n_iter_max=3, tol=0.0, rng=0)
        assert {"gram", "hals"} <= set(obs.phase_totals(tr))
        assert len(res.iteration_times) == 3


class TestErrors:
    def test_bad_rank(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="rank"):
            cp_nnhals(X, 0)

    def test_zero_tensor(self):
        with pytest.raises(ValueError, match="zero"):
            cp_nnhals(DenseTensor(np.zeros((3, 4))), 2)

    def test_not_a_tensor(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            cp_nnhals(rng.random((3, 4)), 2)

    def test_empty_result_final_fit(self):
        from repro.cpd.nncp import NNCPResult

        with pytest.raises(ValueError):
            _ = NNCPResult(model=None).final_fit
