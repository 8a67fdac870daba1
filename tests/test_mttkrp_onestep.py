"""Tests for 1-step MTTKRP (Algorithms 2 and 3)."""

import numpy as np
import pytest

import repro.obs as obs
from repro.core.mttkrp_onestep import (
    krp_operands,
    mttkrp_onestep,
    mttkrp_onestep_sequential,
)
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import mttkrp_oracle

SHAPES = [(4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 3, 2), (7, 2)]


def _case(shape, rank=5, seed=0):
    X = random_tensor(shape, rng=seed)
    U = random_factors(shape, rank, rng=seed + 1)
    return X, U


class TestKrpOperands:
    def test_order_excludes_mode(self, rng):
        U = [rng.random((s, 2)) for s in (3, 4, 5, 6)]
        ops = krp_operands(U, 1)
        assert [o.shape[0] for o in ops] == [6, 5, 3]  # U3, U2, U0

    def test_mode0(self, rng):
        U = [rng.random((s, 2)) for s in (3, 4)]
        ops = krp_operands(U, 0)
        assert [o.shape[0] for o in ops] == [4]


class TestSequentialAlgorithm2:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_all_modes_vs_oracle(self, shape):
        X, U = _case(shape)
        for n in range(len(shape)):
            np.testing.assert_allclose(
                mttkrp_onestep_sequential(X, U, n),
                mttkrp_oracle(X, U, n),
                atol=1e-10,
            )

    def test_timers_record_phases(self):
        X, U = _case((4, 5, 6))
        with obs.capture() as tr:
            mttkrp_onestep_sequential(X, U, 1)
        assert {"full_krp", "gemm"} <= set(obs.phase_totals(tr))

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_onestep_sequential(rng.random((3, 4)), [], 0)

    def test_rejects_order1(self):
        from repro.tensor.dense import DenseTensor

        X = DenseTensor(np.arange(4.0), (4,))
        with pytest.raises(ValueError, match="order"):
            mttkrp_onestep_sequential(X, [np.ones((4, 2))], 0)


class TestParallelAlgorithm3:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("T", [1, 2, 4])
    def test_all_modes_vs_oracle(self, shape, T):
        X, U = _case(shape)
        for n in range(len(shape)):
            np.testing.assert_allclose(
                mttkrp_onestep(X, U, n, num_threads=T),
                mttkrp_oracle(X, U, n),
                atol=1e-10,
            )

    def test_negative_mode(self):
        X, U = _case((4, 5, 6))
        np.testing.assert_allclose(
            mttkrp_onestep(X, U, -1), mttkrp_oracle(X, U, 2), atol=1e-10
        )

    def test_more_threads_than_blocks(self):
        # Internal mode with I^R_n = 3 blocks but 8 threads.
        X, U = _case((4, 5, 3))
        np.testing.assert_allclose(
            mttkrp_onestep(X, U, 1, num_threads=8),
            mttkrp_oracle(X, U, 1),
            atol=1e-10,
        )

    def test_more_threads_than_columns_external(self):
        X, U = _case((3, 2))
        np.testing.assert_allclose(
            mttkrp_onestep(X, U, 0, num_threads=7),
            mttkrp_oracle(X, U, 0),
            atol=1e-10,
        )

    def test_timers_external(self):
        X, U = _case((4, 5, 6))
        with obs.capture() as tr:
            mttkrp_onestep(X, U, 0, num_threads=2)
        assert {"full_krp", "gemm", "reduce"} <= set(obs.phase_totals(tr))

    def test_timers_internal(self):
        X, U = _case((4, 5, 6))
        with obs.capture() as tr:
            mttkrp_onestep(X, U, 1, num_threads=2)
        assert {"lr_krp", "gemm", "reduce"} <= set(obs.phase_totals(tr))

    def test_wrong_factor_shape(self):
        X, U = _case((4, 5, 6))
        U[1] = U[1][:4]
        with pytest.raises(ValueError, match="rows"):
            mttkrp_onestep(X, U, 0)

    def test_rank1(self):
        X, U = _case((4, 5, 6), rank=1)
        for n in range(3):
            np.testing.assert_allclose(
                mttkrp_onestep(X, U, n), mttkrp_oracle(X, U, n), atol=1e-10
            )

    def test_large_rank(self):
        X, U = _case((4, 5, 6), rank=40)
        np.testing.assert_allclose(
            mttkrp_onestep(X, U, 1, num_threads=2),
            mttkrp_oracle(X, U, 1),
            atol=1e-9,
        )

    def test_mode_size_one(self):
        X, U = _case((1, 5, 6))
        for n in range(3):
            np.testing.assert_allclose(
                mttkrp_onestep(X, U, n, num_threads=2),
                mttkrp_oracle(X, U, n),
                atol=1e-10,
            )

    def test_result_dtype(self):
        X, U = _case((4, 5, 6))
        assert mttkrp_onestep(X, U, 1).dtype == np.float64
