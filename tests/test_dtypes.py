"""dtype coverage: the kernels must work in float32 as well as float64.

The paper benchmarks double precision only, but a production library gets
handed float32 tensors (fMRI data often ships as float32); the kernels are
dtype-generic by construction and these tests keep them that way.
"""

import numpy as np
import pytest

from repro.core.dispatch import mttkrp
from repro.core.krp import khatri_rao, khatri_rao_naive, krp_rows
from repro.core.krp_parallel import khatri_rao_parallel
from repro.tensor.dense import DenseTensor
from repro.tensor.ttv import ttv
from tests.conftest import mttkrp_oracle


def _case32(shape=(4, 5, 6), rank=4, seed=0):
    rng = np.random.default_rng(seed)
    X = DenseTensor(rng.random(shape).astype(np.float32))
    U = [rng.random((s, rank)).astype(np.float32) for s in shape]
    return X, U


class TestKrpDtypes:
    def test_float32_preserved(self):
        rng = np.random.default_rng(0)
        mats = [rng.random((d, 3)).astype(np.float32) for d in (3, 4)]
        assert khatri_rao(mats).dtype == np.float32
        assert khatri_rao_naive(mats).dtype == np.float32
        assert krp_rows(mats, 1, 7).dtype == np.float32

    def test_mixed_promotes(self):
        rng = np.random.default_rng(1)
        mats = [
            rng.random((3, 2)).astype(np.float32),
            rng.random((4, 2)),
        ]
        assert khatri_rao(mats).dtype == np.float64

    def test_parallel_float32(self):
        rng = np.random.default_rng(2)
        mats = [rng.random((d, 3)).astype(np.float32) for d in (4, 5, 3)]
        par = khatri_rao_parallel(mats, num_threads=3)
        assert par.dtype == np.float32
        np.testing.assert_allclose(par, khatri_rao(mats), rtol=1e-6)


class TestMttkrpDtypes:
    @pytest.mark.parametrize(
        "method", ["onestep", "onestep-seq", "twostep", "baseline"]
    )
    def test_float32_correct(self, method):
        X, U = _case32()
        n = 1
        out = mttkrp(X, U, n, method=method)
        ref = mttkrp_oracle(X, U, n)
        np.testing.assert_allclose(out, ref, rtol=1e-4)

    def test_float32_output_dtype_onestep(self):
        X, U = _case32()
        assert mttkrp(X, U, 0, method="onestep").dtype == np.float32

    def test_threaded_float32(self):
        X, U = _case32((3, 4, 5, 6))
        for n in range(4):
            np.testing.assert_allclose(
                mttkrp(X, U, n, method="onestep", num_threads=3),
                mttkrp_oracle(X, U, n),
                rtol=1e-4,
            )


class TestContractionDtypes:
    def test_ttv_float32(self):
        rng = np.random.default_rng(3)
        X = DenseTensor(rng.random((3, 4, 5)).astype(np.float32))
        v = rng.random(4).astype(np.float32)
        out = ttv(X, v, 1)
        np.testing.assert_allclose(
            out.to_ndarray(),
            np.einsum("abc,b->ac", X.to_ndarray(), v),
            rtol=1e-5,
        )


class TestCpAlsDtypes:
    def test_float32_input_accepted(self):
        from repro.cpd.cp_als import cp_als

        X, _ = _case32((6, 7, 8))
        res = cp_als(X, 2, n_iter_max=5, tol=0.0, rng=0)
        assert np.isfinite(res.final_fit)
