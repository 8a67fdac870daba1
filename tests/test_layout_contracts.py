"""Regression tests for the layout fixes surfaced by the RA003 lint.

The lint flagged four allocations that receive BLAS output without an
explicit ``order=`` (mttkrp_onestep, mttkrp_twostep, dimtree.node_mttkrp,
machine.calibrate); all are now pinned C-order.  These tests freeze the
resulting contract — the outputs those allocations become are
C-contiguous — and cover the runtime layout assertion that backs the two
reviewed RA004 suppressions in mttkrp_twostep.
"""

import numpy as np
import pytest

from repro.core.dimtree import left_partial, node_mttkrp, split_point
from repro.core.mttkrp_onestep import mttkrp_onestep
from repro.core.mttkrp_twostep import mttkrp_twostep
from repro.machine.calibrate import measure_gemm_gflops
from repro.parallel.blas import assert_native_layout
from repro.parallel.sanitizer import SanitizerError, sanitize
from repro.tensor.generate import random_factors, random_tensor

SHAPE = (5, 6, 4, 3)
RANK = 3


@pytest.fixture(scope="module")
def problem():
    X = random_tensor(SHAPE, rng=0)
    U = random_factors(SHAPE, RANK, rng=1)
    return X, U


class TestPinnedOutputsAreCContiguous:
    def test_onestep_internal_modes(self, problem):
        X, U = problem
        for n in range(1, len(SHAPE) - 1):
            M = np.asarray(mttkrp_onestep(X, U, n))
            assert M.flags.c_contiguous, f"mode {n}"
            assert M.shape == (SHAPE[n], RANK)

    def test_twostep_blocked_accumulator(self, problem):
        X, U = problem
        for n in range(1, len(SHAPE) - 1):  # twostep is internal-mode only
            M = np.asarray(mttkrp_twostep(X, U, n))
            assert M.shape == (SHAPE[n], RANK)

    def test_dimtree_node_mttkrp(self, problem):
        X, U = problem
        s = split_point(len(SHAPE))
        node = left_partial(X, U, s)
        M = node_mttkrp(node, [np.asarray(U[j]) for j in range(s)], keep=0)
        assert M.flags.c_contiguous
        assert M.shape == (SHAPE[0], RANK)

    def test_calibrate_gemm_runs(self):
        # The pinned out= allocation in the calibration kernel.
        rate = measure_gemm_gflops(m=16, n=16, k=16, repeats=1)
        assert rate > 0


class TestAssertNativeLayout:
    def test_noop_when_sanitizer_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        hazard = np.zeros((6, 6))[::2, :].T  # neither-order view
        assert assert_native_layout(hazard, "test") is hazard

    def test_passes_native_operands(self):
        with sanitize():
            c = np.zeros((4, 4), order="C")
            f = np.zeros((4, 4), order="F")
            assert assert_native_layout(c, "test") is c
            assert assert_native_layout(f, "test") is f
            ct = c.T  # F-contiguous native transpose
            assert assert_native_layout(ct, "test") is ct

    def test_rejects_neither_order_view(self):
        with sanitize():
            hazard = np.zeros((6, 6))[::2, :].T
            with pytest.raises(SanitizerError, match="neither order"):
                assert_native_layout(hazard, "test.ctx")

    def test_twostep_suppressed_sites_hold_under_sanitizer(self, problem):
        # The two RA004 suppressions claim buf.reshape(...) is native
        # contiguous; the backing runtime assertion must hold on a real
        # internal-mode run with the process-backend buffer path off
        # (thread backend exercises the same code shape).
        X, U = problem
        with sanitize():
            for n in range(1, len(SHAPE) - 1):
                M = np.asarray(mttkrp_twostep(X, U, n))
                assert np.all(np.isfinite(M))
