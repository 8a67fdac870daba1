"""Bit-exact parity between the thread and process execution backends.

The process backend must be a drop-in replacement: same partitions, same
reduction-tree pairing, same operand strides on the worker side (the shm
layer preserves Fortran order), hence *bit-identical* floating-point
results.  Every test here compares full MTTKRP / CP-ALS outputs with
``==``, not ``allclose``.
"""

import numpy as np
import pytest

from repro.core.dispatch import KERNELS, mttkrp
from repro.core.krp_parallel import khatri_rao_parallel
from repro.cpd.cp_als import cp_als
from repro.parallel.backend import get_executor, shutdown_all_executors
from repro.parallel.config import num_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.ttv import multi_ttv

SHAPE = (6, 5, 4, 3)
RANK = 3


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(2024)
    tensor = DenseTensor(rng.standard_normal(SHAPE))
    factors = [rng.standard_normal((s, RANK)) for s in SHAPE]
    yield tensor, factors
    shutdown_all_executors()


def run_both(fn):
    """Run ``fn(backend)`` under each backend with T=2; return both results."""
    with num_threads(2):
        thread = fn("thread")
        process = fn("process")
    return thread, process


class TestMTTKRPParity:
    @pytest.mark.parametrize("method", list(KERNELS))
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_bit_identical(self, problem, method, mode):
        tensor, factors = problem
        if method == "twostep" and mode in (0, 3):
            pytest.skip("twostep degenerates on external modes")
        thread, process = run_both(
            lambda b: mttkrp(tensor, factors, mode, method=method, backend=b)
        )
        assert np.array_equal(thread, process)

    def test_process_result_valid_after_executor_shutdown(self, problem):
        # Arena-backed results handed to callers must survive executor
        # teardown (segments stay mapped until the last reference dies).
        tensor, factors = problem
        with num_threads(2):
            M = mttkrp(tensor, factors, 1, method="twostep", backend="process")
            expected = M.copy()
        shutdown_all_executors()
        assert np.array_equal(M, expected)


class TestKernelParity:
    def test_khatri_rao_parallel(self, problem):
        _, factors = problem
        with num_threads(2):
            thread = khatri_rao_parallel(factors, num_threads=2)
            process = khatri_rao_parallel(
                factors, executor=get_executor(2, backend="process")
            )
        assert np.array_equal(thread, process)

    @pytest.mark.parametrize("leading", [True, False])
    def test_multi_ttv(self, problem, leading):
        rng = np.random.default_rng(77)
        inter = DenseTensor(rng.standard_normal((4, 3, RANK)))
        facs = [np.asfortranarray(rng.standard_normal((3 if leading else 4, RANK)))]
        sequential = multi_ttv(inter, facs, leading=leading)
        with num_threads(2):
            process = multi_ttv(
                inter, facs, leading=leading,
                executor=get_executor(2, backend="process"),
            )
        assert np.array_equal(sequential, process)


class TestCPALSParity:
    def test_bit_identical_iterates(self, problem):
        tensor, _ = problem
        rng_init = np.random.default_rng(5)
        init = [rng_init.standard_normal((s, RANK)) for s in SHAPE]

        def run(backend):
            return cp_als(
                tensor, RANK, n_iter_max=4, init=[f.copy() for f in init],
                num_threads=2, backend=backend, tol=0.0,
            )

        thread, process = run_both(run)
        assert np.array_equal(thread.model.weights, process.model.weights)
        for ft, fp in zip(thread.model.factors, process.model.factors):
            assert np.array_equal(ft, fp)
        assert thread.fits == process.fits
