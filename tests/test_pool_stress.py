"""Stress and regression tests for the thread-pool machinery.

Covers the failure modes fixed in this round: concurrent region launches
on a shared pool, worker-exception chaining, pool ownership semantics,
plus schedule/reduction edge cases.
"""

import threading

import numpy as np
import pytest

from repro.parallel.pool import (
    ThreadPool,
    WorkerError,
    get_pool,
    shutdown_all_pools,
)
from repro.parallel.reduction import allocate_private, parallel_reduce


class TestConcurrentRegionLaunch:
    def test_two_callers_share_one_pool(self):
        # Regression: two threads launching regions on the same pool used
        # to interleave _tasks/_pending updates and lose work.
        pool = ThreadPool(4)
        try:
            rounds = 25
            hits = np.zeros((2, rounds, 200), dtype=np.int64)
            errors = []

            def caller(slot):
                try:
                    for r in range(rounds):
                        def work(t, start, stop, _s=slot, _r=r):
                            hits[_s, _r, start:stop] += 1

                        pool.parallel_for(work, 200)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(s,)) for s in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            assert not errors
            np.testing.assert_array_equal(hits, 1)
        finally:
            pool.shutdown()

    def test_nested_region_from_worker_raises(self):
        pool = ThreadPool(2)
        try:
            def outer(t, start, stop):
                pool.parallel_for(lambda *a: None, 4)

            with pytest.raises(WorkerError) as excinfo:
                pool.parallel_for(outer, 2)
            assert isinstance(excinfo.value.original, RuntimeError)
            assert "nested" in str(excinfo.value.original)
            # The pool must stay usable after the failed nested attempt.
            out = np.zeros(8)

            def fill(t, start, stop):
                out[start:stop] = 1.0

            pool.parallel_for(fill, 8)
            np.testing.assert_array_equal(out, 1.0)
        finally:
            pool.shutdown()


class TestExceptionHandling:
    def test_original_is_cause(self):
        # Regression: the worker's exception must be chained as __cause__
        # so its frames appear in the traceback.
        pool = ThreadPool(2)
        try:
            def boom(t, start, stop):
                raise KeyError("lost")

            with pytest.raises(WorkerError) as excinfo:
                pool.parallel_for(boom, 2)
            err = excinfo.value
            assert isinstance(err.original, KeyError)
            assert err.__cause__ is err.original
        finally:
            pool.shutdown()

    def test_multi_worker_failure_keeps_all_errors(self):
        pool = ThreadPool(3)
        try:
            def boom(t, start, stop):
                raise ValueError(f"worker {t}")

            with pytest.raises(WorkerError) as excinfo:
                pool.parallel_for(boom, 3)
            err = excinfo.value
            # Lowest worker index first, the rest attached in order.
            assert err.worker == 0
            assert [o.worker for o in err.others] == [1, 2]
            assert all(isinstance(o.original, ValueError) for o in err.others)
        finally:
            pool.shutdown()

    def test_exception_under_dynamic_schedule(self):
        pool = ThreadPool(2)
        try:
            hits = np.zeros(64, dtype=np.int64)
            lock = threading.Lock()

            def sometimes_boom(t, start, stop):
                with lock:
                    hits[start:stop] += 1
                if start >= 32:
                    raise RuntimeError(f"chunk {start}")

            with pytest.raises(WorkerError):
                pool.parallel_for(sometimes_boom, 64, schedule="dynamic", chunk=4)
            # No chunk ran twice, and the pool still works afterwards.
            assert hits.max() <= 1
            out = np.zeros(16)

            def fill(t, start, stop):
                out[start:stop] = 1.0

            pool.parallel_for(fill, 16, schedule="dynamic", chunk=3)
            np.testing.assert_array_equal(out, 1.0)
        finally:
            pool.shutdown()

    def test_every_dynamic_worker_failing(self):
        pool = ThreadPool(4)
        try:
            def boom(t, start, stop):
                raise OSError("io")

            with pytest.raises(WorkerError):
                pool.parallel_for(boom, 16, schedule="dynamic", chunk=1)
        finally:
            pool.shutdown()


class TestReduceOddTeamSizes:
    @pytest.mark.parametrize("T", [2, 3, 5, 6, 7])
    def test_tree_sum_matches_numpy(self, T, rng):
        buffers = allocate_private(T, (4, 3))
        buffers[...] = rng.standard_normal(buffers.shape)
        expected = buffers.sum(axis=0)
        pool = ThreadPool(T)
        try:
            result = parallel_reduce(buffers, pool)
        finally:
            pool.shutdown()
        np.testing.assert_allclose(result, expected, rtol=1e-14)

    def test_tree_is_deterministic_across_pools(self, rng):
        buffers = rng.standard_normal((5, 8))
        a = parallel_reduce(buffers.copy(), ThreadPool(2))
        b = parallel_reduce(buffers.copy(), ThreadPool(3))
        # Same pairing structure regardless of team size: bit-identical.
        assert np.array_equal(a, b)


class TestPoolOwnership:
    def teardown_method(self):
        shutdown_all_pools()

    def test_with_block_keeps_shared_pool_alive(self):
        # Regression: `with get_pool(4):` used to shut the cached pool
        # down, breaking every later caller.
        with get_pool(4) as pool:
            pass
        out = np.zeros(8)

        def fill(t, start, stop):
            out[start:stop] = 1.0

        pool.parallel_for(fill, 8)
        np.testing.assert_array_equal(out, 1.0)
        assert get_pool(4) is pool

    def test_private_pool_with_block_shuts_down(self):
        with ThreadPool(2) as pool:
            pass
        with pytest.raises(RuntimeError):
            pool.parallel_for(lambda *a: None, 2)

    def test_single_thread_shutdown_evicts_from_cache(self):
        # Regression: a shut-down T=1 pool stayed cached and every later
        # get_pool(1) returned the dead object.
        pool = get_pool(1)
        pool.shutdown()
        fresh = get_pool(1)
        assert fresh is not pool
        out = np.zeros(4)

        def fill(t, start, stop):
            out[start:stop] = 2.0

        fresh.parallel_for(fill, 4)
        np.testing.assert_array_equal(out, 2.0)

    def test_multi_thread_shutdown_evicts_from_cache(self):
        pool = get_pool(3)
        pool.shutdown()
        fresh = get_pool(3)
        assert fresh is not pool
