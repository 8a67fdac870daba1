"""Tests for the persistent worker-thread pool."""

import threading
import time

import numpy as np
import pytest

from repro.parallel.pool import (
    ThreadPool,
    WorkerError,
    get_pool,
    shutdown_all_pools,
)


class TestParallelFor:
    def test_covers_range_exactly_once(self):
        with ThreadPool(4) as pool:
            hits = np.zeros(100, dtype=np.int64)

            def work(t, start, stop):
                hits[start:stop] += 1

            pool.parallel_for(work, 100)
        np.testing.assert_array_equal(hits, 1)

    def test_worker_indices_distinct(self):
        with ThreadPool(4) as pool:
            seen = []
            lock = threading.Lock()

            def work(t, start, stop):
                with lock:
                    seen.append(t)

            pool.parallel_for(work, 100)
        assert sorted(seen) == [0, 1, 2, 3]

    def test_empty_ranges_not_invoked(self):
        with ThreadPool(8) as pool:
            calls = []
            lock = threading.Lock()

            def work(t, start, stop):
                with lock:
                    calls.append((t, start, stop))

            pool.parallel_for(work, 3)
        # ceil(3/8)=1: only 3 workers receive nonempty ranges.
        assert len(calls) == 3
        for _, start, stop in calls:
            assert stop - start == 1

    def test_zero_items(self):
        with ThreadPool(3) as pool:
            pool.parallel_for(lambda *a: pytest.fail("should not run"), 0)

    def test_single_thread_runs_inline(self):
        pool = ThreadPool(1)
        ident = []
        pool.parallel_for(lambda t, s, e: ident.append(threading.get_ident()), 5)
        assert ident == [threading.get_ident()]

    def test_exception_propagates_with_worker_index(self):
        with ThreadPool(3) as pool:

            def work(t, start, stop):
                if t == 1:
                    raise ValueError("boom")

            with pytest.raises(WorkerError, match="worker 1"):
                pool.parallel_for(work, 30)

    def test_pool_usable_after_exception(self):
        with ThreadPool(2) as pool:
            with pytest.raises(WorkerError):
                pool.parallel_for(
                    lambda t, s, e: (_ for _ in ()).throw(RuntimeError()), 10
                )
            acc = np.zeros(10)

            def ok(t, start, stop):
                acc[start:stop] = 1

            pool.parallel_for(ok, 10)
            assert acc.sum() == 10


class TestRunTasks:
    def test_one_task_per_thread(self):
        with ThreadPool(3) as pool:
            results = [None] * 3
            tasks = [
                (lambda i=i: results.__setitem__(i, i * i)) for i in range(3)
            ]
            pool.run_tasks(tasks)
        assert results == [0, 1, 4]

    def test_none_tasks_allowed(self):
        with ThreadPool(2) as pool:
            ran = []
            pool.run_tasks([lambda: ran.append(1), None])
        assert ran == [1]

    def test_wrong_task_count(self):
        with ThreadPool(2) as pool:
            with pytest.raises(ValueError, match="expected 2 tasks"):
                pool.run_tasks([lambda: None])

    def test_tasks_actually_concurrent(self):
        """Workers must overlap: with 2 threads and two 100 ms GIL-releasing
        sleeps, wall time should be clearly under the 200 ms serial time
        (generous margin for noisy CI schedulers)."""
        with ThreadPool(2) as pool:
            t0 = time.perf_counter()
            pool.run_tasks([lambda: time.sleep(0.1)] * 2)
            elapsed = time.perf_counter() - t0
        assert elapsed < 0.17

    def test_many_regions_reuse_team(self):
        with ThreadPool(3) as pool:
            counter = np.zeros(3, dtype=np.int64)

            def bump(t, start, stop):
                counter[t] += 1

            for _ in range(50):
                pool.parallel_for(bump, 3)
        np.testing.assert_array_equal(counter, 50)


class TestLifecycle:
    def test_invalid_thread_count(self):
        with pytest.raises(ValueError):
            ThreadPool(0)

    def test_shutdown_rejects_new_work(self):
        pool = ThreadPool(2)
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            pool.run_tasks([None, None])

    def test_double_shutdown_is_safe(self):
        pool = ThreadPool(2)
        pool.shutdown()
        pool.shutdown()

    def test_get_pool_caches(self):
        shutdown_all_pools()
        a = get_pool(3)
        b = get_pool(3)
        assert a is b
        c = get_pool(2)
        assert c is not a
        shutdown_all_pools()

    def test_get_pool_replaces_shutdown_pool(self):
        shutdown_all_pools()
        a = get_pool(2)
        a.shutdown()
        b = get_pool(2)
        assert b is not a
        shutdown_all_pools()

    def test_get_pool_invalid(self):
        with pytest.raises(ValueError):
            get_pool(0)


class TestDynamicSchedule:
    def test_covers_range_exactly_once(self):
        with ThreadPool(4) as pool:
            hits = np.zeros(97, dtype=np.int64)
            lock = threading.Lock()

            def work(t, start, stop):
                with lock:
                    hits[start:stop] += 1

            pool.parallel_for(work, 97, schedule="dynamic", chunk=5)
        np.testing.assert_array_equal(hits, 1)

    def test_chunk_size_respected(self):
        with ThreadPool(2) as pool:
            sizes = []
            lock = threading.Lock()

            def work(t, start, stop):
                with lock:
                    sizes.append(stop - start)

            pool.parallel_for(work, 23, schedule="dynamic", chunk=4)
        assert max(sizes) <= 4
        assert sum(sizes) == 23

    def test_default_chunk(self):
        with ThreadPool(3) as pool:
            total = np.zeros(1, dtype=np.int64)
            lock = threading.Lock()

            def work(t, start, stop):
                with lock:
                    total[0] += stop - start

            pool.parallel_for(work, 1000, schedule="dynamic")
        assert total[0] == 1000

    def test_zero_items(self):
        with ThreadPool(2) as pool:
            pool.parallel_for(
                lambda *a: pytest.fail("no work expected"),
                0,
                schedule="dynamic",
            )

    def test_single_thread_inline(self):
        pool = ThreadPool(1)
        seen = []
        pool.parallel_for(
            lambda t, s, e: seen.append((s, e)), 10, schedule="dynamic",
            chunk=3,
        )
        assert seen == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_bad_schedule(self):
        with ThreadPool(2) as pool:
            with pytest.raises(ValueError, match="schedule"):
                pool.parallel_for(lambda *a: None, 5, schedule="guided")

    def test_bad_chunk(self):
        with ThreadPool(2) as pool:
            with pytest.raises(ValueError, match="chunk"):
                pool.parallel_for(
                    lambda *a: None, 5, schedule="dynamic", chunk=0
                )

    def test_exception_propagates(self):
        with ThreadPool(2) as pool:

            def work(t, start, stop):
                if start >= 4:
                    raise RuntimeError("late chunk")

            with pytest.raises(WorkerError):
                pool.parallel_for(work, 10, schedule="dynamic", chunk=2)


class TestCacheAfterShutdown:
    def test_cp_als_runs_after_shutdown_all_pools(self, rng):
        """Regression: a second cache in front of the pool cache handed
        back a shut-down pool after ``shutdown_all_pools()``."""
        from repro import cp_als, random_tensor

        X = random_tensor((8, 7, 6), rng=rng)
        first = cp_als(X, 3, n_iter_max=3, num_threads=2, rng=0)
        shutdown_all_pools()
        second = cp_als(X, 3, n_iter_max=3, num_threads=2, rng=0)
        for a, b in zip(first.model.factors, second.model.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(first.model.weights, second.model.weights)
