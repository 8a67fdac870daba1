"""Runtime write-set sanitizer tests.

Covers the acceptance contract: a deliberately seeded overlapping-write
region raises :class:`RaceError` naming both workers and their intervals;
disjoint partition-respecting regions pass; the real kernels run clean
under the sanitizer; and the instrumentation is inert when disabled.
"""

import numpy as np
import pytest

from repro.core.mttkrp_onestep import mttkrp_onestep
from repro.cpd.cp_als import cp_als
from repro.parallel import num_threads
from repro.parallel.partition import contiguous_blocks
from repro.parallel.pool import ThreadPool
from repro.parallel.sanitizer import (
    NULL_SANITIZER,
    RaceError,
    SanitizerError,
    WriteLogArray,
    get_sanitizer,
    is_sanitizing,
    sanitize,
)
from repro.parallel.shm import ShmArena, ShmHandle, attach
from repro.tensor.dense import DenseTensor


@pytest.fixture
def pool():
    p = ThreadPool(2)
    yield p
    p.shutdown()


class TestSeededRace:
    def test_overlapping_writes_raise_with_both_intervals(self, pool):
        with sanitize() as san:
            arr = san.wrap(np.zeros(16))

            def writer(lo, hi):
                return lambda: arr.__setitem__(slice(lo, hi), 1.0)

            with pytest.raises(RaceError) as excinfo:
                pool.run_tasks([writer(0, 10), writer(6, 16)],
                               label="seeded.race")
            msg = str(excinfo.value)
            assert "worker 0" in msg and "worker 1" in msg
            assert "elements [0, 10)" in msg
            assert "elements [6, 16)" in msg
            assert "seeded.race" in msg

    def test_disjoint_writes_pass(self, pool):
        with sanitize() as san:
            arr = san.wrap(np.zeros(16))
            blocks = contiguous_blocks(16, pool.num_threads)
            tasks = [
                lambda t=t, lo=lo, hi=hi: arr.__setitem__(slice(lo, hi), t)
                for t, (lo, hi) in enumerate(blocks)
            ]
            pool.run_tasks(tasks, label="seeded.disjoint")
            assert arr[0] == 0 and arr[-1] == 1

    def test_race_via_parallel_for_out_kwarg(self, pool):
        # The same overlap through a ufunc out= destination.
        with sanitize() as san:
            arr = san.wrap(np.zeros(8))
            src = np.ones(8)
            with pytest.raises(RaceError):
                # Every worker writes [0, hi) instead of [lo, hi): the
                # first worker's range is inside the second's.
                pool.parallel_for(
                    lambda t, lo, hi: np.multiply(
                        src[0:hi], 2.0, out=arr[0:hi]
                    ),
                    8,
                    label="seeded.out",
                )

    def test_worker_error_not_masked_by_race(self, pool):
        # A worker exception must surface as WorkerError even if the
        # partial writes up to that point happen to overlap.
        from repro.parallel.pool import WorkerError

        with sanitize() as san:
            arr = san.wrap(np.zeros(8))

            def bad():
                arr[0:8] = 1.0
                raise ValueError("boom")

            def also_writes():
                arr[0:8] = 2.0

            with pytest.raises(WorkerError):
                pool.run_tasks([bad, also_writes], label="err.race")


class TestInstrumentation:
    def test_wrap_shares_buffer(self):
        with sanitize() as san:
            base = np.zeros(4)
            arr = san.wrap(base)
            assert isinstance(arr, WriteLogArray)
            arr[0] = 7.0
            assert base[0] == 7.0

    def test_views_stay_instrumented_copies_do_not(self):
        with sanitize() as san:
            arr = san.wrap(np.zeros((4, 4)))
            view = arr[1:3]
            assert isinstance(view, WriteLogArray)
            assert getattr(view, "_san", None) is not None
            cop = arr.copy()
            # A copy is a fresh buffer: tracking it against the original
            # root would log nonsense intervals.
            assert getattr(cop, "_san", None) is None

    def test_arithmetic_demotes_to_plain_ndarray(self):
        with sanitize() as san:
            arr = san.wrap(np.ones((3, 3)))
            assert type(arr + 1) is np.ndarray
            assert type(arr @ np.ones((3, 3))) is np.ndarray

    def test_null_sanitizer_is_identity(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        san = get_sanitizer()
        assert san is NULL_SANITIZER
        assert not is_sanitizing()
        base = np.zeros(4)
        assert san.wrap(base) is base

    def test_env_flag_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert is_sanitizing()
        assert get_sanitizer().enabled


class TestRealKernelsClean:
    SHAPE = (6, 5, 4)

    def _tensor(self):
        rng = np.random.default_rng(7)
        return DenseTensor(rng.random(int(np.prod(self.SHAPE))), self.SHAPE)

    def test_mttkrp_all_modes_under_sanitizer(self):
        # The sanitizer must neither flag the real kernels (their writes
        # are partition-disjoint by construction) nor perturb results:
        # sanitized and unsanitized runs at the same thread count must be
        # bit-identical.
        tensor = self._tensor()
        rng = np.random.default_rng(3)
        factors = [rng.random((s, 3)) for s in self.SHAPE]
        with num_threads(2):
            expected = [
                mttkrp_onestep(tensor, factors, n)
                for n in range(len(self.SHAPE))
            ]
        with sanitize(), num_threads(2):
            for n, exp in enumerate(expected):
                got = mttkrp_onestep(tensor, factors, n)
                np.testing.assert_array_equal(np.asarray(got), np.asarray(exp))

    def test_cp_als_under_sanitizer(self):
        tensor = self._tensor()
        with sanitize(), num_threads(2):
            result = cp_als(tensor, 2, n_iter_max=3, tol=0.0, rng=0)
        assert np.isfinite(result.final_fit)


class TestShmContracts:
    def test_stale_handle_bounds_check(self):
        arena = ShmArena()
        try:
            view, handle = arena.allocate((4,), dtype=np.float64)
            # A handle describing more bytes than the segment holds.
            stale = ShmHandle(handle.name, (1024, 1024), handle.dtype,
                              writable=True)
            with pytest.raises(SanitizerError, match="stale or corrupted"):
                arena.view(stale)
            cache = {}
            with pytest.raises(SanitizerError, match="stale or corrupted"):
                attach(stale, cache)
            for seg, _ in cache.values():
                seg.close()
        finally:
            arena.close()

    def test_foreign_handle_lifetime_check(self):
        arena = ShmArena()
        try:
            foreign = ShmHandle("not_a_segment_of_this_arena", (2,), "<f8")
            with pytest.raises(SanitizerError, match="lifetime"):
                arena.view(foreign)
        finally:
            arena.close()


class TestUfuncAtWrites:
    """``np.add.at`` and in-place ufunc (``+=``) writes are logged.

    Scatter-accumulation is exactly how a twostep reduction can race:
    two workers ``np.add.at``-ing overlapping rows of a shared output is
    a lost update that ordinary ``__setitem__`` logging never sees.
    """

    def test_disjoint_add_at_passes(self, pool):
        with sanitize() as san:
            arr = san.wrap(np.zeros(16))

            def scatter(rows):
                return lambda: np.add.at(arr, rows, 1.0)

            pool.run_tasks(
                [scatter([0, 1, 2]), scatter([8, 9, 10])],
                label="scatter.disjoint",
            )
            assert np.asarray(arr)[[0, 1, 2, 8, 9, 10]].sum() == 6.0

    def test_overlapping_add_at_races(self, pool):
        with sanitize() as san:
            arr = san.wrap(np.zeros(16))

            def scatter(rows):
                return lambda: np.add.at(arr, rows, 1.0)

            with pytest.raises(RaceError) as excinfo:
                pool.run_tasks(
                    [scatter([0, 1, 5]), scatter([5, 6, 7])],
                    label="scatter.overlap",
                )
            assert "scatter.overlap" in str(excinfo.value)

    def test_add_at_result_is_correct_sequentially(self):
        # The dispatch must still *perform* the scatter (repeated
        # indices accumulate), not just log it.
        with sanitize() as san:
            arr = san.wrap(np.zeros(4))
            np.add.at(arr, [0, 0, 2], 1.0)
            np.testing.assert_array_equal(np.asarray(arr), [2.0, 0.0, 1.0, 0.0])

    def test_overlapping_iadd_races(self, pool):
        with sanitize() as san:
            arr = san.wrap(np.zeros(16))

            def bump(lo, hi):
                def task():
                    arr[lo:hi] += 1.0
                return task

            with pytest.raises(RaceError):
                pool.run_tasks([bump(0, 10), bump(6, 16)],
                               label="iadd.overlap")

    def test_fancy_index_add_at_falls_back_to_full_extent(self, pool):
        # Boolean-mask scatter can't be reduced to per-row spans; the
        # conservative fallback covers the whole array, so two such
        # writers conflict even when the masks are disjoint.  That's the
        # documented over-approximation: noisy, never silent.
        with sanitize() as san:
            arr = san.wrap(np.zeros(8))
            mask_a = np.zeros(8, dtype=bool)
            mask_a[:2] = True
            mask_b = np.zeros(8, dtype=bool)
            mask_b[6:] = True
            with pytest.raises(RaceError):
                pool.run_tasks(
                    [lambda: np.add.at(arr, mask_a, 1.0),
                     lambda: np.add.at(arr, mask_b, 1.0)],
                    label="scatter.mask",
                )
