"""Tests for the parallel Khatri-Rao product (Section 4.1.2)."""

import numpy as np
import pytest

from repro.core.krp import khatri_rao
from repro.core.krp_parallel import khatri_rao_parallel


def _mats(dims, C=4, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.random((d, C)) for d in dims]


class TestKhatriRaoParallel:
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 7])
    def test_matches_sequential(self, T):
        mats = _mats([5, 6, 4])
        np.testing.assert_allclose(
            khatri_rao_parallel(mats, num_threads=T), khatri_rao(mats)
        )

    @pytest.mark.parametrize("T", [1, 3])
    def test_naive_schedule(self, T):
        mats = _mats([3, 4, 3])
        np.testing.assert_allclose(
            khatri_rao_parallel(mats, num_threads=T, schedule="naive"),
            khatri_rao(mats),
        )

    def test_more_threads_than_rows(self):
        mats = _mats([2, 2])
        np.testing.assert_allclose(
            khatri_rao_parallel(mats, num_threads=16), khatri_rao(mats)
        )

    def test_out_parameter(self):
        mats = _mats([4, 5])
        out = np.empty((20, 4))
        res = khatri_rao_parallel(mats, num_threads=2, out=out)
        assert res is out
        np.testing.assert_allclose(out, khatri_rao(mats))

    def test_out_wrong_shape(self):
        mats = _mats([4, 5])
        with pytest.raises(ValueError, match="out"):
            khatri_rao_parallel(mats, num_threads=2, out=np.empty((19, 4)))

    def test_unknown_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            khatri_rao_parallel(_mats([3, 3]), schedule="magic")

    def test_single_matrix(self):
        mats = _mats([6])
        np.testing.assert_array_equal(
            khatri_rao_parallel(mats, num_threads=3), mats[0]
        )

    def test_default_thread_count_from_config(self):
        from repro.parallel.config import num_threads

        mats = _mats([4, 5])
        with num_threads(2):
            np.testing.assert_allclose(
                khatri_rao_parallel(mats), khatri_rao(mats)
            )

    @pytest.mark.parametrize("T", [2, 4, 5])  # T=4 misaligns block/panel
    def test_thread_blocks_are_bit_identical(self, T):
        # Parallel result must equal sequential exactly (same arithmetic in
        # the same association order, disjoint writes), not merely within
        # tolerance — including when thread blocks straddle panel bounds.
        mats = _mats([7, 5, 3], C=6, seed=4)
        seq = khatri_rao(mats)
        par = khatri_rao_parallel(mats, num_threads=T)
        np.testing.assert_array_equal(par, seq)


class TestCostCounters:
    def test_untraced_call_skips_cost_model(self, monkeypatch):
        import repro.core.krp_parallel as krp_parallel

        def boom(*args, **kwargs):
            raise AssertionError("krp_cost called without a tracer")

        monkeypatch.setattr(krp_parallel, "krp_cost", boom)
        mats = _mats([4, 3, 5])
        for T in (1, 2):
            np.testing.assert_array_equal(
                khatri_rao_parallel(mats, num_threads=T), khatri_rao(mats)
            )

    @pytest.mark.parametrize("schedule", ["reuse", "naive"])
    @pytest.mark.parametrize("T", [1, 2])
    def test_traced_call_records_cost(self, schedule, T):
        import repro.obs as obs
        from repro.core.flops import krp_cost

        mats = _mats([4, 3, 5], C=6)
        with obs.capture() as tracer:
            khatri_rao_parallel(mats, num_threads=T, schedule=schedule)
        cost = krp_cost([4, 3, 5], 6, schedule=schedule)
        counters = obs.counters_snapshot(tracer)
        assert counters["flops"] == cost.flops
        assert counters["bytes_read"] == cost.read_bytes
        assert counters["bytes_written"] == cost.write_bytes
