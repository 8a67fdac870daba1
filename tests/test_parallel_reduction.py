"""Tests for private buffers and the parallel tree reduction."""

import numpy as np
import pytest

from repro.parallel.pool import ThreadPool
from repro.parallel.reduction import (
    allocate_private,
    allocate_shared,
    parallel_reduce,
)
from repro.parallel.sanitizer import WriteLogArray, is_sanitizing, sanitize


class TestAllocateShared:
    def test_shape_dtype_and_zeroed(self):
        buf = allocate_shared((3, 2), dtype=np.int64)
        assert buf.shape == (3, 2) and buf.dtype == np.int64
        assert not buf.any()

    def test_instrumented_only_under_sanitizer(self):
        if not is_sanitizing():
            assert type(allocate_shared((4,))) is np.ndarray
        with sanitize():
            assert isinstance(allocate_shared((4,)), WriteLogArray)
            assert isinstance(allocate_private(2, (4,)), WriteLogArray)


class TestAllocatePrivate:
    def test_shape_and_zeroed(self):
        buf = allocate_private(4, (3, 5))
        assert buf.shape == (4, 3, 5)
        assert not buf.any()

    def test_dtype(self):
        assert allocate_private(2, (3,), dtype=np.float32).dtype == np.float32

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            allocate_private(0, (3,))


class TestParallelReduce:
    @pytest.mark.parametrize("T", [1, 2, 3, 4, 5, 8])
    def test_matches_numpy_sum(self, T, rng):
        buffers = rng.random((T, 6, 4))
        expected = buffers.sum(axis=0)
        with ThreadPool(min(T, 4)) as pool:
            out = parallel_reduce(buffers.copy(), pool)
        np.testing.assert_allclose(out, expected)

    def test_sequential_fallback(self, rng):
        buffers = rng.random((5, 3))
        expected = buffers.sum(axis=0)
        out = parallel_reduce(buffers.copy(), None)
        np.testing.assert_allclose(out, expected)

    def test_result_is_buffer_zero(self, rng):
        buffers = rng.random((3, 2))
        out = parallel_reduce(buffers, None)
        assert out is buffers[0] or np.shares_memory(out, buffers[0])

    def test_single_buffer_untouched(self, rng):
        buffers = rng.random((1, 4))
        original = buffers.copy()
        out = parallel_reduce(buffers, None)
        np.testing.assert_array_equal(out, original[0])

    def test_empty_leading_axis_rejected(self):
        with pytest.raises(ValueError):
            parallel_reduce(np.zeros((0, 3)))

    def test_non_power_of_two(self, rng):
        buffers = rng.random((7, 3, 3))
        expected = buffers.sum(axis=0)
        with ThreadPool(3) as pool:
            out = parallel_reduce(buffers, pool)
        np.testing.assert_allclose(out, expected)

    def test_1d_payload(self, rng):
        buffers = rng.random((4, 10))
        expected = buffers.sum(axis=0)
        with ThreadPool(2) as pool:
            np.testing.assert_allclose(
                parallel_reduce(buffers, pool), expected
            )
