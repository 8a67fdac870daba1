"""Tests for thread-count configuration and BLAS thread control."""

import numpy as np
import pytest

from repro.parallel.blas import blas_threads, get_blas_threads, set_blas_threads
from repro.parallel.config import (
    get_num_threads,
    num_threads,
    resolve_threads,
    set_num_threads,
)


class TestConfig:
    def test_set_and_get(self):
        with num_threads(3):
            assert get_num_threads() == 3

    def test_context_restores(self):
        before = get_num_threads()
        with num_threads(7):
            assert get_num_threads() == 7
        assert get_num_threads() == before

    def test_nested_contexts(self):
        with num_threads(2):
            with num_threads(5):
                assert get_num_threads() == 5
            assert get_num_threads() == 2

    def test_set_invalid(self):
        with pytest.raises(ValueError):
            set_num_threads(0)
        with pytest.raises(ValueError):
            set_num_threads(-1)

    def test_resolve_none_uses_default(self):
        with num_threads(4):
            assert resolve_threads(None) == 4

    def test_resolve_explicit(self):
        assert resolve_threads(2) == 2

    def test_resolve_invalid(self):
        with pytest.raises(ValueError):
            resolve_threads(0)

    def test_context_restores_on_exception(self):
        before = get_num_threads()
        with pytest.raises(RuntimeError):
            with num_threads(9):
                raise RuntimeError
        assert get_num_threads() == before


class TestBlasThreads:
    """BLAS control is best-effort: these tests pass whether or not an
    OpenBLAS control symbol is available on the host."""

    def test_set_returns_bool(self):
        assert isinstance(set_blas_threads(1), bool)

    def test_get_returns_int_or_none(self):
        val = get_blas_threads()
        assert val is None or (isinstance(val, int) and val >= 1)

    def test_set_invalid(self):
        with pytest.raises(ValueError):
            set_blas_threads(0)

    def test_context_manager_restores(self):
        before = get_blas_threads()
        with blas_threads(1):
            inner = get_blas_threads()
            if inner is not None:
                assert inner == 1
        assert get_blas_threads() == before

    def test_roundtrip_when_controllable(self):
        before = get_blas_threads()
        if before is None:
            pytest.skip("BLAS thread control unavailable")
        try:
            set_blas_threads(2)
            assert get_blas_threads() == 2
            set_blas_threads(1)
            assert get_blas_threads() == 1
        finally:
            set_blas_threads(before)

    def test_numpy_openblas_is_controllable(self):
        # numpy >= 2 wheels bundle an OpenBLAS whose symbols carry a
        # ``scipy_`` prefix; the setter lookup must find them too.
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in str(blas.get("name", "")).lower():
            pytest.skip("numpy is not built against OpenBLAS")
        before = get_blas_threads()
        assert before is not None
        with blas_threads(1):
            assert get_blas_threads() == 1
        assert get_blas_threads() == before
