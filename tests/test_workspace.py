"""Unit tests for the reusable workspace arena (repro.parallel.workspace)."""

import numpy as np
import pytest

from repro.parallel.workspace import Workspace, WorkspaceStats


class TestBuffer:
    def test_same_signature_returns_same_array(self):
        ws = Workspace()
        a = ws.buffer("x", (3, 4))
        b = ws.buffer("x", (3, 4))
        assert b is a
        assert ws.stats.allocations == 1
        assert ws.stats.reuses == 1

    def test_shape_change_reallocates(self):
        ws = Workspace()
        a = ws.buffer("x", (3, 4))
        b = ws.buffer("x", (5, 4))
        assert b is not a
        assert b.shape == (5, 4)
        assert ws.stats.allocations == 2

    def test_dtype_change_reallocates(self):
        ws = Workspace()
        a = ws.buffer("x", (3,), np.float64)
        b = ws.buffer("x", (3,), np.float32)
        assert b is not a
        assert b.dtype == np.float32
        assert ws.stats.allocations == 2

    def test_distinct_names_are_distinct_buffers(self):
        ws = Workspace()
        a = ws.buffer("x", (3,))
        b = ws.buffer("y", (3,))
        assert a is not b
        assert ws.num_buffers == 2

    def test_contents_persist_across_acquires(self):
        # buffer() hands back scratch without clearing it.
        ws = Workspace()
        a = ws.buffer("x", (4,))
        a[:] = 7.0
        b = ws.buffer("x", (4,))
        assert np.all(b == 7.0)

    def test_allocated_bytes_tracked(self):
        ws = Workspace()
        ws.buffer("x", (10,), np.float64)
        assert ws.stats.allocated_bytes == 80


class TestPrivate:
    def test_shape_has_leading_copies_axis(self):
        ws = Workspace()
        p = ws.private("p", 3, (2, 5))
        assert p.shape == (3, 2, 5)

    def test_zeroed_on_every_acquire(self):
        # Reduction correctness depends on this: stale partial sums from
        # idle workers must not survive into the next iteration.
        ws = Workspace()
        p = ws.private("p", 2, (3,))
        p[...] = 42.0
        q = ws.private("p", 2, (3,))
        assert q is p
        assert np.all(q == 0.0)
        assert ws.stats.allocations == 1
        assert ws.stats.reuses == 1


class TestLifetime:
    def test_close_drops_buffers_and_blocks_use(self):
        ws = Workspace()
        ws.buffer("x", (3,))
        ws.close()
        assert ws.num_buffers == 0
        with pytest.raises(RuntimeError, match="closed"):
            ws.buffer("x", (3,))

    def test_close_idempotent(self):
        ws = Workspace()
        ws.close()
        ws.close()

    def test_context_manager(self):
        with Workspace() as ws:
            ws.buffer("x", (2,))
        assert ws.num_buffers == 0

    def test_stats_snapshot_is_independent(self):
        ws = Workspace()
        ws.buffer("x", (2,))
        snap = ws.stats.snapshot()
        ws.buffer("x", (2,))
        assert isinstance(snap, WorkspaceStats)
        assert snap.reuses == 0
        assert ws.stats.reuses == 1


class TestSanitizerWrapping:
    def test_buffers_instrumented_under_sanitizer(self):
        # Workspace buffers are what pool workers write, so the write-set
        # sanitizer must see them; with it off they are plain arrays.
        from repro.parallel.sanitizer import (
            WriteLogArray,
            is_sanitizing,
            sanitize,
        )

        if not is_sanitizing():
            assert type(Workspace().buffer("x", (4, 3))) is np.ndarray
        with sanitize():
            ws = Workspace()
            assert isinstance(ws.buffer("x", (4, 3)), WriteLogArray)
            assert isinstance(ws.private("p", 2, (3,)), WriteLogArray)
