"""Runtime write-set race sanitizer for pool regions.

The thread pool's correctness rests on one property the static lint can
only approximate: during a parallel region, the byte ranges each worker
writes into a shared array are pairwise disjoint (the paper's Algorithm 1/3
contiguous-block contract).  This module checks that property *for real*:

* :func:`Sanitizer.wrap` returns a :class:`WriteLogArray` — an ndarray
  subclass that records the byte interval of every ``__setitem__`` /
  ``out=`` write, tagged with the worker index currently set on the
  recording thread;
* :class:`~repro.parallel.pool.ThreadPool` (when the sanitizer is enabled)
  brackets each region with :meth:`Sanitizer.region_begin` /
  :meth:`Sanitizer.region_end` and tags each task's thread with its worker
  index; ``region_end`` asserts pairwise disjointness of the recorded
  write sets and raises :class:`RaceError` naming both workers and their
  overlapping intervals.

Enabled via ``REPRO_SANITIZE=1`` or the :func:`sanitize` context manager.
When off, :data:`NULL_SANITIZER` (Null-object pattern, same as
``repro.obs``) makes every hook a no-op and ``wrap`` the identity, so the
production path pays nothing.

It lives in the runtime, not in :mod:`repro.analysis`, so running the
pool never loads the static analyzer.  It deliberately imports nothing
else from :mod:`repro.parallel` — ``pool.py`` imports *us*.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

import numpy as np

__all__ = [
    "SanitizerError",
    "RaceError",
    "Sanitizer",
    "NullSanitizer",
    "NULL_SANITIZER",
    "WriteLogArray",
    "get_sanitizer",
    "sanitize",
    "is_sanitizing",
]

_ENV_FLAG = "REPRO_SANITIZE"


class SanitizerError(RuntimeError):
    """A runtime contract violation: overlapping worker writes or a
    non-native BLAS operand layout."""


class RaceError(SanitizerError):
    """Two workers wrote overlapping byte ranges of a shared array."""


# --------------------------------------------------------------------- #
# Write-interval bookkeeping
# --------------------------------------------------------------------- #

#: A view whose strided write decomposes into more than this many
#: contiguous chunks is recorded as one covering interval instead
#: (conservative: may report a false overlap, never misses a true one...
#: except that widening can also merge with a neighbour; in practice the
#: repo's kernels write contiguous row blocks and never hit the cap).
_CHUNK_CAP = 4096


def _byte_spans(view: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) byte intervals covered by ``view``, absolute
    (process address space) so intervals from different views of the same
    base buffer compare directly."""
    base_ptr = view.__array_interface__["data"][0]
    if view.size == 0:
        return []
    if view.flags["C_CONTIGUOUS"] or view.flags["F_CONTIGUOUS"]:
        return [(base_ptr, base_ptr + view.nbytes)]
    # Strided view: decompose along the outermost non-contiguous axes.
    spans: list[tuple[int, int]] = []
    itemsize = view.itemsize

    def rec(ptr: int, shape: tuple[int, ...], strides: tuple[int, ...]) -> bool:
        """Append spans; False if the cap was exceeded."""
        if not shape:
            spans.append((ptr, ptr + itemsize))
            return len(spans) <= _CHUNK_CAP
        # Fast path: remaining dims are C-contiguous.
        n = 1
        contig = True
        for dim, st in zip(reversed(shape), reversed(strides)):
            if st != n * itemsize:
                contig = False
                break
            n *= dim
        if contig:
            total = itemsize
            for dim in shape:
                total *= dim
            spans.append((ptr, ptr + total))
            return len(spans) <= _CHUNK_CAP
        for i in range(shape[0]):
            if not rec(ptr + i * strides[0], shape[1:], strides[1:]):
                return False
        return True

    if not rec(base_ptr, view.shape, view.strides):
        # Cap exceeded: cover the full extent touched by the view.
        lo = base_ptr
        hi = base_ptr + itemsize
        for dim, st in zip(view.shape, view.strides):
            if dim > 1:
                if st >= 0:
                    hi += (dim - 1) * st
                else:
                    lo += (dim - 1) * st
        return [(lo, hi)]
    return spans


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    if not intervals:
        return []
    intervals = sorted(intervals)
    merged = [intervals[0]]
    for lo, hi in intervals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    return merged


#: ``ufunc.at`` index sets larger than this are logged as the covering
#: whole-array extent instead of per-row views (conservative, like
#: :data:`_CHUNK_CAP`: may report a false overlap, never misses one).
_AT_INDEX_CAP = 512


def _at_write_views(base: np.ndarray, indices) -> list[np.ndarray]:
    """Views of ``base`` covering the rows ``ufunc.at`` writes.

    Scatter indices produce *copies* under fancy indexing, so the byte
    spans must come from basic row slices instead: one ``base[k:k+1]``
    view per unique integer index.  Anything not a flat integer index
    set (tuples for multi-axis scatter, boolean masks, huge index
    arrays) falls back to the whole-array extent.
    """
    if indices is None or isinstance(indices, tuple) or base.ndim == 0:
        return [base]
    try:
        idx = np.asarray(indices)
    except (TypeError, ValueError):
        return [base]
    if idx.dtype.kind not in "iu":
        return [base]
    uniq = np.unique(idx.ravel())
    if uniq.size > _AT_INDEX_CAP:
        return [base]
    n = base.shape[0]
    views: list[np.ndarray] = []
    for k in uniq:
        k = int(k)
        if k < 0:
            k += n
        if 0 <= k < n:
            views.append(base[k:k + 1])
    return views or [base]


def _normalize_key(key, ndim: int):
    """Convert integer (and negative-integer) indices to slices so basic
    indexing yields a *view* we can take byte spans from."""
    def one(k):
        if isinstance(k, (int, np.integer)):
            k = int(k)
            return slice(k, None) if k == -1 else slice(k, k + 1)
        return k

    if isinstance(key, tuple):
        return tuple(one(k) for k in key)
    return one(key)


# --------------------------------------------------------------------- #
# The instrumented array
# --------------------------------------------------------------------- #


class WriteLogArray(np.ndarray):
    """ndarray subclass that reports its writes to the active sanitizer.

    Views derived from a wrapped array inherit the instrumentation (and
    the identity of the *root* buffer, so intervals from different slices
    of the same array land in one ledger).  Copies do not: a new buffer is
    a new, untracked allocation.
    """

    def __array_finalize__(self, obj):
        if obj is None:
            return
        san = getattr(obj, "_san", None)
        root = getattr(obj, "_san_root", None)
        if san is None or root is None:
            return
        # Only genuine views of the root buffer stay instrumented; a copy
        # (new buffer) inheriting the stale root would log nonsense.
        try:
            my_ptr = self.__array_interface__["data"][0]
            r_ptr = root.__array_interface__["data"][0]
            if r_ptr <= my_ptr < r_ptr + root.nbytes:
                self._san = san
                self._san_root = root
        except (TypeError, AttributeError):
            pass

    # -- write interception ------------------------------------------- #

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        san = getattr(self, "_san", None)
        if san is not None and san.active:
            try:
                view = np.asarray(self)[_normalize_key(key, self.ndim)]
            except (IndexError, TypeError):
                view = np.asarray(self)
            san.record_write(self._san_root, view)

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        # Demote instrumented operands so numpy runs the plain-ndarray
        # loops, then log any instrumented out= target.
        plain_in = tuple(
            np.asarray(x) if isinstance(x, WriteLogArray) else x
            for x in inputs
        )
        if method == "at":
            # ``np.add.at(a, idx, v)`` mutates ``a`` in place and takes no
            # ``out=``; log the written rows (per unique index, with a
            # covering-extent fallback) against the root buffer.
            getattr(ufunc, method)(*plain_in, **kwargs)
            target = inputs[0] if inputs else None
            if isinstance(target, WriteLogArray):
                san = getattr(target, "_san", None)
                if san is not None and san.active:
                    indices = inputs[1] if len(inputs) > 1 else None
                    for view in _at_write_views(np.asarray(target), indices):
                        san.record_write(target._san_root, view)
            return None
        out_arrays = out if out is not None else ()
        plain_out = tuple(
            np.asarray(x) if isinstance(x, WriteLogArray) else x
            for x in out_arrays
        )
        result = getattr(ufunc, method)(
            *plain_in, out=plain_out or None, **kwargs
        )
        for target in out_arrays:
            if isinstance(target, WriteLogArray):
                san = getattr(target, "_san", None)
                if san is not None and san.active:
                    san.record_write(target._san_root, np.asarray(target))
        return result

    def __array_function__(self, func, types, args, kwargs):
        # np.copyto / np.einsum / etc.: demote and log out=/dst targets.
        def demote(x):
            return np.asarray(x) if isinstance(x, WriteLogArray) else x

        targets = []
        out = kwargs.get("out")
        if isinstance(out, WriteLogArray):
            targets.append(out)
        elif isinstance(out, tuple):
            targets.extend(t for t in out if isinstance(t, WriteLogArray))
        if func is np.copyto and args and isinstance(args[0], WriteLogArray):
            targets.append(args[0])

        plain_args = tuple(
            tuple(demote(a) for a in x) if isinstance(x, tuple) else demote(x)
            for x in args
        )
        plain_kwargs = {
            k: (tuple(demote(e) for e in v) if isinstance(v, tuple)
                else demote(v))
            for k, v in kwargs.items()
        }
        result = func(*plain_args, **plain_kwargs)
        for target in targets:
            san = getattr(target, "_san", None)
            if san is not None and san.active:
                san.record_write(target._san_root, np.asarray(target))
        return result


# --------------------------------------------------------------------- #
# Sanitizer objects
# --------------------------------------------------------------------- #


class NullSanitizer:
    """Disabled sanitizer: every hook is a no-op, ``wrap`` is identity."""

    enabled = False
    active = False

    def wrap(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def set_worker(self, worker: int | None) -> None:
        pass

    def region_begin(self, label: str = "") -> None:
        pass

    def region_end(self, label: str = "", *, check: bool = True) -> None:
        pass

    def record_write(self, root: np.ndarray, view: np.ndarray) -> None:
        pass


NULL_SANITIZER = NullSanitizer()


class Sanitizer:
    """Active write-set sanitizer.

    Thread-safe: workers record concurrently under a lock; the region
    barrier (single-threaded by construction) runs the disjointness check.
    ``active`` is True only between ``region_begin`` and ``region_end`` so
    sequential (non-region) writes cost one attribute check and nothing
    else.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tls = threading.local()
        # (id(root), worker) -> list of (lo, hi) byte intervals
        self._writes: dict[tuple[int, int], list[tuple[int, int]]] = {}
        self._roots: dict[int, np.ndarray] = {}
        self.active = False
        self._label = ""

    # -- wrapping ------------------------------------------------------ #

    def wrap(self, arr: np.ndarray) -> np.ndarray:
        """Return an instrumented view of ``arr`` (shares the buffer)."""
        if isinstance(arr, WriteLogArray):
            return arr
        wrapped = arr.view(WriteLogArray)
        wrapped._san = self
        wrapped._san_root = arr
        return wrapped

    # -- per-thread worker identity ------------------------------------ #

    def set_worker(self, worker: int | None) -> None:
        self._tls.worker = worker

    # -- region lifecycle ---------------------------------------------- #

    def region_begin(self, label: str = "") -> None:
        with self._lock:
            self._writes.clear()
            self._roots.clear()
            self._label = label
            self.active = True

    def region_end(self, label: str = "", *, check: bool = True) -> None:
        with self._lock:
            self.active = False
            writes = {k: _merge(v) for k, v in self._writes.items()}
            roots = dict(self._roots)
            self._writes.clear()
            self._roots.clear()
        if check:
            self._check_disjoint(writes, roots, label or self._label)

    def record_write(self, root: np.ndarray, view: np.ndarray) -> None:
        if not self.active:
            return
        worker = getattr(self._tls, "worker", None)
        if worker is None:
            # Write from the orchestrating (non-worker) thread during a
            # region — e.g. setup between dispatch and join.  Attribute it
            # to a sentinel owner so overlap with real workers is caught.
            worker = -1
        spans = _byte_spans(view)
        if not spans:
            return
        with self._lock:
            if not self.active:
                return
            self._roots.setdefault(id(root), root)
            self._writes.setdefault((id(root), worker), []).extend(spans)

    # -- the check ----------------------------------------------------- #

    def _check_disjoint(
        self,
        writes: dict[tuple[int, int], list[tuple[int, int]]],
        roots: dict[int, np.ndarray],
        label: str,
    ) -> None:
        by_root: dict[int, list[tuple[int, int, int]]] = {}
        for (root_id, worker), intervals in writes.items():
            for lo, hi in intervals:
                by_root.setdefault(root_id, []).append((lo, hi, worker))
        for root_id, entries in by_root.items():
            entries.sort()
            root = roots.get(root_id)
            itemsize = root.itemsize if root is not None else 1
            base = (root.__array_interface__["data"][0]
                    if root is not None else 0)
            prev_hi = -1
            prev: tuple[int, int, int] | None = None
            for lo, hi, worker in entries:
                if prev is not None and lo < prev_hi and worker != prev[2]:
                    plo, phi, pworker = prev

                    def fmt(a: int, b: int) -> str:
                        return (f"elements [{(a - base) // itemsize}, "
                                f"{(b - base) // itemsize}) "
                                f"(bytes [{a - base}, {b - base}))")

                    shape = root.shape if root is not None else "?"
                    raise RaceError(
                        f"overlapping writes to shared array "
                        f"(shape={shape}) in region {label!r}: "
                        f"worker {pworker} wrote {fmt(plo, phi)} and "
                        f"worker {worker} wrote {fmt(lo, hi)}"
                    )
                if hi > prev_hi:
                    prev_hi = hi
                    prev = (lo, hi, worker)


# --------------------------------------------------------------------- #
# Global accessor + context manager
# --------------------------------------------------------------------- #

_state_lock = threading.Lock()
_sanitizer: Sanitizer | None = None
_forced: bool | None = None  # sanitize() overrides the env var


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def get_sanitizer() -> Sanitizer | NullSanitizer:
    """The active sanitizer: a real one when enabled, else the null object.

    Enabled when ``REPRO_SANITIZE`` is truthy or a :func:`sanitize` context
    is open.  The real sanitizer instance is a process-wide singleton so
    the pool's hooks and user wrapping agree on one ledger.
    """
    global _sanitizer
    on = _forced if _forced is not None else _env_enabled()
    if not on:
        return NULL_SANITIZER
    with _state_lock:
        if _sanitizer is None:
            _sanitizer = Sanitizer()
        return _sanitizer


def is_sanitizing() -> bool:
    return get_sanitizer().enabled


@contextmanager
def sanitize():
    """Force the sanitizer on for the duration of the block.

    Arrays allocated inside the block (through
    :func:`~repro.parallel.reduction.allocate_shared` / ``allocate_private``) are
    instrumented; regions run inside it are checked at their barriers.
    """
    global _forced
    prev = _forced
    _forced = True
    try:
        yield get_sanitizer()
    finally:
        _forced = prev
