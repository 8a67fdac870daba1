"""Shared-memory array plumbing for the process execution backend.

The process backend (:class:`repro.parallel.backend.ProcessExecutor`) runs
the Python-level hot loops in worker *processes*, so the GIL no longer
serializes them.  That only pays off if the operands — the tensor, the
factor matrices, the per-worker private outputs — cross the process
boundary **without copying per region**.  This module provides that layer
on top of :mod:`multiprocessing.shared_memory`:

* :class:`ShmHandle` — a tiny picklable descriptor (segment name, shape,
  dtype, writability) that travels over the task pipe instead of the array
  payload;
* :class:`ShmArena` — the parent-side registry.  ``allocate()`` creates
  writable shm-backed arrays (private outputs: zero-copy on both sides);
  ``export()`` publishes an existing array (copied into a segment **once**,
  then cached by object identity with weakref eviction, so repeated regions
  over the same tensor reuse the same segment);
* :func:`attach` — the worker-side resolver mapping a handle back to a
  NumPy view of the same physical pages (zero-copy).

Lifetime: the arena owns every segment it creates and unlinks them all in
:meth:`ShmArena.close` (the process executor calls it on shutdown and at
interpreter exit).  Workers keep their attachments alive in a per-process
cache for as long as they run.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.parallel.sanitizer import SanitizerError

__all__ = ["ShmHandle", "ShmArena", "attach"]


@dataclass(frozen=True)
class ShmHandle:
    """Picklable descriptor of one NumPy array living in a shm segment.

    ``order`` preserves the source array's contiguity (``"C"`` or ``"F"``):
    the worker-side view gets the exact strides of the parent array, so
    stride-sensitive BLAS code paths — and therefore floating-point results
    — are identical on both sides.
    """

    name: str
    shape: tuple[int, ...]
    dtype: str
    writable: bool = False
    order: str = "C"

    @property
    def nbytes(self) -> int:
        size = 1
        for s in self.shape:
            size *= int(s)
        return size * np.dtype(self.dtype).itemsize


def _segment_view(seg: shared_memory.SharedMemory, handle: ShmHandle) -> np.ndarray:
    # Always-on bounds contract (one integer compare): a handle describing
    # more bytes than its segment holds is stale or corrupted, and mapping
    # it would read/write past the segment.  numpy would also refuse, but
    # with a generic buffer error that hides *which* segment went stale.
    if handle.nbytes > seg.size:
        raise SanitizerError(
            f"shm segment {handle.name!r} is {seg.size} bytes but handle "
            f"describes shape={handle.shape} dtype={handle.dtype} "
            f"({handle.nbytes} bytes) — stale or corrupted handle"
        )
    view = np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=seg.buf,
        order=handle.order,
    )
    return view


class ShmArena:
    """Parent-side registry of shared-memory segments.

    Thread-safe; one arena per :class:`ProcessExecutor`.  Arrays come in
    two flavours:

    * **allocated** — created here via :meth:`allocate`; the parent-side
      array *is* a view of the segment, so worker writes are immediately
      visible to the parent (private outputs, timing scratch);
    * **exported** — an existing parent array published via
      :meth:`export`; its contents are copied into a fresh segment once
      and the segment is reused for later regions while the array object
      is alive (read-only on the worker side).
    """

    def __init__(self, prefix: str = "repro") -> None:
        self._prefix = prefix
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        # id(array) -> (weakref, handle); the weakref callback evicts the
        # entry (and retires the segment) when the exported array dies, so
        # a recycled id can never alias a stale segment.
        self._exports: dict[int, tuple[weakref.ref, ShmHandle]] = {}
        self._counter = 0
        self._closed = False

    # -- creation ------------------------------------------------------ #

    def _new_segment(self, nbytes: int) -> shared_memory.SharedMemory:
        if self._closed:
            raise RuntimeError("arena has been closed")
        self._counter += 1
        # The allocating pid is part of the name: ``id(self)`` alone is
        # unique only within one process, and two sibling processes (e.g.
        # serve workers forked from the same parent) can hold arenas at
        # the same heap address with the same counter — a collision in
        # the kernel-wide shm namespace.
        name = f"{self._prefix}_{os.getpid():x}_{id(self):x}_{self._counter}"
        seg = shared_memory.SharedMemory(name=name, create=True, size=max(nbytes, 1))
        self._segments[seg.name] = seg
        return seg

    def allocate(
        self, shape: tuple[int, ...], dtype=np.float64
    ) -> tuple[np.ndarray, ShmHandle]:
        """Create a zero-initialized writable shm-backed array.

        Returns the parent-side view and its handle; the view is also
        registered so :meth:`export` returns the same handle without a
        copy.
        """
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        handle = ShmHandle("", shape, dt.str, writable=True)
        with self._lock:
            seg = self._new_segment(handle.nbytes)
            handle = ShmHandle(seg.name, shape, dt.str, writable=True)
            view = _segment_view(seg, handle)
            view[...] = 0
            ref = weakref.ref(view, self._make_evictor(id(view)))
            self._exports[id(view)] = (ref, handle)
        return view, handle

    def _make_evictor(self, key: int):
        def evict(_ref, *, _self=weakref.ref(self), _key=key):
            arena = _self()
            if arena is None or os.getpid() != arena._pid:
                return
            with arena._lock:
                entry = arena._exports.pop(_key, None)
                if entry is None or arena._closed:
                    return
                seg = arena._segments.pop(entry[1].name, None)
            if seg is not None:
                _retire_segment(seg)

        return evict

    def export(self, array: np.ndarray) -> ShmHandle:
        """Publish ``array`` read-only, copying into a segment at most once.

        The copy is C-contiguous regardless of the source strides; callers
        that need a specific parent-side layout reconstructed in the worker
        should export the contiguous base buffer and rebuild the view there
        (:class:`repro.tensor.dense.DenseTensor` does exactly this).
        """
        array = np.asarray(array)
        key = id(array)
        with self._lock:
            entry = self._exports.get(key)
            if entry is not None and entry[0]() is array:
                return entry[1]
        dt = array.dtype
        shape = tuple(array.shape)
        # Keep Fortran contiguity (e.g. transposed GEMM/solve outputs):
        # matching strides on the worker side keeps BLAS code paths — and
        # bit-exact results — identical to the parent's.  Arrays contiguous
        # in neither order are densified C-contiguous.
        order = (
            "F"
            if array.flags.f_contiguous and not array.flags.c_contiguous
            else "C"
        )
        with self._lock:
            # Re-check: another thread may have exported meanwhile.
            entry = self._exports.get(key)
            if entry is not None and entry[0]() is array:
                return entry[1]
            seg = self._new_segment(array.nbytes)
            handle = ShmHandle(seg.name, shape, dt.str, writable=False, order=order)
            view = _segment_view(seg, handle)
            np.copyto(view, array)
            ref = weakref.ref(array, self._make_evictor(key))
            self._exports[key] = (ref, handle)
        return handle

    def view(self, handle: ShmHandle) -> np.ndarray:
        """Parent-side view of a segment this arena owns."""
        with self._lock:
            seg = self._segments.get(handle.name)
        if seg is None:
            raise SanitizerError(
                f"shm segment {handle.name!r} is not owned by this arena "
                f"(already retired, or the handle belongs to another "
                f"arena) — lifetime violation"
            )
        return _segment_view(seg, handle)

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is an arena-allocated (shared-visible) array."""
        with self._lock:
            entry = self._exports.get(id(array))
            return (
                entry is not None
                and entry[0]() is array
                and entry[1].writable
            )

    # -- lifetime ------------------------------------------------------ #

    @property
    def num_segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def close(self) -> None:
        """Close and unlink every segment.  Idempotent.

        Only the creating process may retire segments: a forked worker
        inherits the arena object, and unlinking from the child would pull
        the segments out from under the parent.

        Segments backing an *allocated* array that is still referenced
        outside the arena are a special case: ``SharedMemory.close`` unmaps
        the pages even while a NumPy view exists, which would turn results
        handed to callers (e.g. a multi-TTV output) into dangling pointers
        the moment the executor shuts down.  Those segments are unlinked
        now (no new process can attach) but stay mapped, and a
        :func:`weakref.finalize` releases the mapping once the last caller
        reference dies.
        """
        if os.getpid() != self._pid:
            self._closed = True
            return
        with self._lock:
            if self._closed:
                return
            self._closed = True
            segments = dict(self._segments)
            exports = list(self._exports.values())
            self._segments.clear()
            self._exports.clear()
        for ref, handle in exports:
            array = ref()
            if array is None or not handle.writable:
                continue
            seg = segments.pop(handle.name, None)
            if seg is None:
                continue
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            weakref.finalize(array, _close_segment_quietly, seg)
        for seg in segments.values():
            _retire_segment(seg)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass


def _close_segment_quietly(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover - defensive
        pass


def _retire_segment(seg: shared_memory.SharedMemory) -> None:
    try:
        seg.close()
    except (OSError, BufferError):  # pragma: no cover - defensive
        pass
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass


# -- worker side ------------------------------------------------------- #


def attach(
    handle: ShmHandle, cache: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]]
) -> np.ndarray:
    """Map a handle to a NumPy view in the current (worker) process.

    ``cache`` keeps the ``SharedMemory`` objects alive for the lifetime of
    the worker (a view into a closed segment would be a use-after-free) and
    makes repeated regions over the same operands attach-free.
    """
    entry = cache.get(handle.name)
    if entry is None:
        seg = _attach_untracked(handle.name)
        cache[handle.name] = entry = (seg, np.ndarray(0, np.uint8, buffer=seg.buf))
    seg = entry[0]
    view = _segment_view(seg, handle)
    view.flags.writeable = handle.writable
    return view


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    Lifetime is owned by the parent arena, which created and will unlink
    the segment.  Before Python 3.13 (``track=False``), attaching also
    registers with the attaching process's resource tracker, which then
    reports spurious "leaked shared_memory" at worker exit and may
    double-unlink (cpython#82300) — so registration is suppressed for the
    duration of the attach.  Workers attach from their single main thread,
    so the temporary patch cannot race.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
