"""Reusable workspace arena for iteration-structured kernels.

CP-ALS runs the same contractions every iteration on buffers of identical
shapes: the dimension-tree node buffers ``T_L``/``T_R``, the partial-KRP
panels they are GEMMed against, and the per-worker private outputs of the
second-level contractions.  Allocating those afresh each iteration costs
page faults and memset time *and* — on the process backend — would force
a shared-memory export per iteration.  A :class:`Workspace` owns them
instead:

* buffers are acquired **by name** (plus shape/dtype); the first acquire
  allocates, every later acquire with the same signature returns the same
  array.  Callers must fully overwrite a buffer before reading it (the
  arena hands out scratch, not values);
* allocation goes through the owning executor's ``allocate_shared`` /
  ``allocate_private``, so buffers inherit the backend's visibility
  guarantees for free: on the thread backend they are sanitizer-wrapped
  (:mod:`repro.parallel.sanitizer` sees every worker write for race
  checking), on the process backend they live in the executor's shm arena
  (:mod:`repro.parallel.shm`), so parent writes — e.g. the partial GEMM
  filling a node — are visible to worker processes with **zero copies per
  iteration** (the arena's export-by-identity cache returns the existing
  segment handle);
* :attr:`Workspace.stats` counts allocations vs reuses — the steady-state
  invariant "zero allocations per iteration after warm-up" is therefore
  testable as ``stats.allocations`` not growing between iterations;
* private (per-worker) slabs are zero-filled on every acquire: a
  reduction over reused slabs must not pick up stale partial sums from
  workers whose block range is empty this time around.

Lifetime: :meth:`close` drops all references; on the process backend the
arena's weakref eviction then retires the underlying segments.  The
workspace is also a context manager.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Workspace", "WorkspaceStats"]


@dataclass
class WorkspaceStats:
    """Allocation accounting for one :class:`Workspace`.

    ``allocations``/``allocated_bytes`` only ever grow on a cache miss
    (new name, or a shape/dtype change under an existing name), so a
    steady-state loop must keep them constant; ``reuses`` counts hits.
    """

    allocations: int = 0
    reuses: int = 0
    allocated_bytes: int = 0

    def snapshot(self) -> "WorkspaceStats":
        return WorkspaceStats(self.allocations, self.reuses, self.allocated_bytes)


class Workspace:
    """Named, executor-backed buffer cache reused across iterations.

    Parameters
    ----------
    executor:
        The :class:`~repro.parallel.backend.Executor` whose workers will
        touch the buffers, or ``None`` for plain process-local NumPy
        allocation (serial use, tests).
    """

    def __init__(self, executor=None) -> None:
        self._executor = executor
        self._buffers: dict[str, tuple[tuple, np.ndarray]] = {}
        self.stats = WorkspaceStats()
        self._closed = False

    @property
    def executor(self):
        return self._executor

    # -- acquisition ---------------------------------------------------- #

    def _acquire(self, name: str, signature: tuple, allocate) -> np.ndarray:
        if self._closed:
            raise RuntimeError("workspace has been closed")
        entry = self._buffers.get(name)
        if entry is not None and entry[0] == signature:
            self.stats.reuses += 1
            return entry[1]
        array = allocate()
        self._buffers[name] = (signature, array)
        self.stats.allocations += 1
        self.stats.allocated_bytes += array.nbytes
        return array

    def buffer(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Shared scratch buffer: caller-visible worker writes, NOT zeroed.

        Contents are whatever the previous acquire left behind — callers
        must fully overwrite before reading (GEMM ``out=``, ``np.copyto``,
        a covering ``parallel_for`` write partition, ...).
        """
        shape = tuple(int(s) for s in shape)
        dt = np.dtype(dtype)

        def allocate():
            if self._executor is not None:
                return self._executor.allocate_shared(shape, dtype=dt)
            return np.zeros(shape, dtype=dt, order="C")

        return self._acquire(name, (shape, dt), allocate)

    def private(
        self, name: str, copies: int, shape: tuple[int, ...], dtype=np.float64
    ) -> np.ndarray:
        """Per-worker private slabs ``(copies, *shape)``, zeroed each acquire.

        Zeroing is part of the contract: the slabs feed a tree reduction,
        and a worker whose block range is empty this region leaves its slab
        untouched — stale sums from the previous iteration would silently
        corrupt the total.
        """
        copies = int(copies)
        shape = (copies,) + tuple(int(s) for s in shape)
        dt = np.dtype(dtype)

        def allocate():
            if self._executor is not None:
                return self._executor.allocate_private(copies, shape[1:], dtype=dt)
            return np.zeros(shape, dtype=dt, order="C")

        array = self._acquire(name, (shape, dt), allocate)
        array[...] = 0
        return array

    # -- lifetime -------------------------------------------------------- #

    def release(self, prefix: str) -> int:
        """Drop every buffer whose name starts with ``prefix``.

        Used to evict scratch that served a bounded setup stage — e.g.
        the autotuner's measurement buffers (``"tune."``-prefixed slots,
        see :mod:`repro.tune`) after ``cp_als(tune=True)`` has its picks —
        so a long-lived arena does not stay inflated by allocations that
        will never be reused.  Returns the number of buffers dropped;
        :attr:`stats` is left untouched (``allocations`` counts history,
        not residency, so the zero-allocations-after-warm-up invariant
        stays monotone and testable).
        """
        if self._closed:
            raise RuntimeError("workspace has been closed")
        doomed = [name for name in self._buffers if name.startswith(prefix)]
        for name in doomed:
            del self._buffers[name]
        return len(doomed)

    @property
    def num_buffers(self) -> int:
        return len(self._buffers)

    def close(self) -> None:
        """Drop every buffer reference.  Idempotent.

        On the process backend this lets the shm arena's weakref eviction
        retire the segments (unless the caller still holds a view).
        """
        self._buffers.clear()
        self._closed = True

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace({self.num_buffers} buffers, "
            f"{self.stats.allocations} allocs, {self.stats.reuses} reuses)"
        )
