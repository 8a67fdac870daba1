"""Reusable workspace arena for iteration-structured kernels.

CP-ALS runs the same contractions every iteration on buffers of identical
shapes: the dimension-tree node buffers ``T_L``/``T_R``, the partial-KRP
panels they are GEMMed against, and the per-worker private outputs of the
second-level contractions.  Allocating those afresh each iteration costs
page faults and memset time.  A :class:`Workspace` owns them instead:

* buffers are acquired **by name** (plus shape/dtype); the first acquire
  allocates, every later acquire with the same signature returns the same
  array.  Callers must fully overwrite a buffer before reading it (the
  arena hands out scratch, not values);
* allocation goes through :func:`~repro.parallel.reduction.allocate_shared`
  / :func:`~repro.parallel.reduction.allocate_private`, so with the
  sanitizer on (:mod:`repro.parallel.sanitizer`) every buffer is
  instrumented and pool workers' writes into it are race-checked;
* :attr:`Workspace.stats` counts allocations vs reuses — the steady-state
  invariant "zero allocations per iteration after warm-up" is therefore
  testable as ``stats.allocations`` not growing between iterations;
* private (per-worker) slabs are zero-filled on every acquire: a
  reduction over reused slabs must not pick up stale partial sums from
  workers whose block range is empty this time around.

Lifetime: :meth:`close` drops all references.  The workspace is also a
context manager.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.reduction import allocate_private, allocate_shared

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
    """Named buffer cache reused across iterations."""

    def __init__(self) -> None:
        self._buffers: dict[str, tuple[tuple, np.ndarray]] = {}
        self.stats = WorkspaceStats()
        self._closed = False

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

        return self._acquire(
            name, (shape, dt), lambda: allocate_shared(shape, dtype=dt)
        )

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

        array = self._acquire(
            name, (shape, dt),
            lambda: allocate_private(copies, shape[1:], dtype=dt),
        )
        array[...] = 0
        return array

    # -- lifetime -------------------------------------------------------- #

    def release(self, prefix: str) -> int:
        """Drop every buffer whose name starts with ``prefix``.

        Used to evict scratch that served a bounded setup stage — e.g.
        the batched tuner's measurement buffers (``"tune."``-prefixed
        slots, see :mod:`repro.tune`) after ``cp_als_batched(tune=True)``
        has its pick — so a long-lived arena does not stay inflated by allocations that
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
        """Drop every buffer reference.  Idempotent."""
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
