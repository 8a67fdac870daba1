"""Coalescing scheduler: which queued jobs share one fleet invocation?

The batched engine (:mod:`repro.batch`) turns ``B`` same-shape
decompositions into stacked GEMMs, amortizing the per-job dispatch and
queue overhead over the group.  The one policy question the serving
loop asks is :func:`group_key`: *may* this job be coalesced at all, and
with whom?  Jobs group only when a fleet run is semantically equivalent
to their solo runs: same shape, rank, dtype, iteration budget,
tolerance, thread placement, and default (seeded-random)
initialization.  Oversized items, ``trace=True`` jobs (their spans
would interleave), file-ref payloads (the parent never sees the
tensor), and ``batchable=False`` jobs stay solo.  Two or more popped
jobs with the same key always run as one fleet call; the decision reads
nothing but the jobs themselves.

Coalesced members inherit the group head's scheduling slot: a
lower-priority same-key job can run earlier than strict priority order
would have it (never later, and never delaying a different-key job
behind it by more than the marginal stacked cost).  That is the
documented throughput-for-strictness trade; disable it per job
(``batchable=False``) or per server (``ServeConfig.batching=False``).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util import prod

__all__ = ["GroupKey", "group_key"]


class GroupKey(NamedTuple):
    """Identity of a coalescible job class (hashable, order-insensitive)."""

    shape: tuple[int, ...]
    rank: int
    dtype: str
    n_iter_max: int
    tol: float
    num_threads: int


def group_key(job, *, max_item_elems: int) -> GroupKey | None:
    """The job's coalescing class, or ``None`` if it must run solo.

    ``job`` is the server-internal record (``job.spec`` is the
    normalized :class:`~repro.serve.job.JobSpec`, ``job.tensor`` the
    admitted :class:`~repro.tensor.dense.DenseTensor`).
    """
    spec = job.spec
    if spec.batchable is False or spec.trace or job.tensor is None:
        return None
    if spec.timeout is not None:
        # Deadlines are per-job; a fleet run advances in lock-step, so
        # one member's deadline would either be ignored or kill the
        # whole group.  Deadline jobs run solo.
        return None
    if spec.method not in ("auto",):
        # Solo method specs ("onestep", per-mode lists, ...) have no
        # batched counterpart; the fleet engine picks its own lanes.
        return None
    shape = job.tensor.shape
    if spec.batchable is not True and prod(shape) > max_item_elems:
        return None
    return GroupKey(
        shape=tuple(shape),
        rank=int(spec.rank),
        dtype=str(job.tensor.data.dtype),
        n_iter_max=int(spec.n_iter_max),
        tol=float(spec.tol),
        num_threads=spec.num_threads,
    )

