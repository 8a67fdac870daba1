"""Coalescing scheduler: when do queued jobs share one fleet invocation?

The batched engine (:mod:`repro.batch`) turns ``B`` same-shape
decompositions into stacked GEMMs at 4-6x the per-item dispatch loop's
throughput — but only below the stacked-vs-loop crossover that PR 9's
:func:`repro.tune.batched.autotune_batched` measures and caches.  This
module owns the two policy questions the serving loop asks:

* :func:`group_key` — *may* this job be coalesced at all, and with
  whom?  Jobs group only when a fleet run is semantically equivalent to
  their solo runs: same shape, rank, dtype, iteration budget,
  tolerance, thread placement, and default (seeded-random)
  initialization.  Oversized items, ``trace=True`` jobs (their spans
  would interleave), file-ref payloads (the parent never sees the
  tensor), and ``batchable=False`` jobs stay solo.
* :func:`batching_pays` — is the stacked lane actually faster for this
  key at this group size?  The answer is a *lookup* into the shared
  :class:`~repro.tune.cache.TuningCache` under the same ``TuneKey``
  vocabulary the batched autotuner writes (mode 0, ``batch`` clamped to
  the tuner's proxy limit): a fleet-wide warm decision costs ~13 us
  here.  With no cached record the scheduler stays optimistic for small
  items — exactly the regime PR 9's committed baselines cover — and
  the decision is never *measured* on the serving path.

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

__all__ = ["GroupKey", "group_key", "batching_pays"]

#: The batched autotuner measures on at most this many items
#: (:data:`repro.tune.batched._PROXY_BATCH_LIMIT`); cache lookups clamp
#: the group size the same way so serve-time keys hit tuner-time records.
_PROXY_BATCH_LIMIT = 64


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


def batching_pays(key: GroupKey, group_size: int) -> bool:
    """Whether the stacked lane wins for ``group_size`` jobs of ``key``.

    Pure cache lookup (see module docstring): a cached ``batched-loop``
    decision vetoes coalescing — the per-item loop inside one fleet call
    would still amortize *queue* overhead, but the measured crossover
    says the items are large enough that solo scheduling loses nothing,
    and solo preserves strict priority order.  No record -> optimistic.
    """
    if group_size < 2:
        return False
    from repro.tune.cache import TuneKey, get_cache

    tune_key = TuneKey.make(
        key.shape,
        key.rank,
        0,
        key.num_threads,
        key.dtype,
        batch=min(int(group_size), _PROXY_BATCH_LIMIT),
    )
    record = get_cache().get(tune_key)
    if record is None:
        return True
    return record.method == "batched"
