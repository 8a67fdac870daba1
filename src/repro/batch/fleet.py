"""Fleet entry point: run CP-ALS over an ad-hoc group of same-shape tensors.

:func:`repro.batch.cp_als.cp_als_batched` wants a pre-stacked
:class:`~repro.batch.tensor.BatchedTensor` plus *stacked* initial
factors.  A job scheduler holds neither — it holds a list of independent
jobs, each with its own tensor and its own seed.  :func:`cp_als_fleet`
is the bridge: it stacks the tensors, builds every item's initial
factors **exactly as a solo** :func:`repro.cpd.cp_als.cp_als` **call
with that item's seed would** (same
:func:`~repro.cpd.init.initialize_factors` draws), and dispatches one
batched run.

The load-bearing property is determinism in the group composition: the
result is a pure function of the *ordered* tensor list, the seeds, and
the options — not of who coalesced the group or when.  A service that
batches jobs A, B, C therefore produces bit-for-bit the results of a
direct ``cp_als_fleet([A, B, C], ...)`` call, which is what the serve
differential oracle (``tests/test_oracle_serve.py``) pins.

Note the fleet iterates are *numerically* (to solver precision, not
bitwise) equal to per-item solo runs: the stacked Gram/solve operate on
the same values but through batched BLAS calls.  Bit-identity holds
along each path separately — solo-vs-solo and fleet-vs-fleet — which is
exactly the guarantee a deterministic service needs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.batch.cp_als import BatchedCPResult, cp_als_batched
from repro.batch.tensor import BatchedTensor
from repro.cpd.init import initialize_factors
from repro.tensor.dense import DenseTensor

__all__ = ["cp_als_fleet", "stack_seeded_init"]


def stack_seeded_init(
    tensors: Sequence[DenseTensor],
    rank: int,
    seeds: Sequence[int | None],
    init: str = "random",
) -> list[np.ndarray]:
    """Per-item seeded initial factors, stacked to ``(B, I_k, C)``.

    Item ``b``'s slice reproduces ``initialize_factors(tensors[b], rank,
    method=init, rng=seeds[b])`` exactly, so a fleet run started from
    this stack shares its initialization with the corresponding solo
    runs.
    """
    if len(seeds) != len(tensors):
        raise ValueError(
            f"got {len(seeds)} seeds for {len(tensors)} tensors"
        )
    per_item = [
        initialize_factors(t, rank, method=init, rng=seed)
        for t, seed in zip(tensors, seeds)
    ]
    N = tensors[0].ndim
    return [
        np.stack([item[k] for item in per_item]) for k in range(N)
    ]


def cp_als_fleet(
    tensors: Sequence[DenseTensor],
    rank: int,
    *,
    seeds: Sequence[int | None] | None = None,
    init: str = "random",
    n_iter_max: int = 50,
    tol: float = 1e-8,
    method: str = "auto",
    num_threads: int | None = None,
    workspace=None,
    cancel=None,
) -> BatchedCPResult:
    """Decompose a group of same-shape tensors in one batched run.

    Parameters
    ----------
    tensors:
        Same-shape :class:`DenseTensor` items (the group is stacked via
        :meth:`BatchedTensor.from_tensors`, one copy).
    rank:
        Shared CP rank.
    seeds:
        Per-item initialization seeds (``None`` entries draw from fresh
        OS entropy, like a solo run without a seed).  Defaults to all
        ``None``.  With seeds given, item ``b``'s initial factors are
        bit-identical to a solo ``cp_als(tensors[b], rank,
        rng=seeds[b])`` run's.
    init:
        Initialization method forwarded to
        :func:`~repro.cpd.init.initialize_factors` per item.
    n_iter_max / tol / method / num_threads / workspace / cancel:
        Forwarded to :func:`~repro.batch.cp_als.cp_als_batched`.

    Returns
    -------
    BatchedCPResult
        Item ``b``'s model via :meth:`BatchedCPResult.model`.
    """
    if not tensors:
        raise ValueError("cp_als_fleet needs at least one tensor")
    if seeds is None:
        seeds = [None] * len(tensors)
    batch = BatchedTensor.from_tensors(list(tensors))
    stacked = stack_seeded_init(tensors, int(rank), seeds, init=init)
    return cp_als_batched(
        batch,
        int(rank),
        n_iter_max=n_iter_max,
        tol=tol,
        init=stacked,
        method=method,
        num_threads=num_threads,
        workspace=workspace,
        cancel=cancel,
    )
