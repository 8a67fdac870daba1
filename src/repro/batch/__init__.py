"""Batched small-tensor engine: fleet MTTKRP and CP-ALS.

Millions of users means millions of *small* same-shape tensors, where
per-call Python/dispatch overhead dominates any single-tensor kernel
win.  This package stacks a fleet into one contiguous buffer
(:class:`~repro.batch.tensor.BatchedTensor`), runs the mode-``n``
MTTKRP for the whole fleet through stacked GEMMs
(:func:`~repro.batch.mttkrp.mttkrp_batched`), and decomposes every item
simultaneously with batched ALS sweeps
(:func:`~repro.batch.cp_als.cp_als_batched`).  Ad-hoc groups of
independent jobs — each with its own tensor and seed — enter through
:func:`~repro.batch.fleet.cp_als_fleet`, which stacks them with
per-item seeded initialization (the entry the job service's coalescing
scheduler uses; see ``docs/serving.md``).  See ``docs/batching.md`` for
the formulation, the two MTTKRP lanes, and the arena layout.
"""

from repro.batch.cp_als import BatchedCPResult, cp_als_batched
from repro.batch.fleet import cp_als_fleet, stack_seeded_init
from repro.batch.mttkrp import (
    BATCHED_MTTKRP_METHODS,
    BatchPlan,
    choose_batch_chunk,
    mttkrp_batched,
    mttkrp_batched_loop,
    mttkrp_batched_stacked,
)
from repro.batch.tensor import BatchedTensor

__all__ = [
    "BATCHED_MTTKRP_METHODS",
    "BatchPlan",
    "BatchedCPResult",
    "BatchedTensor",
    "choose_batch_chunk",
    "cp_als_batched",
    "cp_als_fleet",
    "stack_seeded_init",
    "mttkrp_batched",
    "mttkrp_batched_loop",
    "mttkrp_batched_stacked",
]
