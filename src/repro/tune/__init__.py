"""Measured stacked-vs-loop lane choice for the batched MTTKRP engine.

:func:`~repro.tune.batched.autotune_batched` times the two lanes of
:mod:`repro.batch` (``"batched"`` and ``"batched-loop"``) for a
``(shape, rank, mode, threads, dtype, batch)`` key and persists the
winner in a JSON cache (``REPRO_TUNE_CACHE``), so every later call with
the same key pays nothing.  ``mttkrp_batched(method="autotune")``,
``cp_als_batched(tune=True)`` and the serve scheduler's
:func:`~repro.serve.scheduler.batching_pays` read these records.

Single-tensor MTTKRP has no tuner: ``mttkrp(method="auto")`` is the
paper's static Section 5.3.3 policy, and ``cp_als`` runs the dimension
tree by default (see ``docs/batching.md`` for the batched crossover).

Entry points:

* :func:`autotune_batched` — the library API;
* :class:`TuningCache` / :func:`get_cache` — the persistence layer.
"""

from repro.tune.batched import Candidate, autotune_batched
from repro.tune.cache import (
    TuneCacheWarning,
    TuneKey,
    TuneRecord,
    TuningCache,
    default_cache_path,
    get_cache,
    reset_cache,
)

__all__ = [
    "Candidate",
    "TuneCacheWarning",
    "TuneKey",
    "TuneRecord",
    "TuningCache",
    "autotune_batched",
    "default_cache_path",
    "get_cache",
    "reset_cache",
]
