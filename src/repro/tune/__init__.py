"""Empirical MTTKRP autotuning with a persisted decision cache.

``repro.tune`` replaces the paper's static Section 5.3.3 kernel policy
with measurement: for a ``(shape, rank, mode, threads, dtype)``
configuration it microbenchmarks the real kernel candidates (1-step,
2-step in both orderings, the dimension-tree node path, the baseline),
persists the winner in a JSON cache (``REPRO_TUNE_CACHE``), and serves
every later call from the cache at zero measurement cost.  The analytic
machine model (:mod:`repro.machine`) seeds the search order and prunes
dominated candidates, so the model remains a prior while the decision is
empirical.

Entry points:

* :func:`autotune` — the library API (used by
  ``mttkrp(method="autotune")`` and ``cp_als(tune=True)``);
* ``python -m repro.tune`` / ``repro-tune`` — the CLI;
* :class:`TuningCache` / :func:`get_cache` — the persistence layer.

See ``docs/autotune.md``.
"""

from repro.tune.cache import (
    TuneCacheWarning,
    TuneKey,
    TuneRecord,
    TuningCache,
    default_cache_path,
    get_cache,
    reset_cache,
)
from repro.tune.tuner import (
    Candidate,
    autotune,
    candidate_set,
    is_degenerate,
    proxy_operands,
)

__all__ = [
    "Candidate",
    "TuneCacheWarning",
    "TuneKey",
    "TuneRecord",
    "TuningCache",
    "autotune",
    "candidate_set",
    "default_cache_path",
    "get_cache",
    "is_degenerate",
    "proxy_operands",
    "reset_cache",
]
