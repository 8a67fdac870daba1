"""Empirical kernel selection: measure the candidates, cache the winner.

The paper's Section 5.3.3 policy ("1-step for external modes, 2-step for
internal modes") is a static heuristic derived from one machine.  The
tunable rows of the kernel table (:data:`repro.core.dispatch.KERNELS`) —
1-step, 2-step (two orderings), the dimension-tree node path and the
baseline — have crossover points that move with shape, rank, thread
count, backend and dtype.  :func:`autotune` settles the
question the honest way: run each plausible candidate on the real
operands (or a shape-faithful proxy when the tensor is large), take the
best of a few repeats, and record the winner in the persisted
:class:`~repro.tune.cache.TuningCache` so every later call with the same
:class:`~repro.tune.cache.TuneKey` pays nothing.

The analytic machine model (each row's ``prior`` algorithm, scored by
:func:`repro.machine.predict.predict_algorithm_time`) acts as a
**prior**, not an oracle: it orders the candidates so the
plausible ones are measured first, and prunes candidates it predicts to be
worse than ``prune_ratio`` times the predicted best — those cannot
plausibly win even with generous model error, so measuring them is wasted
time.  At least two candidates always survive pruning (a prior that
confident should still be checked against one rival).

Degenerate configurations are decided without measurement: on a 2-way
tensor every method collapses to the same single GEMM (the paper's
observation that the 2-step algorithm degenerates for external modes,
taken to its endpoint), so the tuner records ``"onestep"`` with
``source="degenerate"`` and runs nothing.

Observability: every microbenchmark run is a ``tune.measure`` span (with
``candidate`` and ``seconds`` args) and bumps the ``tune.measure``
counter; cache consultations bump ``tune.cache_hit`` / ``tune.cache_miss``
(and ``tune.cache_stale`` when a persisted record no longer names an
eligible candidate and is re-measured instead of replayed).
Tests assert "second invocation measures nothing" directly on these
counters.
"""

from __future__ import annotations

import threading
import warnings
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.dispatch import KERNELS
from repro.machine.model import MachineModel, host_model_default
from repro.machine.predict import predict_algorithm_time
from repro.obs import get_tracer
from repro.parallel.config import resolve_backend, resolve_threads, use_backend
from repro.tensor.dense import DenseTensor
from repro.tune.cache import (
    TuneCacheWarning,
    TuneKey,
    TuneRecord,
    TuningCache,
    get_cache,
)
from repro.util import prod
from repro.util.timing import wall_time
from repro.util.validation import check_factor_matrices, check_mode

__all__ = [
    "Candidate",
    "autotune",
    "candidate_set",
    "is_degenerate",
    "proxy_operands",
]

# Largest tensor the tuner will measure on directly; beyond this a
# volumetrically scaled proxy of the same order/aspect/dtype is timed
# instead (absolute kernel ranking is shape-ratio driven, not size driven,
# the same argument DESIGN.md makes for the reduced-scale benchmarks).
_PROXY_ENTRY_LIMIT = 4_000_000


@dataclass(frozen=True)
class Candidate:
    """One runnable kernel configuration the tuner can measure."""

    label: str
    method: str
    kwargs: tuple = ()

    def kwargs_dict(self) -> dict:
        return dict(self.kwargs)


def is_degenerate(shape: Sequence[int]) -> bool:
    """Whether every candidate collapses to one GEMM (nothing to measure).

    True for 2-way tensors: the matricization is the matrix itself and
    the "KRP" is the single other factor, so 1-step, 2-step, baseline and
    the node path all perform the identical GEMM.
    """
    return len(tuple(shape)) <= 2


def candidate_set(shape: Sequence[int], n: int) -> list[Candidate]:
    """The runnable candidates for mode ``n`` of ``shape``.

    The tunable, eligible rows of :data:`~repro.core.dispatch.KERNELS`,
    one candidate per variant.  External modes therefore exclude the
    2-step orderings (the 2-step algorithm degenerates to the 1-step
    there — measuring it twice under different names would only add
    noise).
    """
    shape = tuple(int(s) for s in shape)
    n = check_mode(n, len(shape))
    if is_degenerate(shape):
        return [Candidate("onestep", "onestep")]
    return [
        Candidate(label, spec.name, tuple(kwargs.items()))
        for spec in KERNELS.values()
        if spec.tunable and spec.eligible(shape, n)
        for label, kwargs in spec.labels()
    ]


# Cache keys whose stale-record warning has already been emitted (one
# warning per key per process keeps replay logs readable while still
# flagging every distinct stale entry).
_stale_warned: set[str] = set()
_stale_lock = threading.Lock()


def _cached_record_eligible(
    record: TuneRecord, shape: Sequence[int], n: int
) -> bool:
    """Whether a persisted decision still names a runnable candidate.

    Cache files outlive code: an entry written by an older (or newer)
    version of this package may name a method that no longer exists, or a
    2-step ordering for a key whose mode is external in the current
    candidate set.  Replaying such a record verbatim would make
    ``mttkrp(method="autotune")`` *fail* on a configuration it could
    perfectly well compute — the cache must never be load-bearing for
    correctness, so ineligible records are treated as misses.
    """
    return record.label in {c.label for c in candidate_set(shape, n)}


def run_candidate(
    candidate: Candidate,
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    workspace=None,
) -> np.ndarray:
    """Execute one candidate on the given operands (no timing)."""
    spec = KERNELS[candidate.method]
    kwargs = candidate.kwargs_dict()
    if "workspace" in spec.env_kwargs:
        kwargs["workspace"] = workspace
        kwargs["slot"] = f"tune.{spec.name}"
    return spec.run(tensor, list(factors), n, num_threads=num_threads, **kwargs)


def proxy_operands(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    entry_limit: int = _PROXY_ENTRY_LIMIT,
) -> tuple[DenseTensor, list[np.ndarray]]:
    """Shape-faithful measurement operands.

    Returns the real operands unchanged when the tensor fits under
    ``entry_limit`` entries; otherwise a volumetrically scaled proxy with
    the same order, dtype and per-mode aspect ratios (every dimension is
    shrunk by the same factor, floored at 1), filled with deterministic
    pseudo-random data.  Kernel *ranking* depends on shape ratios and
    rank, not absolute size, so the proxy preserves the decision while
    bounding measurement cost.
    """
    size = tensor.size
    if size <= entry_limit:
        return tensor, list(factors)
    scale = (entry_limit / float(size)) ** (1.0 / tensor.ndim)
    shape = tuple(max(int(round(s * scale)), 1) for s in tensor.shape)
    rank = int(np.asarray(factors[0]).shape[1])
    rng = np.random.default_rng(2018)
    data = rng.standard_normal(prod(shape)).astype(tensor.dtype, copy=False)
    proxy = DenseTensor(data, shape)
    proxy_factors = [
        rng.standard_normal((s, rank)).astype(
            np.asarray(factors[k]).dtype, copy=False
        )
        for k, s in enumerate(shape)
    ]
    return proxy, proxy_factors


def _measure(
    candidate: Candidate,
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int,
    repeats: int,
    workspace,
) -> float:
    """Best-of-``repeats`` seconds for one candidate (plus one warm-up)."""
    tracer = get_tracer()
    best = float("inf")
    for rep in range(repeats + 1):
        with tracer.span(
            "tune.measure", candidate=candidate.label, mode=n, warmup=rep == 0
        ) as span:
            t0 = wall_time()
            run_candidate(
                candidate, tensor, factors, n,
                num_threads=num_threads, workspace=workspace,
            )
            elapsed = wall_time() - t0
            span.args["seconds"] = elapsed
        tracer.add_counter("tune.measure", 1)
        if rep > 0:  # the warm-up run absorbs pool/buffer start-up costs
            best = min(best, elapsed)
    return best


def _prior_order(
    candidates: list[Candidate],
    shape: tuple[int, ...],
    rank: int,
    threads: int,
    model: MachineModel,
    n: int,
    prune_ratio: float,
) -> list[Candidate]:
    """Sort candidates by predicted time; drop the hopeless tail.

    Unpredicted candidates sort last but are never pruned (the model
    cannot dominate what it cannot score); at least two candidates always
    survive.
    """
    if model.cores < threads:
        model = model.with_cores(threads)
    try:
        prior = {
            c.label: predict_algorithm_time(
                model, shape, n, rank, threads, KERNELS[c.method].prior,
                **c.kwargs_dict(),
            )[0]
            for c in candidates
            if KERNELS[c.method].prior is not None
        }
    except (ValueError, KeyError):
        return candidates
    scored = sorted(
        candidates,
        key=lambda c: prior.get(c.label, float("inf")),
    )
    finite = [prior[c.label] for c in scored if c.label in prior]
    if not finite:
        return scored
    cutoff = min(finite) * prune_ratio
    kept = [
        c for c in scored
        if c.label not in prior or prior[c.label] <= cutoff
    ]
    return kept if len(kept) >= 2 else scored[:2]


def autotune(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    backend: str | None = None,
    cache: TuningCache | None = None,
    repeats: int = 2,
    model: MachineModel | None = None,
    prune_ratio: float = 10.0,
    workspace=None,
    force: bool = False,
) -> TuneRecord:
    """Pick the fastest MTTKRP kernel for this configuration.

    Consults the tuning cache first (``tune.cache_hit``); on a miss
    (``tune.cache_miss``) microbenchmarks the surviving candidates in
    model-predicted order and persists the winner.  Returns the
    :class:`~repro.tune.cache.TuneRecord`; the caller runs the recorded
    method on the real operands, so the returned *result* is bit-identical
    to calling that kernel directly.

    Parameters
    ----------
    tensor, factors, n:
        The MTTKRP operands the decision is for.
    num_threads, backend:
        Execution configuration; both are part of the cache key.
        Defaults resolve against the package-wide settings.
    cache:
        Explicit :class:`~repro.tune.cache.TuningCache`; defaults to the
        shared cache for ``REPRO_TUNE_CACHE``.
    repeats:
        Timed repetitions per candidate (best-of); one additional
        warm-up run is not timed.
    model:
        Machine model for the prior; defaults to
        :func:`repro.machine.model.host_model_default`.
    prune_ratio:
        Candidates predicted slower than ``prune_ratio`` times the
        predicted best are not measured.
    workspace:
        Optional :class:`~repro.parallel.workspace.Workspace` the
        measurement runs draw scratch from (the dimension-tree candidate
        allocates node buffers).  Callers that tune ahead of a long run
        (``cp_als(tune=True)``) pass their arena and release the
        ``"tune"``-prefixed slots afterwards.
    force:
        Re-measure even on a cache hit (the CLI's ``--force``).
    """
    n = check_mode(n, tensor.ndim)
    rank = check_factor_matrices(list(factors), tensor.shape)
    threads = resolve_threads(num_threads)
    backend_name = resolve_backend(backend)
    dtype = np.result_type(tensor.dtype, *[np.asarray(f).dtype for f in factors])
    key = TuneKey.make(tensor.shape, rank, n, threads, backend_name, dtype)
    store = cache if cache is not None else get_cache()
    tracer = get_tracer()

    if not force:
        record = store.get(key)
        if record is not None:
            if _cached_record_eligible(record, tensor.shape, n):
                tracer.add_counter("tune.cache_hit", 1)
                return record
            # Stale persisted decision (e.g. written by a different
            # package version): fall through to re-measurement, which
            # overwrites the entry.  Warn once per key per process.
            tracer.add_counter("tune.cache_stale", 1)
            key_str = key.to_str()
            with _stale_lock:
                first = key_str not in _stale_warned
                _stale_warned.add(key_str)
            if first:
                warnings.warn(
                    f"stale tuning-cache entry for {key_str}: recorded "
                    f"method {record.label!r} is not an eligible "
                    f"candidate for this configuration; re-measuring",
                    TuneCacheWarning,
                    stacklevel=2,
                )

    if is_degenerate(tensor.shape):
        # Order 2: every kernel is the same single GEMM — nothing to
        # measure, nothing to warn about.
        record = TuneRecord(method="onestep", source="degenerate")
        store.put(key, record)
        return record

    tracer.add_counter("tune.cache_miss", 1)
    candidates = _prior_order(
        candidate_set(tensor.shape, n),
        tuple(tensor.shape),
        rank,
        threads,
        model if model is not None else host_model_default(),
        n,
        prune_ratio,
    )
    bench_tensor, bench_factors = proxy_operands(tensor, factors)
    times: dict[str, float] = {}
    scope = use_backend(backend) if backend is not None else nullcontext()
    with scope, tracer.span(
        "tune", mode=n, shape=list(tensor.shape), rank=rank,
        threads=threads, backend=backend_name,
    ):
        for candidate in candidates:
            times[candidate.label] = _measure(
                candidate, bench_tensor, bench_factors, n,
                threads, repeats, workspace,
            )
    winner = min(candidates, key=lambda c: times[c.label])
    source = "measured" if len(candidates) > 1 else "prior"
    record = TuneRecord(
        method=winner.method,
        kwargs=winner.kwargs_dict(),
        times=times,
        source=source,
    )
    store.put(key, record)
    return record
