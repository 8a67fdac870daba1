"""Benchmark registry: name → spec + runner, one way to run any subset.

The ``FIGURES``-registry pattern applied to this repo's whole benchmark
surface: every measurable experiment — the paper figures (fig4–fig8), the
dimension-tree comparison, the batched engine, the parallel-runtime
overheads, the design ablations — registers a :class:`BenchSpec` here, so

* ``repro-bench list`` enumerates them with tags and descriptions,
* ``repro-bench run <name> --scale ...`` executes any subset, and
* every runner returns the **same normalized schema records**
  (:mod:`repro.bench.schema`), ready for ``results/`` history and the
  :mod:`repro.bench.trend` regression tracker.

Specs are registered by :mod:`repro.bench.suites` at import time;
:func:`get_spec` / :func:`run_benchmark` trigger that import lazily so
importing this module stays cheap.

Runner contract
---------------
``runner(scale, threads, repeats, rng) -> list[record]`` where ``scale``
is a volumetric fraction of the paper workload (same semantics as the
figure drivers), ``threads`` a tuple of thread counts, and each record
validates against :func:`repro.bench.schema.validate_record`.  The
:func:`measure_case` helper implements the standard shape: time the
kernel untraced, then run one instrumented repetition under
:func:`repro.obs.capture` to attach FLOP/byte/imbalance counters.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import repro.obs as obs
from repro.bench.env import source_lines
from repro.bench.schema import new_record, timing_from_stats, validate_record
from repro.bench.timing import time_samples

__all__ = [
    "BenchSpec",
    "register",
    "get_spec",
    "list_specs",
    "benchmark_names",
    "run_benchmark",
    "measure_case",
]


@dataclass(frozen=True)
class BenchSpec:
    """One registered benchmark: identity, defaults and runner."""

    name: str
    title: str
    runner: Callable[..., list[dict]]
    tags: tuple[str, ...] = ()
    default_scale: float = 0.002
    default_repeats: int = 3


_REGISTRY: dict[str, BenchSpec] = {}
_suites_loaded = False


def register(
    name: str,
    *,
    title: str,
    tags: Sequence[str] = (),
    default_scale: float = 0.002,
    default_repeats: int = 3,
) -> Callable[[Callable], Callable]:
    """Decorator registering a runner under ``name``.

    >>> @register("demo", title="example")            # doctest: +SKIP
    ... def _run(scale, threads, repeats, rng): ...
    """

    def decorate(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"benchmark {name!r} already registered")
        _REGISTRY[name] = BenchSpec(
            name=name,
            title=title,
            runner=fn,
            tags=tuple(tags),
            default_scale=default_scale,
            default_repeats=default_repeats,
        )
        return fn

    return decorate


def _load_suites() -> None:
    global _suites_loaded
    if not _suites_loaded:
        _suites_loaded = True
        import repro.bench.suites  # noqa: F401  (registers specs)


def benchmark_names() -> list[str]:
    """Sorted names of every registered benchmark."""
    _load_suites()
    return sorted(_REGISTRY)


def list_specs(tag: str | None = None) -> list[BenchSpec]:
    """All specs, optionally filtered to one tag."""
    _load_suites()
    specs = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if tag is not None:
        specs = [s for s in specs if tag in s.tags]
    return specs


def get_spec(name: str) -> BenchSpec:
    """Lookup one spec; unknown names list what is available."""
    _load_suites()
    try:
        return _REGISTRY[name]
    except KeyError:
        available = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown benchmark {name!r}; available: {available}"
        ) from None


def run_benchmark(
    name: str,
    *,
    scale: float | None = None,
    threads: Sequence[int] = (1, 2),
    repeats: int | None = None,
    rng: int = 0,
) -> list[dict]:
    """Run one registered benchmark; returns its normalized records.

    Every record gets the shared run context (source, scale, threads,
    repeats, rng, and ``src_lines``, the package's Python line count)
    merged into ``context`` and is schema-validated before
    being returned — a runner that produces a malformed record fails
    here, not at trend time.
    """
    spec = get_spec(name)
    scale = spec.default_scale if scale is None else float(scale)
    repeats = spec.default_repeats if repeats is None else int(repeats)
    threads = tuple(int(t) for t in threads)
    records = spec.runner(scale=scale, threads=threads, repeats=repeats, rng=rng)
    context = {
        "source": "repro-bench",
        "scale": scale,
        "threads": list(threads),
        "repeats": repeats,
        "rng": rng,
        "src_lines": source_lines(),
    }
    for record in records:
        if record.get("benchmark") != name:
            raise ValueError(
                f"runner for {name!r} produced a record labelled "
                f"{record.get('benchmark')!r}"
            )
        record["context"] = {**context, **record.get("context", {})}
        validate_record(record)
    return records


def measure_case(
    benchmark: str,
    case: str,
    fn: Callable[[], object],
    *,
    params: dict | None = None,
    repeats: int = 3,
    warmup: int = 1,
    capture_counters: bool = True,
) -> dict:
    """Measure ``fn`` into one normalized record.

    Timed repetitions run untraced; one extra instrumented repetition
    under :func:`repro.obs.capture` supplies the obs counters and the
    phase breakdown (:func:`repro.obs.phase_totals`, stored as
    ``phases`` when the kernel records any), so instrumentation overhead
    never contaminates the timing statistics.
    """
    samples = time_samples(fn, repeats=repeats, warmup=warmup)
    counters: dict[str, float] = {}
    phases: dict[str, float] = {}
    if capture_counters:
        with obs.capture() as tracer:
            fn()
        counters = obs.counters_snapshot(tracer)
        phases = obs.phase_totals(tracer)
    return new_record(
        benchmark,
        case,
        timing=timing_from_stats(samples),
        params=params,
        counters=counters,
        phases=phases,
    )
