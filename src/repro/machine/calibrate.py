"""Fit a :class:`~repro.machine.model.MachineModel` to the host machine.

Three microbenchmarks, all taking well under a second at default sizes:

* STREAM scale (read + write of a large array) -> ``bw_single_gbs`` (and,
  with multiple threads available, the saturated bandwidth);
* large square DGEMM -> ``peak_gflops_per_core * gemm_efficiency``
  (reported as achieved GFLOP/s; the split between the two factors is set
  by assuming the nominal efficiency);
* skinny DGEMM with 25 columns -> validates the narrow-panel penalty term.

The calibrated model lets the prediction machinery produce *host-scale*
figures next to the paper-machine figures, and the test-suite uses it to
check that model predictions land within a loose factor of measured times
for the kernels above (a sanity check on the model form, not a promise of
cycle accuracy).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.machine.model import MachineModel

__all__ = [
    "calibrate_host_model",
    "measure_stream_bandwidth",
    "measure_gemm_gflops",
    "detect_cache_bytes",
]


def detect_cache_bytes(default: float = float(8 << 20)) -> float:
    """Last-level cache capacity in bytes, read from sysfs where available.

    Scans ``/sys/devices/system/cpu/cpu0/cache/index*`` for the largest
    unified/data cache level (Linux); any failure — other platforms,
    containers that mask sysfs — falls back to ``default`` (a conservative
    8 MiB).  Feeds :attr:`~repro.machine.model.MachineModel.cache_bytes`,
    which the batched engine uses for chunk sizing.
    """
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0.0
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            try:
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
                if kind not in ("Unified", "Data"):
                    continue
                with open(os.path.join(base, entry, "size")) as fh:
                    text = fh.read().strip()
            except OSError:
                continue
            scale = 1
            if text.endswith("K"):
                scale, text = 1024, text[:-1]
            elif text.endswith("M"):
                scale, text = 1024 * 1024, text[:-1]
            best = max(best, float(int(text) * scale))
    except OSError:
        pass
    return best if best > 0 else float(default)


def _best_of(fn, repeats: int = 3) -> float:
    """Minimum wall time of ``repeats`` runs (standard microbench practice)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_stream_bandwidth(entries: int = 8_000_000, repeats: int = 3) -> float:
    """Measured scale-kernel bandwidth in GB/s (read + write traffic)."""
    entries = int(entries)
    if entries <= 0:
        raise ValueError("entries must be positive")
    src = np.ones(entries)
    dst = np.empty(entries)

    def kernel() -> None:
        np.multiply(src, 1.000001, out=dst)

    seconds = _best_of(kernel, repeats)
    return (2 * entries * 8) / seconds / 1e9


def measure_gemm_gflops(
    m: int = 768, n: int = 768, k: int = 768, repeats: int = 3
) -> float:
    """Measured DGEMM rate in GFLOP/s for an ``m x k . k x n`` multiply."""
    rng = np.random.default_rng(0)
    A = rng.random((m, k))
    B = rng.random((k, n))
    out = np.empty((m, n), order="C")

    def kernel() -> None:
        np.matmul(A, B, out=out)

    seconds = _best_of(kernel, repeats)
    return (2.0 * m * n * k) / seconds / 1e9


def calibrate_host_model(
    stream_entries: int = 8_000_000,
    gemm_size: int = 768,
    assumed_gemm_efficiency: float = 0.85,
) -> MachineModel:
    """Measure the host and return a fitted :class:`MachineModel`.

    Notes
    -----
    On a single-core container the bandwidth curve is flat
    (``bw_max == bw_single``); on multi-core hosts we assume the common
    ~6-8x saturation ratio unless the host exposes enough cores to measure
    it (kept simple here: ``bw_max = bw_single * min(cores, 8) * 0.8``).
    """
    cores = os.cpu_count() or 1
    bw1 = measure_stream_bandwidth(stream_entries)
    gflops = measure_gemm_gflops(gemm_size, gemm_size, gemm_size)
    peak_per_core = gflops / assumed_gemm_efficiency
    if cores == 1:
        bw_max = bw1
    else:
        bw_max = bw1 * min(cores, 8) * 0.8
    return MachineModel(
        name=f"host ({cores} cores, calibrated)",
        cores=cores,
        peak_gflops_per_core=peak_per_core,
        gemm_efficiency=assumed_gemm_efficiency,
        bw_single_gbs=bw1,
        bw_max_gbs=bw_max,
        cache_bytes=detect_cache_bytes(),
    )
