"""Seeded benchmark inputs, made with numpy alone.

The program under test only ever receives what this module returns:
natural-layout tensor buffers (mode 0 fastest, the layout
``repro.tensor.DenseTensor`` stores), initial factor matrices and job
seeds.  Nothing here imports ``repro``: :mod:`benchmark.run` generates a
workload's inputs once, saves them, and every child process loads them,
so a set-up probe starts its clock on ``import repro`` with its inputs
already in memory.
"""

from __future__ import annotations

import numpy as np

__all__ = ["planted", "job_seed", "poisson_arrivals", "save", "load"]

#: Noise is added in chunks of this many entries, so generating the
#: 41M-entry dense workload tensor never holds a second full-size array.
_NOISE_CHUNK = 1 << 22


def _krp(mats: list[np.ndarray]) -> np.ndarray:
    """Row-wise Khatri-Rao product with the first matrix's row index fastest."""
    out = mats[0]
    for m in mats[1:]:
        out = (m[:, None, :] * out[None, :, :]).reshape(-1, out.shape[1])
    return out


def planted(shape: tuple[int, ...], rank: int, rng: np.random.Generator,
            snr_db: float = 20.0) -> np.ndarray:
    """A rank-``rank`` CP tensor plus Gaussian noise, as a flat natural-layout buffer.

    The signal is ``sum_c a0_c o a1_c o ...`` with standard normal
    factors; the noise level puts the signal-to-noise ratio of the norms
    at ``snr_db`` (20 dB: noise norm = 10% of signal norm).  The flat
    buffer is ``L @ R^T`` over the two halves of the modes, laid out so
    that entry ``(i_0, ..., i_{N-1})`` sits at ``sum_n i_n prod_{k<n} I_k``.
    """
    factors = [rng.standard_normal((s, rank)) for s in shape]
    half = max(1, len(shape) // 2)
    flat = (_krp(factors[half:]) @ _krp(factors[:half]).T).reshape(-1)
    sigma = np.linalg.norm(flat) / (10.0 ** (snr_db / 20.0) * np.sqrt(flat.size))
    for lo in range(0, flat.size, _NOISE_CHUNK):
        chunk = flat[lo:lo + _NOISE_CHUNK]
        chunk += sigma * rng.standard_normal(chunk.size)
    return flat


def job_seed(seed: int, j: int) -> int:
    """The CP-ALS initialization seed of job ``j`` in a run seeded ``seed``."""
    return seed * 1_000_000 + j


def poisson_arrivals(rate: float, duration: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Send offsets in ``[0, duration)`` seconds of a Poisson process at ``rate``/s."""
    count = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, count))
    return offsets[offsets < duration]


def save(path, tensors: list[np.ndarray], init: list[np.ndarray]) -> None:
    """Write a workload's tensors and initial factors to one ``.npz`` file."""
    np.savez(path, **{f"t{k}": t for k, t in enumerate(tensors)},
             **{f"u{n}": u for n, u in enumerate(init)})


def load(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The ``(tensors, init)`` pair :func:`save` wrote."""
    with np.load(path) as z:
        count = {p: sum(1 for f in z.files if f.startswith(p)) for p in "tu"}
        return ([z[f"t{k}"] for k in range(count["t"])],
                [z[f"u{n}"] for n in range(count["u"])])
