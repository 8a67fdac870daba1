"""Seeded randomized differential oracle over every MTTKRP entry point.

Draws ``REPRO_ORACLE_N`` (default 200) random configurations — order 2-5,
ragged dimensions including 1-sized modes, ranks 1-8, float32/float64,
C/F-contiguous and strided operands, 1-4 workers — and asserts that
**every** public ``MTTKRP_METHODS`` entry matches ``mttkrp_baseline``
to a dtype-appropriate tolerance.

Each configuration is derived from ``(MASTER_SEED, index)`` alone, so a
failure is replayable in isolation: the assertion message prints the
config and a ready-to-paste snippet that reconstructs the exact operands
and the failing call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.dispatch import MTTKRP_METHODS, mttkrp
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.tensor.dense import DenseTensor
from repro.util import prod

pytestmark = pytest.mark.tune

MASTER_SEED = 20180224  # PPoPP'18
N_CONFIGS = int(os.environ.get("REPRO_ORACLE_N", "200"))


@dataclass(frozen=True)
class OracleConfig:
    index: int
    shape: tuple[int, ...]
    rank: int
    dtype: str
    layout: str  # "C" | "F" | "strided"
    num_threads: int

    def __str__(self) -> str:
        return (
            f"#{self.index}: shape={self.shape} rank={self.rank} "
            f"dtype={self.dtype} layout={self.layout} "
            f"threads={self.num_threads}"
        )


def draw_config(index: int) -> OracleConfig:
    rng = np.random.default_rng([MASTER_SEED, index])
    order = int(rng.integers(2, 6))
    shape = tuple(int(rng.integers(1, 7)) for _ in range(order))
    rank = int(rng.integers(1, 9))
    dtype = str(rng.choice(["float32", "float64"]))
    layout = str(rng.choice(["C", "F", "strided"]))
    num_threads = int(rng.integers(1, 5))
    return OracleConfig(index, shape, rank, dtype, layout, num_threads)


def build_operands(cfg: OracleConfig) -> tuple[DenseTensor, list[np.ndarray]]:
    """Reconstruct the operands for a config (deterministic in the seed)."""
    rng = np.random.default_rng([MASTER_SEED, cfg.index, 1])
    dt = np.dtype(cfg.dtype)
    arr = rng.standard_normal(cfg.shape).astype(dt)
    factors = [
        rng.standard_normal((s, cfg.rank)).astype(dt) for s in cfg.shape
    ]
    if cfg.layout == "F":
        arr = np.asfortranarray(arr)
        factors = [np.asfortranarray(f) for f in factors]
    elif cfg.layout == "strided":
        # Non-contiguous views: rows of a twice-taller parent, every 2nd.
        factors = [
            np.repeat(f, 2, axis=0)[::2] for f in factors
        ]
        for f in factors:
            assert not f.flags["C_CONTIGUOUS"] or f.shape[0] <= 1
    return DenseTensor(arr), factors


def tolerance(cfg: OracleConfig, ref: np.ndarray, n: int) -> float:
    """Dtype-appropriate absolute tolerance.

    The methods differ only in summation order over the ``K``-term
    contraction (``K`` = other-modes volume times rank), so the gap is
    bounded by ``O(K * eps * magnitude)``; genuine algorithmic bugs are
    ``O(magnitude)`` and clear this by orders of magnitude either way.
    """
    eps = float(np.finfo(np.dtype(cfg.dtype)).eps)
    K = max(prod(cfg.shape) // max(cfg.shape[n], 1), 1) * cfg.rank
    magnitude = max(1.0, float(np.abs(ref).max()) if ref.size else 1.0)
    return 32.0 * eps * max(K, 4) * magnitude


def repro_snippet(cfg: OracleConfig, method: str, mode: int) -> str:
    """Ready-to-paste reproduction of one failing (config, method, mode)."""
    return (
        "# --- differential-oracle repro ---\n"
        "import numpy as np\n"
        "from tests.test_oracle_differential import build_operands, OracleConfig\n"
        "from repro.core.dispatch import mttkrp\n"
        "from repro.core.mttkrp_baseline import mttkrp_baseline\n"
        f"cfg = OracleConfig(index={cfg.index}, shape={cfg.shape}, "
        f"rank={cfg.rank}, dtype={cfg.dtype!r}, layout={cfg.layout!r}, "
        f"num_threads={cfg.num_threads})\n"
        "X, U = build_operands(cfg)\n"
        f"ref = mttkrp_baseline(X, U, {mode}, num_threads={cfg.num_threads})\n"
        f"out = mttkrp(X, U, {mode}, method={method!r}, "
        f"num_threads={cfg.num_threads})\n"
        "print(np.abs(out - ref).max())\n"
    )


def check_config(cfg: OracleConfig) -> None:
    X, U = build_operands(cfg)
    for n in range(X.ndim):
        ref = mttkrp_baseline(X, U, n, num_threads=cfg.num_threads)
        tol = tolerance(cfg, ref, n)
        for method in MTTKRP_METHODS:
            out = mttkrp(
                X, U, n,
                method=method,
                num_threads=cfg.num_threads,
            )
            assert out.shape == ref.shape and out.dtype == ref.dtype, (
                f"{cfg} method={method!r} mode={n}: shape/dtype mismatch "
                f"({out.shape}/{out.dtype} vs {ref.shape}/{ref.dtype})\n"
                + repro_snippet(cfg, method, n)
            )
            err = float(np.abs(out - ref).max()) if ref.size else 0.0
            if not err <= tol:
                pytest.fail(
                    f"{cfg} method={method!r} mode={n}: max |delta| = "
                    f"{err:.3e} > tol {tol:.3e}\nreplay seed: "
                    f"({MASTER_SEED}, {cfg.index})\n"
                    + repro_snippet(cfg, method, n)
                )


_BATCHES = 8  # keep per-test runtime visible without 200 tiny test items


@pytest.mark.parametrize("batch", range(_BATCHES))
def test_differential_oracle(batch):
    for index in range(batch, N_CONFIGS, _BATCHES):
        check_config(draw_config(index))


def test_draws_cover_the_advertised_space():
    """The generator must actually hit every axis of the config space."""
    configs = [draw_config(i) for i in range(N_CONFIGS)]
    assert {len(c.shape) for c in configs} == {2, 3, 4, 5}
    assert any(1 in c.shape for c in configs)
    assert {c.dtype for c in configs} == {"float32", "float64"}
    assert {c.layout for c in configs} == {"C", "F", "strided"}
    assert {c.num_threads for c in configs} >= {1, 2}
    assert {c.rank for c in configs} >= {1, 8}
    assert N_CONFIGS >= 200 or "REPRO_ORACLE_N" in os.environ

