"""Seeded differential oracle over the batched MTTKRP lanes.

Mirrors ``tests/test_oracle_differential.py`` for the fleet engine:
seeded random configurations across orders 2-5, float32/float64, fleet
sizes ``B in {1, 3, 17}``, 1-4 workers.  For every
configuration and mode it asserts

* every entry of :data:`repro.batch.mttkrp.BATCHED_MTTKRP_METHODS`
  is **bit-identical** to the
  ``"batched-loop"`` reference lane, and
* each batch item matches its own per-item ``mttkrp_baseline`` to the
  dtype-appropriate tolerance.

Each configuration derives from ``(MASTER_SEED, index)`` alone, so any
failure is replayable in isolation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from repro.batch import BatchedTensor, mttkrp_batched
from repro.batch.mttkrp import BATCHED_MTTKRP_METHODS
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.util import prod

MASTER_SEED = 20180224  # PPoPP'18
N_CONFIGS = int(os.environ.get("REPRO_ORACLE_BATCH_N", "48"))

_BATCH_SIZES = (1, 3, 17)


@dataclass(frozen=True)
class BatchOracleConfig:
    index: int
    shape: tuple[int, ...]
    rank: int
    batch: int
    dtype: str
    num_threads: int

    def __str__(self) -> str:
        return (
            f"#{self.index}: shape={self.shape} rank={self.rank} "
            f"B={self.batch} dtype={self.dtype} "
            f"threads={self.num_threads}"
        )


def draw_config(index: int) -> BatchOracleConfig:
    rng = np.random.default_rng([MASTER_SEED, index])
    order = int(rng.integers(2, 6))
    shape = tuple(int(rng.integers(1, 6)) for _ in range(order))
    rank = int(rng.integers(1, 7))
    batch = int(rng.choice(_BATCH_SIZES))
    dtype = str(rng.choice(["float32", "float64"]))
    num_threads = int(rng.integers(1, 5))
    return BatchOracleConfig(index, shape, rank, batch, dtype, num_threads)


def build_operands(cfg: BatchOracleConfig):
    """Reconstruct the operands for a config (deterministic in the seed)."""
    rng = np.random.default_rng([MASTER_SEED, cfg.index, 1])
    dt = np.dtype(cfg.dtype)
    flat = rng.standard_normal((cfg.batch, prod(cfg.shape))).astype(dt)
    factors = [
        rng.standard_normal((cfg.batch, s, cfg.rank)).astype(dt)
        for s in cfg.shape
    ]
    return BatchedTensor(flat, cfg.shape), factors


def tolerance(cfg: BatchOracleConfig, ref: np.ndarray, n: int) -> float:
    """Dtype-appropriate absolute tolerance (see the per-item oracle)."""
    eps = float(np.finfo(np.dtype(cfg.dtype)).eps)
    K = max(prod(cfg.shape) // max(cfg.shape[n], 1), 1) * cfg.rank
    magnitude = max(1.0, float(np.abs(ref).max()) if ref.size else 1.0)
    return 32.0 * eps * max(K, 4) * magnitude


def repro_snippet(cfg: BatchOracleConfig, method: str, mode: int) -> str:
    return (
        "# --- batched-oracle repro ---\n"
        "import numpy as np\n"
        "from tests.test_oracle_batch import build_operands, BatchOracleConfig\n"
        "from repro.batch import mttkrp_batched\n"
        f"cfg = BatchOracleConfig(index={cfg.index}, shape={cfg.shape}, "
        f"rank={cfg.rank}, batch={cfg.batch}, dtype={cfg.dtype!r}, "
        f"num_threads={cfg.num_threads})\n"
        "bt, U = build_operands(cfg)\n"
        f"ref = mttkrp_batched(bt, U, {mode}, method='batched-loop')\n"
        f"out = mttkrp_batched(bt, U, {mode}, method={method!r}, "
        f"num_threads={cfg.num_threads})\n"
        "print(np.abs(out - ref).max())\n"
    )


def check_config(cfg: BatchOracleConfig) -> None:
    bt, U = build_operands(cfg)
    for n in range(bt.ndim):
        # The stacked reference: the per-item loop lane at T=1.
        ref = mttkrp_batched(bt, U, n, method="batched-loop", num_threads=1)
        for method in BATCHED_MTTKRP_METHODS:
            out = mttkrp_batched(
                bt, U, n,
                method=method,
                num_threads=cfg.num_threads,
            )
            assert out.shape == ref.shape and out.dtype == ref.dtype, (
                f"{cfg} method={method!r} mode={n}: shape/dtype mismatch "
                f"({out.shape}/{out.dtype} vs {ref.shape}/{ref.dtype})\n"
                + repro_snippet(cfg, method, n)
            )
            if not np.array_equal(out, ref):
                err = float(np.abs(out - ref).max()) if ref.size else 0.0
                pytest.fail(
                    f"{cfg} method={method!r} mode={n}: not bit-identical "
                    f"to batched-loop, max |delta| = {err:.3e}\n"
                    f"replay seed: ({MASTER_SEED}, {cfg.index})\n"
                    + repro_snippet(cfg, method, n)
                )
        # Per-item agreement with the single-tensor baseline.
        for b in range(bt.batch):
            item_ref = mttkrp_baseline(
                bt.item(b), [f[b] for f in U], n, num_threads=1
            )
            tol = tolerance(cfg, item_ref, n)
            err = (
                float(np.abs(ref[b] - item_ref).max())
                if item_ref.size else 0.0
            )
            if not err <= tol:
                pytest.fail(
                    f"{cfg} item={b} mode={n}: max |delta| vs "
                    f"mttkrp_baseline = {err:.3e} > tol {tol:.3e}\n"
                    f"replay seed: ({MASTER_SEED}, {cfg.index})\n"
                    + repro_snippet(cfg, "batched", n)
                )


_BATCHES = 6  # keep per-test runtime visible without 48 tiny test items


@pytest.mark.parametrize("batch", range(_BATCHES))
def test_batched_differential_oracle(batch):
    for index in range(batch, N_CONFIGS, _BATCHES):
        check_config(draw_config(index))


def test_draws_cover_the_advertised_space():
    configs = [draw_config(i) for i in range(N_CONFIGS)]
    assert {len(c.shape) for c in configs} == {2, 3, 4, 5}
    assert {c.batch for c in configs} == set(_BATCH_SIZES)
    assert {c.dtype for c in configs} == {"float32", "float64"}
    assert {c.num_threads for c in configs} >= {1, 2}
    assert any(1 in c.shape for c in configs)
